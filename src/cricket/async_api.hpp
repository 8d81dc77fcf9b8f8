// AsyncRemoteCudaApi: the pipelined Cricket client (rpcflow-backed).
//
// The synchronous RemoteCudaApi pays one wire round trip per forwarded CUDA
// call, reproducing the paper's single-threaded RPC bottleneck (§4.2). This
// client keeps the identical CudaApi surface but exploits that most CUDA
// calls are fire-and-forget by contract — kernel launches, async copies,
// event records — to pipeline them through an AsyncRpcChannel: the call is
// put on the wire (or into the small-call batcher) and control returns to
// the application immediately; errors surface at the next synchronization
// point as a sticky error, exactly as real CUDA reports asynchronous
// failures. Calls that return values (cudaMalloc, D2H copies, queries)
// still block for their own reply. The Cricket server executes each
// session's calls in order (ServeOptions workers = 1), so results are
// bit-identical to the synchronous client's.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>

#include "cudart/api.hpp"
#include "env/environment.hpp"
#include "rpcflow/channel.hpp"
#include "sim/sim_clock.hpp"

namespace cricket::core {

struct AsyncClientConfig {
  /// Same client-library cost accounting as the synchronous client.
  env::ClientFlavor flavor = {};
  /// Pipeline depth / batching, typically from env::Environment::pipeline.
  env::PipelineConfig pipeline = {.enabled = true};
  /// Tenant identity presented to a multi-tenant server (AUTH_SYS
  /// machinename); empty = anonymous.
  std::string tenant{};
  /// AUTH_SYS stamp distinguishing this client from other clients of the
  /// same tenant (the duplicate-request cache and migration adoption key on
  /// the credential hash). 0 = auto-assign a process-unique value.
  std::uint32_t auth_stamp = 0;
  /// Per-call deadlines + channel resubmission; same semantics as the
  /// synchronous ClientConfig::retry.
  rpc::RetryPolicy retry{};
  /// Fresh transport after a connection-level failure or a migration
  /// redirect (point it at a migrate::RedirectingConnector to follow a
  /// live-migrated tenant to its new server).
  std::function<std::unique_ptr<rpc::Transport>()> reconnect{};
  /// Two-phase module-load negotiation against the server's
  /// content-addressed cache; same semantics as ClientConfig::module_cache
  /// (a miss transparently falls back to the full upload).
  bool module_cache = false;
};

struct AsyncClientStats {
  std::uint64_t api_calls = 0;
  std::uint64_t pipelined = 0;   // fire-and-forget calls
  std::uint64_t blocking = 0;    // calls that waited for their reply
  std::uint64_t drains = 0;      // synchronization points
  std::uint64_t bytes_to_device = 0;
  std::uint64_t bytes_from_device = 0;
};

class AsyncRemoteCudaApi final : public cuda::CudaApi {
 public:
  AsyncRemoteCudaApi(std::unique_ptr<rpc::Transport> transport,
                     sim::SimClock& clock, AsyncClientConfig config = {});
  ~AsyncRemoteCudaApi() override;

  cuda::Error get_device_count(int& count) override;
  cuda::Error set_device(int device) override;
  cuda::Error get_device(int& device) override;
  cuda::Error get_device_properties(cuda::DeviceInfo& info,
                                    int device) override;

  cuda::Error malloc(cuda::DevPtr& ptr, std::uint64_t size) override;
  cuda::Error free(cuda::DevPtr ptr) override;
  cuda::Error memset(cuda::DevPtr ptr, int value, std::uint64_t size) override;
  cuda::Error memcpy_h2d(cuda::DevPtr dst,
                         std::span<const std::uint8_t> src) override;
  cuda::Error memcpy_d2h(std::span<std::uint8_t> dst,
                         cuda::DevPtr src) override;
  cuda::Error memcpy_d2d(cuda::DevPtr dst, cuda::DevPtr src,
                         std::uint64_t size) override;
  cuda::Error memcpy_h2d_async(cuda::DevPtr dst,
                               std::span<const std::uint8_t> src,
                               cuda::StreamId stream) override;
  cuda::Error memcpy_d2h_async(std::span<std::uint8_t> dst, cuda::DevPtr src,
                               cuda::StreamId stream) override;

  cuda::Error stream_create(cuda::StreamId& stream) override;
  cuda::Error stream_destroy(cuda::StreamId stream) override;
  cuda::Error stream_synchronize(cuda::StreamId stream) override;
  cuda::Error device_synchronize() override;
  cuda::Error stream_wait_event(cuda::StreamId stream,
                                cuda::EventId event) override;
  cuda::Error event_create(cuda::EventId& event) override;
  cuda::Error event_destroy(cuda::EventId event) override;
  cuda::Error event_record(cuda::EventId event,
                           cuda::StreamId stream) override;
  cuda::Error event_synchronize(cuda::EventId event) override;
  cuda::Error event_elapsed_ms(float& ms, cuda::EventId start,
                               cuda::EventId stop) override;

  cuda::Error module_load(cuda::ModuleId& module,
                          std::span<const std::uint8_t> image) override;
  cuda::Error module_unload(cuda::ModuleId module) override;
  cuda::Error module_get_function(cuda::FuncId& func, cuda::ModuleId module,
                                  const std::string& name) override;
  cuda::Error module_get_global(cuda::DevPtr& ptr, cuda::ModuleId module,
                                const std::string& name) override;
  cuda::Error launch_kernel(cuda::FuncId func, cuda::Dim3 grid,
                            cuda::Dim3 block, std::uint32_t shared_bytes,
                            cuda::StreamId stream,
                            std::span<const std::uint8_t> params) override;

  cuda::Error blas_sgemm(int m, int n, int k, float alpha, cuda::DevPtr a,
                         int lda, cuda::DevPtr b, int ldb, float beta,
                         cuda::DevPtr c, int ldc) override;
  cuda::Error blas_sgemv(int m, int n, float alpha, cuda::DevPtr a, int lda,
                         cuda::DevPtr x, float beta, cuda::DevPtr y) override;
  cuda::Error blas_saxpy(int n, float alpha, cuda::DevPtr x,
                         cuda::DevPtr y) override;
  cuda::Error blas_snrm2(int n, cuda::DevPtr x, cuda::DevPtr result) override;
  cuda::Error solver_sgetrf(int n, cuda::DevPtr a, int lda, cuda::DevPtr ipiv,
                            cuda::DevPtr info) override;
  cuda::Error solver_sgetrs(int n, int nrhs, cuda::DevPtr a, int lda,
                            cuda::DevPtr ipiv, cuda::DevPtr b, int ldb,
                            cuda::DevPtr info) override;
  cuda::Error solver_spotrf(int n, cuda::DevPtr a, int lda,
                            cuda::DevPtr info) override;
  cuda::Error solver_spotrs(int n, int nrhs, cuda::DevPtr a, int lda,
                            cuda::DevPtr b, int ldb, cuda::DevPtr info) override;

  /// Waits for every pipelined call, folding any failure into the sticky
  /// error. Returns the sticky error (kSuccess when the pipeline is clean).
  cuda::Error drain();

  /// Severs the connection; every subsequent call returns kRpcFailure.
  void disconnect();

  [[nodiscard]] const AsyncClientStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] rpcflow::AsyncRpcChannel& channel() noexcept {
    return *channel_;
  }

 private:
  /// Fire-and-forget forwarding of a call whose only result is an error
  /// code; collects completed futures opportunistically.
  template <typename... Args>
  cuda::Error enqueue(std::uint32_t proc, const Args&... args);

  /// Blocking forwarding; returns `Res` through `fn(res)` mapping.
  template <typename Res, typename Fn, typename... Args>
  cuda::Error call_blocking(std::uint32_t proc, Fn&& consume,
                            const Args&... args);

  /// Waits for the pipeline head and pops it, absorbing its error.
  void settle_front();
  /// Pops completed futures from the pipeline head, absorbing their errors
  /// into sticky_; never blocks.
  void reap_ready();
  /// Folds `err` into sticky_ unless an earlier error is already there.
  void absorb(cuda::Error err);
  /// The epilogue of a synchronizing call that returned `err`: drains the
  /// pipeline and returns (and clears, unless the link is dead) the first
  /// error seen.
  cuda::Error sync_point(cuda::Error err);

  sim::SimClock* clock_;
  AsyncClientConfig config_;
  std::unique_ptr<rpcflow::AsyncRpcChannel> channel_;
  std::deque<rpcflow::TypedFuture<std::int32_t>> pending_;
  cuda::Error sticky_ = cuda::Error::kSuccess;
  AsyncClientStats stats_;
};

}  // namespace cricket::core
