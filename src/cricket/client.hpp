// RemoteCudaApi: the client-side Cricket virtualization layer.
//
// This is the component the paper inserts "between GPU applications and the
// CUDA libraries" (Fig. 1/3): it implements the same CudaApi the local
// driver facade implements, but forwards every call as an ONC RPC through
// the generated stubs — so an application is recompiled against the same
// interface and runs unmodified on a unikernel, a VM, or bare Linux,
// exactly like the paper's Rust applications (§3.5).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "cricket/transfer.hpp"
#include "cudart/api.hpp"
#include "cudart/local_api.hpp"
#include "env/environment.hpp"
#include "rpc/client.hpp"
#include "sim/sim_clock.hpp"

namespace cricket::proto {
class CRICKETVERSClient;
}

namespace cricket::core {

struct ClientConfig {
  /// libtirpc-C vs RPC-Lib-Rust client behaviour (per-call overhead, kernel
  /// launch compatibility logic).
  env::ClientFlavor flavor = {};
  /// Cost profile of the client's network path (used for out-of-band lane
  /// charging; the main connection's transport charges itself).
  vnet::NetworkProfile profile = {};
  /// Bulk memcpy strategy (§4.2). Unikernels support only kRpcArgs.
  TransferMethod transfer = TransferMethod::kRpcArgs;
  /// Required for kSharedMemory: the co-located GPU node whose address
  /// space the client shares.
  cuda::GpuNode* local_node = nullptr;
  /// Per-call deadlines + idempotency-aware retry for the underlying RPC
  /// client (faultnet). Only enable `retry.assume_at_most_once` against a
  /// server running the duplicate-request cache — otherwise a retried
  /// kernel launch could execute twice.
  rpc::RetryPolicy retry{};
  /// Fresh transport to the same server after a connection-level failure.
  std::function<std::unique_ptr<rpc::Transport>()> reconnect{};
  /// Tenant identity presented to a multi-tenant server: when non-empty,
  /// every call carries an AUTH_SYS credential with this machinename, and
  /// the server binds the session to the tenant registered under it.
  std::string tenant{};
  /// AUTH_SYS stamp distinguishing this client from other clients of the
  /// same tenant. The duplicate-request cache and migration adoption both
  /// key on the credential hash, so two live clients must never share one.
  /// 0 (default) auto-assigns a process-unique value; set it explicitly
  /// only when a restarted client must keep its previous identity.
  std::uint32_t auth_stamp = 0;
  /// Two-phase module-load negotiation against the server's
  /// content-addressed cache (env::with_module_cache): module_load first
  /// sends the image's cache key (the first 64 bits of its SHA-256) and a
  /// SHA-256 proof of possession bound to the tenant; only a cache miss
  /// pays for the full upload. Transparent — a server without the cache
  /// always answers kCacheMiss and the client falls back, so it is safe to
  /// leave on.
  bool module_cache = false;
};

/// The AUTH_SYS credential naming `tenant` as its machinename, stamped
/// with `stamp` or, when that is 0, a process-unique one (the
/// auto-assignment above); nullopt when `tenant` is empty. Both cudart
/// clients present this.
[[nodiscard]] std::optional<rpc::OpaqueAuth> tenant_credential(
    const std::string& tenant, std::uint32_t stamp);

/// The cuda::Error a failed RPC surfaces as. Quota rejections and migration
/// redirects are per-call answers (the connection is healthy); everything
/// else is kRpcFailure. Whether it goes sticky is each client's call.
[[nodiscard]] cuda::Error cuda_error(const rpc::RpcError& e) noexcept;

/// Consumes a D2H reply: on success its bytes land in `dst`, which must be
/// exactly their size (anything else is a misbehaving server).
template <typename DataResult>
[[nodiscard]] cuda::Error copy_d2h(const DataResult& res,
                                   std::span<std::uint8_t> dst) {
  if (res.err == 0) {
    if (res.data.size() != dst.size()) return cuda::Error::kRpcFailure;
    std::copy(res.data.begin(), res.data.end(), dst.begin());
  }
  return static_cast<cuda::Error>(res.err);
}

struct RemoteStats {
  std::uint64_t api_calls = 0;  // forwarded CUDA API calls (paper §4.1)
  std::uint64_t bytes_to_device = 0;
  std::uint64_t bytes_from_device = 0;
  /// Module loads answered by the server's content-addressed cache, and
  /// the image bytes that therefore never crossed the wire.
  std::uint64_t module_cache_hits = 0;
  std::uint64_t module_bytes_saved = 0;
};

class RemoteCudaApi final : public cuda::CudaApi {
 public:
  /// `transport` carries the RPC connection (typically from env::connect);
  /// `lanes` are optional parallel-socket side channels.
  RemoteCudaApi(std::unique_ptr<rpc::Transport> transport,
                sim::SimClock& clock, ClientConfig config = {},
                TransferLanes lanes = {});
  ~RemoteCudaApi() override;

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
  cuda::Error stream_wait_event(cuda::StreamId stream,
                                cuda::EventId event) override;
  cuda::Error stream_destroy(cuda::StreamId stream) override;
  cuda::Error stream_synchronize(cuda::StreamId stream) override;
  cuda::Error device_synchronize() override;
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

  /// Cricket extensions beyond the CUDA surface.
  cuda::Error checkpoint(const std::string& path);
  cuda::Error restore(const std::string& path);

  /// Severs the connection; every subsequent call returns kRpcFailure.
  /// Models the GPU node vanishing under the client.
  void disconnect();

  [[nodiscard]] const RemoteStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const ClientConfig& config() const noexcept { return config_; }

  /// Non-success once the connection is declared unrecoverable (retry
  /// budget exhausted or the transport died with no reconnect path).
  /// Graceful degradation: every later call short-circuits to this error
  /// instead of hammering a dead link — the paper's unikernel guest keeps
  /// running and sees a CUDA error code, not a crash.
  [[nodiscard]] cuda::Error sticky_error() const noexcept {
    return sticky_error_;
  }

 private:
  /// Forwards one CUDA API call: bumps counters, opens the kClientCall
  /// span (`name` is the stable "cuda.<entry point>" label), charges the
  /// per-call flavor cost, and maps RPC failures to Error::kRpcFailure.
  template <typename Fn>
  cuda::Error forward(const char* name, Fn&& fn);

  sim::SimClock* clock_;
  ClientConfig config_;
  TransferLanes lanes_;
  rpc::RpcClient rpc_;
  std::unique_ptr<proto::CRICKETVERSClient> stub_;
  RemoteStats stats_;
  cuda::Error sticky_error_ = cuda::Error::kSuccess;
};

}  // namespace cricket::core
