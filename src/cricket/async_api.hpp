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
#include <type_traits>
#include <utility>

#include "cricket/call_table.hpp"
#include "env/environment.hpp"
#include "obs/trace.hpp"
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

/// Counts RPCs, not CUDA calls: a module load that misses the cache is
/// two api_calls (probe + upload), both blocking.
struct AsyncClientStats {
  std::uint64_t api_calls = 0;
  std::uint64_t pipelined = 0;   // fire-and-forget calls
  std::uint64_t blocking = 0;    // calls that waited for their reply
  std::uint64_t drains = 0;      // synchronization points
  std::uint64_t bytes_to_device = 0;
  std::uint64_t bytes_from_device = 0;
  /// Same meaning as RemoteStats' module-cache counters.
  std::uint64_t module_cache_hits = 0;
  std::uint64_t module_bytes_saved = 0;
};

/// The pipelined client: the shared call table with this class as the
/// stub's caller (see call()).
class AsyncRemoteCudaApi final : public CudaCallTable<AsyncRemoteCudaApi> {
 public:
  AsyncRemoteCudaApi(std::unique_ptr<rpc::Transport> transport,
                     sim::SimClock& clock, AsyncClientConfig config = {});
  ~AsyncRemoteCudaApi() override;

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
  friend class CudaCallTable<AsyncRemoteCudaApi>;
  friend class proto::CRICKETVERSClient<AsyncRemoteCudaApi>;

  /// Runs one CUDA call under its kClientCall span (`name` is the stable
  /// "cuda.<entry point>" label), mapping RPC failures to a cuda::Error.
  template <typename Fn>
  cuda::Error forward(const char* name, Fn&& fn);
  /// A synchronizing CUDA call: its status-only procedure waits for the
  /// reply instead of being posted, then the pipeline drains behind it so
  /// the first pipelined failure surfaces here.
  template <typename Fn>
  cuda::Error synchronize(const char* name, Fn&& fn);

  /// The stub's caller. Status-only procedures are fire-and-forget: put on
  /// the wire (or into the batcher) and answered kSuccess at once; a
  /// device-side failure surfaces at the next sync point, as a CUDA kernel
  /// launch's does. Everything else — values, and the status of a
  /// synchronizing call — waits for its own reply.
  template <typename Res, typename... Args>
  Res call(std::uint32_t proc, const Args&... args);

  /// Maps the failures of one CUDA call to a cuda::Error. Per-call, never
  /// sticky: a quota rejection leaves the connection healthy, and a
  /// migration redirect that outlived the channel's re-send budget never
  /// executed. Only a dead transport latches kRpcFailure.
  template <typename Fn>
  cuda::Error guarded(Fn&& fn);

  /// Per-RPC prologue: counts the RPC, charges the per-call flavor cost,
  /// fails fast on a dead link, and collects completed futures.
  void begin_rpc(bool posted);
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
  proto::CRICKETVERSClient<AsyncRemoteCudaApi> stub_{*this};
  std::deque<rpcflow::TypedFuture<std::int32_t>> pending_;
  /// Set by synchronize() for the status-only call it forwards.
  bool wait_for_status_ = false;
  cuda::Error sticky_ = cuda::Error::kSuccess;
  AsyncClientStats stats_;
};

template <typename Fn>
cuda::Error AsyncRemoteCudaApi::forward(const char* name, Fn&& fn) {
  obs::Span span(obs::Layer::kClientCall, name);
  return guarded(std::forward<Fn>(fn));
}

template <typename Fn>
cuda::Error AsyncRemoteCudaApi::synchronize(const char* name, Fn&& fn) {
  obs::Span span(obs::Layer::kClientCall, name);
  wait_for_status_ = true;
  return sync_point(guarded(std::forward<Fn>(fn)));
}

template <typename Res, typename... Args>
Res AsyncRemoteCudaApi::call(std::uint32_t proc, const Args&... args) {
  if constexpr (std::is_same_v<Res, std::int32_t>) {
    if (!std::exchange(wait_for_status_, false)) {
      begin_rpc(/*posted=*/true);
      pending_.push_back(channel_->call_async<Res>(proc, args...));
      return static_cast<Res>(cuda::Error::kSuccess);  // "queued"
    }
  }
  begin_rpc(/*posted=*/false);
  auto fut = channel_->call_async<Res>(proc, args...);
  channel_->flush();
  // The server runs this session's calls in order, so by the time this
  // reply is in hand every earlier pipelined call has executed.
  return fut.get();
}

template <typename Fn>
cuda::Error AsyncRemoteCudaApi::guarded(Fn&& fn) {
  try {
    return fn();
  } catch (const rpc::RpcError& e) {
    return cuda_error(e);
  } catch (const rpc::TransportError&) {
    sticky_ = cuda::Error::kRpcFailure;
    return cuda::Error::kRpcFailure;
  } catch (const xdr::XdrError&) {
    return cuda::Error::kRpcFailure;
  }
}

}  // namespace cricket::core
