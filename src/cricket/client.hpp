// RemoteCudaApi: the client-side Cricket virtualization layer.
//
// This is the component the paper inserts "between GPU applications and the
// CUDA libraries" (Fig. 1/3): it implements the same CudaApi the local
// driver facade implements, but forwards every call as an ONC RPC through
// the generated stubs — so an application is recompiled against the same
// interface and runs unmodified on a unikernel, a VM, or bare Linux,
// exactly like the paper's Rust applications (§3.5).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "cricket/call_table.hpp"
#include "cricket/transfer.hpp"
#include "cudart/api.hpp"
#include "cudart/local_api.hpp"
#include "env/environment.hpp"
#include "obs/trace.hpp"
#include "rpc/client.hpp"
#include "sim/sim_clock.hpp"

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

struct RemoteStats {
  std::uint64_t api_calls = 0;  // forwarded CUDA API calls (paper §4.1)
  std::uint64_t bytes_to_device = 0;
  std::uint64_t bytes_from_device = 0;
  /// Module loads answered by the server's content-addressed cache, and
  /// the image bytes that therefore never crossed the wire.
  std::uint64_t module_cache_hits = 0;
  std::uint64_t module_bytes_saved = 0;
};

/// The synchronous client: the shared call table bound to rpc::RpcClient,
/// one wire round trip per forwarded CUDA call.
class RemoteCudaApi final : public CudaCallTable<RemoteCudaApi> {
 public:
  /// `transport` carries the RPC connection (typically from env::connect);
  /// `lanes` are optional parallel-socket side channels.
  RemoteCudaApi(std::unique_ptr<rpc::Transport> transport,
                sim::SimClock& clock, ClientConfig config = {},
                TransferLanes lanes = {});
  ~RemoteCudaApi() override;

  /// The transfer-method branches (§4.2): RPC arguments go through the
  /// table; parallel sockets stripe the payload over side lanes, shared
  /// memory touches the co-located device directly.
  cuda::Error memcpy_h2d(cuda::DevPtr dst,
                         std::span<const std::uint8_t> src) override;
  cuda::Error memcpy_d2h(std::span<std::uint8_t> dst,
                         cuda::DevPtr src) override;

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
  friend class CudaCallTable<RemoteCudaApi>;

  /// Forwards one CUDA API call: bumps counters, opens the kClientCall
  /// span (`name` is the stable "cuda.<entry point>" label), charges the
  /// per-call flavor cost, and maps RPC failures to Error::kRpcFailure.
  template <typename Fn>
  cuda::Error forward(const char* name, Fn&& fn);
  /// Every call is a round trip here, so a synchronizing one is no different.
  template <typename Fn>
  cuda::Error synchronize(const char* name, Fn&& fn) {
    return forward(name, std::forward<Fn>(fn));
  }
  /// Bumps the process-wide forwarded-call counter.
  static void count_call();

  sim::SimClock* clock_;
  ClientConfig config_;
  TransferLanes lanes_;
  rpc::RpcClient rpc_;
  proto::CRICKETVERSClient<> stub_{rpc_};
  RemoteStats stats_;
  cuda::Error sticky_error_ = cuda::Error::kSuccess;
};

template <typename Fn>
cuda::Error RemoteCudaApi::forward(const char* name, Fn&& fn) {
  ++stats_.api_calls;
  // Degraded mode: the retry layer already exhausted its budget (or the
  // transport died with no reconnect path), so fail fast instead of paying
  // a full deadline per call against a link we know is gone.
  if (sticky_error_ != cuda::Error::kSuccess) return sticky_error_;
  count_call();
  // The whole remote call, named after the CUDA entry point; the RPC layers
  // underneath contribute the nested serialize/send/wait spans.
  obs::Span span(obs::Layer::kClientCall, name);
  clock_->advance(config_.flavor.per_call_ns);
  try {
    return fn();
  } catch (const rpc::RpcError& e) {
    // Only an exhausted retry budget goes sticky. Quota rejections leave the
    // connection healthy (the tenant backs off and retries), and a surfaced
    // migration redirect never executed: the next call reconnects through
    // the flipped redirect.
    if (e.kind() == rpc::RpcError::Kind::kDeadlineExceeded)
      sticky_error_ = cuda::Error::kRpcFailure;
    return cuda_error(e);
  } catch (const rpc::TransportError&) {
    sticky_error_ = cuda::Error::kRpcFailure;
    return cuda::Error::kRpcFailure;
  } catch (const xdr::XdrError&) {
    return cuda::Error::kRpcFailure;
  }
}

}  // namespace cricket::core
