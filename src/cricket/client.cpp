#include "cricket/client.hpp"

#include <atomic>
#include <thread>

#include "obs/metrics.hpp"

namespace cricket::core {

using cuda::Error;

std::optional<rpc::OpaqueAuth> tenant_credential(const std::string& tenant,
                                                std::uint32_t stamp) {
  if (tenant.empty()) return std::nullopt;
  // Starts past 0 so an auto-assigned stamp never collides with the "assign
  // one for me" sentinel in ClientConfig::auth_stamp.
  static std::atomic<std::uint32_t> next{1};
  rpc::AuthSysParms cred;
  cred.machinename = tenant;
  cred.stamp = stamp != 0 ? stamp : next.fetch_add(1);
  return cred.to_opaque();
}

RemoteCudaApi::RemoteCudaApi(std::unique_ptr<rpc::Transport> transport,
                             sim::SimClock& clock, ClientConfig config,
                             TransferLanes lanes)
    : clock_(&clock),
      config_(std::move(config)),
      lanes_(std::move(lanes)),
      rpc_(std::move(transport), proto::CRICKET_PROG, proto::CRICKETVERS_VERS,
           rpc::ClientOptions{.retry = config_.retry,
                              .reconnect = config_.reconnect}) {
  if (auto cred = tenant_credential(config_.tenant, config_.auth_stamp))
    rpc_.set_credential(std::move(*cred));
}

RemoteCudaApi::~RemoteCudaApi() = default;

void RemoteCudaApi::count_call() {
  static obs::Counter& api_calls = obs::Registry::global().counter(
      "cricket_client_api_calls_total", {{"mode", "sync"}},
      "CUDA API calls forwarded over RPC");
  api_calls.inc();
}

Error RemoteCudaApi::memcpy_h2d(cuda::DevPtr dst,
                                std::span<const std::uint8_t> src) {
  if (config_.transfer == TransferMethod::kRpcArgs)
    return CudaCallTable::memcpy_h2d(dst, src);
  stats_.bytes_to_device += src.size();
  if (config_.transfer == TransferMethod::kParallelSockets) {
    if (lanes_.count() == 0) return Error::kInvalidValue;
    return forward("cuda.memcpy_h2d", [&] {
      // Stripe concurrently with the RPC: the server handler starts
      // draining the lanes when it receives the call.
      std::thread sender(
          [&] { send_striped(lanes_, src, config_.profile, *clock_); });
      const auto err = from_wire(stub_.rpc_transfer_begin_h2d(
          dst, src.size(), static_cast<std::uint32_t>(lanes_.count())));
      sender.join();
      return err;
    });
  }
  // kSharedMemory, GPUdirect class: no buffer, no wire — the client writes
  // device memory directly (local GPU only, §4.2).
  if (!config_.local_node) return Error::kInvalidValue;
  try {
    config_.local_node->device(0).memcpy_h2d(dst, src);
    return Error::kSuccess;
  } catch (const gpusim::MemoryError&) {
    return Error::kInvalidDevicePointer;
  }
}

Error RemoteCudaApi::memcpy_d2h(std::span<std::uint8_t> dst,
                                cuda::DevPtr src) {
  if (config_.transfer == TransferMethod::kRpcArgs)
    return CudaCallTable::memcpy_d2h(dst, src);
  stats_.bytes_from_device += dst.size();
  if (config_.transfer == TransferMethod::kParallelSockets) {
    if (lanes_.count() == 0) return Error::kInvalidValue;
    return forward("cuda.memcpy_d2h", [&] {
      std::thread receiver(
          [&] { recv_striped(lanes_, dst, config_.profile, *clock_); });
      const auto err = from_wire(stub_.rpc_transfer_begin_d2h(
          src, dst.size(), static_cast<std::uint32_t>(lanes_.count())));
      receiver.join();
      return err;
    });
  }
  if (!config_.local_node) return Error::kInvalidValue;
  try {
    config_.local_node->device(0).memcpy_d2h(dst, src);
    return Error::kSuccess;
  } catch (const gpusim::MemoryError&) {
    return Error::kInvalidDevicePointer;
  }
}

Error RemoteCudaApi::checkpoint(const std::string& path) {
  return forward("cuda.checkpoint",
                 [&] { return from_wire(stub_.rpc_checkpoint(path)); });
}

Error RemoteCudaApi::restore(const std::string& path) {
  return forward("cuda.restore",
                 [&] { return from_wire(stub_.rpc_restore(path)); });
}

void RemoteCudaApi::disconnect() { rpc_.transport().shutdown(); }

}  // namespace cricket::core
