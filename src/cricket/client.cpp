#include "cricket/client.hpp"

#include <atomic>
#include <thread>

#include "cricket_proto.hpp"
#include "modcache/module_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cricket::core {

using cuda::Error;

namespace {

Error from_wire(std::int32_t err) { return static_cast<Error>(err); }

}  // namespace

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

Error cuda_error(const rpc::RpcError& e) noexcept {
  switch (e.kind()) {
    case rpc::RpcError::Kind::kQuotaExceeded:
      return Error::kQuotaExceeded;
    case rpc::RpcError::Kind::kMigrating:
      return Error::kMigrating;
    default:
      return Error::kRpcFailure;
  }
}

RemoteCudaApi::RemoteCudaApi(std::unique_ptr<rpc::Transport> transport,
                             sim::SimClock& clock, ClientConfig config,
                             TransferLanes lanes)
    : clock_(&clock),
      config_(std::move(config)),
      lanes_(std::move(lanes)),
      rpc_(std::move(transport), proto::CRICKET_PROG, proto::CRICKETVERS_VERS,
           rpc::ClientOptions{.retry = config_.retry,
                              .reconnect = config_.reconnect}),
      stub_(std::make_unique<proto::CRICKETVERSClient>(rpc_)) {
  if (auto cred = tenant_credential(config_.tenant, config_.auth_stamp))
    rpc_.set_credential(std::move(*cred));
}

RemoteCudaApi::~RemoteCudaApi() = default;

template <typename Fn>
Error RemoteCudaApi::forward(const char* name, Fn&& fn) {
  ++stats_.api_calls;
  // Degraded mode: the retry layer already exhausted its budget (or the
  // transport died with no reconnect path), so fail fast instead of paying
  // a full deadline per call against a link we know is gone.
  if (sticky_error_ != Error::kSuccess) return sticky_error_;
  static obs::Counter& api_calls = obs::Registry::global().counter(
      "cricket_client_api_calls_total", {{"mode", "sync"}},
      "CUDA API calls forwarded over RPC");
  api_calls.inc();
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
      sticky_error_ = Error::kRpcFailure;
    return cuda_error(e);
  } catch (const rpc::TransportError&) {
    sticky_error_ = Error::kRpcFailure;
    return Error::kRpcFailure;
  } catch (const xdr::XdrError&) {
    return Error::kRpcFailure;
  }
}

Error RemoteCudaApi::get_device_count(int& count) {
  return forward("cuda.get_device_count", [&] {
    const auto res = stub_->rpc_get_device_count();
    count = res.value;
    return from_wire(res.err);
  });
}

Error RemoteCudaApi::set_device(int device) {
  return forward("cuda.set_device", [&] { return from_wire(stub_->rpc_set_device(device)); });
}

Error RemoteCudaApi::get_device(int& device) {
  return forward("cuda.get_device", [&] {
    const auto res = stub_->rpc_get_device();
    device = res.value;
    return from_wire(res.err);
  });
}

Error RemoteCudaApi::get_device_properties(cuda::DeviceInfo& info,
                                           int device) {
  return forward("cuda.get_device_properties", [&] {
    const auto res = stub_->rpc_get_device_properties(device);
    if (res.err == 0) {
      info = cuda::DeviceInfo{.name = res.name,
                              .total_mem = res.total_mem,
                              .sm_arch = res.sm_arch,
                              .sm_count = res.sm_count,
                              .clock_mhz = res.clock_mhz};
    }
    return from_wire(res.err);
  });
}

Error RemoteCudaApi::malloc(cuda::DevPtr& ptr, std::uint64_t size) {
  return forward("cuda.malloc", [&] {
    const auto res = stub_->rpc_malloc(size);
    ptr = res.value;
    return from_wire(res.err);
  });
}

Error RemoteCudaApi::free(cuda::DevPtr ptr) {
  return forward("cuda.free", [&] { return from_wire(stub_->rpc_free(ptr)); });
}

Error RemoteCudaApi::memset(cuda::DevPtr ptr, int value, std::uint64_t size) {
  return forward("cuda.memset", 
      [&] { return from_wire(stub_->rpc_memset(ptr, value, size)); });
}

Error RemoteCudaApi::memcpy_h2d(cuda::DevPtr dst,
                                std::span<const std::uint8_t> src) {
  stats_.bytes_to_device += src.size();
  switch (config_.transfer) {
    case TransferMethod::kRpcArgs:
      return forward("cuda.memcpy_h2d", [&] {
        return from_wire(stub_->rpc_memcpy_h2d(dst, src));
      });
    case TransferMethod::kParallelSockets: {
      if (lanes_.count() == 0) return Error::kInvalidValue;
      return forward("cuda.memcpy_h2d", [&] {
        // Stripe concurrently with the RPC: the server handler starts
        // draining the lanes when it receives the call.
        std::thread sender(
            [&] { send_striped(lanes_, src, config_.profile, *clock_); });
        const auto err = from_wire(stub_->rpc_transfer_begin_h2d(
            dst, src.size(), static_cast<std::uint32_t>(lanes_.count())));
        sender.join();
        return err;
      });
    }
    case TransferMethod::kSharedMemory: {
      // GPUdirect/shared-memory class transfer: no buffer, no wire — the
      // client writes device memory directly (local GPU only, §4.2).
      if (!config_.local_node) return Error::kInvalidValue;
      try {
        config_.local_node->device(0).memcpy_h2d(dst, src);
        return Error::kSuccess;
      } catch (const gpusim::MemoryError&) {
        return Error::kInvalidDevicePointer;
      }
    }
  }
  return Error::kInvalidValue;
}

Error RemoteCudaApi::memcpy_d2h(std::span<std::uint8_t> dst,
                                cuda::DevPtr src) {
  stats_.bytes_from_device += dst.size();
  switch (config_.transfer) {
    case TransferMethod::kRpcArgs:
      return forward("cuda.memcpy_d2h", [&] {
        return copy_d2h(stub_->rpc_memcpy_d2h(src, dst.size()), dst);
      });
    case TransferMethod::kParallelSockets: {
      if (lanes_.count() == 0) return Error::kInvalidValue;
      return forward("cuda.memcpy_d2h", [&] {
        std::thread receiver(
            [&] { recv_striped(lanes_, dst, config_.profile, *clock_); });
        const auto err = from_wire(stub_->rpc_transfer_begin_d2h(
            src, dst.size(), static_cast<std::uint32_t>(lanes_.count())));
        receiver.join();
        return err;
      });
    }
    case TransferMethod::kSharedMemory: {
      if (!config_.local_node) return Error::kInvalidValue;
      try {
        config_.local_node->device(0).memcpy_d2h(dst, src);
        return Error::kSuccess;
      } catch (const gpusim::MemoryError&) {
        return Error::kInvalidDevicePointer;
      }
    }
  }
  return Error::kInvalidValue;
}

Error RemoteCudaApi::memcpy_d2d(cuda::DevPtr dst, cuda::DevPtr src,
                                std::uint64_t size) {
  return forward("cuda.memcpy_d2d", 
      [&] { return from_wire(stub_->rpc_memcpy_d2d(dst, src, size)); });
}

Error RemoteCudaApi::memcpy_h2d_async(cuda::DevPtr dst,
                                      std::span<const std::uint8_t> src,
                                      cuda::StreamId stream) {
  stats_.bytes_to_device += src.size();
  return forward("cuda.memcpy_h2d_async", [&] {
    return from_wire(stub_->rpc_memcpy_h2d_async(dst, src, stream));
  });
}

Error RemoteCudaApi::memcpy_d2h_async(std::span<std::uint8_t> dst,
                                      cuda::DevPtr src,
                                      cuda::StreamId stream) {
  stats_.bytes_from_device += dst.size();
  return forward("cuda.memcpy_d2h_async", [&] {
    return copy_d2h(stub_->rpc_memcpy_d2h_async(src, dst.size(), stream),
                    dst);
  });
}

Error RemoteCudaApi::stream_wait_event(cuda::StreamId stream,
                                       cuda::EventId event) {
  return forward("cuda.stream_wait_event", 
      [&] { return from_wire(stub_->rpc_stream_wait_event(stream, event)); });
}

Error RemoteCudaApi::stream_create(cuda::StreamId& stream) {
  return forward("cuda.stream_create", [&] {
    const auto res = stub_->rpc_stream_create();
    stream = res.value;
    return from_wire(res.err);
  });
}

Error RemoteCudaApi::stream_destroy(cuda::StreamId stream) {
  return forward("cuda.stream_destroy", [&] { return from_wire(stub_->rpc_stream_destroy(stream)); });
}

Error RemoteCudaApi::stream_synchronize(cuda::StreamId stream) {
  return forward("cuda.stream_synchronize", 
      [&] { return from_wire(stub_->rpc_stream_synchronize(stream)); });
}

Error RemoteCudaApi::device_synchronize() {
  return forward("cuda.device_synchronize", [&] { return from_wire(stub_->rpc_device_synchronize()); });
}

Error RemoteCudaApi::event_create(cuda::EventId& event) {
  return forward("cuda.event_create", [&] {
    const auto res = stub_->rpc_event_create();
    event = res.value;
    return from_wire(res.err);
  });
}

Error RemoteCudaApi::event_destroy(cuda::EventId event) {
  return forward("cuda.event_destroy", [&] { return from_wire(stub_->rpc_event_destroy(event)); });
}

Error RemoteCudaApi::event_record(cuda::EventId event, cuda::StreamId stream) {
  return forward("cuda.event_record", 
      [&] { return from_wire(stub_->rpc_event_record(event, stream)); });
}

Error RemoteCudaApi::event_synchronize(cuda::EventId event) {
  return forward("cuda.event_synchronize", 
      [&] { return from_wire(stub_->rpc_event_synchronize(event)); });
}

Error RemoteCudaApi::event_elapsed_ms(float& ms, cuda::EventId start,
                                      cuda::EventId stop) {
  return forward("cuda.event_elapsed_ms", [&] {
    const auto res = stub_->rpc_event_elapsed(start, stop);
    ms = res.value;
    return from_wire(res.err);
  });
}

Error RemoteCudaApi::module_load(cuda::ModuleId& module,
                                 std::span<const std::uint8_t> image) {
  return forward("cuda.module_load", [&] {
    if (config_.module_cache) {
      // Two-phase negotiation: probe the server's content-addressed cache
      // with the image hash plus a proof of possession (computable only
      // from the bytes, bound to this tenant); only a miss pays for the
      // upload (which then populates the cache). kCacheMiss is the
      // negotiation answer, never an application-visible error.
      const auto proof = modcache::possession_proof(config_.tenant, image);
      const auto probe =
          stub_->rpc_module_load_cached(modcache::hash_image(image), proof);
      if (from_wire(probe.err) != Error::kCacheMiss) {
        if (from_wire(probe.err) == Error::kSuccess) {
          module = probe.value;
          ++stats_.module_cache_hits;
          stats_.module_bytes_saved += image.size();
        }
        return from_wire(probe.err);
      }
    }
    const auto res = stub_->rpc_module_load(image);
    module = res.value;
    return from_wire(res.err);
  });
}

Error RemoteCudaApi::module_unload(cuda::ModuleId module) {
  return forward("cuda.module_unload", [&] { return from_wire(stub_->rpc_module_unload(module)); });
}

Error RemoteCudaApi::module_get_function(cuda::FuncId& func,
                                         cuda::ModuleId module,
                                         const std::string& name) {
  return forward("cuda.module_get_function", [&] {
    const auto res = stub_->rpc_module_get_function(module, name);
    func = res.value;
    return from_wire(res.err);
  });
}

Error RemoteCudaApi::module_get_global(cuda::DevPtr& ptr,
                                       cuda::ModuleId module,
                                       const std::string& name) {
  return forward("cuda.module_get_global", [&] {
    const auto res = stub_->rpc_module_get_global(module, name);
    ptr = res.value;
    return from_wire(res.err);
  });
}

Error RemoteCudaApi::launch_kernel(cuda::FuncId func, cuda::Dim3 grid,
                                   cuda::Dim3 block,
                                   std::uint32_t shared_bytes,
                                   cuda::StreamId stream,
                                   std::span<const std::uint8_t> params) {
  // The C client's <<<...>>> compatibility logic runs here; the Rust path
  // omits it (paper §4.2, ~6.3% faster kernel launches).
  clock_->advance(config_.flavor.launch_extra_ns);
  return forward("cuda.launch_kernel", [&] {
    return from_wire(stub_->rpc_launch_kernel(
        func, proto::rpc_dim3{xdr::Untrusted<std::uint32_t>(grid.x),
                                xdr::Untrusted<std::uint32_t>(grid.y),
                                xdr::Untrusted<std::uint32_t>(grid.z)},
        proto::rpc_dim3{xdr::Untrusted<std::uint32_t>(block.x),
                                xdr::Untrusted<std::uint32_t>(block.y),
                                xdr::Untrusted<std::uint32_t>(block.z)}, shared_bytes, stream,
        params));
  });
}

Error RemoteCudaApi::blas_sgemm(int m, int n, int k, float alpha,
                                cuda::DevPtr a, int lda, cuda::DevPtr b,
                                int ldb, float beta, cuda::DevPtr c,
                                int ldc) {
  return forward("cuda.blas_sgemm", [&] {
    return from_wire(
        stub_->rpc_blas_sgemm(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc));
  });
}

Error RemoteCudaApi::blas_sgemv(int m, int n, float alpha, cuda::DevPtr a,
                                int lda, cuda::DevPtr x, float beta,
                                cuda::DevPtr y) {
  return forward("cuda.blas_sgemv", [&] {
    return from_wire(stub_->rpc_blas_sgemv(m, n, alpha, a, lda, x, beta, y));
  });
}

Error RemoteCudaApi::blas_saxpy(int n, float alpha, cuda::DevPtr x,
                                cuda::DevPtr y) {
  return forward("cuda.blas_saxpy", 
      [&] { return from_wire(stub_->rpc_blas_saxpy(n, alpha, x, y)); });
}

Error RemoteCudaApi::blas_snrm2(int n, cuda::DevPtr x, cuda::DevPtr result) {
  return forward("cuda.blas_snrm2", 
      [&] { return from_wire(stub_->rpc_blas_snrm2(n, x, result)); });
}

Error RemoteCudaApi::solver_spotrf(int n, cuda::DevPtr a, int lda,
                                   cuda::DevPtr info) {
  return forward("cuda.solver_spotrf", 
      [&] { return from_wire(stub_->rpc_solver_spotrf(n, a, lda, info)); });
}

Error RemoteCudaApi::solver_spotrs(int n, int nrhs, cuda::DevPtr a, int lda,
                                   cuda::DevPtr b, int ldb,
                                   cuda::DevPtr info) {
  return forward("cuda.solver_spotrs", [&] {
    return from_wire(stub_->rpc_solver_spotrs(n, nrhs, a, lda, b, ldb, info));
  });
}

Error RemoteCudaApi::solver_sgetrf(int n, cuda::DevPtr a, int lda,
                                   cuda::DevPtr ipiv, cuda::DevPtr info) {
  return forward("cuda.solver_sgetrf", [&] {
    return from_wire(stub_->rpc_solver_sgetrf(n, a, lda, ipiv, info));
  });
}

Error RemoteCudaApi::solver_sgetrs(int n, int nrhs, cuda::DevPtr a, int lda,
                                   cuda::DevPtr ipiv, cuda::DevPtr b, int ldb,
                                   cuda::DevPtr info) {
  return forward("cuda.solver_sgetrs", [&] {
    return from_wire(
        stub_->rpc_solver_sgetrs(n, nrhs, a, lda, ipiv, b, ldb, info));
  });
}

Error RemoteCudaApi::checkpoint(const std::string& path) {
  return forward("cuda.checkpoint", [&] { return from_wire(stub_->rpc_checkpoint(path)); });
}

Error RemoteCudaApi::restore(const std::string& path) {
  return forward("cuda.restore", [&] { return from_wire(stub_->rpc_restore(path)); });
}

void RemoteCudaApi::disconnect() { rpc_.transport().shutdown(); }

}  // namespace cricket::core
