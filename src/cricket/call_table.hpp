// CudaCallTable: the forwarded CUDA API, written once for both cudart
// clients.
//
// Every CudaApi entry point maps onto procedures of the generated RPCL stub
// (proto::CRICKETVERSClient), the paper's RPC-Lib client path (§3.5): the
// .x file is the single source of truth for procedure numbers and wire
// types, and every argument is checked against it at compile time. The two
// clients differ only in the caller the stub is bound to and in the policy
// around each call, which the Derived class (CRTP) supplies:
//   * RemoteCudaApi binds the stub to rpc::RpcClient — one synchronous
//     round trip per call, a sticky error once the link is gone;
//   * AsyncRemoteCudaApi is itself the caller — status-only procedures are
//     posted to the pipeline and fail at the next sync point, everything
//     else waits for its reply.
//
// Derived must give this base (its friend) access to:
//   stub_    proto::CRICKETVERSClient<Caller>
//   forward(name, fn)  runs one CUDA call: `name` is its stable
//            "cuda.<entry point>" span label, `fn` the body returning a
//            cuda::Error; RPC failures map to a cuda::Error
//   synchronize(name, fn)  the same for the three synchronizing entry
//            points (device, stream, event), which a pipelining caller
//            must wait for and drain behind
//   stats_   bytes_to_device, bytes_from_device, module_cache_hits,
//            module_bytes_saved
//   config_  flavor, tenant, module_cache
//   clock_   the SimClock the flavor's launch compatibility cost goes to
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>

#include "cricket_proto.hpp"
#include "cudart/api.hpp"
#include "modcache/module_cache.hpp"
#include "rpc/client.hpp"
#include "sim/sim_clock.hpp"

namespace cricket::core {

[[nodiscard]] inline cuda::Error from_wire(std::int32_t err) noexcept {
  return static_cast<cuda::Error>(err);
}

/// The cuda::Error a failed RPC surfaces as. Quota rejections and migration
/// redirects are per-call answers (the connection is healthy); everything
/// else is kRpcFailure. Whether it goes sticky is each client's call.
[[nodiscard]] inline cuda::Error cuda_error(const rpc::RpcError& e) noexcept {
  switch (e.kind()) {
    case rpc::RpcError::Kind::kQuotaExceeded:
      return cuda::Error::kQuotaExceeded;
    case rpc::RpcError::Kind::kMigrating:
      return cuda::Error::kMigrating;
    default:
      return cuda::Error::kRpcFailure;
  }
}

/// Consumes a D2H reply: on success its bytes land in `dst`, which must be
/// exactly their size (anything else is a misbehaving server).
template <typename DataResult>
[[nodiscard]] cuda::Error copy_d2h(const DataResult& res,
                                   std::span<std::uint8_t> dst) {
  if (res.err == 0) {
    if (res.data.size() != dst.size()) return cuda::Error::kRpcFailure;
    std::copy(res.data.begin(), res.data.end(), dst.begin());
  }
  return from_wire(res.err);
}

template <typename Derived>
class CudaCallTable : public cuda::CudaApi {
 public:
  using Error = cuda::Error;

  Error get_device_count(int& count) override {
    return self().forward("cuda.get_device_count", [&] {
      const auto res = stub().rpc_get_device_count();
      count = res.value;
      return from_wire(res.err);
    });
  }

  Error set_device(int device) override {
    return self().forward("cuda.set_device", [&] {
      return from_wire(stub().rpc_set_device(device));
    });
  }

  Error get_device(int& device) override {
    return self().forward("cuda.get_device", [&] {
      const auto res = stub().rpc_get_device();
      device = res.value;
      return from_wire(res.err);
    });
  }

  Error get_device_properties(cuda::DeviceInfo& info, int device) override {
    return self().forward("cuda.get_device_properties", [&] {
      const auto res = stub().rpc_get_device_properties(device);
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

  Error malloc(cuda::DevPtr& ptr, std::uint64_t size) override {
    return self().forward("cuda.malloc", [&] {
      const auto res = stub().rpc_malloc(size);
      ptr = res.value;
      return from_wire(res.err);
    });
  }

  Error free(cuda::DevPtr ptr) override {
    return self().forward("cuda.free", [&] {
      return from_wire(stub().rpc_free(ptr));
    });
  }

  Error memset(cuda::DevPtr ptr, int value, std::uint64_t size) override {
    return self().forward("cuda.memset", [&] {
      return from_wire(stub().rpc_memset(ptr, value, size));
    });
  }

  /// Transfer via RPC arguments, the method the unikernels use (§4.2).
  Error memcpy_h2d(cuda::DevPtr dst,
                   std::span<const std::uint8_t> src) override {
    self().stats_.bytes_to_device += src.size();
    return self().forward("cuda.memcpy_h2d", [&] {
      return from_wire(stub().rpc_memcpy_h2d(dst, src));
    });
  }

  Error memcpy_d2h(std::span<std::uint8_t> dst, cuda::DevPtr src) override {
    self().stats_.bytes_from_device += dst.size();
    return self().forward("cuda.memcpy_d2h", [&] {
      return copy_d2h(stub().rpc_memcpy_d2h(src, dst.size()), dst);
    });
  }

  Error memcpy_d2d(cuda::DevPtr dst, cuda::DevPtr src,
                   std::uint64_t size) override {
    return self().forward("cuda.memcpy_d2d", [&] {
      return from_wire(stub().rpc_memcpy_d2d(dst, src, size));
    });
  }

  Error memcpy_h2d_async(cuda::DevPtr dst, std::span<const std::uint8_t> src,
                         cuda::StreamId stream) override {
    self().stats_.bytes_to_device += src.size();
    return self().forward("cuda.memcpy_h2d_async", [&] {
      return from_wire(stub().rpc_memcpy_h2d_async(dst, src, stream));
    });
  }

  /// The reply carries the bytes, so even the "async" D2H copy waits for it.
  Error memcpy_d2h_async(std::span<std::uint8_t> dst, cuda::DevPtr src,
                         cuda::StreamId stream) override {
    self().stats_.bytes_from_device += dst.size();
    return self().forward("cuda.memcpy_d2h_async", [&] {
      return copy_d2h(stub().rpc_memcpy_d2h_async(src, dst.size(), stream),
                      dst);
    });
  }

  Error stream_create(cuda::StreamId& stream) override {
    return self().forward("cuda.stream_create", [&] {
      const auto res = stub().rpc_stream_create();
      stream = res.value;
      return from_wire(res.err);
    });
  }

  Error stream_destroy(cuda::StreamId stream) override {
    return self().forward("cuda.stream_destroy", [&] {
      return from_wire(stub().rpc_stream_destroy(stream));
    });
  }

  Error stream_synchronize(cuda::StreamId stream) override {
    return self().synchronize("cuda.stream_synchronize", [&] {
      return from_wire(stub().rpc_stream_synchronize(stream));
    });
  }

  Error device_synchronize() override {
    return self().synchronize("cuda.device_synchronize", [&] {
      return from_wire(stub().rpc_device_synchronize());
    });
  }

  Error stream_wait_event(cuda::StreamId stream,
                          cuda::EventId event) override {
    return self().forward("cuda.stream_wait_event", [&] {
      return from_wire(stub().rpc_stream_wait_event(stream, event));
    });
  }

  Error event_create(cuda::EventId& event) override {
    return self().forward("cuda.event_create", [&] {
      const auto res = stub().rpc_event_create();
      event = res.value;
      return from_wire(res.err);
    });
  }

  Error event_destroy(cuda::EventId event) override {
    return self().forward("cuda.event_destroy", [&] {
      return from_wire(stub().rpc_event_destroy(event));
    });
  }

  Error event_record(cuda::EventId event, cuda::StreamId stream) override {
    return self().forward("cuda.event_record", [&] {
      return from_wire(stub().rpc_event_record(event, stream));
    });
  }

  Error event_synchronize(cuda::EventId event) override {
    return self().synchronize("cuda.event_synchronize", [&] {
      return from_wire(stub().rpc_event_synchronize(event));
    });
  }

  Error event_elapsed_ms(float& ms, cuda::EventId start,
                         cuda::EventId stop) override {
    return self().forward("cuda.event_elapsed_ms", [&] {
      const auto res = stub().rpc_event_elapsed(start, stop);
      ms = res.value;
      return from_wire(res.err);
    });
  }

  Error module_load(cuda::ModuleId& module,
                    std::span<const std::uint8_t> image) override {
    return self().forward("cuda.module_load", [&] {
      if (self().config_.module_cache) {
        // Two-phase negotiation: probe the server's content-addressed
        // cache with the image hash plus a proof of possession (computable
        // only from the bytes, bound to this tenant); only a miss pays for
        // the upload (which then populates the cache). kCacheMiss is the
        // negotiation answer, never an application-visible error.
        const auto proof =
            modcache::possession_proof(self().config_.tenant, image);
        const auto probe =
            stub().rpc_module_load_cached(modcache::hash_image(image), proof);
        if (from_wire(probe.err) != Error::kCacheMiss) {
          if (from_wire(probe.err) == Error::kSuccess) {
            module = probe.value;
            ++self().stats_.module_cache_hits;
            self().stats_.module_bytes_saved += image.size();
          }
          return from_wire(probe.err);
        }
      }
      const auto res = stub().rpc_module_load(image);
      module = res.value;
      return from_wire(res.err);
    });
  }

  Error module_unload(cuda::ModuleId module) override {
    return self().forward("cuda.module_unload", [&] {
      return from_wire(stub().rpc_module_unload(module));
    });
  }

  Error module_get_function(cuda::FuncId& func, cuda::ModuleId module,
                            const std::string& name) override {
    return self().forward("cuda.module_get_function", [&] {
      const auto res = stub().rpc_module_get_function(module, name);
      func = res.value;
      return from_wire(res.err);
    });
  }

  Error module_get_global(cuda::DevPtr& ptr, cuda::ModuleId module,
                          const std::string& name) override {
    return self().forward("cuda.module_get_global", [&] {
      const auto res = stub().rpc_module_get_global(module, name);
      ptr = res.value;
      return from_wire(res.err);
    });
  }

  Error launch_kernel(cuda::FuncId func, cuda::Dim3 grid, cuda::Dim3 block,
                      std::uint32_t shared_bytes, cuda::StreamId stream,
                      std::span<const std::uint8_t> params) override {
    // The C client's <<<...>>> compatibility logic runs here; the Rust path
    // omits it (paper §4.2, ~6.3% faster kernel launches).
    self().clock_->advance(self().config_.flavor.launch_extra_ns);
    return self().forward("cuda.launch_kernel", [&] {
      return from_wire(stub().rpc_launch_kernel(func, wire_dim3(grid),
                                                wire_dim3(block), shared_bytes,
                                                stream, params));
    });
  }

  Error blas_sgemm(int m, int n, int k, float alpha, cuda::DevPtr a, int lda,
                   cuda::DevPtr b, int ldb, float beta, cuda::DevPtr c,
                   int ldc) override {
    return self().forward("cuda.blas_sgemm", [&] {
      return from_wire(
          stub().rpc_blas_sgemm(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc));
    });
  }

  Error blas_sgemv(int m, int n, float alpha, cuda::DevPtr a, int lda,
                   cuda::DevPtr x, float beta, cuda::DevPtr y) override {
    return self().forward("cuda.blas_sgemv", [&] {
      return from_wire(stub().rpc_blas_sgemv(m, n, alpha, a, lda, x, beta, y));
    });
  }

  Error blas_saxpy(int n, float alpha, cuda::DevPtr x,
                   cuda::DevPtr y) override {
    return self().forward("cuda.blas_saxpy", [&] {
      return from_wire(stub().rpc_blas_saxpy(n, alpha, x, y));
    });
  }

  Error blas_snrm2(int n, cuda::DevPtr x, cuda::DevPtr result) override {
    return self().forward("cuda.blas_snrm2", [&] {
      return from_wire(stub().rpc_blas_snrm2(n, x, result));
    });
  }

  Error solver_sgetrf(int n, cuda::DevPtr a, int lda, cuda::DevPtr ipiv,
                      cuda::DevPtr info) override {
    return self().forward("cuda.solver_sgetrf", [&] {
      return from_wire(stub().rpc_solver_sgetrf(n, a, lda, ipiv, info));
    });
  }

  Error solver_sgetrs(int n, int nrhs, cuda::DevPtr a, int lda,
                      cuda::DevPtr ipiv, cuda::DevPtr b, int ldb,
                      cuda::DevPtr info) override {
    return self().forward("cuda.solver_sgetrs", [&] {
      return from_wire(
          stub().rpc_solver_sgetrs(n, nrhs, a, lda, ipiv, b, ldb, info));
    });
  }

  Error solver_spotrf(int n, cuda::DevPtr a, int lda,
                      cuda::DevPtr info) override {
    return self().forward("cuda.solver_spotrf", [&] {
      return from_wire(stub().rpc_solver_spotrf(n, a, lda, info));
    });
  }

  Error solver_spotrs(int n, int nrhs, cuda::DevPtr a, int lda,
                      cuda::DevPtr b, int ldb, cuda::DevPtr info) override {
    return self().forward("cuda.solver_spotrs", [&] {
      return from_wire(stub().rpc_solver_spotrs(n, nrhs, a, lda, b, ldb, info));
    });
  }

 private:
  Derived& self() noexcept { return static_cast<Derived&>(*this); }
  auto& stub() noexcept { return self().stub_; }

  static proto::rpc_dim3 wire_dim3(cuda::Dim3 d) {
    return {xdr::Untrusted<std::uint32_t>(d.x),
            xdr::Untrusted<std::uint32_t>(d.y),
            xdr::Untrusted<std::uint32_t>(d.z)};
  }
};

}  // namespace cricket::core
