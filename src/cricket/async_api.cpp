#include "cricket/async_api.hpp"

#include <utility>

#include "cricket/client.hpp"
#include "cricket_bounds.hpp"
#include "cricket_proto.hpp"
#include "modcache/module_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cricket::core {

using cuda::Error;

namespace {

Error from_wire(std::int32_t err) { return static_cast<Error>(err); }

rpcflow::ChannelOptions channel_options(const AsyncClientConfig& config) {
  rpcflow::ChannelOptions opts;
  // pipeline.enabled=false degrades to a stop-and-wait window of one call:
  // the same wire behaviour as the synchronous client.
  opts.max_outstanding = config.pipeline.enabled ? config.pipeline.depth : 1;
  opts.batch.enabled = config.pipeline.enabled && config.pipeline.batching;
  // Reply pre-flight: reject replies larger than the procedure's proven
  // result bound before they are decoded.
  opts.bounds = proto::bounds::kProcBounds;
  opts.retry = config.retry;
  opts.reconnect = config.reconnect;
  return opts;
}

}  // namespace

AsyncRemoteCudaApi::AsyncRemoteCudaApi(std::unique_ptr<rpc::Transport> transport,
                                       sim::SimClock& clock,
                                       AsyncClientConfig config)
    : clock_(&clock),
      config_(std::move(config)),
      channel_(std::make_unique<rpcflow::AsyncRpcChannel>(
          std::move(transport), proto::CRICKET_PROG, proto::CRICKETVERS_VERS,
          channel_options(config_))) {
  if (auto cred = tenant_credential(config_.tenant, config_.auth_stamp))
    channel_->set_credential(std::move(*cred));
}

AsyncRemoteCudaApi::~AsyncRemoteCudaApi() {
  try {
    drain();
  } catch (...) {
    // Destructor drain is best-effort; the channel teardown below copes
    // with a dead connection.
  }
}

void AsyncRemoteCudaApi::settle_front() {
  try {
    absorb(from_wire(pending_.front().get()));
  } catch (const rpc::RpcError& e) {
    absorb(cuda_error(e));
  } catch (...) {
    absorb(Error::kRpcFailure);
  }
  pending_.pop_front();
}

void AsyncRemoteCudaApi::reap_ready() {
  while (!pending_.empty() && pending_.front().ready()) settle_front();
}

template <typename... Args>
Error AsyncRemoteCudaApi::enqueue(std::uint32_t proc, const Args&... args) {
  ++stats_.api_calls;
  ++stats_.pipelined;
  static obs::Counter& api_calls = obs::Registry::global().counter(
      "cricket_client_api_calls_total", {{"mode", "pipelined"}});
  api_calls.inc();
  clock_->advance(config_.flavor.per_call_ns);
  if (sticky_ == Error::kRpcFailure) return sticky_;
  reap_ready();
  try {
    pending_.push_back(channel_->call_async<std::int32_t>(proc, args...));
  } catch (const rpc::TransportError&) {
    sticky_ = Error::kRpcFailure;
    return sticky_;
  }
  // Fire-and-forget: like a CUDA kernel launch, success here only means
  // "queued"; a device-side failure surfaces at the next sync point.
  return Error::kSuccess;
}

template <typename Res, typename Fn, typename... Args>
Error AsyncRemoteCudaApi::call_blocking(std::uint32_t proc, Fn&& consume,
                                        const Args&... args) {
  ++stats_.api_calls;
  ++stats_.blocking;
  static obs::Counter& api_calls = obs::Registry::global().counter(
      "cricket_client_api_calls_total", {{"mode", "blocking"}});
  api_calls.inc();
  obs::Span span(obs::Layer::kClientCall, "cuda.async_call");
  clock_->advance(config_.flavor.per_call_ns);
  if (sticky_ == Error::kRpcFailure) return sticky_;
  reap_ready();
  try {
    auto fut = channel_->call_async<Res>(proc, args...);
    channel_->flush();
    // The server runs this session's calls in order, so by the time this
    // reply is in hand every earlier pipelined call has executed.
    return consume(fut.get());
  } catch (const rpc::RpcError& e) {
    // Per-call, never sticky: a quota rejection leaves the connection
    // healthy, and a migration redirect that outlived the channel's re-send
    // budget never executed.
    return cuda_error(e);
  } catch (const rpc::TransportError&) {
    sticky_ = Error::kRpcFailure;
    return Error::kRpcFailure;
  } catch (const xdr::XdrError&) {
    return Error::kRpcFailure;
  }
}

void AsyncRemoteCudaApi::absorb(Error err) {
  if (sticky_ == Error::kSuccess && err != Error::kSuccess) sticky_ = err;
}

Error AsyncRemoteCudaApi::drain() {
  ++stats_.drains;
  try {
    channel_->drain();
  } catch (const rpc::TransportError&) {
    absorb(Error::kRpcFailure);
  }
  while (!pending_.empty()) settle_front();
  return sticky_;
}

Error AsyncRemoteCudaApi::sync_point(Error err) {
  absorb(err);
  drain();
  return std::exchange(
      sticky_, sticky_ == Error::kRpcFailure ? sticky_ : Error::kSuccess);
}

void AsyncRemoteCudaApi::disconnect() {
  sticky_ = Error::kRpcFailure;
  channel_->transport().shutdown();
}

// ---- device management --------------------------------------------------

Error AsyncRemoteCudaApi::get_device_count(int& count) {
  return call_blocking<proto::int_result>(
      proto::RPC_GET_DEVICE_COUNT_PROC, [&](const proto::int_result& res) {
        count = res.value;
        return from_wire(res.err);
      });
}

Error AsyncRemoteCudaApi::set_device(int device) {
  return enqueue(proto::RPC_SET_DEVICE_PROC,
                 static_cast<std::int32_t>(device));
}

Error AsyncRemoteCudaApi::get_device(int& device) {
  return call_blocking<proto::int_result>(
      proto::RPC_GET_DEVICE_PROC, [&](const proto::int_result& res) {
        device = res.value;
        return from_wire(res.err);
      });
}

Error AsyncRemoteCudaApi::get_device_properties(cuda::DeviceInfo& info,
                                                int device) {
  return call_blocking<proto::dev_props_result>(
      proto::RPC_GET_DEVICE_PROPERTIES_PROC,
      [&](const proto::dev_props_result& res) {
        if (res.err == 0) {
          info = cuda::DeviceInfo{.name = res.name,
                                  .total_mem = res.total_mem,
                                  .sm_arch = res.sm_arch,
                                  .sm_count = res.sm_count,
                                  .clock_mhz = res.clock_mhz};
        }
        return from_wire(res.err);
      },
      static_cast<std::int32_t>(device));
}

// ---- memory -------------------------------------------------------------

Error AsyncRemoteCudaApi::malloc(cuda::DevPtr& ptr, std::uint64_t size) {
  return call_blocking<proto::u64_result>(
      proto::RPC_MALLOC_PROC,
      [&](const proto::u64_result& res) {
        ptr = res.value;
        return from_wire(res.err);
      },
      size);
}

Error AsyncRemoteCudaApi::free(cuda::DevPtr ptr) {
  return enqueue(proto::RPC_FREE_PROC, ptr);
}

Error AsyncRemoteCudaApi::memset(cuda::DevPtr ptr, int value,
                                 std::uint64_t size) {
  return enqueue(proto::RPC_MEMSET_PROC, ptr, static_cast<std::int32_t>(value),
                 size);
}

Error AsyncRemoteCudaApi::memcpy_h2d(cuda::DevPtr dst,
                                     std::span<const std::uint8_t> src) {
  stats_.bytes_to_device += src.size();
  return enqueue(proto::RPC_MEMCPY_H2D_PROC, dst, src);
}

Error AsyncRemoteCudaApi::memcpy_d2h(std::span<std::uint8_t> dst,
                                     cuda::DevPtr src) {
  stats_.bytes_from_device += dst.size();
  return call_blocking<proto::data_result>(
      proto::RPC_MEMCPY_D2H_PROC,
      [&](const proto::data_result& res) { return copy_d2h(res, dst); },
      src, static_cast<std::uint64_t>(dst.size()));
}

Error AsyncRemoteCudaApi::memcpy_d2d(cuda::DevPtr dst, cuda::DevPtr src,
                                     std::uint64_t size) {
  return enqueue(proto::RPC_MEMCPY_D2D_PROC, dst, src, size);
}

Error AsyncRemoteCudaApi::memcpy_h2d_async(cuda::DevPtr dst,
                                           std::span<const std::uint8_t> src,
                                           cuda::StreamId stream) {
  stats_.bytes_to_device += src.size();
  return enqueue(proto::RPC_MEMCPY_H2D_ASYNC_PROC, dst, src, stream);
}

Error AsyncRemoteCudaApi::memcpy_d2h_async(std::span<std::uint8_t> dst,
                                           cuda::DevPtr src,
                                           cuda::StreamId stream) {
  // The reply carries the bytes, so even the "async" D2H copy must wait for
  // it — same constraint the synchronous client has.
  stats_.bytes_from_device += dst.size();
  return call_blocking<proto::data_result>(
      proto::RPC_MEMCPY_D2H_ASYNC_PROC,
      [&](const proto::data_result& res) { return copy_d2h(res, dst); },
      src, static_cast<std::uint64_t>(dst.size()), stream);
}

// ---- streams and events -------------------------------------------------

Error AsyncRemoteCudaApi::stream_create(cuda::StreamId& stream) {
  return call_blocking<proto::u64_result>(proto::RPC_STREAM_CREATE_PROC,
                                          [&](const proto::u64_result& res) {
                                            stream = res.value;
                                            return from_wire(res.err);
                                          });
}

Error AsyncRemoteCudaApi::stream_destroy(cuda::StreamId stream) {
  return enqueue(proto::RPC_STREAM_DESTROY_PROC, stream);
}

Error AsyncRemoteCudaApi::stream_synchronize(cuda::StreamId stream) {
  return sync_point(call_blocking<std::int32_t>(
      proto::RPC_STREAM_SYNCHRONIZE_PROC,
      [&](std::int32_t res) { return from_wire(res); }, stream));
}

Error AsyncRemoteCudaApi::device_synchronize() {
  return sync_point(call_blocking<std::int32_t>(
      proto::RPC_DEVICE_SYNCHRONIZE_PROC,
      [&](std::int32_t res) { return from_wire(res); }));
}

Error AsyncRemoteCudaApi::stream_wait_event(cuda::StreamId stream,
                                            cuda::EventId event) {
  return enqueue(proto::RPC_STREAM_WAIT_EVENT_PROC, stream, event);
}

Error AsyncRemoteCudaApi::event_create(cuda::EventId& event) {
  return call_blocking<proto::u64_result>(proto::RPC_EVENT_CREATE_PROC,
                                          [&](const proto::u64_result& res) {
                                            event = res.value;
                                            return from_wire(res.err);
                                          });
}

Error AsyncRemoteCudaApi::event_destroy(cuda::EventId event) {
  return enqueue(proto::RPC_EVENT_DESTROY_PROC, event);
}

Error AsyncRemoteCudaApi::event_record(cuda::EventId event,
                                       cuda::StreamId stream) {
  return enqueue(proto::RPC_EVENT_RECORD_PROC, event, stream);
}

Error AsyncRemoteCudaApi::event_synchronize(cuda::EventId event) {
  return sync_point(call_blocking<std::int32_t>(
      proto::RPC_EVENT_SYNCHRONIZE_PROC,
      [&](std::int32_t res) { return from_wire(res); }, event));
}

Error AsyncRemoteCudaApi::event_elapsed_ms(float& ms, cuda::EventId start,
                                           cuda::EventId stop) {
  return call_blocking<proto::float_result>(
      proto::RPC_EVENT_ELAPSED_PROC,
      [&](const proto::float_result& res) {
        ms = res.value;
        return from_wire(res.err);
      },
      start, stop);
}

// ---- modules and launch -------------------------------------------------

Error AsyncRemoteCudaApi::module_load(cuda::ModuleId& module,
                                      std::span<const std::uint8_t> image) {
  if (config_.module_cache) {
    // Two-phase negotiation, same as the synchronous client: probe by
    // content hash plus proof of possession, fall back to the full upload
    // only on kCacheMiss. The probe is blocking anyway (the module id is
    // needed), so pipelining loses nothing.
    const auto proof = modcache::possession_proof(config_.tenant, image);
    bool miss = false;
    const Error err = call_blocking<proto::u64_result>(
        proto::RPC_MODULE_LOAD_CACHED_PROC,
        [&](const proto::u64_result& res) {
          if (from_wire(res.err) == Error::kCacheMiss) {
            miss = true;
            return Error::kSuccess;  // negotiation answer, not a failure
          }
          module = res.value;
          return from_wire(res.err);
        },
        modcache::hash_image(image), std::span<const std::uint8_t>(proof));
    if (!miss) return err;
  }
  return call_blocking<proto::u64_result>(
      proto::RPC_MODULE_LOAD_PROC,
      [&](const proto::u64_result& res) {
        module = res.value;
        return from_wire(res.err);
      },
      image);
}

Error AsyncRemoteCudaApi::module_unload(cuda::ModuleId module) {
  return enqueue(proto::RPC_MODULE_UNLOAD_PROC, module);
}

Error AsyncRemoteCudaApi::module_get_function(cuda::FuncId& func,
                                              cuda::ModuleId module,
                                              const std::string& name) {
  return call_blocking<proto::u64_result>(
      proto::RPC_MODULE_GET_FUNCTION_PROC,
      [&](const proto::u64_result& res) {
        func = res.value;
        return from_wire(res.err);
      },
      module, name);
}

Error AsyncRemoteCudaApi::module_get_global(cuda::DevPtr& ptr,
                                            cuda::ModuleId module,
                                            const std::string& name) {
  return call_blocking<proto::u64_result>(
      proto::RPC_MODULE_GET_GLOBAL_PROC,
      [&](const proto::u64_result& res) {
        ptr = res.value;
        return from_wire(res.err);
      },
      module, name);
}

Error AsyncRemoteCudaApi::launch_kernel(cuda::FuncId func, cuda::Dim3 grid,
                                        cuda::Dim3 block,
                                        std::uint32_t shared_bytes,
                                        cuda::StreamId stream,
                                        std::span<const std::uint8_t> params) {
  clock_->advance(config_.flavor.launch_extra_ns);
  return enqueue(proto::RPC_LAUNCH_KERNEL_PROC, func,
                 proto::rpc_dim3{xdr::Untrusted<std::uint32_t>(grid.x),
                                xdr::Untrusted<std::uint32_t>(grid.y),
                                xdr::Untrusted<std::uint32_t>(grid.z)},
                 proto::rpc_dim3{xdr::Untrusted<std::uint32_t>(block.x),
                                xdr::Untrusted<std::uint32_t>(block.y),
                                xdr::Untrusted<std::uint32_t>(block.z)}, shared_bytes,
                 stream, params);
}

// ---- BLAS / solver ------------------------------------------------------

Error AsyncRemoteCudaApi::blas_sgemm(int m, int n, int k, float alpha,
                                     cuda::DevPtr a, int lda, cuda::DevPtr b,
                                     int ldb, float beta, cuda::DevPtr c,
                                     int ldc) {
  return enqueue(proto::RPC_BLAS_SGEMM_PROC, static_cast<std::int32_t>(m),
                 static_cast<std::int32_t>(n), static_cast<std::int32_t>(k),
                 alpha, a, static_cast<std::int32_t>(lda), b,
                 static_cast<std::int32_t>(ldb), beta, c,
                 static_cast<std::int32_t>(ldc));
}

Error AsyncRemoteCudaApi::blas_sgemv(int m, int n, float alpha, cuda::DevPtr a,
                                     int lda, cuda::DevPtr x, float beta,
                                     cuda::DevPtr y) {
  return enqueue(proto::RPC_BLAS_SGEMV_PROC, static_cast<std::int32_t>(m),
                 static_cast<std::int32_t>(n), alpha, a,
                 static_cast<std::int32_t>(lda), x, beta, y);
}

Error AsyncRemoteCudaApi::blas_saxpy(int n, float alpha, cuda::DevPtr x,
                                     cuda::DevPtr y) {
  return enqueue(proto::RPC_BLAS_SAXPY_PROC, static_cast<std::int32_t>(n),
                 alpha, x, y);
}

Error AsyncRemoteCudaApi::blas_snrm2(int n, cuda::DevPtr x,
                                     cuda::DevPtr result) {
  return enqueue(proto::RPC_BLAS_SNRM2_PROC, static_cast<std::int32_t>(n), x,
                 result);
}

Error AsyncRemoteCudaApi::solver_sgetrf(int n, cuda::DevPtr a, int lda,
                                        cuda::DevPtr ipiv, cuda::DevPtr info) {
  return enqueue(proto::RPC_SOLVER_SGETRF_PROC, static_cast<std::int32_t>(n),
                 a, static_cast<std::int32_t>(lda), ipiv, info);
}

Error AsyncRemoteCudaApi::solver_sgetrs(int n, int nrhs, cuda::DevPtr a,
                                        int lda, cuda::DevPtr ipiv,
                                        cuda::DevPtr b, int ldb,
                                        cuda::DevPtr info) {
  return enqueue(proto::RPC_SOLVER_SGETRS_PROC, static_cast<std::int32_t>(n),
                 static_cast<std::int32_t>(nrhs), a,
                 static_cast<std::int32_t>(lda), ipiv, b,
                 static_cast<std::int32_t>(ldb), info);
}

Error AsyncRemoteCudaApi::solver_spotrf(int n, cuda::DevPtr a, int lda,
                                        cuda::DevPtr info) {
  return enqueue(proto::RPC_SOLVER_SPOTRF_PROC, static_cast<std::int32_t>(n),
                 a, static_cast<std::int32_t>(lda), info);
}

Error AsyncRemoteCudaApi::solver_spotrs(int n, int nrhs, cuda::DevPtr a,
                                        int lda, cuda::DevPtr b, int ldb,
                                        cuda::DevPtr info) {
  return enqueue(proto::RPC_SOLVER_SPOTRS_PROC, static_cast<std::int32_t>(n),
                 static_cast<std::int32_t>(nrhs), a,
                 static_cast<std::int32_t>(lda), b,
                 static_cast<std::int32_t>(ldb), info);
}

}  // namespace cricket::core
