// The CUDA call table both cudart clients share: every CudaApi entry point
// goes through the generated RPCL stub, so a Cricket server must receive the
// same procedures with the same argument bytes from the synchronous and the
// pipelined client, and both must report the same results. What stays per
// client — when an error surfaces, what the stats count, where the per-call
// flavor cost is charged, what latches — is pinned on one fixed sequence.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "cricket/async_api.hpp"
#include "cricket/client.hpp"
#include "cricket/server.hpp"
#include "cudart/raii.hpp"
#include "fatbin/cubin.hpp"
#include "rpc/rpc_msg.hpp"
#include "rpc/transport.hpp"

namespace cricket::core {
namespace {

using cuda::Error;

// ----------------------------- server-side tap -----------------------------

/// Every byte the server end of a connection received.
struct Received {
  std::mutex mu;
  std::vector<std::uint8_t> bytes;

  void append(std::span<const std::uint8_t> data) {
    const std::lock_guard<std::mutex> lock(mu);
    bytes.insert(bytes.end(), data.begin(), data.end());
  }
};

class TapTransport final : public rpc::Transport {
 public:
  TapTransport(std::unique_ptr<rpc::Transport> inner,
               std::shared_ptr<Received> received)
      : inner_(std::move(inner)), received_(std::move(received)) {}

  void send(std::span<const std::uint8_t> data) override { inner_->send(data); }
  std::size_t recv(std::span<std::uint8_t> out) override {
    const std::size_t n = inner_->recv(out);
    received_->append(out.first(n));
    return n;
  }
  void recv_exact(std::span<std::uint8_t> out) override {
    inner_->recv_exact(out);
    received_->append(out);
  }
  bool set_recv_timeout(std::chrono::nanoseconds timeout) override {
    return inner_->set_recv_timeout(timeout);
  }
  void shutdown() override { inner_->shutdown(); }

 private:
  std::unique_ptr<rpc::Transport> inner_;
  std::shared_ptr<Received> received_;
};

struct ServerCall {
  std::uint32_t proc = 0;
  std::vector<std::uint8_t> args;
  bool operator==(const ServerCall&) const = default;
};

void PrintTo(const ServerCall& call, std::ostream* os) {
  *os << "proc " << call.proc << " (" << call.args.size() << " arg bytes)";
}

/// Splits a record-marked byte stream into its calls.
std::vector<ServerCall> decode_calls(std::span<const std::uint8_t> stream) {
  std::vector<ServerCall> calls;
  std::vector<std::uint8_t> record;
  std::size_t pos = 0;
  while (pos + 4 <= stream.size()) {
    const std::uint32_t header = (std::uint32_t{stream[pos]} << 24) |
                                 (std::uint32_t{stream[pos + 1]} << 16) |
                                 (std::uint32_t{stream[pos + 2]} << 8) |
                                 std::uint32_t{stream[pos + 3]};
    pos += 4;
    const std::size_t len = header & 0x7FFFFFFFu;
    if (pos + len > stream.size()) break;  // cut off by the close
    record.insert(record.end(), stream.begin() + static_cast<long>(pos),
                  stream.begin() + static_cast<long>(pos + len));
    pos += len;
    if ((header & 0x80000000u) == 0) continue;
    const rpc::CallMsg call = rpc::decode_call(record);
    calls.push_back({call.proc, {call.args.begin(), call.args.end()}});
    record.clear();
  }
  return calls;
}

// ------------------------------- the script --------------------------------

fatbin::CubinImage saxpy_image() {
  fatbin::CubinImage img;
  img.sm_arch = 75;
  fatbin::KernelDescriptor k;
  k.name = "table_saxpy";
  k.params = {{.size = 8, .align = 8, .is_pointer = true},
              {.size = 8, .align = 8, .is_pointer = true},
              {.size = 4, .align = 4, .is_pointer = false},
              {.size = 4, .align = 4, .is_pointer = false}};
  img.kernels.push_back(k);
  fatbin::GlobalSymbol g;
  g.name = "g_scale";
  g.size = 4;
  g.init = {0, 0, 128, 63};  // 1.0f little-endian
  img.globals.push_back(g);
  img.code = fatbin::make_pseudo_isa(256, 9);
  return img;
}

void register_saxpy(gpusim::KernelRegistry& reg) {
  reg.register_kernel("table_saxpy", [](gpusim::LaunchContext& ctx) {
    const auto y = ctx.ptr_param(0);
    const auto x = ctx.ptr_param(1);
    const float a = ctx.param<float>(2);
    const auto n = ctx.param<std::uint32_t>(3);
    if (!ctx.timing_only()) {
      auto ys = ctx.mem_as<float>(y, n);
      auto xs = ctx.mem_as<float>(x, n);
      for (std::uint32_t i = 0; i < n; ++i) ys[i] += a * xs[i];
    }
    ctx.charge_flops(2.0 * n);
    ctx.charge_dram_bytes(12.0 * n);
  });
}

std::vector<std::uint8_t> float_bytes(const std::vector<float>& values) {
  std::vector<std::uint8_t> bytes(values.size() * sizeof(float));
  std::memcpy(bytes.data(), values.data(), bytes.size());
  return bytes;
}

std::string hex(std::span<const std::uint8_t> bytes) {
  std::string out;
  char digits[3];
  for (const std::uint8_t b : bytes) {
    std::snprintf(digits, sizeof(digits), "%02x", b);
    out += digits;
  }
  return out;
}

std::string hex(std::uint64_t value) {
  char digits[17];
  std::snprintf(digits, sizeof(digits), "%llx",
                static_cast<unsigned long long>(value));
  return digits;
}

/// One line per CUDA call: what was called, its error code, and any value
/// it returned. `log.step(what, call(out)).with(out)` reads `out` after the
/// call: the object expression of a member call is sequenced before its
/// arguments.
struct Log {
  std::vector<std::string> lines;

  Log& step(const std::string& what, Error err) {
    lines.push_back(what + " -> " + std::to_string(static_cast<int>(err)));
    return *this;
  }
  void with(const std::string& value) { lines.back() += " " + value; }
};

constexpr int kN = 4;  // matrix order
constexpr std::uint64_t kVec = kN * sizeof(float);
constexpr std::uint64_t kMat = kN * kN * sizeof(float);
constexpr cuda::DevPtr kBadPointer = 0xDEAD0000;

/// What the script copies to and from the device: `a` and two async
/// vectors up; one async vector and seven read-backs (x, y, prod, the
/// 16-byte pivots, and three 4-byte scalars) down.
constexpr std::uint64_t kBytesWritten = kMat + 2 * kVec;
constexpr std::uint64_t kBytesRead = 3 * kVec + kMat + 16 + 3 * 4;

/// The step of the script whose failure the pipelined client defers.
const std::string kBadFree = "free(bad)";

/// Every one of the 35 CudaApi entry points, each call expected to succeed
/// except the free of an invalid pointer, with the module load exercising
/// both the cache miss (probe + upload) and the hit.
std::vector<std::string> run_every_entry_point(cuda::CudaApi& api) {
  Log log;
  int count = -1;
  log.step("get_device_count", api.get_device_count(count))
      .with(std::to_string(count));
  log.step("set_device", api.set_device(0));
  int device = -1;
  log.step("get_device", api.get_device(device)).with(std::to_string(device));
  cuda::DeviceInfo info;
  log.step("get_device_properties", api.get_device_properties(info, 0))
      .with(info.name + "/" + std::to_string(info.total_mem) + "/" +
            std::to_string(info.sm_arch) + "/" +
            std::to_string(info.sm_count) + "/" +
            std::to_string(info.clock_mhz));

  cuda::DevPtr a = 0, lu = 0, prod = 0, x = 0, y = 0, ipiv = 0, status = 0,
               norm = 0;
  log.step("malloc a", api.malloc(a, kMat)).with(hex(a));
  log.step("malloc lu", api.malloc(lu, kMat)).with(hex(lu));
  log.step("malloc prod", api.malloc(prod, kMat)).with(hex(prod));
  log.step("malloc x", api.malloc(x, kVec)).with(hex(x));
  log.step("malloc y", api.malloc(y, kVec)).with(hex(y));
  log.step("malloc ipiv", api.malloc(ipiv, kN * 4)).with(hex(ipiv));
  log.step("malloc status", api.malloc(status, 4)).with(hex(status));
  log.step("malloc norm", api.malloc(norm, 4)).with(hex(norm));

  // Symmetric, diagonally dominant: positive definite and non-singular.
  std::vector<float> spd(kN * kN, 1.0f);
  for (int i = 0; i < kN; ++i) spd[i * kN + i] = 4.0f + static_cast<float>(i);
  log.step("memset", api.memset(prod, 0, kMat));
  log.step("memcpy_h2d", api.memcpy_h2d(a, float_bytes(spd)));
  log.step("memcpy_d2d", api.memcpy_d2d(lu, a, kMat));

  cuda::StreamId stream = 0;
  cuda::EventId start = 0, stop = 0;
  log.step("stream_create", api.stream_create(stream)).with(hex(stream));
  log.step("event_create start", api.event_create(start)).with(hex(start));
  log.step("event_create stop", api.event_create(stop)).with(hex(stop));
  log.step("event_record start", api.event_record(start, stream));
  log.step("memcpy_h2d_async",
           api.memcpy_h2d_async(x, float_bytes({1, 2, 3, 4}), stream));
  log.step("memcpy_h2d_async y",
           api.memcpy_h2d_async(y, float_bytes({5, 6, 7, 8}), stream));
  log.step("stream_wait_event", api.stream_wait_event(stream, start));
  log.step("event_record stop", api.event_record(stop, stream));
  std::vector<std::uint8_t> back(kVec);
  log.step("memcpy_d2h_async", api.memcpy_d2h_async(back, x, stream))
      .with(hex(back));
  log.step("event_synchronize", api.event_synchronize(stop));
  float ms = -1.0f;
  log.step("event_elapsed_ms", api.event_elapsed_ms(ms, start, stop))
      .with(std::to_string(ms));
  log.step("stream_synchronize", api.stream_synchronize(stream));
  log.step("event_destroy start", api.event_destroy(start));
  log.step("event_destroy stop", api.event_destroy(stop));
  log.step("stream_destroy", api.stream_destroy(stream));

  const auto image = fatbin::cubin_serialize(saxpy_image());
  cuda::ModuleId module = 0, again = 0;
  log.step("module_load (miss)", api.module_load(module, image))
      .with(hex(module));
  log.step("module_load (hit)", api.module_load(again, image)).with(hex(again));
  cuda::FuncId func = 0;
  log.step("module_get_function",
           api.module_get_function(func, module, "table_saxpy"))
      .with(hex(func));
  cuda::DevPtr global = 0;
  log.step("module_get_global",
           api.module_get_global(global, module, "g_scale"))
      .with(hex(global));
  cuda::ParamPacker params;
  params.add_ptr(y).add_ptr(x).add(0.5f).add(static_cast<std::uint32_t>(kN));
  log.step("launch_kernel",
           api.launch_kernel(func, {1, 1, 1}, {kN, 1, 1}, 0,
                             gpusim::kDefaultStream, params.bytes()));

  log.step("blas_saxpy", api.blas_saxpy(kN, 2.0f, x, y));
  log.step("blas_snrm2", api.blas_snrm2(kN, y, norm));
  log.step("blas_sgemv", api.blas_sgemv(kN, kN, 1.0f, a, kN, x, 0.5f, y));
  log.step("blas_sgemm",
           api.blas_sgemm(kN, kN, kN, 1.0f, a, kN, lu, kN, 0.0f, prod, kN));
  log.step("solver_sgetrf", api.solver_sgetrf(kN, lu, kN, ipiv, status));
  log.step("solver_sgetrs",
           api.solver_sgetrs(kN, 1, lu, kN, ipiv, y, kN, status));
  log.step("solver_spotrf", api.solver_spotrf(kN, a, kN, status));
  log.step("solver_spotrs", api.solver_spotrs(kN, 1, a, kN, x, kN, status));

  log.step(kBadFree, api.free(kBadPointer));
  log.step("device_synchronize", api.device_synchronize());

  struct Readback {
    const char* name;
    cuda::DevPtr ptr;
    std::uint64_t size;
  };
  for (const Readback& r : {Readback{"x", x, kVec}, Readback{"y", y, kVec},
                            Readback{"prod", prod, kMat},
                            Readback{"ipiv", ipiv, kN * 4},
                            Readback{"status", status, 4},
                            Readback{"norm", norm, 4},
                            Readback{"global", global, 4}}) {
    std::vector<std::uint8_t> bytes(r.size);
    log.step(std::string("memcpy_d2h ") + r.name, api.memcpy_d2h(bytes, r.ptr))
        .with(hex(bytes));
  }
  log.step("module_unload (hit)", api.module_unload(again));
  log.step("module_unload", api.module_unload(module));
  for (const cuda::DevPtr ptr : {a, lu, prod, x, y, ipiv, status, norm})
    log.step("free", api.free(ptr));
  log.step("device_synchronize (end)", api.device_synchronize());
  return log.lines;
}

// ------------------------------- the harness -------------------------------

constexpr sim::Nanos kPerCallNs = 1000;
constexpr sim::Nanos kLaunchExtraNs = 7;

env::ClientFlavor test_flavor() {
  env::ClientFlavor flavor;
  flavor.name = "table-test";
  flavor.per_call_ns = kPerCallNs;
  flavor.launch_extra_ns = kLaunchExtraNs;
  return flavor;
}

/// What one client run produced.
template <typename Stats>
struct Run {
  std::vector<std::string> log;
  std::vector<ServerCall> calls;
  Stats stats{};
  /// The client's own clock: only the flavor costs land on it (the pipe
  /// charges nothing, the device charges the node's clock).
  sim::Nanos client_ns = 0;
};

/// Runs the script through a `Client` against its own fresh node and
/// module-caching CricketServer. Device handles come from the node, so
/// fresh, identically built servers make the argument bytes of two runs
/// comparable. `after` runs on the still-connected client.
template <typename Client, typename Config, typename After>
auto run_client(Config config, After&& after) {
  auto node = cuda::GpuNode::make_paper_testbed();
  register_saxpy(node->registry());
  CricketServer server(*node, ServerOptions{.module_cache = true});
  auto [client_end, server_end] = rpc::make_pipe_pair();
  auto received = std::make_shared<Received>();
  std::thread serving = server.serve_async(
      std::make_unique<TapTransport>(std::move(server_end), received));
  sim::SimClock client_clock;
  Run<std::remove_cvref_t<decltype(std::declval<Client&>().stats())>> run;
  {
    Client api(std::move(client_end), client_clock, std::move(config));
    run.log = run_every_entry_point(api);
    after(api);
    run.stats = api.stats();
    run.client_ns = client_clock.now();
  }
  serving.join();
  run.calls = decode_calls(received->bytes);
  return run;
}

ClientConfig sync_config() {
  ClientConfig config;
  config.flavor = test_flavor();
  config.module_cache = true;
  return config;
}

AsyncClientConfig async_config() {
  AsyncClientConfig config;
  config.flavor = test_flavor();
  config.pipeline = {.enabled = true, .depth = 8, .batching = true};
  config.module_cache = true;
  return config;
}

std::size_t index_of(const std::vector<std::string>& log,
                     const std::string& prefix) {
  for (std::size_t i = 0; i < log.size(); ++i)
    if (log[i].rfind(prefix + " ->", 0) == 0) return i;
  return log.size();
}

TEST(CallTable, BothClientsPutTheSameCallsOnTheWire) {
  const auto sync = run_client<RemoteCudaApi>(sync_config(), [](auto&) {});
  const auto async =
      run_client<AsyncRemoteCudaApi>(async_config(), [](auto&) {});

  ASSERT_EQ(sync.log.size(), 63u);
  EXPECT_EQ(sync.calls, async.calls);
  EXPECT_EQ(sync.calls.size(), 64u);  // the cache miss probes, then uploads

  // Every call succeeds on the synchronous client but the bad free.
  const std::size_t bad = index_of(sync.log, kBadFree);
  ASSERT_LT(bad + 1, sync.log.size());
  for (std::size_t i = 0; i < sync.log.size(); ++i) {
    if (i == bad) continue;
    EXPECT_NE(sync.log[i].find(" -> 0"), std::string::npos) << sync.log[i];
  }
  const int invalid = static_cast<int>(Error::kInvalidDevicePointer);
  EXPECT_EQ(sync.log[bad], kBadFree + " -> " + std::to_string(invalid));
  EXPECT_EQ(sync.log[bad + 1], "device_synchronize -> 0");

  // The pipelined client reports the same results, except that the bad
  // free is queued and fails at the next sync point.
  auto expected = sync.log;
  expected[bad] = kBadFree + " -> 0";
  expected[bad + 1] = "device_synchronize -> " + std::to_string(invalid);
  EXPECT_EQ(async.log, expected);
}

TEST(CallTable, SyncClientCountsCudaCallsAndChargesEach) {
  const auto run = run_client<RemoteCudaApi>(sync_config(), [](
                                                 RemoteCudaApi& api) {
    // A dead link: the call that finds it fails and latches; later calls
    // fail fast, are still counted, and charge nothing.
    api.disconnect();
    EXPECT_EQ(api.free(1), Error::kRpcFailure);
    EXPECT_EQ(api.sticky_error(), Error::kRpcFailure);
    int count = 0;
    EXPECT_EQ(api.get_device_count(count), Error::kRpcFailure);
    EXPECT_EQ(api.device_synchronize(), Error::kRpcFailure);
  });
  EXPECT_EQ(run.stats.api_calls, 66u);  // 63 scripted + 3 after disconnect
  EXPECT_EQ(run.stats.bytes_to_device, kBytesWritten);
  EXPECT_EQ(run.stats.bytes_from_device, kBytesRead);
  EXPECT_EQ(run.stats.module_cache_hits, 1u);
  // Once per CUDA call up to and including the one that found the link
  // dead, plus the launch's compatibility cost.
  EXPECT_EQ(run.client_ns, 64 * kPerCallNs + kLaunchExtraNs);
}

TEST(CallTable, PipelinedClientCountsRpcsAndChargesEach) {
  const auto run = run_client<AsyncRemoteCudaApi>(async_config(), [](
                                                      AsyncRemoteCudaApi& api) {
    // disconnect() latches at once; every later RPC is counted and charged
    // but fails without touching the wire, and sync points stay failed.
    api.disconnect();
    EXPECT_EQ(api.free(1), Error::kRpcFailure);
    int count = 0;
    EXPECT_EQ(api.get_device_count(count), Error::kRpcFailure);
    EXPECT_EQ(api.device_synchronize(), Error::kRpcFailure);
    EXPECT_EQ(api.drain(), Error::kRpcFailure);
  });
  // 64 scripted RPCs (the cache miss is a probe plus an upload) + 3.
  EXPECT_EQ(run.stats.api_calls, 67u);
  EXPECT_EQ(run.stats.pipelined, 33u);
  EXPECT_EQ(run.stats.blocking, 34u);
  // Four scripted synchronize calls, the one after disconnect, and the
  // explicit drain.
  EXPECT_EQ(run.stats.drains, 6u);
  EXPECT_EQ(run.stats.bytes_to_device, kBytesWritten);
  EXPECT_EQ(run.stats.bytes_from_device, kBytesRead);
  EXPECT_EQ(run.stats.module_cache_hits, 1u);
  EXPECT_EQ(run.client_ns, 67 * kPerCallNs + kLaunchExtraNs);
}

}  // namespace
}  // namespace cricket::core
