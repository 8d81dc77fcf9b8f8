// perfbench: real-time benchmark of the CUDA forwarding path on the Hermit
// preset (GpuNode + CricketServer + env::connect + RemoteCudaApi /
// AsyncRemoteCudaApi). See README.md for the workloads and metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --selftest
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1
// the per-layer ones. Exit status: 0 when every op succeeded and every
// check held, 1 otherwise, 2 on a usage error (no result printed).
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cricket/async_api.hpp"
#include "cricket/client.hpp"
#include "cricket/server.hpp"
#include "cudart/local_api.hpp"
#include "env/environment.hpp"
#include "probes.hpp"
#include "recorder.hpp"
#include "vnet/virtio_net.hpp"
#include "workloads.hpp"
#include "workloads/kernels.hpp"

namespace perfbench {
namespace {

using namespace cricket;

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 9;
/// Fresh-stack replays of one session for sim.vclock_drift_ns.
constexpr int kDriftReplays = 3;
/// EXPERIMENTS.md Figure 6, Hermit row, virtual µs per call.
constexpr double kFig6GetDeviceCountUs = 95.01;
constexpr double kFig6MallocFreeUs = 96.91;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},        {"ops_per_s", "ops/s"},
    {"maxrss_mb", "MiB"},    {"call_us.mean", "us"},
    {"h2d_mib_s", "MiB/s"},  {"d2h_mib_s", "MiB/s"},
    {"burst_us.mean", "us"}, {"burst_us.p90", "us"},
    {"session_ms.mean", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    {"cricket.client_self_us", "us"},
    {"cricket.server_self_us", "us"},
    {"cricket.connect_ms", "ms"},
    {"vnet.send_us", "us"},
    {"vnet.recv_wait_us", "us"},
    {"vnet.c2s_hop_us", "us"},
    {"vnet.s2c_hop_us", "us"},
    {"vnet.tx_frames", "1/op"},
    {"vnet.rx_frames", "1/op"},
    {"vnet.tx_kicks", "1/op"},
    {"vnet.rx_interrupts", "1/op"},
    {"rpc.guest.sends_per_op", "1/op"},
    {"rpc.guest.recvs_per_op", "1/op"},
    {"rpc.server.sends_per_op", "1/op"},
    {"rpc.server.recvs_per_op", "1/op"},
    {"rpc.c2s_wire_bytes_per_op", "B/op"},
    {"rpc.s2c_wire_bytes_per_op", "B/op"},
    {"rpcflow.sends_per_burst", "1/burst"},
    {"rpcflow.max_in_flight", "count"},
    {"rpcflow.drain_us", "us"},
    {"gpusim.local_op_us", "us"},
    {"modcache.hit_ratio", "ratio"},
    {"modcache.cold_load_ms", "ms"},
    {"modcache.warm_load_ms", "ms"},
    {"proc.vcs_per_op", "1/op"},
    {"proc.ivcs_per_op", "1/op"},
    {"proc.minflt_per_page", "1/page"},
    {"proc.allocs_per_op", "1/op"},
    {"proc.alloc_bytes_per_payload_byte", "B/B"},
    {"sim.virt_us.get_device_count", "us"},
    {"sim.virt_us.malloc_free", "us"},
    {"sim.virt_us.memcpy_h2d", "us"},
    {"sim.virt_us.memcpy_d2h", "us"},
    {"sim.virt_us.synchronize", "us"},
    {"sim.virt_us.module_load", "us"},
    {"sim.vclock_drift_ns", "ns"},
    {"proc.offcpu_pct", "%"},
    {"trace.overhead_pct", "%"},
};

// ---------------------------------------------------------------------------
// The stack under test
// ---------------------------------------------------------------------------

/// One GPU node with its Cricket server; lives for a whole run while
/// sessions come and go.
class Stack {
 public:
  explicit Stack(const Workload& workload)
      : node_(cuda::GpuNode::make_a100()) {
    workloads::register_sample_kernels(node_->registry());
    core::ServerOptions options;
    options.module_cache = true;
    if (workload.pipelined()) options.serve.workers = 1;
    server_ = std::make_unique<core::CricketServer>(*node_, options);
    node_->device(0).set_timing_only(workload.timing_only());
  }

  [[nodiscard]] cuda::GpuNode& node() { return *node_; }
  [[nodiscard]] core::CricketServer& server() { return *server_; }

 private:
  std::unique_ptr<cuda::GpuNode> node_;
  std::unique_ptr<core::CricketServer> server_;
};

/// Guest-end and server-end probes of a traced phase.
struct Probes {
  HopLink link;
  EndProbe guest{EndProbe::End::kGuest, link};
  EndProbe server{EndProbe::End::kServer, link};
};

/// Client and transport counters summed over a phase's sessions.
struct ConnTotals {
  std::uint64_t api_calls = 0;
  std::uint64_t frames_tx = 0;
  std::uint64_t frames_rx = 0;
  std::uint64_t tx_kicks = 0;
  std::uint64_t rx_interrupts = 0;
  std::uint32_t max_in_flight = 0;
};

/// One client connection: env::connect on the Hermit preset, a server
/// thread serving it, and the serial or pipelined client.
class Session {
 public:
  Session(Stack& stack, const Workload& workload, Probes* probes) {
    env::Environment environment =
        env::make_environment(env::EnvKind::kRustyHermit);
    if (workload.pipelined())
      environment = env::with_pipelining(environment, 32, true);
    auto conn = env::connect(environment, stack.node().clock());
    virtio_ = dynamic_cast<vnet::VirtioNetTransport*>(conn.guest.get());
    if (virtio_ == nullptr)
      throw std::logic_error("Hermit guest transport is not virtio-net");
    if (probes != nullptr) {
      probes->link.reset_pending();
      probes->guest.reset_session();
      probes->server.reset_session();
      probes->guest.app_thread = std::this_thread::get_id();
      conn.guest = std::make_unique<TimingTransport>(std::move(conn.guest),
                                                     probes->guest);
      conn.server = std::make_unique<TimingTransport>(std::move(conn.server),
                                                      probes->server);
    }
    server_thread_ = stack.server().serve_async(std::move(conn.server));
    if (workload.pipelined()) {
      core::AsyncClientConfig config;
      config.flavor = environment.flavor;
      config.pipeline = environment.pipeline;
      config.module_cache = true;
      async_ = std::make_unique<core::AsyncRemoteCudaApi>(
          std::move(conn.guest), stack.node().clock(), config);
    } else {
      core::ClientConfig config{.flavor = environment.flavor,
                                .profile = environment.profile};
      config.module_cache = true;
      serial_ = std::make_unique<core::RemoteCudaApi>(
          std::move(conn.guest), stack.node().clock(), config);
    }
  }

  ~Session() { close(); }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] cuda::CudaApi& api() {
    return async_ ? static_cast<cuda::CudaApi&>(*async_) : *serial_;
  }
  [[nodiscard]] const core::AsyncRemoteCudaApi* async() const {
    return async_.get();
  }

  /// Adds this session's counters to `totals`, then disconnects and waits
  /// for the server to finish the session.
  void close(ConnTotals& totals) {
    const vnet::TransportStats vs = virtio_->stats();
    totals.frames_tx += vs.frames_tx;
    totals.frames_rx += vs.frames_rx;
    totals.tx_kicks += virtio_->tx_kicks();
    totals.rx_interrupts += virtio_->rx_interrupts();
    if (async_) {
      totals.api_calls += async_->stats().api_calls;
      totals.max_in_flight = std::max(totals.max_in_flight,
                                      async_->channel().stats().max_in_flight);
    } else {
      totals.api_calls += serial_->stats().api_calls;
      totals.max_in_flight = std::max(totals.max_in_flight, 1u);
    }
    close();
  }

 private:
  void close() {
    async_.reset();
    serial_.reset();
    if (server_thread_.joinable()) server_thread_.join();
  }

  vnet::VirtioNetTransport* virtio_ = nullptr;  // owned by the client
  std::thread server_thread_;
  std::unique_ptr<core::RemoteCudaApi> serial_;
  std::unique_ptr<core::AsyncRemoteCudaApi> async_;
};

// ---------------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------------

/// The end-to-end rates and means are computed for each of kWindows equal
/// slices of the timed run (a session belongs to the slice it ends in) and
/// reported as the median over the slices. Means, not medians, of the
/// samples in a slice: per-session times are bimodal, and a median jumps
/// between the modes where a mean moves smoothly.
constexpr int kWindows = 10;

/// One timed session's share of a phase.
struct SessionRecord {
  std::uint64_t index = 0;
  std::int64_t end_ns = 0;
  double wall_s = 0;
  double busy_s = 0;
  double probe_us = 0;  // SpeedProbe right after the session
  std::uint64_t api_calls = 0;
  Recorder::Mark start;  // the phase recorder before the session
};

/// The sessions of one kind (traced or untraced) and what they measured.
struct Phase {
  explicit Phase(const sim::SimClock& clock) : rec(&clock) {}

  Recorder rec;
  ConnTotals conn;
  std::vector<SessionRecord> sessions;  // in run order
  std::int64_t start_ns = 0;
  std::int64_t window_ns = 1;
  // Summed over the phase's sessions:
  double wall_s = 0;
  double busy_s = 0;
  std::uint64_t vcs = 0;
  std::uint64_t ivcs = 0;
  std::uint64_t minflt = 0;
  AllocCount allocs;  // traced sessions only
  std::uint64_t cache_hits = 0;

  [[nodiscard]] double ops() const {
    return static_cast<double>(std::max<std::uint64_t>(conn.api_calls, 1));
  }
};

/// Runs sessions first, first + 1, ... until `seconds` have passed; the
/// session in progress at the deadline completes, and a traced run has at
/// least one session of each kind. Without `traced` every session lands in
/// `untraced`. With it, sessions alternate untraced / traced (through
/// `probes` and the counting allocator), so both kinds see the same
/// machine conditions and the same warm-up state. `speed` runs after each
/// session.
void run_sessions(Stack& stack, const Workload& workload, std::uint64_t first,
                  double seconds, SpeedProbe& speed, Phase& untraced,
                  Phase* traced, Probes* probes) {
  const std::int64_t start = now_ns();
  const auto length = static_cast<std::int64_t>(seconds * 1e9);
  for (Phase* phase : {&untraced, traced}) {
    if (phase == nullptr) continue;
    phase->start_ns = start;
    phase->window_ns = std::max<std::int64_t>(length / kWindows, 1);
  }
  std::uint64_t index = first;
  do {
    const bool trace = traced != nullptr && (index - first) % 2 == 1;
    Phase& phase = trace ? *traced : untraced;
    Probes* const session_probes = trace ? probes : nullptr;
    SessionRecord record{.index = index, .start = phase.rec.mark()};
    const std::uint64_t calls0 = phase.conn.api_calls;
    const std::uint64_t hits0 = stack.server().module_cache()->stats().hits;
    set_alloc_counting(trace);
    const Usage u0 = Usage::now();
    const AllocCount a0 = alloc_count();
    const std::int64_t b0 = busy_ns();
    const std::int64_t t0 = now_ns();
    phase.rec.begin_session(trace ? &probes->guest : nullptr);
    {
      Session session(stack, workload, session_probes);
      phase.rec.set_async(session.async());
      workload.session(session.api(), phase.rec, index);
      session.close(phase.conn);
    }
    phase.rec.end_session();
    record.end_ns = now_ns();
    const std::int64_t b1 = busy_ns();
    const Usage u1 = Usage::now();
    const AllocCount a1 = alloc_count();
    set_alloc_counting(false);
    record.wall_s = static_cast<double>(record.end_ns - t0) / 1e9;
    record.busy_s = static_cast<double>(b1 - b0) / 1e9;
    record.api_calls = phase.conn.api_calls - calls0;
    phase.wall_s += record.wall_s;
    phase.busy_s += record.busy_s;
    phase.vcs += u1.vcs - u0.vcs;
    phase.ivcs += u1.ivcs - u0.ivcs;
    phase.minflt += u1.minflt - u0.minflt;
    phase.allocs.calls += a1.calls - a0.calls;
    phase.allocs.bytes += a1.bytes - a0.bytes;
    phase.cache_hits += stack.server().module_cache()->stats().hits - hits0;
    record.probe_us = speed.run_us();
    phase.sessions.push_back(record);
    ++index;
  } while (now_ns() < start + length ||
           (traced != nullptr && traced->sessions.empty()));
}

/// Everything built before the first timed op.
struct Setup {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<Stack> stack;
  std::vector<double> setup_s;
  std::vector<double> setup_probe_us;  // SpeedProbe after each set-up
  std::vector<double> cold_load_ms;    // first module load on a fresh server
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
};

/// Sets up kSetups times (inputs, node, server, a warm-up session with the
/// cold module load) and keeps the last stack for the timed phases. Each
/// set-up is timed in busy time and followed by a run of `speed`.
Setup set_up(const std::string& name, std::uint64_t seed, SpeedProbe& speed) {
  Setup s;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t t0 = busy_ns();
    s.stack.reset();
    s.workload = make_workload(name);
    s.stack = std::make_unique<Stack>(*s.workload);
    s.workload->prepare(seed);
    Recorder warm(&s.stack->node().clock());
    warm.begin_session();
    {
      Session session(*s.stack, *s.workload, nullptr);
      warm.set_async(session.async());
      s.workload->session(session.api(), warm, 0);
    }
    warm.end_session();
    s.setup_s.push_back(static_cast<double>(busy_ns() - t0) / 1e9);
    s.setup_probe_us.push_back(speed.run_us());
    if (!warm.load_ms.empty()) s.cold_load_ms.push_back(warm.load_ms.front());
    s.attempted += warm.ops;
    s.failed += warm.failed;
    if (s.first_failure.empty()) s.first_failure = warm.first_failure;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Statistics and output
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile (numpy's default); 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double mean_virt_us(const KindStats& k) {
  return ratio(k.virt_ns, static_cast<double>(k.count)) / 1e3;
}

/// cudaMalloc and cudaFree pooled, as Figure 6 (b) reports them.
KindStats malloc_free(const Recorder& rec) {
  const KindStats& m = rec.kind(Kind::kMalloc);
  const KindStats& f = rec.kind(Kind::kFree);
  return {m.count + f.count, m.real_ns + f.real_ns, m.virt_ns + f.virt_ns};
}

std::string base(const char* what, double n) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s=%.0f", what, n);
  return buf;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::string base;  // sample count, or the base of a ratio
};

class Report {
 public:
  void add(const char* name, double value, std::string base) {
    for (const auto& spec : kEndToEnd)
      if (name == std::string(spec.name)) return push(spec, value, base);
    for (const auto& spec : kPerLayer)
      if (name == std::string(spec.name)) return push(spec, value, base);
    throw std::logic_error(std::string("metric not in the tables: ") + name);
  }

  /// A figure printed for the reader only, not part of the JSON result.
  void info(const char* name, double value, const char* unit,
            std::string base) {
    info_.push_back({name, unit, value, std::move(base)});
  }

  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }

  void print(bool correct, std::uint64_t attempted,
             std::uint64_t failed) const {
    for (const auto& m : info_)
      std::printf("info   %-36s %16.6f %-8s (%s)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.base.c_str());
    for (const auto& m : metrics_)
      std::printf("metric %-36s %16.6f %-8s (%s)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.base.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics_[i].name.c_str(),
                  std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0,
                  metrics_[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  void push(const MetricSpec& spec, double value, std::string base) {
    metrics_.push_back({spec.name, spec.unit, value, std::move(base)});
  }

  std::vector<Metric> metrics_;
  std::vector<Metric> info_;
};

/// What the sessions ending in one window measured.
struct Window {
  double ops = 0;
  double wall_s = 0;
  double busy_s = 0;
  std::vector<double> probe_us;
  Recorder::Mark from, to;  // payload totals before and after
};

std::vector<Window> windows(const Phase& p) {
  std::vector<Window> out(kWindows);
  std::vector<bool> used(kWindows, false);
  for (std::size_t i = 0; i < p.sessions.size(); ++i) {
    const SessionRecord& s = p.sessions[i];
    const auto slot = static_cast<std::size_t>(std::clamp<std::int64_t>(
        (s.end_ns - p.start_ns) / p.window_ns, 0, kWindows - 1));
    Window& w = out[slot];
    if (!used[slot]) w.from = s.start;
    used[slot] = true;
    w.to = i + 1 < p.sessions.size() ? p.sessions[i + 1].start : p.rec.mark();
    w.ops += static_cast<double>(s.api_calls);
    w.wall_s += s.wall_s;
    w.busy_s += s.busy_s;
    w.probe_us.push_back(s.probe_us);
  }
  std::vector<Window> kept;
  for (std::size_t i = 0; i < out.size(); ++i)
    if (used[i]) kept.push_back(out[i]);
  return kept;
}

/// Share of the phase's wall time in which the stack was not running on
/// its CPU: taken by the host or another process, or every thread waiting.
double offcpu_pct(const Phase& p) {
  return ratio(p.wall_s - p.busy_s, p.wall_s) * 100.0;
}

/// How much slower than nominal the host ran the CPU, from SpeedProbe runs.
double slowdown(std::vector<double> probe_us, double nominal_us) {
  return quantile(std::move(probe_us), 0.5) / nominal_us;
}

/// The end-to-end times are busy times scaled to the nominal CPU speed:
/// each window's times are divided by its slowdown (the median SpeedProbe
/// run after its sessions, over the probe's nominal time), and its rates
/// multiplied by it. The figures as measured are printed as info lines.
void report_end_to_end(Report& r, const Setup& setup, const Phase& p,
                       double nominal_us) {
  const std::vector<Window> ws = windows(p);
  std::vector<double> slow;
  for (const Window& w : ws) slow.push_back(slowdown(w.probe_us, nominal_us));
  // Median over the windows of f(window, its slowdown).
  const auto median = [&](auto&& per_window) {
    std::vector<double> v;
    for (std::size_t i = 0; i < ws.size(); ++i)
      v.push_back(per_window(ws[i], slow[i]));
    return quantile(std::move(v), 0.5);
  };
  const Recorder& rec = p.rec;
  const std::string over = base("windows", static_cast<double>(ws.size()));
  const auto n = [](const std::vector<double>& samples) {
    return base("n", static_cast<double>(samples.size()));
  };
  constexpr double kMiB = 1024.0 * 1024.0;
  const auto mib_s = [&](std::uint64_t Recorder::Mark::*bytes,
                         double Recorder::Mark::*ns) {
    return median([&](const Window& w, double k) {
      return k * ratio(static_cast<double>(w.to.*bytes - w.from.*bytes) / kMiB,
                       (w.to.*ns - w.from.*ns) / 1e9);
    });
  };
  const auto copies = [&](Kind kind) {
    return base("copies", static_cast<double>(rec.kind(kind).count)) + " " +
           over;
  };
  // The samples of `samples`, each divided by its window's slowdown.
  const auto scaled = [&](const std::vector<double>& samples,
                          std::size_t Recorder::Mark::*count) {
    std::vector<double> out;
    for (std::size_t i = 0; i < ws.size(); ++i)
      for (std::size_t j = ws[i].from.*count; j < ws[i].to.*count; ++j)
        out.push_back(samples[j] / slow[i]);
    return out;
  };
  const auto mean_of = [&](const std::vector<double>& samples,
                           std::size_t Recorder::Mark::*count) {
    return median([&](const Window& w, double k) {
      double sum = 0;
      for (std::size_t i = w.from.*count; i < w.to.*count; ++i)
        sum += samples[i];
      return ratio(sum / k, static_cast<double>(w.to.*count - w.from.*count));
    });
  };
  std::vector<double> setups;
  for (std::size_t i = 0; i < setup.setup_s.size(); ++i)
    setups.push_back(setup.setup_s[i] /
                     slowdown({setup.setup_probe_us[i]}, nominal_us));

  r.add("setup_s", quantile(setups, 0.5), n(setups));
  r.add("ops_per_s",
        median([](const Window& w, double k) { return k * w.ops / w.busy_s; }),
        base("ops", p.ops()) + " " + over);
  r.add("maxrss_mb", Usage::now().maxrss_mib, "n=1");
  r.add("call_us.mean", mean_of(rec.call_us, &Recorder::Mark::calls),
        n(rec.call_us) + " " + over);
  r.add("h2d_mib_s",
        mib_s(&Recorder::Mark::h2d_bytes, &Recorder::Mark::h2d_ns),
        copies(Kind::kMemcpyH2D));
  r.add("d2h_mib_s",
        mib_s(&Recorder::Mark::d2h_bytes, &Recorder::Mark::d2h_ns),
        copies(Kind::kMemcpyD2H));
  r.add("burst_us.mean", mean_of(rec.burst_us, &Recorder::Mark::bursts),
        n(rec.burst_us) + " " + over);
  r.add("burst_us.p90",
        quantile(scaled(rec.burst_us, &Recorder::Mark::bursts), 0.90),
        n(rec.burst_us));
  r.add("session_ms.mean", mean_of(rec.session_ms, &Recorder::Mark::sessions),
        n(rec.session_ms) + " " + over);

  // Tails of the calls, for the reader only: on bulk_copy p90 falls between
  // two kinds of call (the 8 MiB cudaMalloc and the module load) and jumps
  // between them from run to run.
  const std::vector<double> calls = scaled(rec.call_us, &Recorder::Mark::calls);
  r.info("call_us.p90", quantile(calls, 0.90), "us", n(calls));
  r.info("call_us.p99", quantile(calls, 0.99), "us", n(calls));
  // As measured: busy time unscaled, and the wall clock, which also counts
  // what the host and other processes took.
  std::vector<double> probes;
  for (const SessionRecord& s : p.sessions) probes.push_back(s.probe_us);
  r.info("speed_probe_us", quantile(probes, 0.5), "us", n(probes));
  r.info("busy.ops_per_s",
         median([](const Window& w, double) { return w.ops / w.busy_s; }),
         "ops/s", base("ops", p.ops()) + " " + over);
  r.info("busy.setup_s", quantile(setup.setup_s, 0.5), "s",
         n(setup.setup_s));
  r.info("busy.call_us.p50", quantile(rec.call_us, 0.50), "us",
         n(rec.call_us));
  r.info("busy.burst_us.p50", quantile(rec.burst_us, 0.50), "us",
         n(rec.burst_us));
  r.info("busy.session_ms.p50", quantile(rec.session_ms, 0.50), "ms",
         n(rec.session_ms));
  r.info("wall.ops_per_s",
         median([](const Window& w, double) { return w.ops / w.wall_s; }),
         "ops/s", base("ops", p.ops()) + " " + over);
  r.info("wall.call_us.p50", quantile(rec.wall_call_us, 0.50), "us",
         n(rec.wall_call_us));
  r.info("wall.call_us.p99", quantile(rec.wall_call_us, 0.99), "us",
         n(rec.wall_call_us));
  r.info("offcpu_pct", offcpu_pct(p), "%",
         base("sessions", static_cast<double>(p.sessions.size())));
}

/// Inputs of the per-layer report besides the traced phase itself.
struct TraceExtras {
  const Phase* untraced = nullptr;
  const Probes* probes = nullptr;
  double local_op_us = 0;
  double local_ops = 0;
  double drift_ns = 0;
};

void report_per_layer(Report& r, const Setup& setup, const Phase& p,
                      const TraceExtras& x) {
  const Recorder& rec = p.rec;
  const EndProbe& g = x.probes->guest;
  const EndProbe& s = x.probes->server;
  const HopLink& link = x.probes->link;
  const double ops = p.ops();
  const std::string per_op = base("ops", ops);
  const auto us_per_op = [&](double ns) { return ns / ops / 1e3; };
  const auto per = [&](std::uint64_t v) {
    return static_cast<double>(v) / ops;
  };

  r.add("cricket.client_self_us", us_per_op(rec.client_self_ns), per_op);
  r.add("cricket.server_self_us",
        us_per_op(static_cast<double>(s.self_ns.load())), per_op);
  r.add("cricket.connect_ms", quantile(rec.connect_ms, 0.5),
        base("sessions", static_cast<double>(rec.connect_ms.size())));
  r.add("vnet.send_us", us_per_op(static_cast<double>(g.send_ns.load())),
        per_op);
  r.add("vnet.recv_wait_us", us_per_op(static_cast<double>(g.recv_ns.load())),
        per_op);
  r.add("vnet.c2s_hop_us", us_per_op(static_cast<double>(link.c2s_ns.load())),
        per_op + " " + base("hops", static_cast<double>(link.c2s_hops)));
  r.add("vnet.s2c_hop_us", us_per_op(static_cast<double>(link.s2c_ns.load())),
        per_op + " " + base("hops", static_cast<double>(link.s2c_hops)));
  r.add("vnet.tx_frames", per(p.conn.frames_tx), per_op);
  r.add("vnet.rx_frames", per(p.conn.frames_rx), per_op);
  r.add("vnet.tx_kicks", per(p.conn.tx_kicks), per_op);
  r.add("vnet.rx_interrupts", per(p.conn.rx_interrupts), per_op);
  r.add("rpc.guest.sends_per_op", per(g.sends), per_op);
  r.add("rpc.guest.recvs_per_op", per(g.recvs), per_op);
  r.add("rpc.server.sends_per_op", per(s.sends), per_op);
  r.add("rpc.server.recvs_per_op", per(s.recvs), per_op);
  r.add("rpc.c2s_wire_bytes_per_op", per(g.send_bytes), per_op);
  r.add("rpc.s2c_wire_bytes_per_op", per(s.send_bytes), per_op);

  const KindStats& syncs = rec.kind(Kind::kSynchronize);
  const auto bursts = static_cast<double>(rec.burst_us.size());
  r.add("rpcflow.sends_per_burst",
        ratio(static_cast<double>(g.sends), bursts), base("bursts", bursts));
  r.add("rpcflow.max_in_flight", p.conn.max_in_flight,
        base("sessions", static_cast<double>(p.sessions.size())));
  r.add("rpcflow.drain_us",
        ratio(syncs.real_ns, static_cast<double>(syncs.count)) / 1e3,
        base("syncs", static_cast<double>(syncs.count)));
  r.add("gpusim.local_op_us", x.local_op_us, base("ops", x.local_ops));

  const auto loads = static_cast<double>(rec.kind(Kind::kModuleLoad).count);
  r.add("modcache.hit_ratio", ratio(static_cast<double>(p.cache_hits), loads),
        base("loads", loads));
  r.add("modcache.cold_load_ms", quantile(setup.cold_load_ms, 0.5),
        base("n", static_cast<double>(setup.cold_load_ms.size())));
  r.add("modcache.warm_load_ms", quantile(rec.load_ms, 0.5),
        base("n", static_cast<double>(rec.load_ms.size())));

  // Scheduler and page-fault counts come from the untraced sessions, which
  // run without the probes.
  const Phase& u = *x.untraced;
  const double u_ops = u.ops();
  const double pages =
      static_cast<double>(u.rec.h2d_bytes + u.rec.d2h_bytes) / 4096.0;
  r.add("proc.vcs_per_op",
        static_cast<double>(u.vcs) / u_ops,
        base("ops", u_ops));
  r.add("proc.ivcs_per_op",
        static_cast<double>(u.ivcs) / u_ops,
        base("ops", u_ops));
  r.add("proc.minflt_per_page",
        ratio(static_cast<double>(u.minflt), pages),
        base("payload_pages", pages));
  const double payload = static_cast<double>(rec.h2d_bytes + rec.d2h_bytes);
  r.add("proc.allocs_per_op",
        static_cast<double>(p.allocs.calls) / ops, per_op);
  r.add("proc.alloc_bytes_per_payload_byte",
        ratio(static_cast<double>(p.allocs.bytes), payload),
        base("payload_bytes", payload));

  const auto virt = [&](const char* name, Kind kind) {
    const KindStats& k = u.rec.kind(kind);
    r.add(name, mean_virt_us(k),
          base("calls", static_cast<double>(k.count)));
  };
  virt("sim.virt_us.get_device_count", Kind::kGetDeviceCount);
  const KindStats alloc = malloc_free(u.rec);
  r.add("sim.virt_us.malloc_free", mean_virt_us(alloc),
        base("calls", static_cast<double>(alloc.count)));
  virt("sim.virt_us.memcpy_h2d", Kind::kMemcpyH2D);
  virt("sim.virt_us.memcpy_d2h", Kind::kMemcpyD2H);
  virt("sim.virt_us.synchronize", Kind::kSynchronize);
  virt("sim.virt_us.module_load", Kind::kModuleLoad);
  r.add("sim.vclock_drift_ns", x.drift_ns,
        base("replays", kDriftReplays));
  r.info("untraced.ops_per_s", u_ops / u.busy_s, "ops/s", base("ops", u_ops));
  r.add("proc.offcpu_pct", offcpu_pct(u),
        base("sessions", static_cast<double>(u.sessions.size())));
  const double untraced_rate = u_ops / u.busy_s;
  r.add("trace.overhead_pct",
        (untraced_rate - ops / p.busy_s) / untraced_rate * 100.0,
        base("untraced_ops", u_ops) + " " + base("traced_ops", ops));
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

/// The serial client's virtual µs per call must reproduce EXPERIMENTS.md
/// Figure 6 (Hermit row) at its printed precision. A miss fails every
/// call of that kind.
void check_virtual_clock(Recorder& rec) {
  const auto check = [&](const char* what, double got, double want,
                         std::uint64_t calls) {
    if (calls == 0 || std::round(got * 100.0) == std::round(want * 100.0))
      return;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "virtual %s = %.4f us/call, Figure 6 says %.2f", what, got,
                  want);
    for (std::uint64_t i = 0; i < calls; ++i) rec.fail(buf);
  };
  const KindStats& gdc = rec.kind(Kind::kGetDeviceCount);
  check("cudaGetDeviceCount", mean_virt_us(gdc), kFig6GetDeviceCountUs,
        gdc.count);
  const KindStats alloc = malloc_free(rec);
  check("cudaMalloc/cudaFree", mean_virt_us(alloc), kFig6MallocFreeUs,
        alloc.count);
}

/// Replays the traced phase's sessions on LocalCudaApi over the same node
/// (no forwarding), for at most `seconds`. Returns µs per op.
double local_replay(Stack& stack, const Workload& workload, const Phase& p,
                    double seconds, Recorder& rec) {
  cuda::LocalCudaApi local(stack.node());
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (const SessionRecord& s : p.sessions) {
    if (now_ns() >= deadline) break;
    rec.begin_session();
    workload.session(local, rec, s.index);
    rec.end_session();
  }
  return ratio(rec.api_ns, static_cast<double>(rec.ops)) / 1e3;
}

/// Spread (max - min) of the total virtual time of one session replayed
/// on fresh stacks from a reset clock. Zero when the cost model is
/// deterministic.
double vclock_drift_ns(const Workload& workload, std::uint64_t session,
                       Recorder& rec) {
  std::vector<double> totals;
  for (int i = 0; i < kDriftReplays; ++i) {
    Stack stack(workload);
    stack.node().clock().reset();
    {
      Session s(stack, workload, nullptr);
      rec.set_async(s.async());
      workload.session(s.api(), rec, session);
    }
    totals.push_back(static_cast<double>(stack.node().clock().now()));
  }
  const auto [lo, hi] = std::minmax_element(totals.begin(), totals.end());
  return *hi - *lo;
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
};

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (arg == "--selftest") {
      o.selftest = true;
      continue;
    }
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return std::nullopt;
    }
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      o.trace = value == "1";
      if (value != "0" && value != "1") return std::nullopt;
    } else {
      return std::nullopt;
    }
    if (end != nullptr && *end != '\0') return std::nullopt;
  }
  if (!o.selftest && (make_workload(o.workload) == nullptr || o.seconds <= 0))
    return std::nullopt;
  return o;
}

int run(const Options& o) {
  const auto workload = make_workload(o.workload);
  SpeedProbe speed(workload->probe_bytes(), workload->probe_nominal_us());
  Setup setup = set_up(o.workload, o.seed, speed);
  std::uint64_t attempted = setup.attempted;
  std::uint64_t failed = setup.failed;
  std::string first_failure = setup.first_failure;
  const auto absorb = [&](const Recorder& rec) {
    attempted += rec.ops;
    failed += rec.failed;
    if (first_failure.empty()) first_failure = rec.first_failure;
  };

  Report report;
  const sim::SimClock& clock = setup.stack->node().clock();
  const bool serial = !setup.workload->pipelined();
  Phase untraced(clock);
  if (!o.trace) {
    run_sessions(*setup.stack, *setup.workload, 1, o.seconds, speed, untraced,
                 nullptr, nullptr);
    if (serial) check_virtual_clock(untraced.rec);
    absorb(untraced.rec);
    report_end_to_end(report, setup, untraced, speed.nominal_us());
  } else {
    // Each kind of session gets about half of `seconds`.
    Probes probes;
    Phase traced(clock);
    run_sessions(*setup.stack, *setup.workload, 1, o.seconds, speed, untraced,
                 &traced, &probes);
    if (serial) {
      check_virtual_clock(untraced.rec);
      check_virtual_clock(traced.rec);
    }
    absorb(untraced.rec);
    absorb(traced.rec);
    Recorder local(nullptr);
    TraceExtras extras{&untraced, &probes};
    extras.local_op_us = local_replay(*setup.stack, *setup.workload, traced,
                                      o.seconds / 4, local);
    extras.local_ops = static_cast<double>(local.ops);
    absorb(local);
    setup.stack.reset();  // the drift replays build their own stacks
    Recorder drift(nullptr);
    extras.drift_ns = vclock_drift_ns(*setup.workload, 1, drift);
    absorb(drift);
    report_per_layer(report, setup, traced, extras);
  }
  if (!first_failure.empty())
    std::printf("first failure: %s\n", first_failure.c_str());
  const bool correct = failed == 0;
  report.print(correct, attempted, failed);
  return correct ? 0 : 1;
}

/// Checks the benchmark itself; prints one line per check, returns 0 when
/// all hold.
int selftest() {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };

  // 1. Metric names: unique, and each report emits exactly its table.
  std::vector<std::string> names;
  for (const auto& m : kEndToEnd) names.emplace_back(m.name);
  for (const auto& m : kPerLayer) names.emplace_back(m.name);
  std::vector<std::string> sorted = names;
  std::sort(sorted.begin(), sorted.end());
  expect(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
         "metric names are unique");

  const auto workload = make_workload("small_calls");
  Stack stack(*workload);
  workload->prepare(7);

  // 2. A deliberately failing call counts as one failed op.
  {
    Recorder rec(&stack.node().clock());
    rec.begin_session();
    Session session(stack, *workload, nullptr);
    const cuda::Error err = rec.call(
        Kind::kFree, [&] { return session.api().free(0xBAD0BAD0ull); });
    expect(err != cuda::Error::kSuccess && rec.failed == 1 && rec.ops == 1,
           "cudaFree of a bogus pointer is counted as one failed op");
  }

  // 3. Traced and untraced reports emit every metric of their table, and
  //    on a serial connection the guest sends one request per API call.
  Probes probes;
  Phase untraced(stack.node().clock());
  Phase traced(stack.node().clock());
  SpeedProbe speed(workload->probe_bytes(), workload->probe_nominal_us());
  run_sessions(stack, *workload, 1, 0.3, speed, untraced, &traced, &probes);
  expect(untraced.rec.failed == 0 && traced.rec.failed == 0 &&
             traced.conn.api_calls > 0,
         "short runs have no failed op");
  expect(probes.guest.messages.load() == traced.conn.api_calls,
         "guest requests (" + std::to_string(probes.guest.messages.load()) +
             ") == RemoteStats::api_calls (" +
             std::to_string(traced.conn.api_calls) + ")");
  expect(probes.server.messages.load() == traced.conn.api_calls,
         "server replies (" + std::to_string(probes.server.messages.load()) +
             ") == RemoteStats::api_calls");
  expect(traced.rec.ops == traced.conn.api_calls,
         "ops issued (" + std::to_string(traced.rec.ops) +
             ") == RemoteStats::api_calls");

  Setup setup;
  setup.setup_s = {1.0};
  setup.setup_probe_us = {speed.nominal_us()};
  setup.cold_load_ms = {1.0};
  Report e2e;
  report_end_to_end(e2e, setup, untraced, speed.nominal_us());
  Report layers;
  report_per_layer(layers, setup, traced, {&untraced, &probes});
  const auto emitted = [](const Report& r) {
    std::vector<std::string> out;
    for (const auto& m : r.metrics()) out.push_back(m.name + " " + m.unit);
    return out;
  };
  const auto table = [](const auto& specs) {
    std::vector<std::string> out;
    for (const auto& m : specs)
      out.push_back(std::string(m.name) + " " + m.unit);
    return out;
  };
  expect(emitted(e2e) == table(kEndToEnd),
         "--trace 0 emits every end-to-end metric with its unit, in order");
  expect(emitted(layers) == table(kPerLayer),
         "--trace 1 emits every per-layer metric with its unit, in order");

  // The tables, for run.py to compare with BENCHMARK.json.
  for (const auto& m : kEndToEnd)
    std::printf("end_to_end %s %s\n", m.name, m.unit);
  for (const auto& m : kPerLayer)
    std::printf("per_layer %s %s\n", m.name, m.unit);
  std::printf("selftest: %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // glibc raises its mmap threshold (and with it the heap trim threshold)
  // each time a large mapped block is freed, so whether a connection's
  // 2 x 16 MiB of zero-filled virtio guest memory is fresh pages (page
  // faults, ~17 ms) or recycled heap (~3 ms) depends on the process's
  // allocation history and flips between runs. Pinning the threshold at
  // its default makes every large allocation a fresh mapping in every run,
  // so that cost is always measured rather than sometimes hidden.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const auto options = perfbench::parse(argc, argv);
  if (!options) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <small_calls|bulk_copy|"
                 "pipelined_launch> --seed <n> --seconds <s> --trace <0|1>\n"
                 "       perfbench --selftest\n");
    return 2;
  }
  // The whole stack on one CPU, before any thread starts: every hand-off
  // is a local wake-up, the CPU never idles while a call is in flight, and
  // busy_ns() then times the stack as if it had that CPU to itself. On a
  // shared host, waking a thread on another, idle vCPU waits for the host
  // to schedule that vCPU; that wait, not the program, decided the spread
  // between runs.
  const int cpu = perfbench::pin_to_one_cpu();
  if (cpu < 0) {
    std::fprintf(stderr, "perfbench: cannot pin the process to one CPU\n");
    return 1;
  }
  std::printf("pinned to cpu %d\n", cpu);
  try {
    return options->selftest ? perfbench::selftest()
                             : perfbench::run(*options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
