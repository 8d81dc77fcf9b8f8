// Multi-tenant fairness + throughput sweep (paper §5: sharing GPUs across
// many unikernel guests "through configurable schedulers").
//
// Sweep: {1, 4, 16, 64} equal-weight tenants plus one misbehaving "hog".
// Tenants run mixed workloads — even-numbered tenants launch matrix_mul
// kernels, odd-numbered tenants move 1 MiB memcpys (arbitrated as large
// transfers) — on the paper testbed node (A100 + 2x T4 + P40), sharded
// across its devices by the tenancy consistent hash. The hog hammers
// 8x-heavier GEMMs and bursts a 256 KiB copy per op under a tight bytes/sec
// quota, so most of its copies are rejected at admission.
//
// Every point runs twice over the same fixed *virtual* window: once under
// the two-level fair-share scheduler and once under FIFO (the no-scheduler
// baseline). Reported per policy: per-tenant device time (tenancy
// accounting), aggregate device utilisation, and hog rejections.
//
// A separate serial section proves the admission property: a rate-limited
// tenant's over-quota calls bump cricket_tenant_admission_rejected_total
// while cricket_rpc_args_decode_total stays frozen (rejection precedes
// argument decode), and the same connection serves again after the token
// bucket refills — never a dropped transport.
//
// Gates (exit 1 on failure, checked at the 16-tenant point):
//   * each non-hog tenant's device time within 10% of the non-hog mean
//   * fair-share aggregate utilisation >= 0.85x the FIFO baseline
//   * admission section: rejections counted, zero decodes while rejecting,
//     service recovered on the same connection
//
// Flags: --window-ms=N (virtual measurement window, default 80)
//        --json=PATH   (default BENCH_tenants.json)
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "cricket/client.hpp"
#include "cricket/server.hpp"
#include "cudart/local_api.hpp"
#include "cudart/raii.hpp"
#include "obs/metrics.hpp"
#include "rpc/transport.hpp"
#include "tenancy/session_manager.hpp"
#include "workloads/kernels.hpp"

namespace {

using namespace cricket;

// Smallest size the server arbitrates as a large transfer. Bigger copies
// spend real (host) time in the transport per op, which turns bandwidth
// tenants into real-time laggards that the fair-share catch-up blocking
// then waits on — 256 KiB keeps every guest loop fast in real time while
// still exercising admit_transfer.
constexpr std::uint64_t kCopyBytes = 256 * 1024;

struct TenantOutcome {
  std::string name;
  std::uint64_t device_ns = 0;
  std::uint64_t ops = 0;
  std::uint64_t rejected = 0;
};

struct PolicyResult {
  sim::Nanos elapsed_ns = 0;
  std::uint64_t total_device_ns = 0;
  std::uint64_t total_ops = 0;
  double utilization = 0;  // total_device_ns / elapsed_ns
  TenantOutcome hog;
  std::uint64_t nonhog_min_ns = 0;
  std::uint64_t nonhog_max_ns = 0;
  double nonhog_mean_ns = 0;
  /// max_t |device_ns(t) - mean| / mean over the non-hog tenants.
  double max_share_error = 0;
};

struct SweepPoint {
  int tenants = 0;
  PolicyResult fair;
  PolicyResult fifo;
  double throughput_ratio = 0;  // fair utilization / fifo utilization
  bool fairness_ok = false;
};

tenancy::TenantQuota hog_quota() {
  tenancy::TenantQuota quota;
  quota.bytes_per_sec = 8ull << 20;  // virtual; copy bursts blow past this
  quota.burst_bytes = 2 * kCopyBytes;
  return quota;
}

/// One tenant's guest loop: set up, wait at the barrier, then issue work
/// until the virtual clock passes t_end. Returns completed ops / rejected
/// calls through the out-params (read after join). The transport is a raw
/// in-process pipe (no network model), so virtual time advances only with
/// device work and scheduler charges — the sweep measures the scheduler,
/// not the wire.
void guest_loop(std::unique_ptr<rpc::Transport> transport,
                sim::SimClock& clock, const std::string& tenant, bool hog,
                bool compute, const std::atomic<sim::Nanos>& t_end,
                std::barrier<>& sync, std::uint64_t& ops_out,
                std::uint64_t& rejected_out) {
  core::ClientConfig config;
  config.tenant = tenant;
  core::RemoteCudaApi api(std::move(transport), clock, std::move(config));
  cuda::Module mod(api, workloads::sample_cubin());

  const std::uint32_t dim = hog ? 1024 : 512;  // 2.1 GFLOP vs 268 MFLOP GEMM
  cuda::DeviceBuffer a(api, compute ? dim * dim * 4 : kCopyBytes);
  cuda::DeviceBuffer b(api, compute ? dim * dim * 4 : kCopyBytes);
  cuda::DeviceBuffer c(api, compute ? dim * dim * 4 : kCopyBytes);
  cuda::FuncId fn = 0;
  cuda::ParamPacker params;
  if (compute) {
    fn = mod.function(workloads::kMatrixMulKernel);
    params.add_ptr(c).add_ptr(a).add_ptr(b).add(dim).add(dim);
  }
  const cuda::Dim3 grid{dim / 32, dim / 32, 1}, block{32, 32, 1};
  const std::uint32_t shared = 2 * 32 * 32 * 4;
  std::vector<std::uint8_t> host(kCopyBytes);

  std::uint64_t ops = 0, rejected = 0;
  sync.arrive_and_wait();  // setup done everywhere
  sync.arrive_and_wait();  // main published t_end
  while (clock.now() < t_end.load(std::memory_order_relaxed)) {
    cuda::Error err = cuda::Error::kSuccess;
    if (compute) {
      err = api.launch_kernel(fn, grid, block, shared, gpusim::kDefaultStream,
                              params.bytes());
      if (err == cuda::Error::kSuccess)
        err = api.stream_synchronize(gpusim::kDefaultStream);
    } else {
      err = api.memcpy_h2d(a.get(), host);
      if (err == cuda::Error::kSuccess) err = api.memcpy_d2h(host, a.get());
    }
    // The hog additionally bursts a large copy on every op; its tight
    // bytes/sec quota rejects most of them at admission.
    if (hog && err == cuda::Error::kSuccess) {
      const cuda::Error burst = api.memcpy_h2d(a.get(), host);
      if (burst == cuda::Error::kQuotaExceeded) ++rejected;
    }
    if (err == cuda::Error::kQuotaExceeded) {
      ++rejected;  // admission refusal: clean reply, connection intact
      continue;
    }
    cuda::check(err);
    ++ops;
  }
  cuda::check(api.device_synchronize());
  ops_out = ops;
  rejected_out = rejected;
}

PolicyResult run_policy(core::SchedulerPolicy policy, int tenant_count,
                        sim::Nanos window) {
  auto node = cuda::GpuNode::make_paper_testbed();
  workloads::register_sample_kernels(node->registry());
  for (int d = 0; d < node->device_count(); ++d)
    node->device(d).set_timing_only(true);

  tenancy::SessionManagerOptions topt;
  topt.device_count = static_cast<std::uint32_t>(node->device_count());
  tenancy::SessionManager tenants(node->clock(), topt);

  std::vector<tenancy::TenantId> ids;
  std::vector<std::string> names;
  for (int t = 0; t < tenant_count; ++t) {
    tenancy::TenantSpec spec;
    // Appended rather than "t" + to_string(t): GCC 12 -O3 reports a false
    // -Wrestrict overlap inside operator+(const char*, string&&).
    spec.name = "t";
    spec.name += std::to_string(t);
    names.push_back(spec.name);
    ids.push_back(tenants.register_tenant(spec));
  }
  tenancy::TenantSpec hog_spec;
  hog_spec.name = "hog";
  hog_spec.quota = hog_quota();
  const tenancy::TenantId hog_id = tenants.register_tenant(hog_spec);

  core::ServerOptions options;
  options.scheduler = policy;
  options.scheduler_options.quantum = 200 * sim::kMicrosecond;
  // Every guest stays backlogged until the virtual window closes, so real
  // catch-up blocking always makes progress (the minimum-vtime group never
  // waits). A generous budget keeps the scheduler in the blocking regime —
  // the virtual-charge fallback is for idle laggards, and charging here
  // would inflate virtual elapsed time with no device work behind it.
  options.scheduler_options.max_real_block = std::chrono::milliseconds(200);
  options.tenants = &tenants;
  core::CricketServer server(*node, options);

  const int workers = tenant_count + 1;
  std::barrier sync(workers + 1);  // workers + main (publishes t_end)
  std::vector<std::thread> serve_threads, guests;
  std::vector<std::uint64_t> ops(static_cast<std::size_t>(workers), 0);
  std::vector<std::uint64_t> rejected(static_cast<std::size_t>(workers), 0);
  std::atomic<sim::Nanos> t_end{0};
  for (int w = 0; w < workers; ++w) {
    auto [client_end, server_end] = rpc::make_pipe_pair();
    serve_threads.push_back(server.serve_async(std::move(server_end)));
    const bool hog = w == tenant_count;
    guests.emplace_back(guest_loop, std::move(client_end),
                        std::ref(node->clock()),
                        hog ? std::string("hog") : names[w], hog,
                        hog || w % 2 == 0, std::cref(t_end), std::ref(sync),
                        std::ref(ops[w]), std::ref(rejected[w]));
  }
  // Setup (module load, buffer allocation) runs before the first barrier,
  // so the window measures steady-state contention only (plus <= 1 op of
  // drain per tenant).
  sync.arrive_and_wait();  // all workers finished setup; clock is idle
  const sim::Nanos t0 = node->clock().now();
  t_end.store(t0 + window, std::memory_order_relaxed);
  sync.arrive_and_wait();  // release the measured loops
  for (auto& g : guests) g.join();
  for (auto& s : serve_threads) s.join();

  PolicyResult r;
  r.elapsed_ns = node->clock().now() - t0;
  std::uint64_t nonhog_total = 0;
  for (int t = 0; t < tenant_count; ++t) {
    const auto stats = tenants.stats(ids[t]);
    nonhog_total += stats.device_ns;
    r.nonhog_min_ns = t == 0 ? stats.device_ns
                             : std::min(r.nonhog_min_ns, stats.device_ns);
    r.nonhog_max_ns = std::max(r.nonhog_max_ns, stats.device_ns);
    r.total_ops += ops[static_cast<std::size_t>(t)];
  }
  const auto hog_stats = tenants.stats(hog_id);
  r.hog.name = "hog";
  r.hog.device_ns = hog_stats.device_ns;
  r.hog.ops = ops[static_cast<std::size_t>(tenant_count)];
  r.hog.rejected = hog_stats.calls_rejected;
  r.total_ops += r.hog.ops;
  r.total_device_ns = nonhog_total + hog_stats.device_ns;
  r.utilization = r.elapsed_ns > 0 ? static_cast<double>(r.total_device_ns) /
                                         static_cast<double>(r.elapsed_ns)
                                   : 0.0;
  r.nonhog_mean_ns = tenant_count > 0 ? static_cast<double>(nonhog_total) /
                                            tenant_count
                                      : 0.0;
  if (r.nonhog_mean_ns > 0)
    r.max_share_error =
        std::max(std::abs(static_cast<double>(r.nonhog_max_ns) -
                          r.nonhog_mean_ns),
                 std::abs(static_cast<double>(r.nonhog_min_ns) -
                          r.nonhog_mean_ns)) /
        r.nonhog_mean_ns;
  return r;
}

struct AdmissionProof {
  std::uint64_t rejected = 0;
  std::uint64_t decodes_during_rejection = 0;
  bool recovered = false;
};

/// Serial proof that over-quota rejection precedes argument decode and
/// never drops the connection. Mirrors the tenancy integration test but
/// reports the counters into the committed JSON.
AdmissionProof admission_proof() {
  auto node = cuda::GpuNode::make_a100();
  workloads::register_sample_kernels(node->registry());
  tenancy::SessionManagerOptions topt;
  topt.device_count = 1;
  tenancy::SessionManager tenants(node->clock(), topt);
  tenancy::TenantSpec spec;
  spec.name = "throttled";
  spec.quota.bytes_per_sec = 1;  // no meaningful refill without advance
  spec.quota.burst_bytes = 256;  // a couple of small calls
  const tenancy::TenantId id = tenants.register_tenant(spec);

  core::ServerOptions options;
  options.tenants = &tenants;
  core::CricketServer server(*node, options);
  auto [client_end, server_end] = rpc::make_pipe_pair();
  std::thread serve = server.serve_async(std::move(server_end));
  AdmissionProof proof;
  {
    core::ClientConfig config;
    config.tenant = "throttled";
    core::RemoteCudaApi api(std::move(client_end), node->clock(),
                            std::move(config));
    int n = 0;
    cuda::Error err = cuda::Error::kSuccess;  // drain the burst allowance
    for (int i = 0; i < 16 && err == cuda::Error::kSuccess; ++i)
      err = api.get_device_count(n);
    obs::Counter& decodes =
        obs::Registry::global().counter("cricket_rpc_args_decode_total", {});
    const std::uint64_t decodes_before = decodes.value();
    for (int i = 0; i < 32; ++i)
      if (api.get_device_count(n) != cuda::Error::kQuotaExceeded) break;
    proof.decodes_during_rejection = decodes.value() - decodes_before;
    proof.rejected = tenants.stats(id).calls_rejected;
    node->clock().advance(sim::kSecond * 600);  // token bucket refills
    proof.recovered = api.get_device_count(n) == cuda::Error::kSuccess;
  }
  serve.join();
  return proof;
}

void print_policy(const char* name, const PolicyResult& r) {
  std::printf("  %-10s elapsed %9s  device %9s  util %4.2f  ops %6llu  "
              "nonhog spread %5.1f%%  hog %9s (%llu rejected)\n",
              name,
              sim::format_nanos(static_cast<double>(r.elapsed_ns)).c_str(),
              sim::format_nanos(static_cast<double>(r.total_device_ns))
                  .c_str(),
              r.utilization, static_cast<unsigned long long>(r.total_ops),
              r.max_share_error * 100,
              sim::format_nanos(static_cast<double>(r.hog.device_ns)).c_str(),
              static_cast<unsigned long long>(r.hog.rejected));
}

void write_json(const std::string& path, sim::Nanos window,
                const AdmissionProof& proof,
                const std::vector<SweepPoint>& sweep, bool gates_ok) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"tenants\",\n");
  std::fprintf(f, "  \"window_ms\": %.0f,\n",
               static_cast<double>(window) / 1e6);
  std::fprintf(f,
               "  \"admission\": {\"rejected\": %llu, "
               "\"decodes_during_rejection\": %llu, "
               "\"recovered_after_refill\": %s},\n",
               static_cast<unsigned long long>(proof.rejected),
               static_cast<unsigned long long>(proof.decodes_during_rejection),
               proof.recovered ? "true" : "false");
  std::fprintf(f, "  \"sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    std::fprintf(f, "    {\"tenants\": %d,\n", p.tenants);
    for (int pol = 0; pol < 2; ++pol) {
      const PolicyResult& r = pol == 0 ? p.fair : p.fifo;
      std::fprintf(
          f,
          "     \"%s\": {\"elapsed_ns\": %llu, \"total_device_ns\": %llu, "
          "\"utilization\": %.4f, \"total_ops\": %llu, "
          "\"nonhog_mean_device_ns\": %.0f, \"nonhog_min_device_ns\": %llu, "
          "\"nonhog_max_device_ns\": %llu, \"max_share_error\": %.4f, "
          "\"hog_device_ns\": %llu, \"hog_rejected\": %llu},\n",
          pol == 0 ? "fair" : "fifo",
          static_cast<unsigned long long>(r.elapsed_ns),
          static_cast<unsigned long long>(r.total_device_ns), r.utilization,
          static_cast<unsigned long long>(r.total_ops), r.nonhog_mean_ns,
          static_cast<unsigned long long>(r.nonhog_min_ns),
          static_cast<unsigned long long>(r.nonhog_max_ns),
          r.max_share_error,
          static_cast<unsigned long long>(r.hog.device_ns),
          static_cast<unsigned long long>(r.hog.rejected));
    }
    std::fprintf(f,
                 "     \"throughput_ratio\": %.4f, \"fairness_ok\": %s}%s\n",
                 p.throughput_ratio, p.fairness_ok ? "true" : "false",
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"gates_ok\": %s\n}\n",
               gates_ok ? "true" : "false");
  std::fclose(f);
  std::printf("\nJSON summary written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const sim::Nanos window =
      std::atoi(bench::arg_value(argc, argv, "window-ms", "80").c_str()) *
      sim::kMillisecond;
  const std::string json_path =
      bench::arg_value(argc, argv, "json", "BENCH_tenants.json");

  std::printf("tenancy sweep: N equal tenants + 1 hog, %.0f ms virtual "
              "window, paper testbed (4 devices)\n",
              static_cast<double>(window) / 1e6);
  std::printf("(mixed workloads: even tenants 512-GEMM, odd tenants 256 KiB "
              "copies; hog runs 1024-GEMMs + rate-limited copy bursts)\n");

  std::printf("\nadmission proof (serial, rate-limited tenant):\n");
  const AdmissionProof proof = admission_proof();
  std::printf("  %llu calls rejected at admission, %llu argument decodes "
              "while rejecting, recovered on same connection: %s\n",
              static_cast<unsigned long long>(proof.rejected),
              static_cast<unsigned long long>(proof.decodes_during_rejection),
              proof.recovered ? "yes" : "NO");

  const int counts[] = {1, 4, 16, 64};
  std::vector<SweepPoint> sweep;
  for (const int n : counts) {
    std::fprintf(stderr, "%d tenants...\n", n);
    SweepPoint p;
    p.tenants = n;
    p.fair = run_policy(core::SchedulerPolicy::kFairShare, n, window);
    p.fifo = run_policy(core::SchedulerPolicy::kFifo, n, window);
    p.throughput_ratio = p.fifo.utilization > 0
                             ? p.fair.utilization / p.fifo.utilization
                             : 0.0;
    p.fairness_ok = p.fair.max_share_error <= 0.10;
    std::printf("\n%d tenants + hog:\n", n);
    print_policy("fair-share", p.fair);
    print_policy("fifo", p.fifo);
    std::printf("  throughput ratio (fair/fifo) %.2f\n", p.throughput_ratio);
    sweep.push_back(p);
  }

  // Acceptance (ISSUE): checked at the 16-tenant point.
  bool ok = proof.rejected > 0 && proof.decodes_during_rejection == 0 &&
            proof.recovered;
  for (const SweepPoint& p : sweep) {
    if (p.tenants != 16) continue;
    if (!p.fairness_ok) ok = false;
    if (p.throughput_ratio < 0.85) ok = false;
    if (p.fair.hog.rejected == 0) ok = false;  // the hog must be contained
  }
  std::printf("\ngates (16-tenant fairness <= 10%%, throughput >= 0.85x "
              "fifo, admission proof): %s\n",
              ok ? "pass" : "FAIL");

  write_json(json_path, window, proof, sweep, ok);
  return ok ? 0 : 1;
}
