// Tenancy subsystem: token bucket, SessionManager quotas/auth/sharding,
// the two-level fair-share scheduler, and end-to-end admission control
// through a full CricketServer (quota rejections answered before argument
// decode with the connection surviving).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "cricket/client.hpp"
#include "cricket/scheduler.hpp"
#include "cricket/server.hpp"
#include "cudart/error.hpp"
#include "obs/metrics.hpp"
#include "rpc/transport.hpp"
#include "sim/sim_clock.hpp"
#include "tenancy/session_manager.hpp"
#include "tenancy/token_bucket.hpp"

namespace cricket::tenancy {
namespace {

// ---------------------------- token bucket -------------------------------

TEST(TokenBucket, ZeroRateIsUnlimited) {
  TokenBucket bucket(0, 1);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(bucket.try_take(1 << 20, 0));
}

TEST(TokenBucket, BurstThenRefillOverVirtualTime) {
  TokenBucket bucket(1000, 500);  // 1000 B/s, 500 B burst
  EXPECT_TRUE(bucket.try_take(500, 0));   // full burst available
  EXPECT_FALSE(bucket.try_take(1, 0));    // drained
  // 100 virtual ms refills 100 bytes.
  EXPECT_FALSE(bucket.try_take(101, sim::kMillisecond * 100));
  EXPECT_TRUE(bucket.try_take(100, sim::kMillisecond * 100));
  // A full second refills back to burst capacity, never beyond it.
  EXPECT_FALSE(bucket.try_take(501, sim::kSecond * 2));
  EXPECT_TRUE(bucket.try_take(500, sim::kSecond * 2));
}

TEST(TokenBucket, RequestAboveBurstNeverSucceeds) {
  TokenBucket bucket(1000, 100);
  EXPECT_FALSE(bucket.try_take(101, sim::kSecond * 1000));
  // But exactly burst-size requests still pass.
  EXPECT_TRUE(bucket.try_take(100, sim::kSecond * 1000));
}

TEST(TokenBucket, SubTokenRemaindersAccumulate) {
  TokenBucket bucket(1, 10);  // 1 byte per virtual second
  ASSERT_TRUE(bucket.try_take(10, 0));
  // 0.5 s refills nothing, but the half token is not lost: two half-second
  // steps yield one byte.
  EXPECT_FALSE(bucket.try_take(1, sim::kSecond / 2));
  EXPECT_TRUE(bucket.try_take(1, sim::kSecond));
}

// --------------------------- session manager -----------------------------

struct SessionManagerTest : ::testing::Test {
  sim::SimClock clock;
  SessionManager tenants{clock, {.device_count = 4, .default_tenant = ""}};

  TenantId add(const std::string& name, TenantQuota quota = {},
               std::uint32_t weight = 1) {
    tenancy::TenantSpec spec;
    spec.name = name;
    spec.weight = weight;
    spec.quota = quota;
    return tenants.register_tenant(spec);
  }

  static rpc::OpaqueAuth cred(const std::string& name) {
    rpc::AuthSysParms parms;
    parms.machinename = name;
    return parms.to_opaque();
  }
};

TEST_F(SessionManagerTest, AuthenticatesByMachinename) {
  const TenantId alice = add("alice");
  const TenantId bob = add("bob");
  EXPECT_EQ(tenants.authenticate(cred("alice")), alice);
  EXPECT_EQ(tenants.authenticate(cred("bob")), bob);
  EXPECT_EQ(tenants.authenticate(cred("mallory")), std::nullopt);
  EXPECT_EQ(tenants.authenticate(rpc::OpaqueAuth{}), std::nullopt);
}

TEST_F(SessionManagerTest, DefaultTenantCatchesUnknownCredentials) {
  sim::SimClock clk;
  SessionManager with_default(clk, {.device_count = 1,
                                    .default_tenant = "anon"});
  tenancy::TenantSpec spec;
  spec.name = "anon";
  const TenantId anon = with_default.register_tenant(spec);
  EXPECT_EQ(with_default.authenticate(cred("stranger")), anon);
  EXPECT_EQ(with_default.authenticate(rpc::OpaqueAuth{}), anon);
}

TEST_F(SessionManagerTest, ReRegistrationKeepsIdAndUpdatesQuota) {
  const TenantId id = add("alice", {.max_outstanding_calls = 1});
  EXPECT_EQ(add("alice", {.max_outstanding_calls = 2}), id);
  ASSERT_TRUE(tenants.admit_call(id, 10).admitted);
  EXPECT_TRUE(tenants.admit_call(id, 10).admitted);  // new cap of 2 applies
  EXPECT_FALSE(tenants.admit_call(id, 10).admitted);
}

TEST_F(SessionManagerTest, ShardingIsConsistentAndInRange) {
  std::vector<TenantId> ids;
  for (int i = 0; i < 32; ++i) {
    // Appended rather than "t" + to_string(i): GCC 12 -O3 reports a false
    // -Wrestrict overlap inside operator+(const char*, string&&).
    std::string name = "t";
    name += std::to_string(i);
    ids.push_back(add(name));
  }
  for (const auto id : ids) {
    const auto dev = tenants.shard_device(id);
    EXPECT_LT(dev, 4u);
    EXPECT_EQ(tenants.shard_device(id), dev);  // stable
  }
}

TEST_F(SessionManagerTest, SessionLimitEnforced) {
  const TenantId id = add("alice", {.max_sessions = 2});
  EXPECT_TRUE(tenants.open_session(id, 1).admitted);
  EXPECT_TRUE(tenants.open_session(id, 2).admitted);
  const auto third = tenants.open_session(id, 3);
  EXPECT_FALSE(third.admitted);
  EXPECT_EQ(third.reason, RejectReason::kSessionLimit);
  tenants.close_session(id, 1);
  EXPECT_TRUE(tenants.open_session(id, 3).admitted);
  EXPECT_EQ(tenants.stats(id).sessions_opened, 3u);
  EXPECT_EQ(tenants.stats(id).sessions_closed, 1u);
}

TEST_F(SessionManagerTest, OutstandingCallCapAndRateLimit) {
  const TenantId id =
      add("alice", {.max_outstanding_calls = 2, .bytes_per_sec = 1000,
                    .burst_bytes = 100});
  ASSERT_TRUE(tenants.admit_call(id, 40).admitted);
  ASSERT_TRUE(tenants.admit_call(id, 40).admitted);
  const auto capped = tenants.admit_call(id, 1);
  EXPECT_FALSE(capped.admitted);
  EXPECT_EQ(capped.reason, RejectReason::kOutstandingCalls);
  tenants.complete_call(id);
  // Slot free but the bucket only has 20 bytes left.
  const auto limited = tenants.admit_call(id, 40);
  EXPECT_FALSE(limited.admitted);
  EXPECT_EQ(limited.reason, RejectReason::kRateLimited);
  clock.advance(sim::kSecond);  // refill
  EXPECT_TRUE(tenants.admit_call(id, 40).admitted);
  const auto stats = tenants.stats(id);
  EXPECT_EQ(stats.calls_admitted, 3u);
  EXPECT_EQ(stats.calls_rejected, 2u);
  EXPECT_EQ(stats.rejected_by_reason[static_cast<std::uint32_t>(
                RejectReason::kOutstandingCalls)],
            1u);
  EXPECT_EQ(stats.rejected_by_reason[static_cast<std::uint32_t>(
                RejectReason::kRateLimited)],
            1u);
}

TEST_F(SessionManagerTest, MemoryQuotaAllOrNothing) {
  const TenantId id = add("alice", {.device_mem_bytes = 1000});
  EXPECT_TRUE(tenants.try_charge_memory(id, 600));
  EXPECT_FALSE(tenants.try_charge_memory(id, 500));   // would exceed
  EXPECT_EQ(tenants.stats(id).mem_used_bytes, 600u);  // charge untouched
  EXPECT_TRUE(tenants.try_charge_memory(id, 400));
  EXPECT_TRUE(tenants.memory_exhausted(id));
  tenants.release_memory(id, 400);
  EXPECT_FALSE(tenants.memory_exhausted(id));
  EXPECT_EQ(tenants.stats(id).mem_peak_bytes, 1000u);
}

// The regression the satellite asks for: every session of a tenant closes
// while the tenant still holds device memory. The quota must survive the
// sessions (allocations outlive connections until freed), keep refusing
// over-quota charges, and release cleanly afterwards.
TEST_F(SessionManagerTest, QuotaSurvivesAllSessionsClosing) {
  const TenantId id = add("alice", {.device_mem_bytes = 1000});
  ASSERT_TRUE(tenants.open_session(id, 1).admitted);
  ASSERT_TRUE(tenants.try_charge_memory(id, 1000));
  tenants.close_session(id, 1);
  EXPECT_EQ(tenants.stats(id).open_sessions, 0u);
  EXPECT_TRUE(tenants.memory_exhausted(id));
  // A fresh session still cannot allocate past the held quota...
  ASSERT_TRUE(tenants.open_session(id, 2).admitted);
  EXPECT_FALSE(tenants.try_charge_memory(id, 1));
  // ...until the memory is actually released.
  tenants.release_memory(id, 1000);
  EXPECT_TRUE(tenants.try_charge_memory(id, 1));
}

TEST_F(SessionManagerTest, RejectionMetricsByReason) {
  obs::Counter& rate_limited = obs::Registry::global().counter(
      "cricket_tenant_admission_rejected_total", {{"reason", "rate_limited"}});
  const auto before = rate_limited.value();
  const TenantId id =
      add("alice", {.bytes_per_sec = 1, .burst_bytes = 1});
  ASSERT_FALSE(tenants.admit_call(id, 100).admitted);
  EXPECT_EQ(rate_limited.value(), before + 1);
}

}  // namespace
}  // namespace cricket::tenancy

namespace cricket::core {
namespace {

using cuda::Error;
using tenancy::SessionManager;
using tenancy::TenantId;
using tenancy::TenantQuota;

// ------------------------ two-level fair share ---------------------------

/// Pure virtual-time scheduler (max_real_block = 0): admit/charge is a
/// deterministic function of the call sequence.
SchedulerOptions deterministic_options(sim::Nanos quantum = sim::kMillisecond) {
  return {.quantum = quantum,
          .max_real_block = std::chrono::nanoseconds(0),
          .max_archived = 1024};
}

TEST(TwoLevelScheduler, TenantsSplitTimeRegardlessOfSessionCount) {
  sim::SimClock clock;
  KernelScheduler sched(SchedulerPolicy::kFairShare, clock,
                        deterministic_options());
  // Tenant 1 has four sessions, tenant 2 has one: level 1 still splits
  // device time between the *tenants*, so tenant 1's crowd must wait once
  // the group's weighted virtual time leads.
  for (std::uint64_t s = 1; s <= 4; ++s) sched.session_open(s, 1, 1, 0);
  sched.session_open(5, 2, 1, 0);
  sim::Nanos hog_wait = 0;
  for (int round = 0; round < 20; ++round) {
    for (std::uint64_t s = 1; s <= 4; ++s) {
      hog_wait += sched.admit(s);
      sched.record_usage(s, sim::kMillisecond);
    }
  }
  EXPECT_GT(hog_wait, 0);
  // The single-session tenant never leads, so it never waits.
  EXPECT_EQ(sched.admit(5), 0);
}

TEST(TwoLevelScheduler, WeightsSkewTheSplit) {
  sim::SimClock clock;
  KernelScheduler sched(SchedulerPolicy::kFairShare, clock,
                        deterministic_options());
  sched.session_open(1, 1, 3, 0);  // weight 3
  sched.session_open(2, 2, 1, 0);  // weight 1
  // Session 1 uses 3x the device time of session 2 each round — exactly its
  // weighted entitlement, so neither side should ever wait.
  for (int round = 0; round < 50; ++round) {
    EXPECT_EQ(sched.admit(1), 0);
    sched.record_usage(1, 3 * sim::kMillisecond);
    EXPECT_EQ(sched.admit(2), 0);
    sched.record_usage(2, sim::kMillisecond);
  }
}

TEST(TwoLevelScheduler, HigherPriorityNeverWaitsForLower) {
  sim::SimClock clock;
  KernelScheduler sched(SchedulerPolicy::kFairShare, clock,
                        deterministic_options());
  sched.session_open(1, 1, 1, 1);  // high priority
  sched.session_open(2, 2, 1, 0);  // low priority
  for (int round = 0; round < 20; ++round) {
    EXPECT_EQ(sched.admit(1), 0);  // leads massively, still never waits
    sched.record_usage(1, 10 * sim::kMillisecond);
  }
  // The low-priority tenant *does* wait once it leads the high-priority
  // one (its lead is measured against same-or-higher priority groups).
  sched.record_usage(2, 250 * sim::kMillisecond);
  EXPECT_GT(sched.admit(2), 0);
}

TEST(TwoLevelScheduler, FairShareSurvivesSessionChurn) {
  sim::SimClock clock;
  KernelScheduler sched(SchedulerPolicy::kFairShare, clock,
                        deterministic_options());
  sched.session_open(1, 1, 1, 0);
  sched.session_open(1000, 2, 1, 0);
  std::uint64_t next = 2;
  for (int round = 0; round < 200; ++round) {
    // Tenant 1 rotates its sessions every round (unikernel churn); tenant 2
    // keeps one long-lived session.
    sched.session_open(next, 1, 1, 0);
    (void)sched.admit(next);
    sched.record_usage(next, sim::kMillisecond);
    sched.session_close(next - 1);
    ++next;
    (void)sched.admit(1000);
    sched.record_usage(1000, sim::kMillisecond);
  }
  // Equal per-round usage: the churning tenant cannot launder away its
  // group history by cycling sessions — the long-lived tenant never ends up
  // waiting more than a quantum's slack.
  const sim::Nanos wait_long_lived = sched.stats(1000).total_wait_ns;
  EXPECT_LE(wait_long_lived, 4 * sim::kMillisecond);
  EXPECT_EQ(sched.stats(1000).launches, 200u);
}

TEST(TwoLevelScheduler, DeterministicUnderVirtualClock) {
  // Two identical runs over fresh schedulers: every admit() wait and every
  // final stat must match exactly (the TSan tree runs this too, so the
  // determinism claim holds under the race detector).
  auto run = [] {
    sim::SimClock clock;
    KernelScheduler sched(SchedulerPolicy::kFairShare, clock,
                          deterministic_options(250 * sim::kMicrosecond));
    std::vector<sim::Nanos> waits;
    sched.session_open(1, 1, 2, 0);
    sched.session_open(2, 1, 2, 0);
    sched.session_open(3, 2, 1, 0);
    for (int round = 0; round < 100; ++round) {
      waits.push_back(sched.admit(1));
      sched.record_usage(1, ((round % 7) + 1) * sim::kMicrosecond * 100);
      waits.push_back(sched.admit(2));
      sched.record_usage(2, ((round % 3) + 1) * sim::kMicrosecond * 100);
      if (round % 10 == 9) {
        sched.session_close(3);
        sched.session_open(3, 2, 1, 0);
      }
      waits.push_back(sched.admit(3));
      sched.record_usage(3, sim::kMicrosecond * 150);
    }
    waits.push_back(sched.stats(1).total_wait_ns);
    waits.push_back(sched.stats(2).total_wait_ns);
    waits.push_back(clock.now());
    return waits;
  };
  EXPECT_EQ(run(), run());
}

TEST(TwoLevelScheduler, ArchiveEvictionIsFifoBounded) {
  sim::SimClock clock;
  SchedulerOptions options = deterministic_options();
  options.max_archived = 8;
  KernelScheduler sched(SchedulerPolicy::kFairShare, clock, options);
  for (std::uint64_t s = 1; s <= 20; ++s) {
    sched.session_open(s);
    (void)sched.admit(s);
    sched.session_close(s);
  }
  EXPECT_EQ(sched.archive_evictions(), 12u);
  // The newest 8 remain queryable; the oldest were evicted FIFO.
  EXPECT_EQ(sched.stats(20).launches, 1u);
  EXPECT_EQ(sched.stats(1).launches, 0u);
}

// ------------------------- end-to-end admission --------------------------

constexpr std::uint32_t kServeWorkers[] = {0, 1};

/// Full client<->server stack over an in-process pipe with multi-tenant
/// admission enabled. Every case runs once per serve mode (zero workers,
/// then one) against the same tenants: serve_with() closes the sessions,
/// which releases their quota charges, and starts a fresh server.
struct TenancyFixture : ::testing::Test {
  TenancyFixture()
      : node(cuda::GpuNode::make_paper_testbed()),
        tenants(node->clock(),
                {.device_count =
                     static_cast<std::uint32_t>(node->device_count()),
                 .default_tenant = ""}) {}

  ~TenancyFixture() override { disconnect_all(); }

  CricketServer& server() {
    if (!server_) {
      ServerOptions options;
      options.scheduler = SchedulerPolicy::kFairShare;
      options.scheduler_options = {.quantum = sim::kMillisecond,
                                   .max_real_block =
                                       std::chrono::nanoseconds(0),
                                   .max_archived = 64};
      options.tenants = &tenants;
      options.serve.workers = serve_workers;
      server_ = std::make_unique<CricketServer>(*node, options);
    }
    return *server_;
  }

  RemoteCudaApi& connect(const std::string& tenant) {
    auto [client_end, server_end] = rpc::make_pipe_pair();
    threads.push_back(server().serve_async(std::move(server_end)));
    ClientConfig config;
    config.tenant = tenant;
    apis.push_back(std::make_unique<RemoteCudaApi>(
        std::move(client_end), node->clock(), std::move(config)));
    return *apis.back();
  }

  void disconnect_all() {
    apis.clear();
    for (auto& t : threads)
      if (t.joinable()) t.join();
    threads.clear();
  }

  void serve_with(std::uint32_t workers) {
    disconnect_all();
    server_.reset();
    serve_workers = workers;
  }

  TenantId add(const std::string& name, TenantQuota quota = {}) {
    tenancy::TenantSpec spec;
    spec.name = name;
    spec.quota = quota;
    return tenants.register_tenant(spec);
  }

  std::unique_ptr<cuda::GpuNode> node;
  SessionManager tenants;
  std::uint32_t serve_workers = 0;
  std::unique_ptr<CricketServer> server_;
  std::vector<std::unique_ptr<RemoteCudaApi>> apis;
  std::vector<std::thread> threads;
};

TEST_F(TenancyFixture, SessionBindsToTenantAndShardsToItsDevice) {
  for (const std::uint32_t workers : kServeWorkers) {
    SCOPED_TRACE("serve workers = " + std::to_string(workers));
    serve_with(workers);
    const TenantId alice = add("alice");
    auto& api = connect("alice");
    int device = -1;
    ASSERT_EQ(api.get_device(device), Error::kSuccess);
    EXPECT_EQ(device, static_cast<int>(tenants.shard_device(alice)));
    EXPECT_GT(tenants.stats(alice).calls_admitted, 0u);
    EXPECT_EQ(tenants.stats(alice).open_sessions, 1u);
    disconnect_all();
    EXPECT_EQ(tenants.stats(alice).open_sessions, 0u);
  }
}

TEST_F(TenancyFixture, UnknownTenantIsDeniedWithoutCrashing) {
  for (const std::uint32_t workers : kServeWorkers) {
    SCOPED_TRACE("serve workers = " + std::to_string(workers));
    serve_with(workers);
    add("alice");
    auto& api = connect("mallory");
    int n = 0;
    EXPECT_EQ(api.get_device_count(n), Error::kRpcFailure);  // auth denial
    // The server thread survives; a legitimate tenant still gets service.
    auto& ok = connect("alice");
    EXPECT_EQ(ok.get_device_count(n), Error::kSuccess);
  }
}

TEST_F(TenancyFixture, RateLimitRejectsBeforeDecodeAndConnectionSurvives) {
  for (const std::uint32_t workers : kServeWorkers) {
    SCOPED_TRACE("serve workers = " + std::to_string(workers));
    serve_with(workers);
    TenantQuota quota;
    quota.bytes_per_sec = 1;   // ~nothing refills without explicit advance
    quota.burst_bytes = 200;   // enough for roughly two small calls
    const TenantId alice = add("alice", quota);
    auto& api = connect("alice");

    int n = 0;
    ASSERT_EQ(api.get_device_count(n), Error::kSuccess);  // burst covers this

    obs::Counter& decodes =
        obs::Registry::global().counter("cricket_rpc_args_decode_total", {});
    // Hammer until the bucket runs dry.
    Error err = Error::kSuccess;
    for (int i = 0; i < 16 && err == Error::kSuccess; ++i)
      err = api.get_device_count(n);
    ASSERT_EQ(err, Error::kQuotaExceeded);

    // The rejection happens at admission: a further over-quota call must not
    // advance the argument-decode counter.
    const auto decodes_before = decodes.value();
    EXPECT_EQ(api.get_device_count(n), Error::kQuotaExceeded);
    EXPECT_EQ(decodes.value(), decodes_before);

    // Same connection, after backoff (virtual time refills the bucket):
    // service resumes — the rejection never dropped the transport.
    node->clock().advance(sim::kSecond * 300);
    EXPECT_EQ(api.get_device_count(n), Error::kSuccess);
    EXPECT_GT(tenants.stats(alice).calls_rejected, 0u);
  }
}

TEST_F(TenancyFixture, DeviceMemoryQuotaChargesAndReleases) {
  for (const std::uint32_t workers : kServeWorkers) {
    SCOPED_TRACE("serve workers = " + std::to_string(workers));
    serve_with(workers);
    TenantQuota quota;
    quota.device_mem_bytes = 1 << 20;
    const TenantId alice = add("alice", quota);
    auto& api = connect("alice");

    cuda::DevPtr a = 0;
    ASSERT_EQ(api.malloc(a, 1 << 20), Error::kSuccess);
    EXPECT_EQ(tenants.stats(alice).mem_used_bytes, 1u << 20);

    // At quota: the next malloc is refused pre-decode (admission sees the
    // exhausted quota before the arguments are even parsed).
    obs::Counter& decodes =
        obs::Registry::global().counter("cricket_rpc_args_decode_total", {});
    const auto decodes_before = decodes.value();
    cuda::DevPtr b = 0;
    EXPECT_EQ(api.malloc(b, 16), Error::kQuotaExceeded);
    EXPECT_EQ(decodes.value(), decodes_before);

    ASSERT_EQ(api.free(a), Error::kSuccess);
    EXPECT_EQ(tenants.stats(alice).mem_used_bytes, 0u);
    EXPECT_EQ(api.malloc(b, 16), Error::kSuccess);

    // Partial headroom: a malloc that would overshoot is refused in-band
    // (all-or-nothing), with the same typed error.
    cuda::DevPtr c = 0;
    EXPECT_EQ(api.malloc(c, 1 << 20), Error::kQuotaExceeded);
  }
}

TEST_F(TenancyFixture, SessionLimitRejectsExtraConnections) {
  for (const std::uint32_t workers : kServeWorkers) {
    SCOPED_TRACE("serve workers = " + std::to_string(workers));
    serve_with(workers);
    TenantQuota quota;
    quota.max_sessions = 1;
    add("alice", quota);
    auto& first = connect("alice");
    int n = 0;
    ASSERT_EQ(first.get_device_count(n), Error::kSuccess);
    auto& second = connect("alice");
    EXPECT_EQ(second.get_device_count(n), Error::kQuotaExceeded);
    // The first session is unaffected.
    EXPECT_EQ(first.get_device_count(n), Error::kSuccess);
  }
}

TEST_F(TenancyFixture, LeakedAllocationsReleaseTenantQuotaOnDisconnect) {
  for (const std::uint32_t workers : kServeWorkers) {
    SCOPED_TRACE("serve workers = " + std::to_string(workers));
    serve_with(workers);
    TenantQuota quota;
    quota.device_mem_bytes = 1 << 20;
    const TenantId alice = add("alice", quota);
    {
      auto& api = connect("alice");
      cuda::DevPtr p = 0;
      ASSERT_EQ(api.malloc(p, 1 << 20), Error::kSuccess);
      // Client vanishes without freeing.
    }
    disconnect_all();
    EXPECT_EQ(tenants.stats(alice).mem_used_bytes, 0u);
    EXPECT_EQ(tenants.stats(alice).open_sessions, 0u);
  }
}

}  // namespace
}  // namespace cricket::core
