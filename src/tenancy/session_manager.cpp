#include "tenancy/session_manager.hpp"

#include <algorithm>

#include "xdr/fnv.hpp"

namespace cricket::tenancy {

namespace {

/// FNV-1a over the tenant id: the consistent shard hash. Deliberately
/// independent of registration order so adding tenants never migrates
/// existing ones between devices.
std::uint64_t shard_hash(TenantId tenant) noexcept {
  std::uint8_t id_le[8];
  for (int i = 0; i < 8; ++i)
    id_le[i] = static_cast<std::uint8_t>(tenant >> (8 * i));
  return xdr::fnv64(id_le);
}

}  // namespace

SessionManager::SessionManager(sim::SimClock& clock,
                               SessionManagerOptions options)
    : clock_(&clock), options_(std::move(options)) {
  if (options_.device_count == 0) options_.device_count = 1;
  for (std::uint32_t r = 0; r < kRejectReasonCount; ++r) {
    rejected_[r] = &obs::Registry::global().counter(
        "cricket_tenant_admission_rejected_total",
        {{"reason", reject_reason_name(static_cast<RejectReason>(r))}},
        "Calls/sessions rejected at tenant admission, by reason");
  }
}

TenantId SessionManager::register_tenant(const TenantSpec& spec) {
  sim::MutexLock lock(mu_);
  const auto named = by_name_.find(spec.name);
  if (named != by_name_.end()) {
    Tenant& t = tenants_.at(named->second);
    t.spec = spec;
    t.bucket = TokenBucket(spec.quota.bytes_per_sec, spec.quota.burst_bytes);
    return named->second;
  }
  const TenantId id = next_id_++;
  Tenant t;
  t.spec = spec;
  t.bucket = TokenBucket(spec.quota.bytes_per_sec, spec.quota.burst_bytes);
  t.device_ns_total = &obs::Registry::global().counter(
      "cricket_tenant_device_ns_total", {{"tenant", spec.name}},
      "Device time attributed to the tenant (virtual ns)");
  t.launch_latency = &obs::Registry::global().histogram(
      "cricket_tenant_launch_latency_ns", {{"tenant", spec.name}},
      "Per-tenant kernel launch latency: admission wait + execution "
      "(virtual ns)");
  tenants_.emplace(id, std::move(t));
  by_name_.emplace(spec.name, id);
  return id;
}

std::optional<TenantId> SessionManager::authenticate(
    const rpc::OpaqueAuth& cred) const {
  std::string name;
  if (cred.flavor == rpc::AuthFlavor::kSys) {
    try {
      name = rpc::AuthSysParms::from_opaque(cred).machinename;
    } catch (const rpc::RpcFormatError&) {
      name.clear();  // malformed AUTH_SYS body: treat as anonymous
    } catch (const xdr::XdrError&) {
      name.clear();
    }
  }
  sim::MutexLock lock(mu_);
  if (!name.empty()) {
    const auto it = by_name_.find(name);
    if (it != by_name_.end()) return it->second;
  }
  if (!options_.default_tenant.empty()) {
    const auto it = by_name_.find(options_.default_tenant);
    if (it != by_name_.end()) return it->second;
  }
  return std::nullopt;
}

std::uint32_t SessionManager::shard_device(TenantId tenant) const {
  sim::MutexLock lock(mu_);
  const Tenant* t = find_locked(tenant);
  if (t != nullptr && t->pinned_device != ~0u)
    return t->pinned_device % options_.device_count;
  return static_cast<std::uint32_t>(shard_hash(tenant) %
                                    options_.device_count);
}

void SessionManager::pin_shard(TenantId tenant, std::uint32_t device) {
  sim::MutexLock lock(mu_);
  Tenant* t = find_locked(tenant);
  if (t != nullptr) t->pinned_device = device;
}

SessionManager::Tenant* SessionManager::find_locked(TenantId tenant) {
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? nullptr : &it->second;
}

const SessionManager::Tenant* SessionManager::find_locked(
    TenantId tenant) const {
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? nullptr : &it->second;
}

void SessionManager::count_rejection_locked(Tenant* t, RejectReason reason) {
  rejected_[static_cast<std::uint32_t>(reason)]->inc();
  if (t != nullptr) {
    ++t->stats.calls_rejected;
    ++t->stats.rejected_by_reason[static_cast<std::uint32_t>(reason)];
  }
}

Admission SessionManager::open_session(TenantId tenant, std::uint64_t) {
  sim::MutexLock lock(mu_);
  Tenant* t = find_locked(tenant);
  if (t == nullptr) {
    count_rejection_locked(nullptr, RejectReason::kUnknownTenant);
    return Admission::reject(RejectReason::kUnknownTenant);
  }
  if (t->draining) {
    count_rejection_locked(t, RejectReason::kMigrating);
    return Admission::reject(RejectReason::kMigrating);
  }
  if (t->stats.open_sessions >= t->spec.quota.max_sessions) {
    count_rejection_locked(t, RejectReason::kSessionLimit);
    return Admission::reject(RejectReason::kSessionLimit);
  }
  ++t->stats.open_sessions;
  ++t->stats.sessions_opened;
  return Admission::ok();
}

void SessionManager::close_session(TenantId tenant, std::uint64_t) {
  sim::MutexLock lock(mu_);
  Tenant* t = find_locked(tenant);
  if (t == nullptr || t->stats.open_sessions == 0) return;
  --t->stats.open_sessions;
  ++t->stats.sessions_closed;
}

Admission SessionManager::admit_call(TenantId tenant,
                                     std::uint64_t wire_bytes) {
  sim::MutexLock lock(mu_);
  Tenant* t = find_locked(tenant);
  if (t == nullptr) {
    count_rejection_locked(nullptr, RejectReason::kUnknownTenant);
    return Admission::reject(RejectReason::kUnknownTenant);
  }
  if (t->draining) {
    count_rejection_locked(t, RejectReason::kMigrating);
    return Admission::reject(RejectReason::kMigrating);
  }
  if (t->stats.outstanding_calls >= t->spec.quota.max_outstanding_calls) {
    count_rejection_locked(t, RejectReason::kOutstandingCalls);
    return Admission::reject(RejectReason::kOutstandingCalls);
  }
  if (!t->bucket.try_take(wire_bytes, clock_->now())) {
    count_rejection_locked(t, RejectReason::kRateLimited);
    return Admission::reject(RejectReason::kRateLimited);
  }
  ++t->stats.outstanding_calls;
  ++t->stats.calls_admitted;
  return Admission::ok();
}

void SessionManager::complete_call(TenantId tenant) {
  sim::MutexLock lock(mu_);
  Tenant* t = find_locked(tenant);
  if (t != nullptr && t->stats.outstanding_calls > 0) {
    --t->stats.outstanding_calls;
    if (t->draining) quiesce_cv_.notify_all();
  }
}

void SessionManager::begin_drain(TenantId tenant) {
  sim::MutexLock lock(mu_);
  Tenant* t = find_locked(tenant);
  if (t != nullptr) t->draining = true;
}

void SessionManager::end_drain(TenantId tenant) {
  sim::MutexLock lock(mu_);
  Tenant* t = find_locked(tenant);
  if (t != nullptr) t->draining = false;
}

bool SessionManager::draining(TenantId tenant) const {
  sim::MutexLock lock(mu_);
  const Tenant* t = find_locked(tenant);
  return t != nullptr && t->draining;
}

bool SessionManager::wait_quiesced(TenantId tenant,
                                   std::chrono::nanoseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  sim::MutexLock lock(mu_);
  for (;;) {
    const Tenant* t = find_locked(tenant);
    if (t == nullptr) return false;
    if (t->stats.outstanding_calls == 0) return true;
    if (quiesce_cv_.wait_until(mu_, deadline) == std::cv_status::timeout) {
      const Tenant* again = find_locked(tenant);
      return again != nullptr && again->stats.outstanding_calls == 0;
    }
  }
}

std::optional<TenantExport> SessionManager::export_tenant(TenantId tenant) {
  sim::MutexLock lock(mu_);
  Tenant* t = find_locked(tenant);
  if (t == nullptr) return std::nullopt;
  TenantExport exp;
  exp.spec = t->spec;
  exp.bucket_tokens = t->bucket.tokens(clock_->now());
  exp.mem_used_bytes = t->stats.mem_used_bytes;
  exp.mem_peak_bytes = t->stats.mem_peak_bytes;
  exp.calls_admitted = t->stats.calls_admitted;
  exp.calls_rejected = t->stats.calls_rejected;
  exp.device_ns = t->stats.device_ns;
  exp.sessions_opened = t->stats.sessions_opened;
  exp.sessions_closed = t->stats.sessions_closed;
  return exp;
}

TenantId SessionManager::import_tenant(const TenantExport& exp) {
  const TenantId id = register_tenant(exp.spec);
  sim::MutexLock lock(mu_);
  Tenant* t = find_locked(id);
  if (t == nullptr) return id;  // unreachable: register_tenant just made it
  t->bucket.set_tokens(exp.bucket_tokens, clock_->now());
  t->stats.mem_used_bytes = exp.mem_used_bytes;
  t->stats.mem_peak_bytes = std::max(exp.mem_peak_bytes, exp.mem_used_bytes);
  t->stats.calls_admitted = exp.calls_admitted;
  t->stats.calls_rejected = exp.calls_rejected;
  t->stats.device_ns = exp.device_ns;
  t->stats.sessions_opened = exp.sessions_opened;
  t->stats.sessions_closed = exp.sessions_closed;
  return id;
}

bool SessionManager::try_charge_memory(TenantId tenant, std::uint64_t bytes) {
  sim::MutexLock lock(mu_);
  Tenant* t = find_locked(tenant);
  if (t == nullptr) return false;
  // Saturating form of `used + bytes > quota`: a request near UINT64_MAX
  // must not wrap the sum below quota and mint unlimited memory.
  const auto would_use =
      xdr::Untrusted<std::uint64_t>(t->stats.mem_used_bytes) + bytes;
  if (would_use > t->spec.quota.device_mem_bytes) {
    count_rejection_locked(t, RejectReason::kDeviceMemory);
    return false;
  }
  t->stats.mem_used_bytes += bytes;
  t->stats.mem_peak_bytes =
      std::max(t->stats.mem_peak_bytes, t->stats.mem_used_bytes);
  return true;
}

bool SessionManager::try_charge_memory(TenantId tenant,
                                       xdr::Untrusted<std::uint64_t> bytes,
                                       std::uint64_t& charged) {
  // The admitted count is provably <= the tenant's quota, so unwrapping
  // through that bound is the validation.
  sim::MutexLock lock(mu_);
  Tenant* t = find_locked(tenant);
  if (t == nullptr) return false;
  const std::uint64_t quota = t->spec.quota.device_mem_bytes;
  std::uint64_t plain = 0;
  // `used > quota` can happen transiently when a re-configure shrank the
  // quota under live allocations; refuse new charges outright then.
  if (t->stats.mem_used_bytes > quota || !bytes.try_validate(quota, plain) ||
      plain > quota - t->stats.mem_used_bytes) {
    count_rejection_locked(t, RejectReason::kDeviceMemory);
    return false;
  }
  t->stats.mem_used_bytes += plain;
  t->stats.mem_peak_bytes =
      std::max(t->stats.mem_peak_bytes, t->stats.mem_used_bytes);
  charged = plain;
  return true;
}

void SessionManager::release_memory(TenantId tenant, std::uint64_t bytes) {
  sim::MutexLock lock(mu_);
  Tenant* t = find_locked(tenant);
  if (t == nullptr) return;
  t->stats.mem_used_bytes -= std::min(t->stats.mem_used_bytes, bytes);
}

bool SessionManager::memory_exhausted(TenantId tenant) const {
  sim::MutexLock lock(mu_);
  const Tenant* t = find_locked(tenant);
  return t != nullptr &&
         t->stats.mem_used_bytes >= t->spec.quota.device_mem_bytes;
}

void SessionManager::note_device_time(TenantId tenant, sim::Nanos ns) {
  if (ns <= 0) return;
  sim::MutexLock lock(mu_);
  Tenant* t = find_locked(tenant);
  if (t == nullptr) return;
  t->stats.device_ns += static_cast<std::uint64_t>(ns);
  t->device_ns_total->inc(static_cast<std::uint64_t>(ns));
}

void SessionManager::observe_launch_latency(TenantId tenant, sim::Nanos ns) {
  sim::MutexLock lock(mu_);
  Tenant* t = find_locked(tenant);
  if (t == nullptr) return;
  t->launch_latency->observe(
      static_cast<std::uint64_t>(std::max<sim::Nanos>(ns, 0)));
}

void SessionManager::count_rejection(TenantId tenant, RejectReason reason) {
  sim::MutexLock lock(mu_);
  count_rejection_locked(find_locked(tenant), reason);
}

std::optional<TenantSpec> SessionManager::spec(TenantId tenant) const {
  sim::MutexLock lock(mu_);
  const Tenant* t = find_locked(tenant);
  if (t == nullptr) return std::nullopt;
  return t->spec;
}

std::optional<TenantId> SessionManager::find(const std::string& name) const {
  sim::MutexLock lock(mu_);
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

TenantStats SessionManager::stats(TenantId tenant) const {
  sim::MutexLock lock(mu_);
  const Tenant* t = find_locked(tenant);
  return t == nullptr ? TenantStats{} : t->stats;
}

}  // namespace cricket::tenancy
