#include "probes.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <ctime>

#include <cstdlib>
#include <new>

namespace perfbench {

namespace {

void add(std::atomic<std::uint64_t>& counter, std::int64_t delta) {
  if (delta > 0)
    counter.fetch_add(static_cast<std::uint64_t>(delta),
                      std::memory_order_relaxed);
}

}  // namespace

void EndProbe::on_send_start(std::int64_t t0) {
  if (!last_was_send.exchange(true)) messages.fetch_add(1);
  if (end != End::kServer) return;
  const std::int64_t recv_end = last_recv_end.exchange(-1);
  if (recv_end >= 0) add(self_ns, t0 - recv_end);
  std::int64_t none = -1;
  link->s2c_pending.compare_exchange_strong(none, t0);
}

void EndProbe::on_send_end(std::int64_t t0, std::int64_t t1,
                           std::size_t bytes) {
  sends.fetch_add(1, std::memory_order_relaxed);
  send_bytes.fetch_add(bytes, std::memory_order_relaxed);
  add(send_ns, t1 - t0);
  if (std::this_thread::get_id() == app_thread) add(app_send_ns, t1 - t0);
  if (end != End::kGuest) return;
  // Bytes the server already received while this send() ran (the vnet
  // backend forwards frames before send() returns) arrived with no hop
  // left to wait for; pairing them with the server's *next* recv would
  // charge a whole round trip.
  if (link->server_recv_end.load() >= t0) {
    link->c2s_hops.fetch_add(1);
    return;
  }
  std::int64_t none = -1;
  link->c2s_pending.compare_exchange_strong(none, t1);
}

void EndProbe::on_recv(std::int64_t t0, std::int64_t t1, std::size_t bytes) {
  add(recv_ns, t1 - t0);
  if (std::this_thread::get_id() == app_thread) add(app_recv_ns, t1 - t0);
  if (bytes == 0) return;  // end of stream
  recvs.fetch_add(1, std::memory_order_relaxed);
  last_was_send.store(false);
  if (end == End::kServer) {
    last_recv_end.store(t1);
    link->server_recv_end.store(t1);
    const std::int64_t sent = link->c2s_pending.exchange(-1);
    if (sent >= 0) {
      add(link->c2s_ns, t1 - sent);
      link->c2s_hops.fetch_add(1);
    }
  } else {
    const std::int64_t sent = link->s2c_pending.exchange(-1);
    if (sent >= 0) {
      add(link->s2c_ns, t1 - sent);
      link->s2c_hops.fetch_add(1);
    }
  }
}

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_alloc_calls{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
}  // namespace

void set_alloc_counting(bool enabled) { g_counting.store(enabled); }

AllocCount alloc_count() {
  return {g_alloc_calls.load(), g_alloc_bytes.load()};
}

std::int64_t busy_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
  }
  return -1;
}

SpeedProbe::SpeedProbe(std::size_t fresh_bytes, double nominal_us)
    : fresh_bytes_(fresh_bytes),
      nominal_us_(nominal_us),
      src_(std::max<std::size_t>(fresh_bytes, 32 << 10), 0x5A),
      dst_(src_.size()) {
  partner_ = std::thread([this] {
    std::unique_lock lock(mu_);
    for (;;) {
      cv_.wait(lock, [&] { return partner_turn_ || stop_; });
      if (stop_) return;
      partner_turn_ = false;
      cv_.notify_all();
    }
  });
  run_us();
}

SpeedProbe::~SpeedProbe() {
  {
    const std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  partner_.join();
}

double SpeedProbe::run_us() {
  constexpr int kHandOffs = 400;
  const std::int64_t t0 = busy_ns();
  for (int i = 0; i < kHandOffs; ++i) {
    std::unique_lock lock(mu_);
    partner_turn_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return !partner_turn_; });
    lock.unlock();
    std::memcpy(dst_.data(), src_.data(), 4096 * (1 + i % 8));
  }
  std::vector<std::uint8_t> fresh(fresh_bytes_);  // a fresh mapping
  std::memcpy(fresh.data(), src_.data(), fresh.size());
  std::memcpy(dst_.data(), fresh.data(), fresh.size());
  return static_cast<double>(busy_ns() - t0) / 1e3;
}

Usage Usage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.vcs = static_cast<std::uint64_t>(ru.ru_nvcsw);
  u.ivcs = static_cast<std::uint64_t>(ru.ru_nivcsw);
  u.minflt = static_cast<std::uint64_t>(ru.ru_minflt);
  u.maxrss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

}  // namespace perfbench

namespace {

void* counted_alloc(std::size_t size, std::size_t align) {
  if (perfbench::g_counting.load(std::memory_order_relaxed)) {
    perfbench::g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
    perfbench::g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else {
    p = std::aligned_alloc(align, (size + align - 1) / align * align);
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_alloc_nothrow(std::size_t size, std::size_t align) noexcept {
  try {
    return counted_alloc(size, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

constexpr std::size_t kPlain = alignof(std::max_align_t);

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, kPlain); }
void* operator new[](std::size_t n) { return counted_alloc(n, kPlain); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(n, kPlain);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(n, kPlain);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
