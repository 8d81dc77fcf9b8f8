// Outside-the-program probes for the traced benchmark run.
//
// Everything here observes the system through its public surfaces only:
//   * TimingTransport wraps an rpc::Transport (guest end or server end of a
//     connection) and times every send()/recv() with steady_clock;
//   * HopLink pairs events of the two ends to time the hops between them;
//   * the counting operator new (probes.cpp) counts heap allocations made by
//     any thread of the process while counting is switched on;
//   * Usage snapshots getrusage(RUSAGE_SELF);
//   * busy_ns() reads the process CPU clock, the clock of every end-to-end
//     time once pin_to_one_cpu() has put the whole stack on one CPU;
//   * SpeedProbe times a fixed piece of benchmark code on that CPU, to tell
//     how fast the host is letting the CPU run.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "rpc/transport.hpp"

namespace perfbench {

/// Monotonic real time in nanoseconds.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time used by all threads of the process, in nanoseconds. With the
/// whole stack on one CPU and never idle, this is the real time the stack
/// had that CPU: wall time minus what the host or other processes took.
std::int64_t busy_ns();

/// Restricts the process, and every thread it starts later, to the last
/// CPU it may run on. Returns that CPU, or -1 if the affinity could not be
/// read or set.
int pin_to_one_cpu();

/// A fixed workload that does what the stack does, in miniature: thread
/// hand-offs through a mutex and condition variable (futex waits and
/// wake-ups, context switches), copies of 4-32 KiB, and a fresh buffer
/// (page faults, and memory bandwidth once it outgrows the caches). It uses none of the system's code, so its busy
/// time moves only with the speed the host gives the CPU: a neighbour on
/// the same core or caches slows it as it slows the stack.
class SpeedProbe {
 public:
  /// Starts the partner thread (on the calling thread's CPUs) and warms up.
  /// Each run also fills and copies a fresh buffer of `fresh_bytes`;
  /// `nominal_us` is the run time the end-to-end times are scaled to.
  SpeedProbe(std::size_t fresh_bytes, double nominal_us);
  ~SpeedProbe();
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  /// Runs the workload once; returns its busy time in microseconds.
  double run_us();

  [[nodiscard]] double nominal_us() const { return nominal_us_; }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool partner_turn_ = false;
  bool stop_ = false;
  std::size_t fresh_bytes_;
  double nominal_us_;
  std::vector<std::uint8_t> src_, dst_;
  std::thread partner_;
};

/// Pairs an event on one end of a connection with the next event on the
/// other end: a guest send() returning with the server's next recv()
/// returning (c2s), and a server send() starting with the guest's next
/// recv() returning (s2c). Only the first unpaired event waits for a
/// partner, so a burst of sends counts one hop.
struct HopLink {
  std::atomic<std::int64_t> c2s_pending{-1};
  std::atomic<std::int64_t> s2c_pending{-1};
  std::atomic<std::int64_t> server_recv_end{-1};  // latest server recv()
  std::atomic<std::uint64_t> c2s_ns{0};
  std::atomic<std::uint64_t> c2s_hops{0};
  std::atomic<std::uint64_t> s2c_ns{0};
  std::atomic<std::uint64_t> s2c_hops{0};

  /// Drops unpaired events at a session boundary.
  void reset_pending() {
    c2s_pending.store(-1);
    s2c_pending.store(-1);
    server_recv_end.store(-1);
  }
};

/// Counters for one end of a connection, accumulated over every session of
/// a phase (sessions run one after another, never overlapping).
struct EndProbe {
  enum class End { kGuest, kServer };

  EndProbe(End which, HopLink& hops) : end(which), link(&hops) {}

  const End end;
  HopLink* const link;
  /// The generator thread; guest time spent on it is the client's share.
  std::thread::id app_thread{};

  std::atomic<std::uint64_t> sends{0};
  std::atomic<std::uint64_t> recvs{0};
  std::atomic<std::uint64_t> send_bytes{0};
  std::atomic<std::uint64_t> send_ns{0};
  std::atomic<std::uint64_t> recv_ns{0};
  std::atomic<std::uint64_t> app_send_ns{0};
  std::atomic<std::uint64_t> app_recv_ns{0};
  /// Runs of sends preceded by a receive (or the session start): one per
  /// request on a serial connection.
  std::atomic<std::uint64_t> messages{0};
  /// Server end: sum over replies of (send start - latest recv return).
  std::atomic<std::uint64_t> self_ns{0};

  std::atomic<std::int64_t> last_recv_end{-1};
  std::atomic<bool> last_was_send{false};

  void reset_session() {
    last_recv_end.store(-1);
    last_was_send.store(false);
  }

  void on_send_start(std::int64_t t0);
  void on_send_end(std::int64_t t0, std::int64_t t1, std::size_t bytes);
  void on_recv(std::int64_t t0, std::int64_t t1, std::size_t bytes);
};

/// Transport decorator feeding an EndProbe. The probe must outlive it.
class TimingTransport final : public cricket::rpc::Transport {
 public:
  TimingTransport(std::unique_ptr<cricket::rpc::Transport> inner,
                  EndProbe& probe)
      : inner_(std::move(inner)), probe_(&probe) {}

  void send(std::span<const std::uint8_t> data) override {
    const std::int64_t t0 = now_ns();
    probe_->on_send_start(t0);
    inner_->send(data);
    probe_->on_send_end(t0, now_ns(), data.size());
  }

  std::size_t recv(std::span<std::uint8_t> out) override {
    const std::int64_t t0 = now_ns();
    const std::size_t n = inner_->recv(out);
    probe_->on_recv(t0, now_ns(), n);
    return n;
  }

  bool set_recv_timeout(std::chrono::nanoseconds timeout) override {
    return inner_->set_recv_timeout(timeout);
  }

  void shutdown() override { inner_->shutdown(); }

 private:
  std::unique_ptr<cricket::rpc::Transport> inner_;
  EndProbe* probe_;
};

/// Heap allocations seen by the counting operator new while enabled.
struct AllocCount {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};
void set_alloc_counting(bool enabled);
[[nodiscard]] AllocCount alloc_count();

/// getrusage(RUSAGE_SELF) in the units the metrics use.
struct Usage {
  std::uint64_t vcs = 0;
  std::uint64_t ivcs = 0;
  std::uint64_t minflt = 0;
  double maxrss_mib = 0;

  [[nodiscard]] static Usage now();
};

}  // namespace perfbench
