// Per-call bookkeeping shared by the workloads and perfbench.cpp.
//
// Every CUDA API call a workload makes goes through Recorder::call, which
// times it in busy time (busy_ns: the process CPU clock of the pinned
// stack), in wall time (steady_clock) and in virtual time (the node's
// SimClock), counts failures, and files the sample under its op kind.
// Sessions and bursts are bracketed explicitly by the workload and timed
// in busy time.
#pragma once

#include <array>
#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "cricket/async_api.hpp"
#include "cudart/error.hpp"
#include "probes.hpp"
#include "sim/sim_clock.hpp"

namespace perfbench {

enum class Kind : std::uint8_t {
  kGetDeviceCount,
  kSetDevice,
  kMalloc,
  kFree,
  kMemcpyH2D,
  kMemcpyD2H,
  kLaunch,
  kSynchronize,
  kModuleLoad,
  kGetFunction,
  kModuleUnload,
  kCount,
};

inline constexpr std::array<const char*, static_cast<std::size_t>(Kind::kCount)>
    kKindNames = {"get_device_count", "set_device",  "malloc",
                  "free",             "memcpy_h2d",  "memcpy_d2h",
                  "launch",           "synchronize", "module_load",
                  "get_function",     "module_unload"};

struct KindStats {
  std::uint64_t count = 0;
  double real_ns = 0;
  double virt_ns = 0;
};

class Recorder {
 public:
  /// `clock` is the node's virtual clock (null: virtual time not recorded).
  explicit Recorder(const cricket::sim::SimClock* clock) : clock_(clock) {}

  /// Calls made from here on belong to a new session; its connection is
  /// being set up now. `guest` (traced runs) attributes guest transport
  /// time to each call.
  void begin_session(const EndProbe* guest = nullptr) {
    session_start_ = now_ns();
    session_busy_start_ = busy_ns();
    connect_pending_ = true;
    guest_ = guest;
    async_ = nullptr;
  }
  /// The pipelined client of the session, if any: calls it forwards
  /// fire-and-forget are not blocking calls.
  void set_async(const cricket::core::AsyncRemoteCudaApi* async) {
    async_ = async;
  }
  void end_session() {
    session_ms.push_back(
        static_cast<double>(busy_ns() - session_busy_start_) / 1e6);
  }

  void begin_burst() { burst_start_ = busy_ns(); }
  void end_burst() {
    burst_us.push_back(static_cast<double>(busy_ns() - burst_start_) / 1e3);
  }

  /// Runs one API call. `bytes` is its payload for the memcpy kinds.
  template <typename Fn>
  cricket::cuda::Error call(Kind kind, Fn&& fn, std::uint64_t bytes = 0) {
    const std::uint64_t pipelined0 = async_ ? async_->stats().pipelined : 0;
    const std::uint64_t io0 = guest_io_ns();
    const cricket::sim::Nanos v0 = clock_ ? clock_->now() : 0;
    const std::int64_t b0 = busy_ns();
    const std::int64_t t0 = now_ns();
    cricket::cuda::Error err = cricket::cuda::Error::kRpcFailure;
    std::string thrown;
    try {
      err = fn();
    } catch (const std::exception& e) {
      thrown = e.what();
    }
    const std::int64_t t1 = now_ns();
    const auto busy = static_cast<double>(busy_ns() - b0);
    const cricket::sim::Nanos v1 = clock_ ? clock_->now() : 0;
    const auto real = static_cast<double>(t1 - t0);

    ++ops;
    KindStats& k = kinds[static_cast<std::size_t>(kind)];
    ++k.count;
    k.real_ns += real;
    k.virt_ns += static_cast<double>(v1 - v0);
    api_ns += real;
    const bool blocking = !async_ || async_->stats().pipelined == pipelined0;
    const bool copy = kind == Kind::kMemcpyH2D || kind == Kind::kMemcpyD2H;
    if (blocking && !copy) {
      call_us.push_back(busy / 1e3);
      wall_call_us.push_back(real / 1e3);
    }
    // A blocking call on the pipelined client parks on a future: waiting,
    // not client work.
    if (!async_ || !blocking)
      client_self_ns += real - static_cast<double>(guest_io_ns() - io0);
    if (kind == Kind::kMemcpyH2D) {
      h2d_bytes += bytes;
      h2d_ns += busy;
    } else if (kind == Kind::kMemcpyD2H) {
      d2h_bytes += bytes;
      d2h_ns += busy;
    } else if (kind == Kind::kModuleLoad) {
      load_ms.push_back(real / 1e6);
    }
    if (connect_pending_) {
      connect_pending_ = false;
      connect_ms.push_back(static_cast<double>(t1 - session_start_) / 1e6);
    }
    if (!thrown.empty()) {
      fail(std::string(kKindNames[static_cast<std::size_t>(kind)]) +
           " threw: " + thrown);
    } else if (err != cricket::cuda::Error::kSuccess) {
      fail(std::string(kKindNames[static_cast<std::size_t>(kind)]) +
           " returned " + cricket::cuda::error_name(err));
    }
    return err;
  }

  /// Counts one failed op (a wrong result, or an error `call` saw).
  void fail(const std::string& why) {
    ++failed;
    if (first_failure.empty()) first_failure = why;
  }

  /// Payload totals and sample counts so far. A run of consecutive
  /// sessions moved the payload between the marks taken before and after
  /// it, and added the samples between the two counts.
  struct Mark {
    std::uint64_t h2d_bytes = 0;
    std::uint64_t d2h_bytes = 0;
    double h2d_ns = 0;
    double d2h_ns = 0;
    std::size_t calls = 0;  // into call_us
    std::size_t bursts = 0;
    std::size_t sessions = 0;
  };
  [[nodiscard]] Mark mark() const {
    return {h2d_bytes,      d2h_bytes,       h2d_ns,           d2h_ns,
            call_us.size(), burst_us.size(), session_ms.size()};
  }

  [[nodiscard]] const KindStats& kind(Kind k) const {
    return kinds[static_cast<std::size_t>(k)];
  }

  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
  std::array<KindStats, static_cast<std::size_t>(Kind::kCount)> kinds{};

  // Busy time: blocking calls other than memcpys, bursts, sessions.
  std::vector<double> call_us;
  std::vector<double> burst_us;
  std::vector<double> session_ms;
  // Wall time.
  std::vector<double> wall_call_us;  // the calls of call_us
  std::vector<double> connect_ms;    // session start to first call returned
  std::vector<double> load_ms;       // module loads

  double api_ns = 0;          // time inside every API call
  double client_self_ns = 0;  // API time outside guest send/recv and waits
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  double h2d_ns = 0;  // busy time inside the copies
  double d2h_ns = 0;

 private:
  [[nodiscard]] std::uint64_t guest_io_ns() const {
    return guest_ ? guest_->app_send_ns.load() + guest_->app_recv_ns.load()
                  : 0;
  }

  const cricket::sim::SimClock* clock_;
  const cricket::core::AsyncRemoteCudaApi* async_ = nullptr;
  const EndProbe* guest_ = nullptr;
  std::int64_t session_start_ = 0;
  std::int64_t session_busy_start_ = 0;
  std::int64_t burst_start_ = 0;  // busy time
  bool connect_pending_ = false;
};

}  // namespace perfbench
