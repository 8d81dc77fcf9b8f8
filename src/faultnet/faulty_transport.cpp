#include "faultnet/faulty_transport.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/metrics.hpp"

namespace cricket::faultnet {

namespace {

struct InjectedCounters {
  obs::Counter& dropped;
  obs::Counter& duplicated;
  obs::Counter& reordered;
  obs::Counter& corrupted;
  obs::Counter& delayed;
  obs::Counter& partitioned;
  obs::Counter& resets;

  static InjectedCounters& get() {
    static InjectedCounters counters{
        obs::Registry::global().counter("faultnet_injected_total",
                                        {{"kind", "drop"}},
                                        "Faults injected by faultnet"),
        obs::Registry::global().counter("faultnet_injected_total",
                                        {{"kind", "dup"}}),
        obs::Registry::global().counter("faultnet_injected_total",
                                        {{"kind", "reorder"}}),
        obs::Registry::global().counter("faultnet_injected_total",
                                        {{"kind", "corrupt"}}),
        obs::Registry::global().counter("faultnet_injected_total",
                                        {{"kind", "delay"}}),
        obs::Registry::global().counter("faultnet_injected_total",
                                        {{"kind", "partition"}}),
        obs::Registry::global().counter("faultnet_injected_total",
                                        {{"kind", "reset"}})};
    return counters;
  }
};

/// Sanity bound while reassembling: a single fragment above the record
/// layer's own cap means we are not looking at record-marked traffic.
constexpr std::uint32_t kMaxFragment = 1u << 30;

}  // namespace

FaultyTransport::FaultyTransport(std::unique_ptr<rpc::Transport> inner,
                                 FaultSpec spec, sim::SimClock* clock)
    : inner_(std::move(inner)),
      spec_(spec),
      clock_(clock),
      rng_(spec.seed) {}

FaultyTransport::~FaultyTransport() {
  try {
    FaultyTransport::shutdown();
  } catch (...) {  // destructor must not throw
  }
}

std::size_t FaultyTransport::recv(std::span<std::uint8_t> out) {
  return inner_->recv(out);
}

void FaultyTransport::recv_exact(std::span<std::uint8_t> out) {
  inner_->recv_exact(out);
}

bool FaultyTransport::set_recv_timeout(std::chrono::nanoseconds timeout) {
  return inner_->set_recv_timeout(timeout);
}

FaultStats FaultyTransport::stats() const {
  sim::MutexLock lock(mu_);
  return stats_;
}

void FaultyTransport::send(std::span<const std::uint8_t> data) {
  sim::MutexLock lock(mu_);
  if (reset_injected_) throw rpc::TransportError("faultnet: connection reset");
  acc_.insert(acc_.end(), data.begin(), data.end());

  // Extract complete record-marked messages (fragments up to and including
  // one with the last-fragment bit) from the front of the accumulator.
  for (;;) {
    std::size_t off = 0;
    bool complete = false;
    while (acc_.size() >= off + 4) {
      const std::uint32_t header =
          (std::uint32_t{acc_[off]} << 24) | (std::uint32_t{acc_[off + 1]} << 16) |
          (std::uint32_t{acc_[off + 2]} << 8) | std::uint32_t{acc_[off + 3]};
      const std::uint32_t len = header & 0x7FFFFFFFu;
      if (len > kMaxFragment) {
        // Not record-marked traffic after all; stop pretending and pass the
        // whole backlog through untouched.
        inner_->send(acc_);
        acc_.clear();
        return;
      }
      if (acc_.size() < off + 4 + len) break;  // fragment incomplete
      off += 4 + len;
      if ((header & 0x80000000u) != 0) {
        complete = true;
        break;
      }
    }
    if (!complete) return;  // wait for more bytes
    std::vector<std::uint8_t> msg(
        acc_.begin(), acc_.begin() + static_cast<std::ptrdiff_t>(off));
    acc_.erase(acc_.begin(), acc_.begin() + static_cast<std::ptrdiff_t>(off));
    process_message(std::move(msg));
  }
}

void FaultyTransport::forward(const std::vector<std::uint8_t>& msg) {
  inner_->send(msg);
  ++stats_.forwarded;
}

void FaultyTransport::corrupt_payload(std::vector<std::uint8_t>& msg) {
  // Collect payload byte ranges (everything except the 4-byte headers).
  std::size_t payload_bytes = 0;
  for (std::size_t off = 0; off + 4 <= msg.size();) {
    const std::uint32_t header =
        (std::uint32_t{msg[off]} << 24) | (std::uint32_t{msg[off + 1]} << 16) |
        (std::uint32_t{msg[off + 2]} << 8) | std::uint32_t{msg[off + 3]};
    const std::uint32_t len = header & 0x7FFFFFFFu;
    payload_bytes += len;
    off += 4 + len;
  }
  if (payload_bytes == 0) return;
  // Flip up to four payload bytes to random non-identical values. The record
  // stays deframeable; its content no longer decodes as a valid RPC message,
  // which is what link-layer corruption looks like once checksums are
  // simulated: the message is effectively lost, and the peers live on.
  const std::size_t flips =
      1 + static_cast<std::size_t>(rng_.next() % 4u);
  for (std::size_t f = 0; f < flips; ++f) {
    std::size_t target = static_cast<std::size_t>(rng_.next() % payload_bytes);
    for (std::size_t off = 0; off + 4 <= msg.size();) {
      const std::uint32_t header = (std::uint32_t{msg[off]} << 24) |
                                   (std::uint32_t{msg[off + 1]} << 16) |
                                   (std::uint32_t{msg[off + 2]} << 8) |
                                   std::uint32_t{msg[off + 3]};
      const std::uint32_t len = header & 0x7FFFFFFFu;
      if (target < len) {
        msg[off + 4 + target] ^=
            static_cast<std::uint8_t>(1 + rng_.next() % 255u);
        break;
      }
      target -= len;
      off += 4 + len;
    }
  }
}

void FaultyTransport::process_message(std::vector<std::uint8_t> msg) {
  auto& counters = InjectedCounters::get();
  ++stats_.messages;
  ++msg_index_;

  // Fixed draw count per message: outcomes never shift the decision stream,
  // so a given seed injects the same fault at the same message index no
  // matter which earlier faults fired.
  const double d_drop = rng_.next_double();
  const double d_dup = rng_.next_double();
  const double d_reorder = rng_.next_double();
  const double d_corrupt = rng_.next_double();
  const double d_delay = rng_.next_double();
  const double d_reset = rng_.next_double();

  if (spec_.partition_len > 0 && msg_index_ > spec_.partition_after &&
      msg_index_ <= spec_.partition_after + spec_.partition_len &&
      budget_left()) {
    ++stats_.partitioned;
    counters.partitioned.inc();
    return;  // blackholed
  }
  if (d_reset < spec_.reset && budget_left()) {
    ++stats_.resets;
    counters.resets.inc();
    reset_injected_ = true;
    try {
      inner_->shutdown();
    } catch (const rpc::TransportError&) {
    }
    throw rpc::TransportError("faultnet: injected connection reset");
  }
  if (d_drop < spec_.drop && budget_left()) {
    ++stats_.dropped;
    counters.dropped.inc();
    return;
  }
  if (d_corrupt < spec_.corrupt && budget_left()) {
    ++stats_.corrupted;
    counters.corrupted.inc();
    corrupt_payload(msg);
  }
  if (d_delay < spec_.delay && budget_left()) {
    ++stats_.delayed;
    counters.delayed.inc();
    if (clock_ != nullptr) {
      clock_->advance(spec_.delay_ns);
    } else {
      std::this_thread::sleep_for(std::chrono::nanoseconds(spec_.delay_ns));
    }
  }
  if (d_reorder < spec_.reorder && budget_left() && !has_held_) {
    ++stats_.reordered;
    counters.reordered.inc();
    held_ = std::move(msg);
    has_held_ = true;
    return;  // released behind the next forwarded message
  }

  forward(msg);
  if (d_dup < spec_.dup && budget_left()) {
    ++stats_.duplicated;
    counters.duplicated.inc();
    forward(msg);
  }
  if (has_held_) {
    forward(held_);
    held_.clear();
    has_held_ = false;
  }
}

void FaultyTransport::shutdown() {
  sim::MutexLock lock(mu_);
  // Flush anything withheld so an orderly close never swallows messages the
  // fault plane only meant to disturb.
  if (!reset_injected_) {
    try {
      if (has_held_) {
        forward(held_);
        held_.clear();
        has_held_ = false;
      }
      if (!acc_.empty()) {
        inner_->send(acc_);
        acc_.clear();
      }
    } catch (const rpc::TransportError&) {
      // Peer already gone; nothing to flush to.
    }
  }
  inner_->shutdown();
}

}  // namespace cricket::faultnet
