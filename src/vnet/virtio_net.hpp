// Virtio-net guest transport and the cost-charging transport decorator.
//
// VirtioNetTransport is the data path of a unikernel / Linux-VM guest
// (paper Fig. 4): application bytes are segmented into real
// Ethernet/IPv4/TCP frames (checksummed in software unless the virtio
// checksum offloads are negotiated), pushed through a real split virtqueue
// to a host backend thread, which unwraps them onto the "wire" (a byte
// queue toward the Cricket server). Receive is the mirror image, with
// MRG_RXBUF governing how many bytes arrive per posted buffer. All guest
// CPU mechanisms additionally charge virtual time via the NetworkProfile.
//
// ShapedTransport is the light-weight variant for native (non-virtualized)
// rows: it only charges host-stack costs around an inner transport.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <string>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rpc/transport.hpp"
#include "sim/sim_clock.hpp"
#include "vnet/cost_model.hpp"
#include "vnet/virtqueue.hpp"

namespace cricket::vnet {

struct TransportStats {
  std::uint64_t frames_tx = 0;
  std::uint64_t frames_rx = 0;
  std::uint64_t bytes_tx = 0;
  std::uint64_t bytes_rx = 0;
  std::uint64_t checksums_computed = 0;  // software checksum operations
};

namespace detail {

/// Per-instance counter block for VirtioNetTransport, backed by the global
/// obs registry (series `cricket_vnet_*_total{transport="vnetN",dir=...}`).
/// The transport contract allows one sender plus one receiver concurrently,
/// and both paths compute software checksums — obs::Counter's relaxed
/// atomics make the concurrent bumps and a stats() reader race-free.
struct TransportCounters {
  explicit TransportCounters(const std::string& instance);

  obs::Counter& frames_tx;
  obs::Counter& frames_rx;
  obs::Counter& bytes_tx;
  obs::Counter& bytes_rx;
  obs::Counter& checksums_tx;
  obs::Counter& checksums_rx;

  [[nodiscard]] TransportStats snapshot() const noexcept {
    TransportStats s;
    s.frames_tx = frames_tx.value();
    s.frames_rx = frames_rx.value();
    s.bytes_tx = bytes_tx.value();
    s.bytes_rx = bytes_rx.value();
    s.checksums_computed = checksums_tx.value() + checksums_rx.value();
    return s;
  }
};

}  // namespace detail

/// Charges NetworkProfile costs around an inner transport. Used for the
/// native C / native Rust rows of Table 1 (host kernel TCP, no hypervisor).
class ShapedTransport final : public rpc::Transport {
 public:
  ShapedTransport(NetworkProfile profile, sim::SimClock& clock,
                  std::unique_ptr<rpc::Transport> inner)
      : profile_(profile), clock_(&clock), inner_(std::move(inner)) {}

  void send(std::span<const std::uint8_t> data) override {
    obs::Span span(obs::Layer::kNetTx, nullptr, data.size());
    clock_->advance(tx_cpu_cost(profile_, data.size()) +
                    wire_time(profile_, data.size()));
    inner_->send(data);
  }

  std::size_t recv(std::span<std::uint8_t> out) override {
    obs::Span span(obs::Layer::kNetRx);
    const std::size_t n = inner_->recv(out);
    if (n > 0) {
      clock_->advance(rx_cpu_cost(profile_, n));
      span.set_arg(n);
    } else {
      span.cancel();  // EOF: nothing happened worth a trace slice
    }
    return n;
  }

  /// MSG_WAITALL, as on VirtioNetTransport: one receive charged for the
  /// whole read, however the bytes happened to arrive.
  void recv_exact(std::span<std::uint8_t> out) override {
    if (out.empty()) return;
    obs::Span span(obs::Layer::kNetRx, nullptr, out.size());
    inner_->recv_exact(out);
    clock_->advance(rx_cpu_cost(profile_, out.size()));
  }

  void shutdown() override { inner_->shutdown(); }

  bool set_recv_timeout(std::chrono::nanoseconds timeout) override {
    // Shaping charges time but does not buffer, so the inner transport's
    // timed recv (pipe or TCP) carries the deadline unchanged.
    return inner_->set_recv_timeout(timeout);
  }

 private:
  NetworkProfile profile_;
  sim::SimClock* clock_;
  std::unique_ptr<rpc::Transport> inner_;
};

/// Guest-side virtio-net transport. One instance per guest connection; owns
/// the guest memory arena, the TX/RX virtqueues, and two host backend
/// threads bridging the queues to the wire byte-queues.
class VirtioNetTransport final : public rpc::Transport {
 public:
  VirtioNetTransport(NetworkProfile profile, sim::SimClock& clock,
                     std::shared_ptr<rpc::ByteQueue> wire_tx,
                     std::shared_ptr<rpc::ByteQueue> wire_rx);
  ~VirtioNetTransport() override;

  VirtioNetTransport(const VirtioNetTransport&) = delete;
  VirtioNetTransport& operator=(const VirtioNetTransport&) = delete;

  void send(std::span<const std::uint8_t> data) override;
  std::size_t recv(std::span<std::uint8_t> out) override;
  /// MSG_WAITALL: the caller knows all of `out` is on its way (the record
  /// reader asks for whole fragment bodies), so this waits for every byte
  /// and charges one receive. Charging per partial read instead would make
  /// the virtual cost depend on how far the RX backend thread had got when
  /// the call came in, i.e. on real-time scheduling.
  void recv_exact(std::span<std::uint8_t> out) override;
  void shutdown() override;
  /// Bounds the RX used-ring wait of each recv()/recv_exact(); bytes that
  /// arrived before the deadline stay pending for the next read.
  bool set_recv_timeout(std::chrono::nanoseconds timeout) override {
    recv_timeout_ns_.store(timeout.count(), std::memory_order_relaxed);
    return true;
  }

  /// Returns a snapshot copy (counters advance concurrently on the sender
  /// and receiver threads).
  [[nodiscard]] TransportStats stats() const noexcept {
    return stats_.snapshot();
  }
  [[nodiscard]] const NetworkProfile& profile() const noexcept {
    return profile_;
  }
  /// Virtqueue notification counters (kicks = VM exits on the TX path).
  [[nodiscard]] std::uint64_t tx_kicks() const noexcept { return tx_.kicks(); }
  [[nodiscard]] std::uint64_t tx_interrupts() const noexcept {
    return tx_.interrupts();
  }
  [[nodiscard]] std::uint64_t rx_kicks() const noexcept { return rx_.kicks(); }
  [[nodiscard]] std::uint64_t rx_interrupts() const noexcept {
    return rx_.interrupts();
  }

 private:
  void tx_backend();
  void rx_backend();
  void reclaim_tx_descriptors(bool wait);
  void post_rx_buffer();
  /// Moves completed RX frames into rx_pending_ until it holds `want`
  /// bytes, blocking for the first frame only or, with `wait_all`, for
  /// every frame. Returns false when the ring shut down with nothing
  /// pending (end of stream). Throws rpc::TransportTimeout when a blocking
  /// wait outlives the recv timeout; what already arrived stays pending.
  bool fill_pending(std::size_t want, bool wait_all);
  /// Hands up to out.size() pending bytes to `out` and charges one receive
  /// of that many bytes.
  std::size_t deliver(std::span<std::uint8_t> out, obs::Span& span);

  NetworkProfile profile_;
  sim::SimClock* clock_;
  std::shared_ptr<rpc::ByteQueue> wire_tx_;
  std::shared_ptr<rpc::ByteQueue> wire_rx_;

  // One arena per queue: Virtqueue maps descriptor id -> arena offset, so a
  // shared arena would alias TX frames with posted RX buffers as soon as
  // both directions are active at once (pipelined clients do this; the
  // one-call-at-a-time synchronous client never did).
  GuestMemory tx_memory_;
  GuestMemory rx_memory_;
  Virtqueue tx_;
  Virtqueue rx_;

  std::uint32_t tx_seq_ = 1;            // sender thread only
  std::deque<std::uint8_t> rx_pending_;  // receiver thread only
  detail::TransportCounters stats_;

  std::thread tx_thread_;
  std::thread rx_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::int64_t> recv_timeout_ns_{0};

  static constexpr std::uint16_t kQueueSize = 256;
  static constexpr std::size_t kHeaderRoom = 128;
};

}  // namespace cricket::vnet
