#include "vnet/virtio_net.hpp"

#include <algorithm>

namespace cricket::vnet {
namespace {

constexpr MacAddr kGuestMac = {0x02, 0x00, 0x00, 0x00, 0x00, 0x01};
constexpr MacAddr kHostMac = {0x02, 0x00, 0x00, 0x00, 0x00, 0x02};
constexpr std::uint32_t kGuestIp = 0x0A000002;  // 10.0.0.2
constexpr std::uint32_t kHostIp = 0x0A000001;   // 10.0.0.1
constexpr std::uint16_t kGuestPort = 40000;
constexpr std::uint16_t kCricketPort = 49152;

}  // namespace

namespace detail {

TransportCounters::TransportCounters(const std::string& instance)
    : frames_tx(obs::Registry::global().counter(
          "cricket_vnet_frames_total",
          {{"transport", instance}, {"dir", "tx"}},
          "Ethernet frames through the virtio-net transport")),
      frames_rx(obs::Registry::global().counter(
          "cricket_vnet_frames_total",
          {{"transport", instance}, {"dir", "rx"}})),
      bytes_tx(obs::Registry::global().counter(
          "cricket_vnet_bytes_total",
          {{"transport", instance}, {"dir", "tx"}},
          "Payload bytes through the virtio-net transport")),
      bytes_rx(obs::Registry::global().counter(
          "cricket_vnet_bytes_total",
          {{"transport", instance}, {"dir", "rx"}})),
      checksums_tx(obs::Registry::global().counter(
          "cricket_vnet_checksums_total",
          {{"transport", instance}, {"dir", "tx"}},
          "Software checksum operations (no offload negotiated)")),
      checksums_rx(obs::Registry::global().counter(
          "cricket_vnet_checksums_total",
          {{"transport", instance}, {"dir", "rx"}})) {}

}  // namespace detail

VirtioNetTransport::VirtioNetTransport(NetworkProfile profile,
                                       sim::SimClock& clock,
                                       std::shared_ptr<rpc::ByteQueue> wire_tx,
                                       std::shared_ptr<rpc::ByteQueue> wire_rx)
    : profile_(profile),
      clock_(&clock),
      wire_tx_(std::move(wire_tx)),
      wire_rx_(std::move(wire_rx)),
      // Each descriptor slot must hold the largest buffer we ever queue:
      // 64 KiB super-frames (TSO / MRG_RXBUF) plus header room.
      tx_memory_(static_cast<std::size_t>(kQueueSize) * (65536 + kHeaderRoom)),
      rx_memory_(static_cast<std::size_t>(kQueueSize) * (65536 + kHeaderRoom)),
      tx_(tx_memory_, kQueueSize),
      rx_(rx_memory_, kQueueSize),
      stats_(obs::Registry::global().unique_label("vnet")) {
  // Pre-post receive buffers, as a real driver does at device bring-up.
  for (int i = 0; i < 64; ++i) post_rx_buffer();
  tx_thread_ = std::thread([this] { tx_backend(); });
  rx_thread_ = std::thread([this] { rx_backend(); });
}

VirtioNetTransport::~VirtioNetTransport() {
  shutdown();
  tx_.shutdown();
  rx_.shutdown();
  if (tx_thread_.joinable()) tx_thread_.join();
  if (rx_thread_.joinable()) rx_thread_.join();
}

void VirtioNetTransport::post_rx_buffer() {
  const std::uint32_t len = static_cast<std::uint32_t>(
      profile_.rx_buffer_size() + kHeaderRoom);
  const std::uint32_t lens[1] = {len};
  const auto head = rx_.add_chain({}, lens);
  if (head) rx_.kick(*head);
}

void VirtioNetTransport::reclaim_tx_descriptors(bool wait) {
  while (auto used = tx_.take_used(wait)) {
    tx_.recycle(used->first);
    wait = false;  // only block for the first one
  }
}

void VirtioNetTransport::send(std::span<const std::uint8_t> data) {
  if (stopping_.load()) throw rpc::TransportError("transport shut down");
  obs::Span span(obs::Layer::kVnetTx, nullptr, data.size());
  // Charge the guest CPU + wire once for the whole burst; the per-frame
  // machinery below does the real (functional) work.
  clock_->advance(tx_cpu_cost(profile_, data.size()) +
                  wire_time(profile_, data.size()));

  const std::size_t seg = profile_.tx_segment_size();
  std::size_t off = 0;
  do {
    const std::size_t n = std::min(seg, data.size() - off);
    EthHeader eth{.dst = kHostMac, .src = kGuestMac};
    Ipv4Header ip;
    ip.src = kGuestIp;
    ip.dst = kHostIp;
    TcpHeader tcp;
    tcp.src_port = kGuestPort;
    tcp.dst_port = kCricketPort;
    tcp.seq = tx_seq_;
    tcp.flags = static_cast<std::uint8_t>(kTcpAck | kTcpPsh);
    // Software checksum (real computation) unless offloaded to the host.
    const bool sw_csum = !profile_.offloads.tx_checksum;
    const auto frame = encode_frame(eth, ip, tcp, data.subspan(off, n),
                                    /*fill_checksums=*/sw_csum);
    if (sw_csum) stats_.checksums_tx.inc();
    tx_seq_ += static_cast<std::uint32_t>(n);

    const std::span<const std::uint8_t> bufs[1] = {frame};
    std::optional<std::uint16_t> head;
    while (!(head = tx_.add_chain(bufs, {}))) {
      reclaim_tx_descriptors(/*wait=*/true);  // ring full: wait for backend
      if (stopping_.load()) throw rpc::TransportError("transport shut down");
    }
    tx_.kick(*head);
    stats_.frames_tx.inc();
    stats_.bytes_tx.inc(n);
    off += n;
  } while (off < data.size());
  reclaim_tx_descriptors(/*wait=*/false);
}

void VirtioNetTransport::tx_backend() {
  for (;;) {
    auto chain = tx_.pop_avail(/*wait=*/true);
    if (!chain) return;  // shutdown
    const auto frame = tx_.gather(*chain);
    tx_.push_used(chain->head, 0);
    // Host TAP side: unwrap the frame; checksums are trusted (the host
    // verifies or fills them at line rate in hardware).
    try {
      const ParsedFrame parsed = parse_frame(frame, /*verify=*/false);
      if (!parsed.payload.empty()) wire_tx_->push(parsed.payload);
    } catch (const PacketError&) {
      // Malformed frame: a real TAP would drop it silently.
    } catch (const rpc::TransportError&) {
      return;  // wire closed
    }
  }
}

void VirtioNetTransport::rx_backend() {
  std::uint32_t host_seq = 1;
  std::vector<std::uint8_t> buf(profile_.rx_buffer_size());
  for (;;) {
    std::size_t n = 0;
    try {
      n = wire_rx_->pop(buf);
    } catch (const rpc::TransportError&) {
      n = 0;
    }
    if (n == 0) {
      rx_.shutdown();  // wakes a blocked recv(), which then returns EOF
      return;
    }
    // The host NIC always delivers frames with valid checksums filled.
    EthHeader eth{.dst = kGuestMac, .src = kHostMac};
    Ipv4Header ip;
    ip.src = kHostIp;
    ip.dst = kGuestIp;
    TcpHeader tcp;
    tcp.src_port = kCricketPort;
    tcp.dst_port = kGuestPort;
    tcp.seq = host_seq;
    tcp.flags = static_cast<std::uint8_t>(kTcpAck | kTcpPsh);
    const auto frame = encode_frame(eth, ip, tcp,
                                    std::span(buf.data(), n),
                                    /*fill_checksums=*/true);
    host_seq += static_cast<std::uint32_t>(n);

    auto chain = rx_.pop_avail(/*wait=*/true);
    if (!chain) return;  // shutdown
    const std::uint32_t written =
        rx_.scatter(*chain, frame);
    rx_.push_used(chain->head, written);
  }
}

bool VirtioNetTransport::fill_pending(std::size_t want, bool wait_all) {
  while (rx_pending_.size() < want) {
    auto used = rx_.take_used(wait_all || rx_pending_.empty());
    // Shutdown, or (not waiting) no more completions right now.
    if (!used) return !rx_pending_.empty();
    const auto frame = rx_.read_in_buffers(used->first, used->second);
    post_rx_buffer();  // replenish the ring
    try {
      // Software checksum verification (real computation) unless the
      // GUEST_CSUM offload lets the guest trust the host.
      const bool sw_csum = !profile_.offloads.rx_checksum;
      const ParsedFrame parsed = parse_frame(frame, /*verify=*/sw_csum);
      if (sw_csum) stats_.checksums_rx.inc();
      rx_pending_.insert(rx_pending_.end(), parsed.payload.begin(),
                         parsed.payload.end());
      stats_.frames_rx.inc();
      stats_.bytes_rx.inc(parsed.payload.size());
    } catch (const PacketError&) {
      // Corrupt frame dropped; reliable wire makes this benign.
    }
  }
  return true;
}

std::size_t VirtioNetTransport::deliver(std::span<std::uint8_t> out,
                                        obs::Span& span) {
  const std::size_t n = std::min(out.size(), rx_pending_.size());
  std::copy_n(rx_pending_.begin(), n, out.begin());
  rx_pending_.erase(rx_pending_.begin(),
                    rx_pending_.begin() + static_cast<std::ptrdiff_t>(n));
  clock_->advance(rx_cpu_cost(profile_, n));
  if (n > 0) {
    span.set_arg(n);
  } else {
    span.cancel();  // shutdown EOF
  }
  return n;
}

std::size_t VirtioNetTransport::recv(std::span<std::uint8_t> out) {
  obs::Span span(obs::Layer::kVnetRx);
  // Drain the used ring in one go: block for the first frame if nothing is
  // pending, then opportunistically take every already-completed frame. One
  // recv() spans many frames, as one socket read does on a real guest —
  // per-frame stack costs are still charged per frame by rx_cpu_cost.
  if (!fill_pending(out.size(), /*wait_all=*/false)) return 0;  // clean EOF
  return deliver(out, span);
}

void VirtioNetTransport::recv_exact(std::span<std::uint8_t> out) {
  if (out.empty()) return;
  obs::Span span(obs::Layer::kVnetRx);
  if (!fill_pending(out.size(), /*wait_all=*/true) ||
      rx_pending_.size() < out.size())
    throw rpc::TransportError("connection closed mid-message");
  (void)deliver(out, span);
}

void VirtioNetTransport::shutdown() {
  if (stopping_.exchange(true)) return;
  wire_tx_->close();
}

}  // namespace cricket::vnet
