#include "rpc/record.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cricket::rpc {
namespace {

constexpr std::uint32_t kLastFragmentBit = 0x80000000u;

void put_header(std::uint8_t out[4], std::uint32_t len, bool last) {
  const std::uint32_t h = len | (last ? kLastFragmentBit : 0u);
  out[0] = static_cast<std::uint8_t>(h >> 24);
  out[1] = static_cast<std::uint8_t>(h >> 16);
  out[2] = static_cast<std::uint8_t>(h >> 8);
  out[3] = static_cast<std::uint8_t>(h);
}

}  // namespace

void RecordWriter::write_record(std::span<const std::uint8_t> record) {
  // A zero-length record is legal: one empty last fragment.
  std::size_t off = 0;
  do {
    const std::uint32_t n = static_cast<std::uint32_t>(
        std::min<std::size_t>(max_fragment_, record.size() - off));
    const bool last = off + n == record.size();
    std::uint8_t hdr[4];
    put_header(hdr, n, last);
    transport_->send(hdr);
    if (n > 0) transport_->send(record.subspan(off, n));
    off += n;
  } while (off < record.size());
}

void append_record_marked(std::vector<std::uint8_t>& out,
                          std::span<const std::uint8_t> record,
                          std::uint32_t max_fragment) {
  std::size_t off = 0;
  do {
    const std::uint32_t n = static_cast<std::uint32_t>(
        std::min<std::size_t>(max_fragment, record.size() - off));
    const bool last = off + n == record.size();
    std::uint8_t hdr[4];
    put_header(hdr, n, last);
    out.insert(out.end(), hdr, hdr + 4);
    if (n > 0)
      out.insert(out.end(), record.begin() + static_cast<std::ptrdiff_t>(off),
                 record.begin() + static_cast<std::ptrdiff_t>(off + n));
    off += n;
  } while (off < record.size());
}

void CallBatcher::append(std::span<const std::uint8_t> record) {
  append_record_marked(buf_, record, max_fragment_);
  ++stats_.records;
  ++buffered_;
  if (!options_.enabled)
    send_buffer(/*full=*/false);
  else if (buffered_ >= options_.max_calls || buf_.size() >= options_.max_bytes)
    send_buffer(/*full=*/true);
}

void CallBatcher::flush() {
  if (!buf_.empty()) send_buffer(/*full=*/false);
}

void CallBatcher::rebind(Transport& transport) {
  transport_ = &transport;
  buf_.clear();
  buffered_ = 0;
}

void CallBatcher::send_buffer(bool full) {
  // Flush-cause counters live in the global registry (static refs: the
  // registry hands out stable pointers and is never destroyed).
  static obs::Counter& flush_full = obs::Registry::global().counter(
      "cricket_batch_flushes_total", {{"cause", "full"}},
      "Batcher flushes by trigger");
  static obs::Counter& flush_explicit = obs::Registry::global().counter(
      "cricket_batch_flushes_total", {{"cause", "explicit"}});
  ++(full ? stats_.flush_full : stats_.flush_explicit);
  (full ? flush_full : flush_explicit).inc();
  ++stats_.batches;
  stats_.bytes += buf_.size();
  buffered_ = 0;
  obs::Span span(obs::Layer::kChanFlush, nullptr, buf_.size());
  try {
    transport_->send(buf_);
  } catch (const TransportError&) {
    buf_.clear();
    throw;
  }
  buf_.clear();
}

bool RecordReader::read_record(std::vector<std::uint8_t>& out,
                               bool deadline_to_start) {
  out.clear();
  bool first = true;
  for (;;) {
    std::uint8_t hdr[4];
    if (first) {
      // Distinguish clean EOF (no record) from truncation.
      const std::size_t n = transport_->recv(std::span(hdr, 4));
      if (n == 0) return false;
      if (deadline_to_start)
        (void)transport_->set_recv_timeout(std::chrono::nanoseconds::zero());
      if (n < 4) transport_->recv_exact(std::span(hdr + n, 4 - n));
    } else {
      transport_->recv_exact(hdr);
    }
    first = false;
    const std::uint32_t h = (std::uint32_t{hdr[0]} << 24) |
                            (std::uint32_t{hdr[1]} << 16) |
                            (std::uint32_t{hdr[2]} << 8) | std::uint32_t{hdr[3]};
    const bool last = (h & kLastFragmentBit) != 0;
    const std::uint32_t len = h & ~kLastFragmentBit;
    if (out.size() + len > max_record_)
      throw TransportError("RPC record exceeds maximum size");
    const std::size_t old = out.size();
    out.resize(old + len);
    if (len > 0)
      transport_->recv_exact(std::span(out.data() + old, len));
    if (last) return true;
  }
}

bool BufferedRecordReader::fill(std::size_t need) {
  // Compact once the consumed prefix dominates, keeping the buffer small.
  if (pos_ > 0 && (pos_ == buf_.size() || pos_ >= chunk_)) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  while (buf_.size() - pos_ < need) {
    const std::size_t old = buf_.size();
    buf_.resize(old + chunk_);
    std::size_t n = 0;
    try {
      n = transport_->recv(std::span(buf_.data() + old, chunk_));
    } catch (const TransportError&) {
      buf_.resize(old);  // a timed-out read leaves what arrived intact
      throw;
    }
    buf_.resize(old + n);
    if (n == 0) return false;
  }
  return true;
}

bool BufferedRecordReader::read_record(std::vector<std::uint8_t>& out) {
  // A fragment is consumed only once it is wholly buffered, and a record a
  // receive timeout cut short resumes on the next call, so a timeout loses
  // nothing.
  if (!mid_record_) out.clear();
  for (;;) {
    if (!fill(4)) {
      if (!mid_record_ && buf_.size() == pos_) return false;  // clean EOF
      throw TransportError("EOF inside RPC record");
    }
    const std::uint8_t* hdr = buf_.data() + pos_;
    const std::uint32_t h = (std::uint32_t{hdr[0]} << 24) |
                            (std::uint32_t{hdr[1]} << 16) |
                            (std::uint32_t{hdr[2]} << 8) | std::uint32_t{hdr[3]};
    const bool last = (h & kLastFragmentBit) != 0;
    const std::uint32_t len = h & ~kLastFragmentBit;
    if (out.size() + len > max_record_)
      throw TransportError("RPC record exceeds maximum size");
    if (!fill(4 + std::size_t{len}))
      throw TransportError("EOF inside RPC record");
    const auto body = buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + 4);
    out.insert(out.end(), body, body + len);
    pos_ += 4 + std::size_t{len};
    mid_record_ = !last;
    if (last) return true;
  }
}

}  // namespace cricket::rpc
