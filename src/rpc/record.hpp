// RFC 5531 §11 record marking.
//
// ONC RPC over a byte stream delimits messages as a sequence of fragments,
// each preceded by a 4-byte header: MSB = "last fragment" flag, low 31 bits =
// fragment length. The paper explicitly rejects the existing Rust `onc_rpc`
// crate for *lacking fragmented-message support*, since Cricket ships
// GPU-memory payloads as RPC arguments; this implementation supports
// arbitrary-size records split across fragments in both directions.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rpc/transport.hpp"

namespace cricket::rpc {

/// Writes one record (possibly as several fragments) per call.
/// `max_fragment` bounds each fragment's payload; libtirpc uses large
/// fragments, but tests shrink this to force multi-fragment paths.
class RecordWriter {
 public:
  explicit RecordWriter(Transport& transport,
                        std::uint32_t max_fragment = kDefaultMaxFragment)
      : transport_(&transport),
        // 0 can only be a misconfiguration; honouring it literally would
        // emit empty non-last fragments forever.
        max_fragment_(max_fragment == 0 ? kDefaultMaxFragment : max_fragment) {
  }

  void write_record(std::span<const std::uint8_t> record);

  static constexpr std::uint32_t kDefaultMaxFragment = 1u << 20;  // 1 MiB

 private:
  Transport* transport_;
  std::uint32_t max_fragment_;
};

/// Appends one record-marked message (header + fragments) to `out` without
/// touching any transport. The pipelined paths use this to coalesce several
/// back-to-back records into a single transport send, amortizing per-send
/// costs (syscall / virtqueue kick / wire latency) across all of them.
void append_record_marked(std::vector<std::uint8_t>& out,
                          std::span<const std::uint8_t> record,
                          std::uint32_t max_fragment =
                              RecordWriter::kDefaultMaxFragment);

/// Small-call batcher (Nagle-style, with an explicit flush escape): coalesces
/// back-to-back record-marked calls into one transport send, amortizing the
/// per-send cost (syscall, virtqueue kick, wire latency) the Fig. 6a storms
/// of sub-100-byte calls otherwise pay per call. It flushes when the buffer
/// fills (bytes or record count) or when its owner flushes — the RPC client
/// does so before every blocking wait, so nothing waits on a timer. Used by
/// one thread at a time, like the client that owns it.
class CallBatcher {
 public:
  struct Options {
    /// Disabled: every append is sent at once as one send (header and
    /// payload together; no cross-call waiting).
    bool enabled = false;
    /// Flush as soon as the buffered wire bytes reach this (keep it at or
    /// under one MSS so a batch still fits one network segment).
    std::size_t max_bytes = 8 * 1024;
    /// Flush as soon as this many records are buffered.
    std::uint32_t max_calls = 16;
  };

  struct Stats {
    std::uint64_t records = 0;
    std::uint64_t batches = 0;  // transport sends
    std::uint64_t flush_full = 0;
    std::uint64_t flush_explicit = 0;
    std::uint64_t bytes = 0;
  };

  CallBatcher(Transport& transport, Options options,
              std::uint32_t max_fragment = RecordWriter::kDefaultMaxFragment)
      : transport_(&transport), options_(options), max_fragment_(max_fragment) {}

  /// Queues one RPC record; sends at once when batching is disabled or a
  /// threshold fills. Throws TransportError if the send fails (the buffer
  /// is discarded either way).
  void append(std::span<const std::uint8_t> record);

  /// Sends whatever is buffered now. Safe to call with an empty buffer.
  void flush();

  /// Points the batcher at a fresh transport after a reconnect, discarding
  /// buffered-but-unsent records (the client re-sends every pending call
  /// anyway, so keeping them would send duplicates).
  void rebind(Transport& transport);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  /// Records buffered and not yet sent.
  [[nodiscard]] std::uint32_t buffered() const noexcept { return buffered_; }

 private:
  void send_buffer(bool full);

  Transport* transport_;
  Options options_;
  std::uint32_t max_fragment_;
  std::vector<std::uint8_t> buf_;
  std::uint32_t buffered_ = 0;
  Stats stats_;
};

/// Reads one complete record (reassembling fragments) per call.
class RecordReader {
 public:
  explicit RecordReader(Transport& transport,
                        std::size_t max_record = kDefaultMaxRecord)
      : transport_(&transport), max_record_(max_record) {}

  /// Returns false on clean end-of-stream before any fragment; throws
  /// TransportError on mid-record EOF or an over-size record. With
  /// `deadline_to_start`, a receive deadline set on the transport bounds
  /// only the wait for the record to begin: it is cleared once the first
  /// bytes arrive, so a timeout never strands half a record.
  [[nodiscard]] bool read_record(std::vector<std::uint8_t>& out,
                                 bool deadline_to_start = false);

  /// Largest legitimate record: the CRICKET_MAX_PAYLOAD opaque bound
  /// (1 GiB, mirrored by rpclgen's kProcBudget) plus a 64 KiB envelope for
  /// the RPC header, auth blobs, and sibling fields. A peer claiming more
  /// is hostile or corrupted, and the cap stops fragment accumulation long
  /// before the bounds preflight would see the completed record.
  static constexpr std::size_t kDefaultMaxRecord =
      (std::size_t{1} << 30) + (std::size_t{64} << 10);

 private:
  Transport* transport_;
  std::size_t max_record_;
};

/// Record reader that pulls large chunks off the transport into an internal
/// buffer instead of issuing exact-size reads per header/fragment. When many
/// small records arrive back-to-back (pipelined calls, coalesced replies)
/// one recv covers them all, so per-recv costs amortize. Semantics match
/// RecordReader: one complete record per read_record call, false on clean
/// EOF at a record boundary, TransportError on mid-record EOF. A receive
/// timeout (TransportTimeout) loses nothing: the next call, into the same
/// `out`, resumes the record.
class BufferedRecordReader {
 public:
  explicit BufferedRecordReader(Transport& transport,
                                std::size_t chunk = kDefaultChunk,
                                std::size_t max_record =
                                    RecordReader::kDefaultMaxRecord)
      : transport_(&transport), chunk_(chunk), max_record_(max_record) {}

  [[nodiscard]] bool read_record(std::vector<std::uint8_t>& out);

  static constexpr std::size_t kDefaultChunk = 64 * 1024;

 private:
  /// Ensures at least `need` buffered bytes; returns false on EOF first.
  [[nodiscard]] bool fill(std::size_t need);

  Transport* transport_;
  std::size_t chunk_;
  std::size_t max_record_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
  bool mid_record_ = false;  // `out` holds the fragments read so far
};

}  // namespace cricket::rpc
