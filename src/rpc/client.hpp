// ONC RPC client runtime: transaction management over a record-marked stream.
//
// This is the C++ analogue of the paper's RPC-Lib client core: it depends
// only on the Transport interface (as RPC-Lib depends only on Rust's std),
// so the identical client runs over a plain pipe, a real TCP socket, or the
// vnet-simulated unikernel network paths. Like RPC-Lib it is single-threaded
// (§4.2): there are no helper threads. Blocking calls return their results
// straight from the reply buffer; posted calls (call_async) put up to
// `max_outstanding` xid-tagged calls on the wire and return futures, and
// whoever blocks — a blocking call, a future's get(), a full window or
// drain() — reads the replies, completes every call they match (in whatever
// order the server answers) and runs the retry timers, until what it waits
// for is done.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rpc/record.hpp"
#include "rpc/rpc_msg.hpp"
#include "rpc/transport.hpp"
#include "rpc/wire_bounds.hpp"
#include "xdr/xdr.hpp"

namespace cricket::rpc {

/// RPC-level failure (the transport worked but the server refused the call).
class RpcError : public std::runtime_error {
 public:
  enum class Kind {
    kProgUnavail,
    kProgMismatch,
    kProcUnavail,
    kGarbageArgs,
    kSystemErr,
    kDenied,
    kBadReply,
    /// Per-call deadline/attempt budget exhausted (faultnet retry layer).
    kDeadlineExceeded,
    /// Cricket extension: rejected at admission because the caller's tenant
    /// is over quota (see AcceptStat::kQuotaExceeded). Retryable after
    /// backoff — the connection is still healthy.
    kQuotaExceeded,
    /// Cricket extension: the tenant is frozen for live migration (see
    /// AcceptStat::kMigrating). The call did not execute; with retry
    /// enabled the client re-sends the same xid through its reconnect
    /// factory so the retry follows the migration's redirect.
    kMigrating,
  };

  RpcError(Kind kind, std::string what)
      : std::runtime_error(std::move(what)), kind_(kind) {}

  [[nodiscard]] Kind kind() const noexcept { return kind_; }

 private:
  Kind kind_;
};

/// Client-side resilience knobs: per-call deadlines and idempotency-aware
/// retry with capped exponential backoff and deterministic jitter. Disabled
/// by default — a retry against a server without the duplicate-request cache
/// would re-execute non-idempotent CUDA calls.
struct RetryPolicy {
  bool enabled = false;
  /// Total tries per call, including the first (so 4 = 1 send + 3 retries).
  std::uint32_t max_attempts = 4;
  /// How long one attempt waits for its reply before re-sending.
  std::chrono::nanoseconds attempt_timeout = std::chrono::milliseconds(200);
  /// Whole-call budget across attempts + backoff. Zero = attempts-only.
  std::chrono::nanoseconds deadline = std::chrono::seconds(2);
  /// Backoff before retry k (1-based) is
  ///   min(backoff_cap, backoff_base << (k-1)) * jitter,  jitter ∈ [0.5, 1)
  /// with jitter drawn from a generator seeded by (seed ^ xid ^ k) — the
  /// same seed reproduces the same retry schedule exactly.
  std::chrono::nanoseconds backoff_base = std::chrono::milliseconds(1);
  std::chrono::nanoseconds backoff_cap = std::chrono::milliseconds(100);
  std::uint64_t seed = 0x5EEDF00Dull;
  /// True when the server runs the duplicate-request cache, making every
  /// procedure safe to retry. When false only `idempotent_procs` retry;
  /// anything else fails with kDeadlineExceeded on the first timeout.
  bool assume_at_most_once = true;
  std::vector<std::uint32_t> idempotent_procs{};
};

/// The caller-visible error of a reply: nullopt for an accepted SUCCESS,
/// otherwise the RpcError a denied or unsuccessful reply maps to.
[[nodiscard]] std::optional<RpcError> reply_error(const ReplyMsg& reply);

/// Backoff before retry `k` (1-based): capped exponential with deterministic
/// jitter in [0.5, 1) so two clients sharing a seed never sync their retries
/// per-call but a re-run with the same seed reproduces the exact schedule.
[[nodiscard]] std::chrono::nanoseconds backoff_for(const RetryPolicy& policy,
                                                   std::uint32_t xid,
                                                   std::uint32_t k);

/// The retry layer's process-wide counters.
struct RetryCounters {
  obs::Counter& retries;
  obs::Counter& deadline_exceeded;
  obs::Counter& stale_replies;
  obs::Counter& migrating_redirects;
  obs::Counter& reconnects;
};
[[nodiscard]] const RetryCounters& retry_counters();

struct ClientOptions {
  /// Pipeline depth: posted calls on the wire before the oldest reply
  /// arrives. A call issued at the cap first reads replies until half the
  /// window is free (back-pressure). A window of one with batching off (the
  /// default) is the paper's serial RPC client.
  std::uint32_t max_outstanding = 1;
  /// Initial transaction id; subsequent calls increment.
  std::uint32_t initial_xid = 0x10000000;
  std::uint32_t max_fragment = RecordWriter::kDefaultMaxFragment;
  /// Small-call coalescing (off by default: pipelining without batching).
  CallBatcher::Options batch{};
  /// rpclgen-generated per-procedure wire bounds (e.g.
  /// cricket::proto::bounds::kProcBounds). When set, a reply record larger
  /// than the addressed call's proven result bound fails that call with
  /// kBadReply before decode_reply runs. The span must outlive the client
  /// (generated tables have static storage).
  std::span<const ProcWireBounds> bounds{};
  RetryPolicy retry{};
  /// With retry enabled: produces a fresh transport to the same server
  /// after a connection-level failure or a kMigrating reply, and every call
  /// in flight is re-sent on it under its own xid. Without it a dead
  /// connection is fatal to the calls in flight.
  std::function<std::unique_ptr<Transport>()> reconnect{};
};

/// Client statistics (useful for the paper's API-call accounting, §4.1).
struct ClientStats {
  std::uint64_t calls = 0;
  std::uint64_t replies = 0;             // calls completed by their reply
  std::uint64_t failed = 0;              // calls completed with an error
  std::uint64_t preflight_rejected = 0;  // oversized replies failed undecoded
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint32_t max_in_flight = 0;  // high-water mark of the pipeline
  std::uint64_t retries = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t reconnects = 0;
  /// Replies that matched no call in flight — the original answer to a call
  /// already re-sent, or an undecodable record — dropped.
  std::uint64_t stale_replies = 0;
  /// kMigrating rejections absorbed by the retry layer: the call was
  /// re-sent (through the reconnect factory, following the migration's
  /// redirect) instead of failing.
  std::uint64_t migrating_redirects = 0;
};

class RpcClient;

namespace detail {

/// One posted call's completion slot, filled by whichever blocking wait
/// reads its reply. `owner` is the client to drive while it is not ready.
struct ReplyState {
  RpcClient* owner = nullptr;
  bool ready = false;
  std::vector<std::uint8_t> value;  // XDR-encoded results
  std::exception_ptr error;
};

}  // namespace detail

/// Caller's handle to one posted call's raw (XDR-encoded) results. Waiting
/// on it drives the client that issued it, so it must be waited on from the
/// client's thread; the client fails every call still in flight when it is
/// destroyed, so a future never outlives its answer.
class ReplyFuture {
 public:
  ReplyFuture() = default;
  explicit ReplyFuture(std::shared_ptr<detail::ReplyState> state)
      : state_(std::move(state)) {}

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  /// Non-blocking: true once a wait has read this call's reply.
  [[nodiscard]] bool ready() const noexcept { return state_->ready; }
  void wait() const;
  /// Blocks until completion; rethrows the call's error if it failed.
  [[nodiscard]] std::vector<std::uint8_t> get();

 private:
  std::shared_ptr<detail::ReplyState> state_;
};

/// Typed view over a ReplyFuture: XDR-decodes one `Res` on get().
template <typename Res>
class TypedFuture {
 public:
  TypedFuture() = default;
  explicit TypedFuture(ReplyFuture raw) : raw_(std::move(raw)) {}

  [[nodiscard]] bool valid() const noexcept { return raw_.valid(); }
  [[nodiscard]] bool ready() const noexcept { return raw_.ready(); }
  void wait() const { raw_.wait(); }

  [[nodiscard]] Res get() {
    const auto bytes = raw_.get();
    xdr::Decoder dec(bytes);
    Res res{};
    xdr_decode(dec, res);
    dec.expect_exhausted();
    return res;
  }

 private:
  ReplyFuture raw_;
};

/// RPC client bound to one (program, version) on one transport. Not
/// thread-safe: one caller thread at a time, matching the paper's
/// single-threaded RPC usage ("the RPC library is single-threaded", §4.2).
class RpcClient {
 public:
  RpcClient(std::unique_ptr<Transport> transport, std::uint32_t prog,
            std::uint32_t vers, ClientOptions options = {});
  /// Waits for every posted call, then half-closes the connection.
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Sets the credential sent with subsequent calls (default AUTH_NONE).
  void set_credential(OpaqueAuth cred) { cred_ = std::move(cred); }

  /// Issues `proc` with pre-encoded arguments and waits for it; returns the
  /// raw encoded results as a view into this client's reply buffer, valid
  /// until the next call on this client. Throws RpcError / TransportError on
  /// failure. Calls posted earlier stay in flight (this does not drain).
  std::span<const std::uint8_t> call_raw(std::uint32_t proc,
                                         std::span<const std::uint8_t> args) {
    return call_with(proc, [&](xdr::Encoder& enc) { enc.put_raw(args); });
  }

  /// Typed convenience: XDR-encodes `args...` in order, decodes one `Res`.
  template <typename Res, typename... Args>
  Res call(std::uint32_t proc, const Args&... args) {
    xdr::Decoder dec(call_with(
        proc, [&](xdr::Encoder& enc) { (xdr_encode(enc, args), ...); }));
    Res res{};
    xdr_decode(dec, res);
    dec.expect_exhausted();
    return res;
  }

  /// Typed call with void result.
  template <typename... Args>
  void call_void(std::uint32_t proc, const Args&... args) {
    const auto results = call_with(
        proc, [&](xdr::Encoder& enc) { (xdr_encode(enc, args), ...); });
    if (!results.empty())
      throw RpcError(RpcError::Kind::kBadReply, "expected void result");
  }

  /// RFC 5531 null procedure — liveness ping.
  void ping() { call_void(0); }

  /// Posts `proc` with pre-encoded arguments: puts it on the wire (or into
  /// the batcher) and returns a future for the raw encoded results. Blocks
  /// only while the window is full. The future fails with RpcError for
  /// call-level errors and TransportError if the connection dies under it.
  ///
  /// Replies are read only while the caller waits, never during a send. A
  /// server that answers in order and blocks writing a reply the transport
  /// cannot buffer stops reading calls, so a send issued meanwhile blocks
  /// for good: when posted replies can exceed the transport's buffering,
  /// drain() (or get() the earlier futures) before posting more.
  [[nodiscard]] ReplyFuture call_raw_async(std::uint32_t proc,
                                           std::span<const std::uint8_t> args) {
    return post_with(proc, [&](xdr::Encoder& enc) { enc.put_raw(args); });
  }

  /// Typed posted call: XDR-encodes `args...`, decodes one `Res` at get().
  template <typename Res, typename... Args>
  [[nodiscard]] TypedFuture<Res> call_async(std::uint32_t proc,
                                            const Args&... args) {
    return TypedFuture<Res>(post_with(
        proc, [&](xdr::Encoder& enc) { (xdr_encode(enc, args), ...); }));
  }

  /// Sends anything the batcher is still holding.
  void flush();

  /// Blocks until every posted call has completed (successfully or not).
  /// The pipeline's sync point.
  void drain();

  [[nodiscard]] std::uint32_t outstanding() const noexcept {
    return static_cast<std::uint32_t>(pending_.size());
  }
  [[nodiscard]] const ClientStats& stats() const noexcept { return stats_; }
  [[nodiscard]] Transport& transport() noexcept { return *transport_; }

 private:
  friend class ReplyFuture;
  using Clock = std::chrono::steady_clock;

  /// A call awaiting its reply.
  struct Pending {
    std::uint32_t xid = 0;
    std::uint32_t proc = 0;
    /// Null for the blocking call, whose record is send_buf_.
    std::shared_ptr<detail::ReplyState> state;
    /// A posted call's encoded record, kept for re-sends under retry.
    std::vector<std::uint8_t> record;
    /// Result bound plus the worst-case reply header, fixed at issue: a
    /// reply carries only the xid, not the procedure.
    std::uint64_t max_reply_bytes = kUnboundedWireSize;
    bool retryable = false;
    /// Retry timers. On the wire, `due` is when the attempt is given up;
    /// backing off, it is when the call is re-sent.
    bool on_wire = false;
    std::uint32_t attempts = 0;
    Clock::time_point due{};
    Clock::time_point hard_deadline{};
  };

  /// The next call header, under a fresh xid.
  [[nodiscard]] CallMsg next_call(std::uint32_t proc) {
    CallMsg call;
    call.xid = next_xid_++;
    call.prog = prog_;
    call.vers = vers_;
    call.proc = proc;
    call.cred = cred_;
    return call;
  }

  /// Encodes the call record into the reused send buffer — the header,
  /// then `encode_args` appends the arguments straight behind it, so a
  /// payload argument is copied once.
  template <typename EncodeArgs>
  void encode(const CallMsg& call, EncodeArgs&& encode_args) {
    obs::Span span(obs::Layer::kClientSerialize);
    xdr::Encoder enc(std::move(send_buf_));
    encode_call_header(call, enc);
    encode_args(enc);
    send_buf_ = enc.take();
    span.set_arg(send_buf_.size());
  }

  template <typename EncodeArgs>
  std::span<const std::uint8_t> call_with(std::uint32_t proc,
                                          EncodeArgs&& encode_args) {
    const CallMsg call = next_call(proc);
    const obs::ScopedXid trace_xid(call.xid);
    encode(call, encode_args);
    return finish_blocking(call.xid, proc);
  }

  template <typename EncodeArgs>
  ReplyFuture post_with(std::uint32_t proc, EncodeArgs&& encode_args) {
    const CallMsg call = next_call(proc);
    const obs::ScopedXid trace_xid(call.xid);
    encode(call, encode_args);
    return post(call.xid, proc);
  }

  /// Sends the call in send_buf_ and waits for it; its results view
  /// reply_buf_.
  std::span<const std::uint8_t> finish_blocking(std::uint32_t xid,
                                                std::uint32_t proc);
  /// Sends the call in send_buf_ and returns its future.
  ReplyFuture post(std::uint32_t xid, std::uint32_t proc);
  /// Waits for a window slot, then registers the call and sends it.
  void start(std::uint32_t xid, std::uint32_t proc,
             std::shared_ptr<detail::ReplyState> state);
  /// The one loop: flushes the batch, then reads replies and runs the
  /// retry timers until `done()` holds.
  template <typename Done>
  void wait_until(Done done);

  void transmit(Pending& call);
  [[nodiscard]] bool read_reply();
  void on_reply();
  void on_timeout();
  void link_failed(const std::string& reason);
  void relink();
  /// Backs call `i` off before its next attempt, or fails it when its budget
  /// is spent; false when it failed (and left pending_).
  bool retry_later(std::size_t i, bool migrating);
  void complete(std::size_t i, std::span<const std::uint8_t> results,
                std::exception_ptr error);
  void fail_all(const std::exception_ptr& error);
  [[nodiscard]] std::size_t find(std::uint32_t xid) const;

  std::unique_ptr<Transport> transport_;
  ClientOptions options_;
  std::uint32_t window_;
  /// Window of one and no batching: the paper's serial RPC I/O, header and
  /// body as separate sends and replies read with exact reads. Otherwise
  /// each record goes out in one send (or a batch) and replies are read in
  /// large chunks.
  bool serial_io_;
  RecordWriter writer_;
  RecordReader reader_;
  BufferedRecordReader chunk_reader_;
  CallBatcher batcher_;
  std::uint32_t prog_;
  std::uint32_t vers_;
  std::uint32_t next_xid_;
  OpaqueAuth cred_;
  ClientStats stats_;
  /// Calls in flight, in issue order (the order re-sends go out in).
  std::vector<Pending> pending_;
  /// The blocking call's outcome once its reply is read.
  bool blocking_done_ = false;
  std::span<const std::uint8_t> blocking_results_;
  std::exception_ptr blocking_error_;
  /// A kMigrating reply asked for a fresh connection before the next send.
  bool relink_ = false;
  /// The connection failed and the reconnect factory has not replaced it.
  bool link_down_ = false;
  // Per-connection buffers, reused by every call so a steady stream of
  // payload-sized calls allocates nothing: the encoded call record and the
  // last reply record (which a blocking call's results view).
  std::vector<std::uint8_t> send_buf_;
  std::vector<std::uint8_t> reply_buf_;
};

}  // namespace cricket::rpc
