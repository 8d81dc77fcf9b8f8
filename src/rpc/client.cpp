#include "rpc/client.hpp"

#include <algorithm>
#include <limits>
#include <thread>

#include "sim/rng.hpp"

namespace cricket::rpc {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

}  // namespace

std::optional<RpcError> reply_error(const ReplyMsg& reply) {
  if (reply.stat == ReplyStat::kDenied) {
    return RpcError(RpcError::Kind::kDenied,
                    reply.reject_stat == RejectStat::kRpcMismatch
                        ? "call denied: RPC version mismatch"
                        : "call denied: authentication error");
  }
  switch (reply.accept_stat) {
    case AcceptStat::kSuccess:
      return std::nullopt;
    case AcceptStat::kProgUnavail:
      return RpcError(RpcError::Kind::kProgUnavail, "program unavailable");
    case AcceptStat::kProgMismatch: {
      const auto mi = reply.mismatch.value_or(MismatchInfo{});
      return RpcError(RpcError::Kind::kProgMismatch,
                      "program version mismatch (supported " +
                          std::to_string(mi.low) + ".." +
                          std::to_string(mi.high) + ")");
    }
    case AcceptStat::kProcUnavail:
      return RpcError(RpcError::Kind::kProcUnavail, "procedure unavailable");
    case AcceptStat::kGarbageArgs:
      return RpcError(RpcError::Kind::kGarbageArgs,
                      "server could not decode arguments");
    case AcceptStat::kSystemErr:
      return RpcError(RpcError::Kind::kSystemErr, "server system error");
    case AcceptStat::kQuotaExceeded:
      return RpcError(RpcError::Kind::kQuotaExceeded,
                      std::string("tenant quota exceeded: ") +
                          quota_reason_name(reply.quota_reason));
    case AcceptStat::kMigrating:
      return RpcError(RpcError::Kind::kMigrating,
                      "tenant is being migrated; retry via reconnect");
  }
  return RpcError(RpcError::Kind::kBadReply, "invalid accept_stat");
}

std::chrono::nanoseconds backoff_for(const RetryPolicy& policy,
                                     std::uint32_t xid, std::uint32_t k) {
  const std::uint32_t shift = std::min(k - 1, 30u);
  auto step = policy.backoff_base * (1u << shift);
  step = std::min(step, policy.backoff_cap);
  sim::Xoshiro256ss jitter(policy.seed ^ xid ^ k);
  const double factor = 0.5 + 0.5 * jitter.next_double();
  return std::chrono::nanoseconds(
      static_cast<std::int64_t>(static_cast<double>(step.count()) * factor));
}

const RetryCounters& retry_counters() {
  static const RetryCounters counters{
      obs::Registry::global().counter(
          "cricket_rpc_retries_total", {},
          "RPC call attempts beyond the first (timeout or transport failure)"),
      obs::Registry::global().counter(
          "cricket_rpc_deadline_exceeded_total", {},
          "RPC calls failed after exhausting their deadline/attempt budget"),
      obs::Registry::global().counter(
          "cricket_rpc_stale_replies_total", {},
          "Replies matching no call in flight (already answered), dropped"),
      obs::Registry::global().counter(
          "cricket_rpc_migrating_redirects_total", {},
          "kMigrating rejections absorbed by the retry layer (call re-sent "
          "through the reconnect factory)"),
      obs::Registry::global().counter(
          "cricket_rpc_reconnects_total", {},
          "Client transport reconnects after connection failure"),
  };
  return counters;
}

RpcClient::RpcClient(std::unique_ptr<Transport> transport, std::uint32_t prog,
                     std::uint32_t vers, ClientOptions options)
    : transport_(std::move(transport)),
      options_(std::move(options)),
      window_(std::max<std::uint32_t>(options_.max_outstanding, 1)),
      serial_io_(window_ == 1 && !options_.batch.enabled),
      writer_(*transport_, options_.max_fragment),
      reader_(*transport_),
      chunk_reader_(*transport_),
      batcher_(*transport_, options_.batch, options_.max_fragment),
      prog_(prog),
      vers_(vers),
      next_xid_(options_.initial_xid) {
  pending_.reserve(std::min<std::uint32_t>(window_, 256));
}

RpcClient::~RpcClient() {
  try {
    drain();
  } catch (...) {  // destructor must not throw
  }
  // No future may be left pointing at this client.
  if (!pending_.empty())
    fail_all(std::make_exception_ptr(TransportError("client closed")));
  try {
    transport_->shutdown();
  } catch (...) {
  }
}

template <typename Done>
void RpcClient::wait_until(Done done) {
  flush();
  while (!done() && !pending_.empty()) {
    auto next_due = Clock::time_point::max();
    for (const Pending& call : pending_) next_due = std::min(next_due, call.due);
    if (link_down_) {
      // Nothing to read from until the factory connects again.
      std::this_thread::sleep_until(next_due);
      on_timeout();
      continue;
    }
    // The receive deadline is the earliest retry timer; a timer is acted on
    // only once a receive has timed out, so a reply that arrived while
    // nobody was waiting is consumed before its call can expire.
    if (options_.retry.enabled) {
      (void)transport_->set_recv_timeout(std::max<std::chrono::nanoseconds>(
          next_due - Clock::now(), std::chrono::nanoseconds(1)));
    }
    try {
      if (!read_reply()) {
        link_failed("connection closed by peer");
        continue;
      }
    } catch (const TransportTimeout&) {
      on_timeout();
      continue;
    } catch (const TransportError& e) {
      link_failed(e.what());
      continue;
    }
    on_reply();
  }
}

void ReplyFuture::wait() const {
  detail::ReplyState* state = state_.get();
  if (!state->ready) state->owner->wait_until([state] { return state->ready; });
}

std::vector<std::uint8_t> ReplyFuture::get() {
  wait();
  if (state_->error) std::rethrow_exception(state_->error);
  return std::move(state_->value);
}

std::span<const std::uint8_t> RpcClient::finish_blocking(std::uint32_t xid,
                                                         std::uint32_t proc) {
  blocking_done_ = false;
  start(xid, proc, nullptr);
  const obs::Span wait_span(obs::Layer::kClientWait);
  wait_until([this] { return blocking_done_; });
  if (blocking_error_) std::rethrow_exception(std::exchange(blocking_error_, {}));
  return blocking_results_;
}

ReplyFuture RpcClient::post(std::uint32_t xid, std::uint32_t proc) {
  auto state = std::make_shared<detail::ReplyState>();
  state->owner = this;
  start(xid, proc, state);
  return ReplyFuture(std::move(state));
}

void RpcClient::start(std::uint32_t xid, std::uint32_t proc,
                      std::shared_ptr<detail::ReplyState> state) {
  // A full window waits until half of it is free, so the calls that follow
  // leave as batches rather than one per freed slot (Clark's silly-window
  // avoidance).
  if (pending_.size() >= window_)
    wait_until([this] { return pending_.size() <= window_ / 2; });
  Pending& call = pending_.emplace_back();
  call.xid = xid;
  call.proc = proc;
  if (const auto* b = find_proc_bounds(options_.bounds, prog_, vers_, proc);
      b != nullptr && b->result_max != kUnboundedWireSize) {
    call.max_reply_bytes = b->result_max + kReplyHeaderMax;
  }
  const RetryPolicy& retry = options_.retry;
  if (retry.enabled) {
    call.retryable = retry.assume_at_most_once ||
                     std::ranges::find(retry.idempotent_procs, proc) !=
                         retry.idempotent_procs.end();
    call.hard_deadline = retry.deadline > std::chrono::nanoseconds::zero()
                             ? Clock::now() + retry.deadline
                             : Clock::time_point::max();
    // The blocking call re-sends from send_buf_, which stays put until it
    // returns; a posted call keeps its own copy.
    if (state != nullptr) call.record = send_buf_;
  }
  call.state = std::move(state);
  ++stats_.calls;
  stats_.max_in_flight = std::max(stats_.max_in_flight, outstanding());
  try {
    transmit(call);
  } catch (const TransportError& e) {
    link_failed(e.what());
  }
}

void RpcClient::transmit(Pending& call) {
  const std::vector<std::uint8_t>& record =
      call.record.empty() ? send_buf_ : call.record;
  ++call.attempts;
  call.on_wire = true;
  if (options_.retry.enabled) {
    call.due = std::min(Clock::now() + options_.retry.attempt_timeout,
                        call.hard_deadline);
  }
  obs::Span span(obs::Layer::kChanSend, nullptr, record.size());
  if (serial_io_) {
    writer_.write_record(record);
  } else {
    batcher_.append(record);
  }
  stats_.bytes_sent += record.size();
}

bool RpcClient::read_reply() {
  // The exact reader cannot resume a record a timeout cut short, so under
  // retry the deadline bounds only the wait for a reply to begin; the
  // chunked reader consumes nothing until a whole record is buffered.
  return serial_io_
             ? reader_.read_record(reply_buf_, options_.retry.enabled)
             : chunk_reader_.read_record(reply_buf_);
}

void RpcClient::on_reply() {
  const RetryCounters& counters = retry_counters();
  stats_.bytes_received += reply_buf_.size();
  // The xid is the first word of every reply, so the record can be matched
  // to its call — and to the call's proven result bound — before
  // decode_reply parses or allocates anything.
  std::size_t i = kNone;
  if (reply_buf_.size() >= 4) {
    i = find((std::uint32_t{reply_buf_[0]} << 24) |
             (std::uint32_t{reply_buf_[1]} << 16) |
             (std::uint32_t{reply_buf_[2]} << 8) | std::uint32_t{reply_buf_[3]});
  }
  if (i != kNone && reply_buf_.size() > pending_[i].max_reply_bytes) {
    ++stats_.preflight_rejected;
    complete(i, {},
             std::make_exception_ptr(RpcError(
                 RpcError::Kind::kBadReply,
                 "reply of " + std::to_string(reply_buf_.size()) +
                     " bytes exceeds the procedure's proven wire-size bound")));
    return;
  }

  ReplyMsg reply;
  try {
    reply = decode_reply(reply_buf_);
  } catch (const std::exception&) {
    // Framing intact, content garbage: what a checksum failure looks like
    // above the record layer. Under retry the call's attempt timer re-sends
    // it; without, the call the record names fails with the decode error.
    if (i != kNone && !options_.retry.enabled) {
      complete(i, {}, std::current_exception());
    } else {
      ++stats_.stale_replies;
      counters.stale_replies.inc();
    }
    return;
  }

  if (i == kNone) {
    if (static_cast<std::int32_t>(reply.xid - next_xid_) >= 0) {
      // Newer than any xid issued: the peer is misbehaving or the stream is
      // desynchronized, and nothing in flight can trust what follows.
      fail_all(std::make_exception_ptr(RpcError(
          RpcError::Kind::kBadReply,
          "reply xid from the future: got " + std::to_string(reply.xid) +
              ", newest issued " + std::to_string(next_xid_ - 1))));
      return;
    }
    // A slow answer to an attempt already re-sent (or a second answer from
    // the server's duplicate cache): the call it names is done.
    ++stats_.stale_replies;
    counters.stale_replies.inc();
    return;
  }

  auto error = reply_error(reply);
  if (error && error->kind() == RpcError::Kind::kMigrating &&
      options_.retry.enabled) {
    // The tenant is frozen for live migration and the call never executed,
    // so it is safe to repeat whatever the procedure. It is re-sent after a
    // backoff, through a fresh connection from the factory, so the re-send
    // follows the migration's redirect once it flips.
    ++stats_.migrating_redirects;
    counters.migrating_redirects.inc();
    relink_ = static_cast<bool>(options_.reconnect);
    (void)retry_later(i, /*migrating=*/true);
    return;
  }
  ++stats_.replies;
  if (pending_[i].state != nullptr) {
    const obs::ScopedXid trace_xid(reply.xid);
    obs::instant(obs::Layer::kChanReply, nullptr, reply_buf_.size());
  }
  complete(i, reply.results, error ? std::make_exception_ptr(*error) : nullptr);
}

void RpcClient::on_timeout() {
  const auto now = Clock::now();
  // Attempts past their expiry back off (or fail)...
  bool resend = false;
  for (std::size_t i = 0; i < pending_.size();) {
    const Pending& call = pending_[i];
    if (call.on_wire && call.due <= now && !retry_later(i, false)) continue;
    resend = resend || (!pending_[i].on_wire && pending_[i].due <= now);
    ++i;
  }
  if (!resend) return;
  // ...and calls whose backoff is over go out again, on a fresh connection
  // when the old one failed or a migration asked for one.
  if (relink_ || link_down_) relink();
  for (std::size_t i = 0; i < pending_.size();) {
    Pending& call = pending_[i];
    if (call.on_wire || call.due > now) {
      ++i;
    } else if (link_down_) {
      // The server is still unreachable: this attempt is spent.
      ++call.attempts;
      if (retry_later(i, false)) ++i;
    } else {
      try {
        transmit(call);
      } catch (const TransportError& e) {
        link_failed(e.what());
        return;
      }
      ++i;
    }
  }
  // A re-send left in a part-filled batch would wait there for calls that
  // may never come, spending its attempt off the wire.
  flush();
}

void RpcClient::link_failed(const std::string& reason) {
  if (!options_.retry.enabled || !options_.reconnect) {
    fail_all(std::make_exception_ptr(
        TransportError("connection failed with calls in flight: " + reason)));
    return;
  }
  relink();
}

void RpcClient::relink() {
  relink_ = false;
  // Calls on the old connection lost their attempt with it. The server's
  // duplicate-request cache turns re-sends of calls that did execute into
  // cache hits, so nothing runs twice.
  for (std::size_t i = 0; i < pending_.size();) {
    if (!pending_[i].on_wire || retry_later(i, false)) ++i;
  }
  std::unique_ptr<Transport> fresh;
  try {
    fresh = options_.reconnect();
  } catch (const TransportError&) {
    // Server still down: the next re-send tries again.
  }
  link_down_ = fresh == nullptr;
  if (link_down_) return;
  transport_ = std::move(fresh);
  writer_ = RecordWriter(*transport_, options_.max_fragment);
  reader_ = RecordReader(*transport_);
  chunk_reader_ = BufferedRecordReader(*transport_);
  batcher_.rebind(*transport_);
  ++stats_.reconnects;
  retry_counters().reconnects.inc();
}

bool RpcClient::retry_later(std::size_t i, bool migrating) {
  Pending& call = pending_[i];
  const auto now = Clock::now();
  const auto pause = backoff_for(options_.retry, call.xid, call.attempts);
  const char* why = nullptr;
  if (!call.retryable && !migrating) {
    why = "non-idempotent procedure, not retrying";
  } else if (call.attempts >= options_.retry.max_attempts) {
    why = "attempts exhausted";
  } else if (now + pause >= call.hard_deadline) {
    why = "deadline exceeded";
  }
  const RetryCounters& counters = retry_counters();
  if (why != nullptr) {
    ++stats_.deadline_exceeded;
    counters.deadline_exceeded.inc();
    complete(i, {},
             std::make_exception_ptr(RpcError(
                 RpcError::Kind::kDeadlineExceeded,
                 "proc " + std::to_string(call.proc) + " xid " +
                     std::to_string(call.xid) + ": " + why)));
    return false;
  }
  ++stats_.retries;
  counters.retries.inc();
  call.on_wire = false;
  call.due = now + pause;
  return true;
}

void RpcClient::complete(std::size_t i, std::span<const std::uint8_t> results,
                         std::exception_ptr error) {
  Pending& call = pending_[i];
  if (error) ++stats_.failed;
  if (call.state == nullptr) {
    blocking_done_ = true;
    blocking_results_ = results;
    blocking_error_ = std::move(error);
  } else {
    detail::ReplyState& state = *call.state;
    if (error) {
      state.error = std::move(error);
    } else {
      state.value.assign(results.begin(), results.end());
    }
    state.ready = true;
    state.owner = nullptr;
  }
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
}

void RpcClient::fail_all(const std::exception_ptr& error) {
  while (!pending_.empty()) complete(pending_.size() - 1, {}, error);
}

std::size_t RpcClient::find(std::uint32_t xid) const {
  for (std::size_t i = 0; i < pending_.size(); ++i)
    if (pending_[i].xid == xid) return i;
  return kNone;
}

void RpcClient::flush() {
  if (batcher_.buffered() == 0) return;
  try {
    batcher_.flush();
  } catch (const TransportError& e) {
    link_failed(e.what());
  }
}

void RpcClient::drain() {
  wait_until([this] { return pending_.empty(); });
}

}  // namespace cricket::rpc
