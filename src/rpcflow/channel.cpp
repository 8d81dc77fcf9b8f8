#include "rpcflow/channel.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cricket::rpcflow {

AsyncRpcChannel::AsyncRpcChannel(std::unique_ptr<rpc::Transport> transport,
                                 std::uint32_t prog, std::uint32_t vers,
                                 ChannelOptions options)
    : transport_(std::move(transport)),
      prog_(prog),
      vers_(vers),
      options_(std::move(options)),
      batcher_(std::make_shared<CallBatcher>(*transport_, options_.batch,
                                             options_.max_fragment)),
      next_xid_(options_.initial_xid) {
  reader_ = std::thread([this] { reader_loop(); });
  if (options_.retry.enabled)
    retry_thread_ = std::thread([this] { retry_loop(); });
}

AsyncRpcChannel::~AsyncRpcChannel() {
  {
    sim::MutexLock lock(mu_);
    stopping_ = true;
  }
  retry_cv_.notify_all();
  if (retry_thread_.joinable()) retry_thread_.join();
  // Push out anything still buffered so the server can answer it, then
  // half-close: the server drains, replies, and closes its side, which ends
  // the reader loop (completing or failing every remaining future; with
  // stopping_ set it will not reconnect).
  batcher_.reset();
  try {
    sim::MutexLock lock(mu_);  // vs. the reader swapping transport_
    transport_->shutdown();
  } catch (...) {  // destructor must not throw
  }
  if (reader_.joinable()) reader_.join();
}

void AsyncRpcChannel::set_credential(rpc::OpaqueAuth cred) {
  sim::MutexLock lock(mu_);
  cred_ = std::move(cred);
}

ReplyFuture AsyncRpcChannel::call_raw_async(
    std::uint32_t proc, std::span<const std::uint8_t> args) {
  rpc::CallMsg call;
  call.prog = prog_;
  call.vers = vers_;
  call.proc = proc;
  call.args = args;  // encoded below, before this returns

  ReplyPromise promise;
  ReplyFuture future(promise.state());
  // Zero-deadline batcher diagnostic: with no background flusher, blocking
  // on a call still sitting in the batcher would hang forever. The hook
  // fires when a caller is about to block, flags the misuse, and flushes.
  if (options_.batch.enabled && options_.batch.deadline.count() == 0) {
    promise.state()->on_block =
        [weak = std::weak_ptr<CallBatcher>(batcher_)] {
          const auto batcher = weak.lock();
          if (!batcher || batcher->buffered() == 0) return;
          static obs::Counter& unflushed = obs::Registry::global().counter(
              "cricket_batch_unflushed_waits_total", {},
              "Futures blocked on while calls sat unflushed in a "
              "zero-deadline batcher (caller should flush first)");
          unflushed.inc();
          std::fprintf(stderr,
                       "rpcflow: waiting on a future while %u call(s) sit "
                       "unflushed in a zero-deadline batcher; flushing to "
                       "avoid a hang — call flush() before blocking\n",
                       batcher->buffered());
          try {
            batcher->flush();
          } catch (const rpc::TransportError&) {
            // Dead transport: the reader fails the futures; nothing to do.
          }
        };
  }
  const bool stash =
      options_.retry.enabled || static_cast<bool>(options_.reconnect);
  {
    sim::MutexLock lock(mu_);
    if (pending_.size() >=
        static_cast<std::size_t>(options_.max_outstanding)) {
      // The window is full of calls we may still be holding in the batcher;
      // push them out before blocking on their replies.
      lock.unlock();
      flush();
      lock.lock();
      while (!dead_ && pending_.size() >=
                           static_cast<std::size_t>(options_.max_outstanding))
        slots_cv_.wait(mu_);
    }
    if (dead_) {
      promise.set_error(std::make_exception_ptr(
          rpc::TransportError("channel closed: " + dead_reason_)));
      return future;
    }
    call.xid = next_xid_++;
    call.cred = cred_;
    // The reply pre-flight bound is decided now: once the reply arrives the
    // reader only has an xid, not a procedure number.
    std::uint64_t max_reply_bytes = rpc::kUnboundedWireSize;
    if (const auto* b =
            rpc::find_proc_bounds(options_.bounds, prog_, vers_, proc);
        b != nullptr && b->result_max != rpc::kUnboundedWireSize) {
      max_reply_bytes = b->result_max + rpc::kReplyHeaderMax;
    }
    PendingCall entry;
    entry.promise = promise;
    entry.max_reply_bytes = max_reply_bytes;
    if (stash) {
      const auto now = std::chrono::steady_clock::now();
      entry.expires = now + options_.retry.attempt_timeout;
      entry.hard_deadline =
          options_.retry.deadline > std::chrono::nanoseconds::zero()
              ? now + options_.retry.deadline
              : std::chrono::steady_clock::time_point::max();
    }
    pending_.emplace(call.xid, std::move(entry));
    ++stats_.calls;
    stats_.max_in_flight = std::max(
        stats_.max_in_flight, static_cast<std::uint32_t>(pending_.size()));
  }

  const obs::ScopedXid trace_xid(call.xid);
  std::vector<std::uint8_t> record;
  {
    obs::Span span(obs::Layer::kClientSerialize);
    record = rpc::encode_call(call);
    span.set_arg(record.size());
  }
  if (stash) {
    sim::MutexLock lock(mu_);
    // The entry can already be gone (failed by a racing disconnect).
    if (const auto it = pending_.find(call.xid); it != pending_.end())
      it->second.record = record;
  }
  try {
    {
      obs::Span span(obs::Layer::kChanSend, nullptr, record.size());
      batcher_->append(record);
    }
    sim::MutexLock lock(mu_);
    stats_.bytes_sent += record.size();
  } catch (const rpc::TransportError&) {
    // The reader will (or already did) fail every pending future, including
    // this one; nothing more to do here.
  }
  if (options_.retry.enabled) retry_cv_.notify_all();
  return future;
}

void AsyncRpcChannel::flush() { batcher_->flush(); }

void AsyncRpcChannel::drain() {
  try {
    flush();
  } catch (const rpc::TransportError&) {
    // The reader notices the dead transport and fails every pending future;
    // drain's contract is only "everything completed", which still holds.
  }
  sim::MutexLock lock(mu_);
  // fail_all_locked empties pending_ atomically with setting dead_, so this
  // terminates both on normal completion and on mid-pipeline failure.
  while (!pending_.empty()) slots_cv_.wait(mu_);
}

std::uint32_t AsyncRpcChannel::outstanding() const {
  sim::MutexLock lock(mu_);
  return static_cast<std::uint32_t>(pending_.size());
}

ChannelStats AsyncRpcChannel::stats() const {
  sim::MutexLock lock(mu_);
  return stats_;
}

void AsyncRpcChannel::retry_loop() {
  const rpc::RetryCounters& counters = rpc::retry_counters();
  using TimePoint = std::chrono::steady_clock::time_point;
  sim::MutexLock lock(mu_);
  for (;;) {
    if (stopping_ || dead_) return;
    TimePoint earliest = TimePoint::max();
    for (const auto& [xid, call] : pending_)
      if (!call.record.empty()) earliest = std::min(earliest, call.expires);
    if (earliest == TimePoint::max()) {
      retry_cv_.wait(mu_);
      continue;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now < earliest) {
      retry_cv_.wait_until(mu_, earliest);
      continue;
    }

    // Sweep expired calls: resend those with budget left, fail the rest.
    std::vector<std::vector<std::uint8_t>> resend;
    std::vector<std::pair<ReplyPromise, std::uint32_t>> expired;
    for (auto it = pending_.begin(); it != pending_.end();) {
      auto& call = it->second;
      if (call.record.empty() || call.expires > now) {
        ++it;
        continue;
      }
      if (call.attempts >= options_.retry.max_attempts ||
          now >= call.hard_deadline) {
        expired.emplace_back(call.promise, it->first);
        ++stats_.deadline_exceeded;
        ++stats_.failed;
        counters.deadline_exceeded.inc();
        it = pending_.erase(it);
        continue;
      }
      ++call.attempts;
      call.expires = now + options_.retry.attempt_timeout +
                     rpc::backoff_for(options_.retry, it->first,
                                      call.attempts - 1);
      resend.push_back(call.record);
      ++stats_.retries;
      counters.retries.inc();
      ++it;
    }
    const auto batcher = batcher_;
    lock.unlock();

    for (auto& [promise, xid] : expired) {
      promise.set_error(std::make_exception_ptr(rpc::RpcError(
          rpc::RpcError::Kind::kDeadlineExceeded,
          "xid " + std::to_string(xid) +
              ": deadline exceeded after retries")));
    }
    if (!expired.empty()) slots_cv_.notify_all();
    if (!resend.empty() && batcher) {
      try {
        // Same xid on the wire again: the server's duplicate-request cache
        // answers re-executions from cache, so this is safe for mutating
        // CUDA calls too.
        for (const auto& record : resend) batcher->append(record);
        batcher->flush();
      } catch (const rpc::TransportError&) {
        // Dead transport: the reader reconnects (resubmitting everything
        // pending) or fails the futures.
      }
    }
    lock.lock();
  }
}

void AsyncRpcChannel::fail_all_locked(const std::exception_ptr& error) {
  dead_ = true;
  // Complete outside pending_ so promise callbacks never see a half-updated
  // map; promises have their own locks.
  std::map<std::uint32_t, PendingCall> orphans;
  orphans.swap(pending_);
  stats_.failed += orphans.size();
  for (auto& [xid, call] : orphans) call.promise.set_error(error);
}

void AsyncRpcChannel::reader_loop() {
  const rpc::RetryCounters& counters = rpc::retry_counters();
  rpc::BufferedRecordReader reader(*transport_);
  std::vector<std::uint8_t> record;
  for (;;) {
    bool got = false;
    std::string reason;
    try {
      got = reader.read_record(record);
      if (!got) reason = "connection closed by peer";
    } catch (const rpc::TransportError& e) {
      reason = e.what();
    }
    if (!got) {
      // Transparent reconnect: fresh transport, rebind the batcher, and
      // resubmit every in-flight xid on the new connection. The server's
      // duplicate-request cache turns already-executed resubmissions into
      // cache hits, so nothing runs twice.
      std::vector<std::vector<std::uint8_t>> resubmit;
      std::shared_ptr<CallBatcher> batcher;
      bool reconnected = false;
      {
        sim::MutexLock lock(mu_);
        if (!stopping_ && !dead_ && options_.reconnect &&
            stats_.reconnects < options_.max_reconnects) {
          std::unique_ptr<rpc::Transport> fresh;
          try {
            fresh = options_.reconnect();
          } catch (const std::exception&) {
          }
          if (fresh != nullptr && batcher_ != nullptr) {
            transport_ = std::move(fresh);
            batcher_->rebind(*transport_);
            ++stats_.reconnects;
            counters.reconnects.inc();
            const auto now = std::chrono::steady_clock::now();
            for (auto& [xid, call] : pending_) {
              if (call.record.empty()) continue;
              resubmit.push_back(call.record);
              call.expires = now + options_.retry.attempt_timeout;
            }
            batcher = batcher_;
            reconnected = true;
          }
        }
        if (!reconnected) {
          if (dead_reason_.empty()) dead_reason_ = reason;
          fail_all_locked(std::make_exception_ptr(rpc::TransportError(
              "connection failed with calls in flight: " + reason)));
          slots_cv_.notify_all();
          retry_cv_.notify_all();
          return;
        }
      }
      retry_cv_.notify_all();
      try {
        for (const auto& r : resubmit) batcher->append(r);
        batcher->flush();
      } catch (const rpc::TransportError&) {
        // New connection died instantly; the next read attempt loops back
        // here and either reconnects again or gives up.
      }
      {
        sim::MutexLock lock(mu_);
        reader = rpc::BufferedRecordReader(*transport_);
      }
      continue;
    }

    // Pre-flight: the xid is the first word of every reply, so the record
    // can be matched to its call — and to the call's proven result bound —
    // before decode_reply parses or allocates anything. An oversized record
    // addressed to a bounded call can not be a valid reply; fail that call
    // without decoding.
    if (record.size() >= 4) {
      const std::uint32_t peek_xid = (std::uint32_t{record[0]} << 24) |
                                     (std::uint32_t{record[1]} << 16) |
                                     (std::uint32_t{record[2]} << 8) |
                                     std::uint32_t{record[3]};
      sim::MutexLock lock(mu_);
      const auto it = pending_.find(peek_xid);
      if (it != pending_.end() &&
          record.size() > it->second.max_reply_bytes) {
        ReplyPromise promise = it->second.promise;
        pending_.erase(it);
        ++stats_.preflight_rejected;
        ++stats_.failed;
        stats_.bytes_received += record.size();
        lock.unlock();
        promise.set_error(std::make_exception_ptr(rpc::RpcError(
            rpc::RpcError::Kind::kBadReply,
            "reply of " + std::to_string(record.size()) +
                " bytes exceeds the procedure's proven wire-size bound")));
        slots_cv_.notify_all();
        continue;
      }
    }

    rpc::ReplyMsg reply;
    try {
      reply = rpc::decode_reply(record);
    } catch (const std::exception&) {
      sim::MutexLock lock(mu_);
      ++stats_.unmatched;  // garbage record; not attributable to any call
      continue;
    }

    // A migrating freeze is answered at admission, before the call executes,
    // so instead of completing the future we keep the call pending and kick
    // the transport: the resulting read failure sends this loop through its
    // reconnect path, which resubmits every pending record (same xids)
    // through the factory — following the migration's redirect once it
    // flips. The backoff below self-throttles the reconnect storm while the
    // migration is still in its transfer phase.
    if (reply.stat == rpc::ReplyStat::kAccepted &&
        reply.accept_stat == rpc::AcceptStat::kMigrating) {
      std::uint32_t attempt = 1;
      {
        sim::MutexLock lock(mu_);
        stats_.bytes_received += record.size();
        const auto it = pending_.find(reply.xid);
        if (it == pending_.end()) {
          ++stats_.unmatched;
          counters.stale_replies.inc();
          continue;
        }
        auto& call = it->second;
        if (options_.reconnect && !call.record.empty() &&
            call.attempts < options_.retry.max_attempts &&
            std::chrono::steady_clock::now() < call.hard_deadline) {
          ++call.attempts;
          attempt = call.attempts;
          ++stats_.migrating_redirects;
        } else {
          // Out of budget (or no reconnect factory to follow the redirect
          // with): surface the freeze to the caller.
          ReplyPromise promise = call.promise;
          pending_.erase(it);
          ++stats_.replies;
          ++stats_.failed;
          lock.unlock();
          promise.set_error(
              std::make_exception_ptr(*rpc::reply_error(reply)));
          slots_cv_.notify_all();
          continue;
        }
      }
      counters.migrating_redirects.inc();
      std::this_thread::sleep_for(
          rpc::backoff_for(options_.retry, reply.xid, attempt - 1));
      sim::MutexLock lock(mu_);
      try {
        transport_->shutdown();
      } catch (...) {  // already dead is fine; the read below notices
      }
      continue;
    }

    ReplyPromise promise;
    bool matched = false;
    {
      sim::MutexLock lock(mu_);
      stats_.bytes_received += record.size();
      const auto it = pending_.find(reply.xid);
      if (it != pending_.end()) {
        matched = true;
        promise = it->second.promise;
        pending_.erase(it);
        ++stats_.replies;
      } else {
        ++stats_.unmatched;
        counters.stale_replies.inc();
      }
    }
    if (matched) {
      // Reader-thread events carry the matched call's xid so the viewer can
      // connect them to the issuing thread's spans.
      const obs::ScopedXid trace_xid(reply.xid);
      obs::instant(obs::Layer::kChanReply, nullptr, record.size());
      if (const auto error = rpc::reply_error(reply)) {
        {
          sim::MutexLock lock(mu_);
          ++stats_.failed;
        }
        promise.set_error(std::make_exception_ptr(*error));
      } else {
        // The record buffer is reused for the next read; the future owns
        // its results.
        promise.set_value({reply.results.begin(), reply.results.end()});
      }
      slots_cv_.notify_all();
    }
  }
}

}  // namespace cricket::rpcflow
