#include "rpc/server.hpp"

#include <deque>

#include "obs/trace.hpp"
#include "xdr/fnv.hpp"
#include "xdr/taint.hpp"

namespace cricket::rpc {

void ServiceRegistry::register_proc(std::uint32_t prog, std::uint32_t vers,
                                    std::uint32_t proc, ProcHandler handler) {
  handlers_[Key{prog, vers, proc}] = std::move(handler);
}

void ServiceRegistry::set_bounds(std::span<const ProcWireBounds> table) {
  for (const auto& b : table) bounds_[Key{b.prog, b.vers, b.proc}] = b;
}

std::optional<ReplyMsg> ServiceRegistry::preflight(
    std::span<const std::uint8_t> record) const {
  if (bounds_.empty()) return std::nullopt;
  CallHeader header;
  try {
    header = peek_call_header(record);
  } catch (const std::exception&) {
    // Unparseable header: let the full decode path classify (and drop) it.
    return std::nullopt;
  }
  const auto it = bounds_.find(Key{header.prog, header.vers, header.proc});
  if (it == bounds_.end() || it->second.args_max == kUnboundedWireSize)
    return std::nullopt;
  const std::uint64_t args_len = record.size() - header.body_offset;
  if (args_len >= it->second.args_min && args_len <= it->second.args_max)
    return std::nullopt;
  static obs::Counter& rejected = obs::Registry::global().counter(
      "cricket_rpc_preflight_rejected_total", {},
      "Records rejected by wire-size bounds pre-flight before decode");
  rejected.inc();
  ReplyMsg reply;
  reply.xid = header.xid;
  reply.stat = ReplyStat::kAccepted;
  reply.accept_stat = AcceptStat::kGarbageArgs;
  return reply;
}

std::optional<ReplyMsg> ServiceRegistry::admit(
    std::span<const std::uint8_t> record) const {
  if (!admission_) return std::nullopt;
  return admission_->admit(record);
}

void ServiceRegistry::admission_complete() const {
  if (admission_) admission_->complete();
}

void ServiceRegistry::enable_duplicate_cache(DrcOptions options) {
  drc_ = std::make_unique<DrcState>();
  drc_->options = options;
}

DrcStats ServiceRegistry::drc_stats() const {
  if (!drc_) return {};
  sim::MutexLock lock(drc_->mu);
  return drc_->stats;
}

void ServiceRegistry::DrcState::evict_locked() {
  while (!fifo.empty() &&
         (cache.size() > options.max_entries || bytes > options.max_bytes)) {
    const auto it = cache.find(fifo.front());
    fifo.pop_front();
    if (it == cache.end()) continue;
    bytes -= it->second.bytes;
    cache.erase(it);
    ++stats.evictions;
  }
}

/// FNV-1a over the credential (flavor + body): stable client identity for
/// the duplicate-request cache without parsing any particular auth scheme.
std::uint64_t drc_client_id(const OpaqueAuth& cred) noexcept {
  const auto flavor = static_cast<std::uint32_t>(cred.flavor);
  const std::uint8_t flavor_le[4] = {
      static_cast<std::uint8_t>(flavor), static_cast<std::uint8_t>(flavor >> 8),
      static_cast<std::uint8_t>(flavor >> 16),
      static_cast<std::uint8_t>(flavor >> 24)};
  return xdr::fnv64(cred.body, xdr::fnv64(flavor_le));
}

void ServiceRegistry::DrcState::insert_locked(const DrcKey& key,
                                              const ReplyMsg& reply) {
  const auto [it, inserted] = cache.try_emplace(key);
  if (!inserted) return;
  DrcEntry& entry = it->second;
  entry.results.assign(reply.results.begin(), reply.results.end());
  entry.reply = reply;
  entry.reply.results = entry.results;
  entry.bytes = entry.results.size() + 64;  // + header estimate
  fifo.push_back(key);
  bytes += entry.bytes;
  ++stats.insertions;
  evict_locked();
}

std::vector<DrcExportEntry> ServiceRegistry::export_drc(
    std::optional<std::uint64_t> client) const {
  std::vector<DrcExportEntry> out;
  if (!drc_) return out;
  sim::MutexLock lock(drc_->mu);
  for (const auto& [key, entry] : drc_->cache) {
    if (client.has_value() && key.client != *client) continue;
    out.push_back(DrcExportEntry{key.client, key.xid,
                                 encode_reply(entry.reply)});
  }
  return out;
}

void ServiceRegistry::import_drc(const std::vector<DrcExportEntry>& entries) {
  if (!drc_)
    throw std::logic_error(
        "import_drc: duplicate-request cache not enabled on this registry");
  DrcState& drc = *drc_;
  sim::MutexLock lock(drc.mu);
  for (const auto& e : entries) {
    const ReplyMsg reply = decode_reply(e.reply);
    if (reply.xid != e.xid)
      throw RpcFormatError("imported DRC entry xid does not match its reply");
    drc.insert_locked(DrcKey{e.client, e.xid}, reply);
  }
  drc.cv.notify_all();
}

ReplyMsg ServiceRegistry::dispatch(const CallMsg& call,
                                   std::vector<std::uint8_t>& results) const {
  // Only handled procedures go through the cache: error classifications and
  // the implicit null procedure are side-effect free, and caching them would
  // let misses crowd out replies that actually protect against re-execution.
  if (!drc_ ||
      handlers_.find(Key{call.prog, call.vers, call.proc}) == handlers_.end())
    return execute(call, results);

  static obs::Counter& drc_hits = obs::Registry::global().counter(
      "cricket_drc_hits_total", {},
      "Retried calls answered from the duplicate-request cache");

  DrcState& drc = *drc_;
  const DrcKey key{drc_client_id(call.cred), call.xid};
  {
    sim::MutexLock lock(drc.mu);
    for (;;) {
      const auto it = drc.cache.find(key);
      if (it != drc.cache.end()) {
        ++drc.stats.hits;
        drc_hits.inc();
        // Copied out under the lock: the entry may be evicted as soon as
        // it is released.
        results.assign(it->second.results.begin(), it->second.results.end());
        ReplyMsg reply = it->second.reply;
        reply.results = results;
        return reply;
      }
      if (drc.in_flight.find(key) == drc.in_flight.end()) break;
      // The original attempt is still executing on another worker. Wait for
      // its reply rather than racing a second execution of the same call.
      ++drc.stats.in_flight_waits;
      drc.cv.wait(drc.mu);
    }
    drc.in_flight.insert(key);
  }

  // Handler runs outside the lock — CUDA-side work can be long.
  ReplyMsg reply = execute(call, results);

  {
    sim::MutexLock lock(drc.mu);
    drc.in_flight.erase(key);
    drc.insert_locked(key, reply);
    drc.cv.notify_all();
  }
  return reply;
}

ReplyMsg ServiceRegistry::execute(const CallMsg& call,
                                  std::vector<std::uint8_t>& results) const {
  ReplyMsg reply;
  reply.xid = call.xid;
  reply.stat = ReplyStat::kAccepted;
  results.clear();

  // Null procedure: always answered, per RFC 5531 convention, as long as the
  // program exists at all.
  const auto it = handlers_.find(Key{call.prog, call.vers, call.proc});
  if (it != handlers_.end()) {
    try {
      it->second(call.args, results);
      reply.results = results;
      reply.accept_stat = AcceptStat::kSuccess;
    } catch (const GarbageArgsError&) {
      reply.accept_stat = AcceptStat::kGarbageArgs;
    } catch (const xdr::TaintError&) {
      // A wire-derived scalar failed validate() inside the handler: the
      // arguments decoded but were hostile, which is the same class of
      // reply as a malformed body — not a server fault.
      reply.accept_stat = AcceptStat::kGarbageArgs;
    } catch (const std::exception&) {
      reply.accept_stat = AcceptStat::kSystemErr;
    }
    return reply;
  }

  // Classify the miss: unknown program / known program wrong version /
  // unknown procedure / implicit null procedure.
  std::uint32_t lo = UINT32_MAX, hi = 0;
  bool prog_known = false, vers_known = false;
  for (const auto& [key, _] : handlers_) {
    if (key.prog != call.prog) continue;
    prog_known = true;
    lo = std::min(lo, key.vers);
    hi = std::max(hi, key.vers);
    if (key.vers == call.vers) vers_known = true;
  }
  if (!prog_known) {
    reply.accept_stat = AcceptStat::kProgUnavail;
  } else if (!vers_known) {
    reply.accept_stat = AcceptStat::kProgMismatch;
    reply.mismatch = MismatchInfo{lo, hi};
  } else if (call.proc == 0) {
    reply.accept_stat = AcceptStat::kSuccess;  // null proc, void result
  } else {
    reply.accept_stat = AcceptStat::kProcUnavail;
  }
  return reply;
}

namespace {

/// One connection's service: intake (pre-flight -> admit -> decode) and
/// execute (dispatch -> admission_complete -> encode reply), run in one of
/// two shapes. Zero workers is the paper's single-threaded RPC library: each
/// record is answered inline, on the calling thread, before the next one is
/// read. Workers >= 1 pipeline it: reader (calling thread) -> bounded worker
/// pool -> coalescing writer thread; replies complete out of order when more
/// than one worker runs, and the client matches them by xid.
class Connection {
 public:
  Connection(const ServiceRegistry& registry, Transport& transport,
             const ServeOptions& options)
      : registry_(&registry),
        transport_(&transport),
        options_(options),
        writer_(transport, options.max_fragment) {}

  void run() CRICKET_EXCLUDES(mu_) {
    if (options_.workers == 0) {
      // Exact-size reads, so each read is charged to the clock once.
      read_loop(RecordReader(*transport_));
      return;
    }
    for (std::uint32_t i = 0; i < options_.workers; ++i)
      workers_.emplace_back([this] { worker_loop(); });
    std::thread writer([this] { writer_loop(); });

    read_loop(BufferedRecordReader(*transport_));

    {
      sim::MutexLock lock(mu_);
      intake_done_ = true;
    }
    work_cv_.notify_all();
    for (auto& w : workers_) w.join();
    {
      sim::MutexLock lock(mu_);
      workers_done_ = true;
    }
    reply_cv_.notify_all();
    writer.join();
  }

 private:
  /// A decoded call and the record its args view.
  struct QueuedCall {
    std::vector<std::uint8_t> record;
    CallMsg call;
  };

  template <typename Reader>
  void read_loop(Reader reader) CRICKET_EXCLUDES(mu_) {
    // Zero workers reuse this buffer for every call; pipelined mode hands
    // it to the queued call and the next read fills a fresh one.
    std::vector<std::uint8_t> record;
    for (;;) {
      try {
        if (!reader.read_record(record)) return;  // clean EOF
      } catch (const TransportError&) {
        return;  // peer vanished mid-record; nothing to reply to
      }
      if (!intake(record)) return;
    }
  }

  /// Pre-flight -> admit -> decode, then hands the record on. An
  /// out-of-bounds length (pre-flight) or a tenant over quota or
  /// unauthenticated (admission) is answered without decoding, and the
  /// connection stays up. A record that does not parse as a call is dropped
  /// (a real server cannot reply without an xid it trusts), releasing the
  /// admission slot it was granted. Returns false once replies can no longer
  /// be written.
  bool intake(std::vector<std::uint8_t>& record) CRICKET_EXCLUDES(mu_) {
    std::optional<ReplyMsg> rejected = registry_->preflight(record);
    if (!rejected) rejected = registry_->admit(record);
    CallMsg call;
    if (!rejected) {
      try {
        call = decode_call(record);
      } catch (const std::exception&) {
        registry_->admission_complete();
        return true;
      }
    }
    if (options_.workers == 0) return reply_inline(rejected, call);

    // Rejections take the writer path too (and an in-flight slot), so
    // ordering and backpressure stay uniform.
    sim::MutexLock lock(mu_);
    while (in_flight_ >= options_.max_in_flight && !write_failed_)
      slots_cv_.wait(mu_);
    if (write_failed_) return false;
    ++in_flight_;
    if (rejected) {
      ready_.push_back(encode_reply(*rejected));
      lock.unlock();
      reply_cv_.notify_one();
    } else {
      // Moving the record keeps its heap buffer, so call.args stays valid.
      queue_.push_back(QueuedCall{std::move(record), std::move(call)});
      lock.unlock();
      work_cv_.notify_one();
    }
    return true;
  }

  /// Dispatch -> admission_complete -> encode reply, on the executing
  /// thread's reused results buffer.
  void execute(const CallMsg& call, std::vector<std::uint8_t>& results,
               std::vector<std::uint8_t>& reply) const {
    {
      // Pipelined, the xid crosses from the reader thread to a worker inside
      // the CallMsg; re-establish it so dispatch-side spans line up with the
      // client-side spans of the same call.
      const obs::ScopedXid trace_xid(call.xid);
      obs::Span span(obs::Layer::kServerDispatch, nullptr, call.args.size());
      encode_reply(registry_->dispatch(call, results), reply);
    }
    registry_->admission_complete();
  }

  /// Zero workers: one write_record per reply, from buffers reused for every
  /// call on the connection, so steady-state calls allocate no payload-sized
  /// buffer.
  bool reply_inline(const std::optional<ReplyMsg>& rejected,
                    const CallMsg& call) {
    try {
      if (rejected) {
        encode_reply(*rejected, reply_record_);
        writer_.write_record(reply_record_);
        return true;
      }
      execute(call, results_, reply_record_);
      const obs::ScopedXid trace_xid(call.xid);
      obs::Span span(obs::Layer::kServerReply);
      writer_.write_record(reply_record_);
      return true;
    } catch (const TransportError&) {
      return false;
    }
  }

  void worker_loop() CRICKET_EXCLUDES(mu_) {
    std::vector<std::uint8_t> results;  // reused across this worker's calls
    for (;;) {
      sim::MutexLock lock(mu_);
      while (queue_.empty() && !intake_done_ && !write_failed_)
        work_cv_.wait(mu_);
      if (queue_.empty()) return;  // intake done or writer dead: drain over
      const QueuedCall queued = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      std::vector<std::uint8_t> record;
      execute(queued.call, results, record);
      lock.lock();
      ready_.push_back(std::move(record));
      lock.unlock();
      reply_cv_.notify_one();
    }
  }

  /// Coalesces all replies that are ready back-to-back into one
  /// record-marked transport send (amortizes per-send cost; the mirror image
  /// of the client-side small-call batcher).
  void writer_loop() CRICKET_EXCLUDES(mu_) {
    std::vector<std::vector<std::uint8_t>> batch;
    std::vector<std::uint8_t> wire;
    for (;;) {
      {
        sim::MutexLock lock(mu_);
        while (ready_.empty() && !(workers_done_ && queue_.empty()))
          reply_cv_.wait(mu_);
        if (ready_.empty()) return;  // drained and no more producers
        batch.swap(ready_);
      }
      try {
        std::size_t batch_bytes = 0;
        for (const auto& r : batch) batch_bytes += r.size();
        obs::Span span(obs::Layer::kServerReply, nullptr, batch_bytes);
        wire.clear();
        for (const auto& r : batch)
          append_record_marked(wire, r, options_.max_fragment);
        transport_->send(wire);
      } catch (const TransportError&) {
        sim::MutexLock lock(mu_);
        write_failed_ = true;
        slots_cv_.notify_all();
        work_cv_.notify_all();
        return;
      }
      {
        sim::MutexLock lock(mu_);
        in_flight_ -= static_cast<std::uint32_t>(batch.size());
      }
      slots_cv_.notify_all();
      batch.clear();
    }
  }

  const ServiceRegistry* registry_;
  Transport* transport_;
  ServeOptions options_;

  // Zero workers: the reply writer and the per-connection results and
  // reply buffers.
  RecordWriter writer_;
  std::vector<std::uint8_t> results_;
  std::vector<std::uint8_t> reply_record_;

  // Workers >= 1.
  sim::Mutex mu_;
  sim::CondVar work_cv_;   // workers: calls available
  sim::CondVar reply_cv_;  // writer: replies available
  sim::CondVar slots_cv_;  // reader: in-flight slots free
  std::deque<QueuedCall> queue_ CRICKET_GUARDED_BY(mu_);
  // Encoded reply records awaiting the writer.
  std::vector<std::vector<std::uint8_t>> ready_ CRICKET_GUARDED_BY(mu_);
  std::vector<std::thread> workers_;  // touched by run() only
  // Decoded but not yet written.
  std::uint32_t in_flight_ CRICKET_GUARDED_BY(mu_) = 0;
  bool intake_done_ CRICKET_GUARDED_BY(mu_) = false;
  bool workers_done_ CRICKET_GUARDED_BY(mu_) = false;
  bool write_failed_ CRICKET_GUARDED_BY(mu_) = false;
};

}  // namespace

void serve_transport(const ServiceRegistry& registry, Transport& transport,
                     const ServeOptions& options) {
  Connection(registry, transport, options).run();
  // Half-close our write side so a client waiting on recv between replies
  // observes end-of-stream.
  try {
    transport.shutdown();
  } catch (const TransportError&) {
  }
}

TcpRpcServer::TcpRpcServer(const ServiceRegistry& registry,
                           std::unique_ptr<TcpListener> listener,
                           ServeOptions options)
    : registry_(&registry),
      listener_(std::move(listener)),
      options_(options) {
  accept_thread_ = std::thread([this] { accept_loop(); });
}

TcpRpcServer::~TcpRpcServer() { stop(); }

std::uint16_t TcpRpcServer::port() const noexcept { return listener_->port(); }

void TcpRpcServer::accept_loop() {
  for (;;) {
    auto conn = listener_->accept();
    if (!conn || stopping_.load()) return;
    sim::MutexLock lock(mu_);
    workers_.emplace_back(
        [this, c = std::shared_ptr<TcpTransport>(std::move(conn))] {
          serve_transport(*registry_, *c, options_);
        });
  }
}

void TcpRpcServer::stop() {
  if (stopping_.exchange(true)) return;
  listener_->close();
  if (accept_thread_.joinable()) accept_thread_.join();
  sim::MutexLock lock(mu_);
  for (auto& w : workers_)
    if (w.joinable()) w.join();
  workers_.clear();
}

}  // namespace cricket::rpc
