#include "migrate/coordinator.hpp"

#include <algorithm>
#include <span>
#include <thread>
#include <utility>

#include "migrate/service.hpp"
#include "migrate/state.hpp"
#include "migrate_proto.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cricket::migrate {
namespace {

void count_result(const char* result) {
  obs::Registry::global()
      .counter("cricket_migrations_total", {{"result", result}},
               "Tenant migrations driven by this coordinator, by outcome")
      .inc();
}

enum class TicketState { kCommitted, kDiscarded, kUnknown };

/// Asks the target what became of a ticket whose commit outcome is in
/// doubt. mig_abort is the oracle: it discards an uncommitted ticket (any
/// non-kMigCommitted reply means the tenant did NOT move) and answers
/// kMigCommitted for a committed one. Only an unreachable target — after
/// every attempt — leaves the question open.
TicketState resolve_ticket(proto::MIGRATEVERSClient<>& stub,
                           std::uint64_t ticket, std::uint32_t attempts,
                           std::chrono::nanoseconds backoff) {
  for (std::uint32_t i = 0; i < attempts; ++i) {
    if (i != 0 && backoff.count() > 0) std::this_thread::sleep_for(backoff);
    try {
      return stub.mig_abort(ticket) == kMigCommitted ? TicketState::kCommitted
                                                     : TicketState::kDiscarded;
    } catch (const std::exception&) {
      // Target unreachable; back off and ask again.
    }
  }
  return TicketState::kUnknown;
}

}  // namespace

MigrationCoordinator::MigrationCoordinator(
    core::CricketServer& source, rpc::RpcClient& target,
    RedirectingConnector* redirect, RedirectingConnector::Factory target_factory,
    MigrationOptions options)
    : source_(&source),
      target_(&target),
      redirect_(redirect),
      target_factory_(std::move(target_factory)),
      options_(options) {}

MigrationReport MigrationCoordinator::migrate(const std::string& tenant_name) {
  MigrationReport report;
  tenancy::SessionManager* tenants = source_->tenants();
  if (tenants == nullptr) {
    report.error = "source server runs without multi-tenancy";
    count_result("aborted");
    return report;
  }
  const auto tenant = tenants->find(tenant_name);
  if (!tenant) {
    report.error = "unknown tenant: " + tenant_name;
    count_result("aborted");
    return report;
  }

  const auto abort_with = [&](MigrationPhase phase, std::string error) {
    // Roll back: unfreeze the tenant so the source keeps serving it as if
    // the migration never started. (No target state to undo — the commit
    // point was not reached, and the target discards uncommitted tickets.)
    tenants->end_drain(*tenant);
    report.phase = phase;
    report.error = std::move(error);
    count_result("aborted");
    return report;
  };
  const auto flip_and_report = [&] {
    obs::Span span(obs::Layer::kApp, "migrate.flip");
    if (redirect_ != nullptr && target_factory_)
      redirect_->set_target(target_factory_);
    // The tenant stays frozen on the source on purpose: every later call is
    // answered with the retryable kMigrating reply, and the client's
    // reconnect (now redirected) re-submits it to the target exactly once.
    report.phase = MigrationPhase::kFlip;
    report.committed = true;
    count_result("committed");
    return report;
  };
  const auto ambiguous_with = [&](std::uint64_t ticket, std::string error) {
    // The commit may have landed: the target could already own the tenant's
    // registration and merged device state, so unfreezing the source would
    // serve the tenant in two places at once. Keep it frozen — clients get
    // the retryable kMigrating reply — and remember the ticket so the next
    // migrate() call resumes by resolving it.
    unresolved_[tenant_name] = ticket;
    report.ambiguous = true;
    report.phase = MigrationPhase::kTransfer;
    report.error = std::move(error);
    count_result("ambiguous");
    return report;
  };

  obs::Span total_span(obs::Layer::kApp, "migrate.total");

  // A previous attempt ended with the commit outcome unknown; settle that
  // before anything else. Committed → the tenant already lives on the
  // target and the flip is the only remaining step. Discarded → the target
  // dropped everything, so the migration below restarts cleanly (the tenant
  // is still frozen from that attempt; begin_drain is idempotent).
  if (const auto it = unresolved_.find(tenant_name); it != unresolved_.end()) {
    proto::MIGRATEVERSClient<> stub(*target_);
    const TicketState state =
        resolve_ticket(stub, it->second, options_.resolve_attempts,
                       options_.resolve_backoff);
    if (state == TicketState::kUnknown)
      return ambiguous_with(it->second,
                            "commit outcome still unknown: target unreachable");
    unresolved_.erase(it);
    if (state == TicketState::kCommitted) return flip_and_report();
  }

  // ------------------------------- drain ---------------------------------
  {
    obs::Span span(obs::Layer::kApp, "migrate.drain");
    tenants->begin_drain(*tenant);
    if (!tenants->wait_quiesced(*tenant, options_.drain_timeout))
      return abort_with(MigrationPhase::kDrain,
                        "drain timed out with calls still in flight");
  }

  // ------------------------------ snapshot -------------------------------
  std::vector<std::uint8_t> blob;
  {
    obs::Span span(obs::Layer::kApp, "migrate.snapshot");
    try {
      MigrationImage image;
      const auto exported = tenants->export_tenant(*tenant);
      if (!exported)
        return abort_with(MigrationPhase::kSnapshot,
                          "tenant vanished during export");
      image.tenant = *exported;
      image.sessions = source_->export_tenant_sessions(*tenant);
      report.sessions = image.sessions.size();
      blob = encode_image(image);
    } catch (const std::exception& e) {
      return abort_with(MigrationPhase::kSnapshot, e.what());
    }
  }
  report.image_bytes = blob.size();

  // ------------------------------ transfer -------------------------------
  std::uint64_t ticket = 0;
  {
    obs::Span span(obs::Layer::kApp, "migrate.transfer");
    proto::MIGRATEVERSClient<> stub(*target_);
    const std::size_t chunk_bytes = std::clamp<std::size_t>(
        options_.chunk_bytes, 1,
        static_cast<std::size_t>(proto::MIG_MAX_CHUNK));
    // An error-code refusal mid-transfer leaves the ticket (and its buffered
    // bytes) open on the target; reap it so the slot frees immediately
    // instead of counting against max_pending_transfers forever.
    const auto abort_transfer = [&](std::string error) {
      if (ticket != 0) {
        try {
          (void)stub.mig_abort(ticket);
        } catch (const std::exception&) {
          // Best effort: the target reaps unclaimed tickets on its own
          // schedule if this never arrives.
        }
      }
      return abort_with(MigrationPhase::kTransfer, std::move(error));
    };
    try {
      proto::mig_begin_args begin;
      begin.tenant = tenant_name;
      begin.total_bytes = xdr::Untrusted<std::uint64_t>(blob.size());
      const auto opened = stub.mig_begin(begin);
      if (opened.err != kMigOk)
        return abort_transfer("target refused transfer (code " +
                              std::to_string(opened.err) + ")");
      ticket = opened.ticket;
      for (std::size_t offset = 0; offset < blob.size();
           offset += chunk_bytes) {
        proto::mig_chunk_args chunk;
        chunk.ticket = xdr::Untrusted<std::uint64_t>(ticket);
        chunk.offset = xdr::Untrusted<std::uint64_t>(offset);
        const std::size_t len = std::min(chunk_bytes, blob.size() - offset);
        chunk.data.assign(blob.begin() + static_cast<std::ptrdiff_t>(offset),
                          blob.begin() +
                              static_cast<std::ptrdiff_t>(offset + len));
        const std::int32_t err = stub.mig_chunk(chunk);
        if (err != kMigOk)
          return abort_transfer("target refused chunk (code " +
                                std::to_string(err) + ")");
        ++report.chunks;
      }
      proto::mig_commit_args commit;
      commit.ticket = xdr::Untrusted<std::uint64_t>(ticket);
      commit.checksum = fnv64(blob);
      const std::int32_t err = stub.mig_commit(commit);
      if (err != kMigOk)
        return abort_transfer("target refused commit (code " +
                              std::to_string(err) + ")");
    } catch (const std::exception& e) {
      // The control channel died somewhere between begin and commit. The
      // commit may or may not have landed; mig_abort disambiguates — it
      // discards an uncommitted ticket but answers kMigCommitted for a
      // committed one, in which case the tenant lives on the target and the
      // only correct continuation is to flip. Keep asking until the target
      // answers: guessing "not committed" while the commit actually landed
      // would unfreeze the tenant on the source with its state already
      // registered on the target — a split brain.
      TicketState state = TicketState::kDiscarded;
      if (ticket != 0)
        state = resolve_ticket(stub, ticket, options_.resolve_attempts,
                               options_.resolve_backoff);
      if (state == TicketState::kUnknown)
        return ambiguous_with(
            ticket, std::string(e.what()) + "; commit outcome unknown");
      if (state == TicketState::kDiscarded)
        return abort_with(MigrationPhase::kTransfer, e.what());
      // kCommitted: fall through to the flip.
    }
  }

  // -------------------------------- flip ---------------------------------
  return flip_and_report();
}

std::unique_ptr<rpc::RpcClient> make_migrate_client(
    std::unique_ptr<rpc::Transport> transport, rpc::ClientOptions options) {
  return std::make_unique<rpc::RpcClient>(std::move(transport),
                                          proto::MIGRATE_PROG,
                                          proto::MIGRATEVERS_VERS, options);
}

}  // namespace cricket::migrate
