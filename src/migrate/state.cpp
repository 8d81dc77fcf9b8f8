#include "migrate/state.hpp"

#include "cricket/checkpoint.hpp"
#include "xdr/framed_blob.hpp"

namespace cricket::migrate {
namespace {

constexpr xdr::BlobFormat kFormat{.magic = {'M', 'I', 'G', 'R'},
                                  .version = 1,
                                  .checksum_since = 1,
                                  .noun = "migration image"};

// Hostile-length ceilings, all checked before the corresponding allocation.
constexpr std::uint32_t kMaxSessions = 1024;
constexpr std::uint32_t kMaxTableEntries = 1 << 16;
constexpr std::uint32_t kMaxCheckpointBytes = 1u << 30;
constexpr std::uint32_t kMaxDrcReplyBytes = 1u << 20;

void encode_tenant(xdr::Encoder& enc, const tenancy::TenantExport& t) {
  enc.put_string(t.spec.name);
  enc.put_u32(t.spec.weight);
  enc.put_u32(t.spec.priority);
  enc.put_u64(t.spec.quota.device_mem_bytes);
  enc.put_u32(t.spec.quota.max_outstanding_calls);
  enc.put_u64(t.spec.quota.bytes_per_sec);
  enc.put_u64(t.spec.quota.burst_bytes);
  enc.put_u32(t.spec.quota.max_sessions);
  enc.put_u64(t.bucket_tokens);
  enc.put_u64(t.mem_used_bytes);
  enc.put_u64(t.mem_peak_bytes);
  enc.put_u64(t.calls_admitted);
  enc.put_u64(t.calls_rejected);
  enc.put_u64(t.device_ns);
  enc.put_u64(t.sessions_opened);
  enc.put_u64(t.sessions_closed);
}

tenancy::TenantExport decode_tenant(xdr::Decoder& dec) {
  tenancy::TenantExport t;
  t.spec.name = dec.get_string(256);
  if (t.spec.name.empty())
    throw MigrationError("migration image names no tenant");
  t.spec.weight = dec.get_u32();
  t.spec.priority = dec.get_u32();
  t.spec.quota.device_mem_bytes = dec.get_u64();
  t.spec.quota.max_outstanding_calls = dec.get_u32();
  t.spec.quota.bytes_per_sec = dec.get_u64();
  t.spec.quota.burst_bytes = dec.get_u64();
  t.spec.quota.max_sessions = dec.get_u32();
  t.bucket_tokens = dec.get_u64();
  t.mem_used_bytes = dec.get_u64();
  t.mem_peak_bytes = dec.get_u64();
  t.calls_admitted = dec.get_u64();
  t.calls_rejected = dec.get_u64();
  t.device_ns = dec.get_u64();
  t.sessions_opened = dec.get_u64();
  t.sessions_closed = dec.get_u64();
  return t;
}

template <typename T>
void encode_handles(xdr::Encoder& enc, const std::vector<T>& ids) {
  enc.put_u32(static_cast<std::uint32_t>(ids.size()));
  for (const auto id : ids) enc.put_u64(static_cast<std::uint64_t>(id));
}

template <typename T>
std::vector<T> decode_handles(xdr::Decoder& dec) {
  const std::uint32_t n = dec.get_u32();
  if (n > kMaxTableEntries)
    throw MigrationError("migration image handle table too large");
  std::vector<T> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i)
    out.push_back(static_cast<T>(dec.get_u64()));
  return out;
}

}  // namespace

std::vector<std::uint8_t> encode_image(const MigrationImage& image) {
  xdr::Encoder enc = xdr::begin_blob(kFormat);
  encode_tenant(enc, image.tenant);
  enc.put_u32(static_cast<std::uint32_t>(image.sessions.size()));
  for (const auto& s : image.sessions) {
    enc.put_u64(s.session_id);
    enc.put_u64(s.client_id);
    // The device-state slice rides as a nested version-2 checkpoint blob:
    // same codec, same checksum, same version gate as on-disk checkpoints.
    enc.put_opaque(core::encode_checkpoint(s.state));
    enc.put_u32(static_cast<std::uint32_t>(s.allocations.size()));
    for (const auto& [ptr, bytes] : s.allocations) {
      enc.put_u64(ptr);
      enc.put_u64(bytes);
    }
    encode_handles(enc, s.modules);
    encode_handles(enc, s.streams);
    encode_handles(enc, s.events);
    // Content-cached modules: the hash is what lets a warm target
    // re-reference its own module cache instead of receiving the image
    // bytes again, `owner` marks the one session whose snapshot carries the
    // device record, and `proof` is the exporting tenant's possession proof
    // so a seeded (byte-less) target entry can keep verifying its probes.
    enc.put_u32(static_cast<std::uint32_t>(s.cached_modules.size()));
    for (const auto& cm : s.cached_modules) {
      enc.put_u64(cm.id);
      enc.put_u64(cm.hash);
      enc.put_u64(cm.bytes);
      enc.put_u32(cm.owner ? 1 : 0);
      enc.put_opaque_fixed(cm.proof);
    }
    enc.put_u32(static_cast<std::uint32_t>(s.drc.size()));
    for (const auto& e : s.drc) {
      enc.put_u64(e.client);
      enc.put_u32(e.xid);
      enc.put_opaque(e.reply);
    }
  }
  return xdr::seal_blob(enc);
}

MigrationImage decode_image(std::span<const std::uint8_t> bytes) {
  try {
    xdr::Decoder dec(
        xdr::open_blob<MigrationError, MigrationVersionError>(bytes, kFormat));
    MigrationImage image;
    image.tenant = decode_tenant(dec);
    const std::uint32_t ns = dec.get_u32();
    if (ns > kMaxSessions)
      throw MigrationError("migration image session count too large");
    image.sessions.reserve(ns);
    for (std::uint32_t i = 0; i < ns; ++i) {
      core::SessionExport s;
      s.session_id = dec.get_u64();
      s.client_id = dec.get_u64();
      s.state = core::decode_checkpoint(dec.get_opaque(kMaxCheckpointBytes));
      const std::uint32_t na = dec.get_u32();
      if (na > kMaxTableEntries)
        throw MigrationError("migration image allocation table too large");
      s.allocations.reserve(na);
      for (std::uint32_t a = 0; a < na; ++a) {
        const std::uint64_t ptr = dec.get_u64();
        s.allocations.emplace_back(ptr, dec.get_u64());
      }
      s.modules = decode_handles<cuda::ModuleId>(dec);
      s.streams = decode_handles<cuda::StreamId>(dec);
      s.events = decode_handles<cuda::EventId>(dec);
      const std::uint32_t nc = dec.get_u32();
      if (nc > kMaxTableEntries)
        throw MigrationError("migration image cached-module table too large");
      s.cached_modules.reserve(nc);
      for (std::uint32_t c = 0; c < nc; ++c) {
        core::SessionExport::CachedModule cm;
        cm.id = dec.get_u64();
        cm.hash = dec.get_u64();
        cm.bytes = dec.get_u64();
        cm.owner = dec.get_u32() != 0;
        dec.get_opaque_fixed(cm.proof);
        s.cached_modules.push_back(cm);
      }
      const std::uint32_t nd = dec.get_u32();
      if (nd > kMaxTableEntries)
        throw MigrationError("migration image DRC table too large");
      s.drc.reserve(nd);
      for (std::uint32_t d = 0; d < nd; ++d) {
        rpc::DrcExportEntry entry;
        entry.client = dec.get_u64();
        entry.xid = dec.get_u32();
        entry.reply = dec.get_opaque(kMaxDrcReplyBytes);
        s.drc.push_back(std::move(entry));
      }
      image.sessions.push_back(std::move(s));
    }
    dec.expect_exhausted();
    return image;
  } catch (const core::CheckpointVersionError& e) {
    // The nested device blob outruns this build: same upgrade-ordering
    // problem as a future image version, so surface it the same way.
    throw MigrationVersionError(e.what());
  } catch (const core::CheckpointError& e) {
    throw MigrationError(std::string("bad nested checkpoint: ") + e.what());
  } catch (const xdr::XdrError& e) {
    throw MigrationError(std::string("malformed migration image: ") +
                         e.what());
  }
}

}  // namespace cricket::migrate
