// Migration state image: everything one tenant carries between servers.
//
// The image bundles the tenant's quota/accounting export (token-bucket
// level, memory charge, counters), every live session's slice of device
// state (as a nested version-2 checkpoint blob, reusing the checkpoint
// codec's checksum and version gating), the per-session resource-ownership
// tables, and the duplicate-request-cache entries whose replies must keep
// suppressing re-execution after the move. Framed like a checkpoint: magic
// "MIGR", version word, XDR body, trailing FNV-64 checksum — so a corrupted
// transfer fails loudly and a future-format image is rejected with a
// distinct, actionable error.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "cricket/server.hpp"
#include "tenancy/session_manager.hpp"
#include "xdr/fnv.hpp"

namespace cricket::migrate {

class MigrationError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A structurally plausible image whose version is newer than this build
/// understands: the rolling upgrade is running in the wrong direction
/// (upgrade the target first). Distinct from corruption on purpose.
class MigrationVersionError : public MigrationError {
 public:
  using MigrationError::MigrationError;
};

struct MigrationImage {
  tenancy::TenantExport tenant;
  std::vector<core::SessionExport> sessions;
};

/// FNV-1a over `data`; also the transfer checksum mig_commit verifies.
using xdr::fnv64;

[[nodiscard]] std::vector<std::uint8_t> encode_image(
    const MigrationImage& image);

/// Throws MigrationVersionError for future versions, MigrationError for
/// anything malformed (bad magic, checksum mismatch, hostile lengths,
/// truncation, or a bad nested checkpoint blob).
[[nodiscard]] MigrationImage decode_image(std::span<const std::uint8_t> bytes);

}  // namespace cricket::migrate
