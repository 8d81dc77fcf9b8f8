// FNV-1a 64, the tree's one non-cryptographic hash: the checkpoint and
// migration-image checksums, the duplicate-request cache's client identity
// and the tenant shard hash. It is not collision resistant, so anything a
// hostile peer could steer is keyed by SHA-256 instead (modcache).
#pragma once

#include <cstdint>
#include <span>

namespace cricket::xdr {

inline constexpr std::uint64_t kFnv64Basis = 0xCBF29CE484222325ull;

/// FNV-1a 64 over `data`, continuing from `h`: chain calls to hash several
/// pieces as one.
[[nodiscard]] constexpr std::uint64_t fnv64(
    std::span<const std::uint8_t> data,
    std::uint64_t h = kFnv64Basis) noexcept {
  for (const std::uint8_t byte : data) {
    h ^= byte;
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace cricket::xdr
