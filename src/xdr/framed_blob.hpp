// Framed blob: magic, version word, XDR body, trailing FNV-64 checksum of
// the body. On-disk checkpoints and migration images share this framing,
// so a bit-flipped file or transfer fails loudly instead of restoring
// garbage, and a blob from a newer build is told apart from corruption.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "xdr/fnv.hpp"
#include "xdr/xdr.hpp"

namespace cricket::xdr {

struct BlobFormat {
  std::array<std::uint8_t, 4> magic;
  /// The version this build writes, and the newest it reads.
  std::uint32_t version;
  /// The first version that carries the trailing checksum.
  std::uint32_t checksum_since;
  /// Names the blob in error messages ("checkpoint").
  const char* noun;
};

inline constexpr std::size_t kBlobHeaderBytes = 8;    // magic + version word
inline constexpr std::size_t kBlobChecksumBytes = 8;  // trailing FNV-64

/// Starts a blob of `format`'s version; encode the body into the result,
/// then seal_blob it.
[[nodiscard]] inline Encoder begin_blob(const BlobFormat& format) {
  Encoder enc;
  enc.put_opaque_fixed(format.magic);
  enc.put_u32(format.version);
  return enc;
}

/// Appends the checksum of everything after the header.
[[nodiscard]] inline std::vector<std::uint8_t> seal_blob(Encoder& enc) {
  enc.put_u64(fnv64(enc.bytes().subspan(kBlobHeaderBytes)));
  return enc.take();
}

/// Checks the frame and returns the body. Throws NewerError for a version
/// newer than `format.version`; Error for bad magic, version 0, a blob
/// truncated before its checksum or a checksum mismatch; XdrError for a
/// blob shorter than its header.
template <typename Error, typename NewerError>
[[nodiscard]] std::span<const std::uint8_t> open_blob(
    std::span<const std::uint8_t> bytes, const BlobFormat& format) {
  const std::string noun = format.noun;
  Decoder hdr(bytes);
  std::uint8_t magic[4];
  hdr.get_opaque_fixed(magic);
  if (std::memcmp(magic, format.magic.data(), 4) != 0)
    throw Error("bad " + noun + " magic");
  const std::uint32_t version = hdr.get_u32();
  if (version > format.version)
    throw NewerError(noun + " version " + std::to_string(version) +
                     " is newer than this build understands (max " +
                     std::to_string(format.version) + ")");
  if (version == 0) throw Error("unsupported " + noun + " version");

  std::span<const std::uint8_t> body = bytes.subspan(kBlobHeaderBytes);
  if (version < format.checksum_since) return body;
  if (body.size() < kBlobChecksumBytes)
    throw Error(noun + " truncated before checksum");
  body = body.first(body.size() - kBlobChecksumBytes);
  std::uint64_t want = 0;
  for (const std::uint8_t byte : bytes.last(kBlobChecksumBytes))
    want = (want << 8) | byte;
  if (fnv64(body) != want) throw Error(noun + " checksum mismatch");
  return body;
}

}  // namespace cricket::xdr
