// RFC 5531 message model: call and reply bodies, authentication, status
// codes, and their XDR wire representation.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "xdr/xdr.hpp"

namespace cricket::rpc {

constexpr std::uint32_t kRpcVersion = 2;

enum class MsgType : std::int32_t { kCall = 0, kReply = 1 };
enum class ReplyStat : std::int32_t { kAccepted = 0, kDenied = 1 };
enum class AcceptStat : std::int32_t {
  kSuccess = 0,
  kProgUnavail = 1,
  kProgMismatch = 2,
  kProcUnavail = 3,
  kGarbageArgs = 4,
  kSystemErr = 5,
  /// Cricket extension: the call was well-formed but the tenant it belongs
  /// to is over quota. Carries a QuotaReason word where results would go.
  /// Admission control answers with this status *before* argument decode,
  /// so the connection survives and the client can retry after backoff.
  kQuotaExceeded = 6,
  /// Cricket extension: the tenant's sessions are frozen because they are
  /// being live-migrated to another server. Like kQuotaExceeded this is
  /// answered at admission before argument decode — the call has NOT
  /// executed, so it is always safe to re-send (same xid) regardless of
  /// idempotency. Clients should back off and retry through their reconnect
  /// factory: once the migration's redirect flips, the retry lands on the
  /// target server, where the migrated duplicate-request cache preserves
  /// at-most-once for calls that did execute before the freeze.
  kMigrating = 7,
};

/// Reason word carried by a kQuotaExceeded reply.
enum class QuotaReason : std::uint32_t {
  kUnspecified = 0,
  kRateLimited = 1,       // bytes/sec token bucket empty
  kOutstandingCalls = 2,  // too many decoded-but-unreplied calls
  kDeviceMemory = 3,      // device-memory byte quota exhausted
  kSessionLimit = 4,      // too many concurrent sessions
};

[[nodiscard]] const char* quota_reason_name(QuotaReason reason) noexcept;
enum class RejectStat : std::int32_t { kRpcMismatch = 0, kAuthError = 1 };
enum class AuthStat : std::int32_t {
  kOk = 0,
  kBadCred = 1,
  kRejectedCred = 2,
  kBadVerf = 3,
  kRejectedVerf = 4,
  kTooWeak = 5,
  kInvalidResp = 6,
  kFailed = 7,
};
enum class AuthFlavor : std::int32_t { kNone = 0, kSys = 1, kShort = 2 };

/// Opaque authenticator: flavor + up to 400 bytes of body.
struct OpaqueAuth {
  AuthFlavor flavor = AuthFlavor::kNone;
  std::vector<std::uint8_t> body;

  static constexpr std::uint32_t kMaxBody = 400;
};

/// AUTH_SYS credentials (RFC 5531 appendix A).
struct AuthSysParms {
  std::uint32_t stamp = 0;
  std::string machinename;
  std::uint32_t uid = 0;
  std::uint32_t gid = 0;
  std::vector<std::uint32_t> gids;  // max 16

  [[nodiscard]] OpaqueAuth to_opaque() const;
  [[nodiscard]] static AuthSysParms from_opaque(const OpaqueAuth& auth);
};

/// An RPC call as parsed off the wire (args still undecoded).
struct CallMsg {
  std::uint32_t xid = 0;
  std::uint32_t prog = 0;
  std::uint32_t vers = 0;
  std::uint32_t proc = 0;
  OpaqueAuth cred;
  OpaqueAuth verf;
  /// XDR-encoded procedure arguments. A view, never a copy: into the record
  /// decode_call parsed, or into the caller's argument buffer when sending.
  /// Whoever fills it keeps the bytes alive for as long as the CallMsg is
  /// used.
  std::span<const std::uint8_t> args;
};

/// Mismatch bounds reported with kProgMismatch / kRpcMismatch.
struct MismatchInfo {
  std::uint32_t low = 0;
  std::uint32_t high = 0;
};

/// An RPC reply as parsed off the wire (results still undecoded).
struct ReplyMsg {
  std::uint32_t xid = 0;
  ReplyStat stat = ReplyStat::kAccepted;
  // accepted:
  OpaqueAuth verf;
  AcceptStat accept_stat = AcceptStat::kSuccess;
  std::optional<MismatchInfo> mismatch;  // prog/rpc mismatch bounds
  QuotaReason quota_reason = QuotaReason::kUnspecified;  // with kQuotaExceeded
  /// XDR-encoded results on success. A view, like CallMsg::args: into the
  /// record decode_reply parsed, or into the server's results buffer.
  std::span<const std::uint8_t> results;
  // denied:
  RejectStat reject_stat = RejectStat::kRpcMismatch;
  AuthStat auth_stat = AuthStat::kOk;
};

/// Serializes a call message's header — everything before the args.
void encode_call_header(const CallMsg& call, xdr::Encoder& enc);
/// Serializes a call message (header + pre-encoded args) into `out`,
/// replacing its contents but keeping its capacity.
void encode_call(const CallMsg& call, std::vector<std::uint8_t>& out);
/// Serializes a reply message (header + pre-encoded results) into `out`,
/// replacing its contents but keeping its capacity.
void encode_reply(const ReplyMsg& reply, std::vector<std::uint8_t>& out);
/// Same, into a fresh vector.
[[nodiscard]] std::vector<std::uint8_t> encode_call(const CallMsg& call);
[[nodiscard]] std::vector<std::uint8_t> encode_reply(const ReplyMsg& reply);

/// Parses a record as a call; throws XdrError/RpcFormatError on garbage.
/// The result's args view `record`.
[[nodiscard]] CallMsg decode_call(std::span<const std::uint8_t> record);
/// Parses a record as a reply. Strict: unknown reply_stat / accept_stat /
/// reject_stat / auth_stat values and trailing bytes all throw. The
/// result's results view `record`.
[[nodiscard]] ReplyMsg decode_reply(std::span<const std::uint8_t> record);
/// A temporary record would leave those views dangling.
CallMsg decode_call(std::vector<std::uint8_t>&&) = delete;
ReplyMsg decode_reply(std::vector<std::uint8_t>&&) = delete;

/// Allocation-free view of a call header — just enough to route the record
/// (bounds pre-flight) without copying auth bodies or args.
struct CallHeader {
  std::uint32_t xid = 0;
  std::uint32_t prog = 0;
  std::uint32_t vers = 0;
  std::uint32_t proc = 0;
  std::size_t body_offset = 0;  // offset of the encoded args in the record
};

/// Parses only the call header, performing no allocation. Throws
/// XdrError/RpcFormatError in exactly the cases decode_call would reject
/// the header, so a record that passes the peek still decodes.
[[nodiscard]] CallHeader peek_call_header(std::span<const std::uint8_t> record);

/// Parses only the credential of a call record (one ≤400-byte copy, no args
/// materialisation). Admission control authenticates from this before the
/// argument decode is allowed to run. Throws like peek_call_header.
[[nodiscard]] OpaqueAuth peek_call_credential(
    std::span<const std::uint8_t> record);

/// Thrown when a record is not a structurally valid RPC message.
class RpcFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

void xdr_encode(xdr::Encoder& enc, const OpaqueAuth& auth);
void xdr_decode(xdr::Decoder& dec, OpaqueAuth& auth);

}  // namespace cricket::rpc
