#include "rpc/rpc_msg.hpp"

namespace cricket::rpc {

using xdr::Decoder;
using xdr::Encoder;

const char* quota_reason_name(QuotaReason reason) noexcept {
  switch (reason) {
    case QuotaReason::kUnspecified: return "unspecified";
    case QuotaReason::kRateLimited: return "rate_limited";
    case QuotaReason::kOutstandingCalls: return "outstanding_calls";
    case QuotaReason::kDeviceMemory: return "device_memory";
    case QuotaReason::kSessionLimit: return "session_limit";
  }
  return "unknown";
}

void xdr_encode(Encoder& enc, const OpaqueAuth& auth) {
  enc.put_enum(auth.flavor);
  enc.put_opaque(auth.body);
}

void xdr_decode(Decoder& dec, OpaqueAuth& auth) {
  auth.flavor = dec.get_enum<AuthFlavor>();
  auth.body = dec.get_opaque(OpaqueAuth::kMaxBody);
}

OpaqueAuth AuthSysParms::to_opaque() const {
  Encoder enc;
  enc.put_u32(stamp);
  enc.put_string(machinename);
  enc.put_u32(uid);
  enc.put_u32(gid);
  enc.put_u32(static_cast<std::uint32_t>(gids.size()));
  for (const auto g : gids) enc.put_u32(g);
  OpaqueAuth auth;
  auth.flavor = AuthFlavor::kSys;
  auth.body = enc.take();
  return auth;
}

AuthSysParms AuthSysParms::from_opaque(const OpaqueAuth& auth) {
  if (auth.flavor != AuthFlavor::kSys)
    throw RpcFormatError("not an AUTH_SYS credential");
  Decoder dec(auth.body);
  AuthSysParms p;
  p.stamp = dec.get_u32();
  p.machinename = dec.get_string(255);
  p.uid = dec.get_u32();
  p.gid = dec.get_u32();
  const std::uint32_t n = dec.get_u32();
  if (n > 16) throw RpcFormatError("AUTH_SYS gids list too long");
  p.gids.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) p.gids.push_back(dec.get_u32());
  dec.expect_exhausted();
  return p;
}

namespace {

/// Room for an RPC header with AUTH_SYS-sized credentials, reserved up
/// front so the body append below does not reallocate.
constexpr std::size_t kHeaderReserve = 64;

}  // namespace

void encode_call_header(const CallMsg& call, Encoder& enc) {
  enc.put_u32(call.xid);
  enc.put_enum(MsgType::kCall);
  enc.put_u32(kRpcVersion);
  enc.put_u32(call.prog);
  enc.put_u32(call.vers);
  enc.put_u32(call.proc);
  xdr_encode(enc, call.cred);
  xdr_encode(enc, call.verf);
}

void encode_call(const CallMsg& call, std::vector<std::uint8_t>& out) {
  out.clear();
  out.reserve(kHeaderReserve + call.args.size());
  Encoder enc(std::move(out));
  encode_call_header(call, enc);
  enc.put_raw(call.args);
  out = enc.take();
}

std::vector<std::uint8_t> encode_call(const CallMsg& call) {
  std::vector<std::uint8_t> out;
  encode_call(call, out);
  return out;
}

void encode_reply(const ReplyMsg& reply, std::vector<std::uint8_t>& out) {
  out.clear();
  out.reserve(kHeaderReserve + reply.results.size());
  Encoder enc(std::move(out));
  enc.put_u32(reply.xid);
  enc.put_enum(MsgType::kReply);
  enc.put_enum(reply.stat);
  if (reply.stat == ReplyStat::kAccepted) {
    xdr_encode(enc, reply.verf);
    enc.put_enum(reply.accept_stat);
    switch (reply.accept_stat) {
      case AcceptStat::kSuccess:
        break;  // results appended below
      case AcceptStat::kProgMismatch: {
        const MismatchInfo mi = reply.mismatch.value_or(MismatchInfo{});
        enc.put_u32(mi.low);
        enc.put_u32(mi.high);
        break;
      }
      case AcceptStat::kQuotaExceeded:
        enc.put_u32(static_cast<std::uint32_t>(reply.quota_reason));
        break;
      default:
        break;  // void (includes kMigrating)
    }
  } else {
    enc.put_enum(reply.reject_stat);
    if (reply.reject_stat == RejectStat::kRpcMismatch) {
      const MismatchInfo mi = reply.mismatch.value_or(
          MismatchInfo{kRpcVersion, kRpcVersion});
      enc.put_u32(mi.low);
      enc.put_u32(mi.high);
    } else {
      enc.put_enum(reply.auth_stat);
    }
  }
  if (reply.stat == ReplyStat::kAccepted &&
      reply.accept_stat == AcceptStat::kSuccess) {
    enc.put_raw(reply.results);
  }
  out = enc.take();
}

std::vector<std::uint8_t> encode_reply(const ReplyMsg& reply) {
  std::vector<std::uint8_t> out;
  encode_reply(reply, out);
  return out;
}

CallHeader peek_call_header(std::span<const std::uint8_t> record) {
  Decoder dec(record);
  CallHeader h;
  h.xid = dec.get_u32();
  const auto mtype = dec.get_enum<MsgType>();
  if (mtype != MsgType::kCall) throw RpcFormatError("expected CALL message");
  const std::uint32_t rpcvers = dec.get_u32();
  if (rpcvers != kRpcVersion) throw RpcFormatError("unsupported RPC version");
  h.prog = dec.get_u32();
  h.vers = dec.get_u32();
  h.proc = dec.get_u32();
  // Skip cred and verf without materialising the bodies; same length caps
  // as xdr_decode(Decoder&, OpaqueAuth&).
  for (int i = 0; i < 2; ++i) {
    (void)dec.get_enum<AuthFlavor>();
    dec.skip_opaque(OpaqueAuth::kMaxBody);
  }
  h.body_offset = dec.position();
  return h;
}

OpaqueAuth peek_call_credential(std::span<const std::uint8_t> record) {
  Decoder dec(record);
  (void)dec.get_u32();  // xid
  const auto mtype = dec.get_enum<MsgType>();
  if (mtype != MsgType::kCall) throw RpcFormatError("expected CALL message");
  const std::uint32_t rpcvers = dec.get_u32();
  if (rpcvers != kRpcVersion) throw RpcFormatError("unsupported RPC version");
  for (int i = 0; i < 3; ++i) (void)dec.get_u32();  // prog, vers, proc
  OpaqueAuth cred;
  xdr_decode(dec, cred);
  return cred;
}

CallMsg decode_call(std::span<const std::uint8_t> record) {
  Decoder dec(record);
  CallMsg call;
  call.xid = dec.get_u32();
  const auto mtype = dec.get_enum<MsgType>();
  if (mtype != MsgType::kCall) throw RpcFormatError("expected CALL message");
  const std::uint32_t rpcvers = dec.get_u32();
  if (rpcvers != kRpcVersion) throw RpcFormatError("unsupported RPC version");
  call.prog = dec.get_u32();
  call.vers = dec.get_u32();
  call.proc = dec.get_u32();
  xdr_decode(dec, call.cred);
  xdr_decode(dec, call.verf);
  call.args = record.subspan(dec.position());
  return call;
}

ReplyMsg decode_reply(std::span<const std::uint8_t> record) {
  Decoder dec(record);
  ReplyMsg reply;
  reply.xid = dec.get_u32();
  const auto mtype = dec.get_enum<MsgType>();
  if (mtype != MsgType::kReply) throw RpcFormatError("expected REPLY message");
  reply.stat = dec.get_enum<ReplyStat>();
  if (reply.stat == ReplyStat::kAccepted) {
    xdr_decode(dec, reply.verf);
    reply.accept_stat = dec.get_enum<AcceptStat>();
    switch (reply.accept_stat) {
      case AcceptStat::kSuccess:
        reply.results = record.subspan(dec.position());
        break;
      case AcceptStat::kProgMismatch: {
        MismatchInfo mi;
        mi.low = dec.get_u32();
        mi.high = dec.get_u32();
        reply.mismatch = mi;
        dec.expect_exhausted();
        break;
      }
      case AcceptStat::kProgUnavail:
      case AcceptStat::kProcUnavail:
      case AcceptStat::kGarbageArgs:
      case AcceptStat::kSystemErr:
      case AcceptStat::kMigrating:
        dec.expect_exhausted();
        break;
      case AcceptStat::kQuotaExceeded: {
        const std::uint32_t reason = dec.get_u32();
        if (reason > static_cast<std::uint32_t>(QuotaReason::kSessionLimit))
          throw RpcFormatError("invalid quota_reason");
        reply.quota_reason = static_cast<QuotaReason>(reason);
        dec.expect_exhausted();
        break;
      }
      default:
        // An out-of-range accept_stat must not be returned looking like a
        // structured reply whose untouched fields happen to read kSuccess.
        throw RpcFormatError("invalid accept_stat");
    }
  } else if (reply.stat == ReplyStat::kDenied) {
    reply.reject_stat = dec.get_enum<RejectStat>();
    if (reply.reject_stat == RejectStat::kRpcMismatch) {
      MismatchInfo mi;
      mi.low = dec.get_u32();
      mi.high = dec.get_u32();
      reply.mismatch = mi;
    } else if (reply.reject_stat == RejectStat::kAuthError) {
      const std::int32_t astat = dec.get_i32();
      if (astat < static_cast<std::int32_t>(AuthStat::kOk) ||
          astat > static_cast<std::int32_t>(AuthStat::kFailed))
        throw RpcFormatError("invalid auth_stat");
      reply.auth_stat = static_cast<AuthStat>(astat);
    } else {
      throw RpcFormatError("invalid reject_stat");
    }
    dec.expect_exhausted();
  } else {
    throw RpcFormatError("invalid reply_stat");
  }
  return reply;
}

}  // namespace cricket::rpc
