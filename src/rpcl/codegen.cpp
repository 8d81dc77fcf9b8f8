#include "rpcl/codegen.hpp"

#include <algorithm>
#include <sstream>

#include "rpcl/bounds.hpp"
#include "rpcl/lexer.hpp"

namespace cricket::rpcl {
namespace {

std::string builtin_cpp(Builtin b) {
  switch (b) {
    case Builtin::kInt: return "std::int32_t";
    case Builtin::kUInt: return "std::uint32_t";
    case Builtin::kHyper: return "std::int64_t";
    case Builtin::kUHyper: return "std::uint64_t";
    case Builtin::kFloat: return "float";
    case Builtin::kDouble: return "double";
    case Builtin::kBool: return "bool";
    case Builtin::kVoid: return "void";
    case Builtin::kString: return "std::string";
    case Builtin::kOpaque: return "std::uint8_t";  // element type
  }
  return "void";
}

/// C++ type for a TypeRef, applying array/optional decorations.
std::string cpp_type(const TypeRef& t) {
  std::string base = std::holds_alternative<Builtin>(t.base)
                         ? builtin_cpp(std::get<Builtin>(t.base))
                         : std::get<std::string>(t.base);
  const bool is_opaque = std::holds_alternative<Builtin>(t.base) &&
                         std::get<Builtin>(t.base) == Builtin::kOpaque;
  const bool is_string = std::holds_alternative<Builtin>(t.base) &&
                         std::get<Builtin>(t.base) == Builtin::kString;
  switch (t.decoration) {
    case TypeRef::Decoration::kNone:
      return base;
    case TypeRef::Decoration::kOptional:
      return "std::optional<" + base + ">";
    case TypeRef::Decoration::kFixedArray:
      return "std::array<" + base + ", " + std::to_string(*t.bound) + ">";
    case TypeRef::Decoration::kVariableArray:
      if (is_string) return "std::string";  // string<N> stays std::string
      if (is_opaque) return "std::vector<std::uint8_t>";
      return "std::vector<" + base + ">";
  }
  return base;
}

bool is_void(const TypeRef& t) { return t.is_void(); }

/// Whether a type carries the wiretaint mark, directly or through a chain
/// of tainted typedefs ("typedef tainted unsigned hyper ptr_t;" taints
/// every undecorated use of ptr_t).
bool carries_taint(const SpecFile& spec, const TypeRef& t, int depth = 0) {
  if (t.tainted) return true;
  if (depth > 8 || !std::holds_alternative<std::string>(t.base)) return false;
  const TypedefDef* td = spec.find_typedef(std::get<std::string>(t.base));
  return td != nullptr && carries_taint(spec, td->type, depth + 1);
}

/// Whether codegen wraps this type in Untrusted<T> on the decode side.
/// Only undecorated scalars wrap (sema RPCL016 enforces the shape).
bool wraps_untrusted(const SpecFile& spec, const TypeRef& t, bool taint_mode) {
  return taint_mode && t.decoration == TypeRef::Decoration::kNone &&
         carries_taint(spec, t);
}

/// C++ type on the server/decode side: tainted scalars become Untrusted<T>
/// so the compiler enumerates every unchecked use. The client stub always
/// uses cpp_type() — the encode side holds trusted values and the wire
/// format is identical either way.
std::string server_cpp_type(const SpecFile& spec, const TypeRef& t,
                            bool taint_mode) {
  if (wraps_untrusted(spec, t, taint_mode))
    return "::cricket::xdr::Untrusted<" + cpp_type(t) + ">";
  return cpp_type(t);
}

/// A top-level variable-length opaque procedure argument (`opaque<N>`
/// directly in the argument list, not through a typedef or a struct): the
/// client stub takes it as a span of the caller's bytes and the skeleton
/// receives a view into the received record, so a payload argument is
/// never copied into a vector on either side.
bool is_borrowed_opaque(const TypeRef& t) {
  return t.decoration == TypeRef::Decoration::kVariableArray &&
         std::holds_alternative<Builtin>(t.base) &&
         std::get<Builtin>(t.base) == Builtin::kOpaque;
}

constexpr const char* kOpaqueView = "std::span<const std::uint8_t>";

/// Client-stub parameter declaration for argument `i`.
std::string stub_param(const TypeRef& t, std::size_t i) {
  const std::string name = " a" + std::to_string(i);
  if (is_borrowed_opaque(t)) return kOpaqueView + name;
  return "const " + cpp_type(t) + "&" + name;
}

/// Skeleton-side C++ type of a procedure argument.
std::string server_arg_type(const SpecFile& spec, const TypeRef& t,
                            bool taint_mode) {
  if (is_borrowed_opaque(t)) return kOpaqueView;
  return server_cpp_type(spec, t, taint_mode);
}

void emit_struct(std::ostringstream& out, const StructDef& s,
                 const SpecFile& spec, bool taint_mode) {
  out << "struct " << s.name << " {\n";
  for (const auto& f : s.fields)
    out << "  " << server_cpp_type(spec, f.type, taint_mode) << " " << f.name
        << "{};\n";
  out << "\n  bool operator==(const " << s.name << "&) const = default;\n";
  out << "};\n\n";

  out << "inline void xdr_encode(::cricket::xdr::Encoder& enc, const "
      << s.name << "& v) {\n";
  for (const auto& f : s.fields)
    out << "  xdr_encode(enc, v." << f.name << ");\n";
  out << "}\n\n";
  out << "inline void xdr_decode(::cricket::xdr::Decoder& dec, " << s.name
      << "& v) {\n";
  for (const auto& f : s.fields) {
    out << "  xdr_decode(dec, v." << f.name << ");\n";
    // Enforce the bounds the .x file declares (string<N>, T name<N>): a
    // hostile peer must not be able to smuggle oversized fields past the
    // declared interface.
    if (f.type.decoration == TypeRef::Decoration::kVariableArray &&
        f.type.bound.has_value()) {
      out << "  if (v." << f.name << ".size() > " << *f.type.bound
          << "u)\n    throw ::cricket::xdr::XdrError(\"field '" << f.name
          << "' exceeds declared bound " << *f.type.bound << "\");\n";
    }
  }
  out << "}\n\n";
}

void emit_enum(std::ostringstream& out, const EnumDef& e) {
  out << "enum class " << e.name << " : std::int32_t {\n";
  for (const auto& [name, value] : e.values)
    out << "  " << name << " = " << value << ",\n";
  out << "};\n\n";
}

void emit_union(std::ostringstream& out, const UnionDef& u,
                const SpecFile& spec) {
  // XDR unions become a struct holding the discriminant plus one optional
  // member per non-void arm; encode/decode switch on the discriminant.
  out << "struct " << u.name << " {\n";
  out << "  " << cpp_type(u.discriminant_type) << " "
      << u.discriminant_name << "{};\n";
  for (const auto& arm : u.arms)
    if (arm.field)
      out << "  std::optional<" << cpp_type(arm.field->type) << "> "
          << arm.field->name << ";\n";
  out << "};\n\n";

  const bool disc_is_enum =
      std::holds_alternative<std::string>(u.discriminant_type.base) &&
      spec.find_enum(std::get<std::string>(u.discriminant_type.base)) !=
          nullptr;
  const std::string disc_cast =
      disc_is_enum ? "static_cast<std::int64_t>(v." + u.discriminant_name + ")"
                   : "static_cast<std::int64_t>(v." + u.discriminant_name +
                         ")";

  out << "inline void xdr_encode(::cricket::xdr::Encoder& enc, const "
      << u.name << "& v) {\n";
  out << "  xdr_encode(enc, v." << u.discriminant_name << ");\n";
  out << "  switch (" << disc_cast << ") {\n";
  const UnionArm* default_arm = nullptr;
  for (const auto& arm : u.arms) {
    if (arm.is_default) {
      default_arm = &arm;
      continue;
    }
    for (const auto c : arm.cases) out << "    case " << c << ":\n";
    if (arm.field)
      out << "      xdr_encode(enc, v." << arm.field->name << ".value());\n";
    out << "      break;\n";
  }
  out << "    default:\n";
  if (default_arm && default_arm->field)
    out << "      xdr_encode(enc, v." << default_arm->field->name
        << ".value());\n";
  out << "      break;\n  }\n}\n\n";

  out << "inline void xdr_decode(::cricket::xdr::Decoder& dec, " << u.name
      << "& v) {\n";
  out << "  xdr_decode(dec, v." << u.discriminant_name << ");\n";
  out << "  switch (" << disc_cast << ") {\n";
  for (const auto& arm : u.arms) {
    if (arm.is_default) continue;
    for (const auto c : arm.cases) out << "    case " << c << ":\n";
    if (arm.field) {
      out << "      v." << arm.field->name << ".emplace();\n";
      out << "      xdr_decode(dec, v." << arm.field->name << ".value());\n";
    }
    out << "      break;\n";
  }
  out << "    default:\n";
  if (default_arm && default_arm->field) {
    out << "      v." << default_arm->field->name << ".emplace();\n";
    out << "      xdr_decode(dec, v." << default_arm->field->name
        << ".value());\n";
  }
  out << "      break;\n  }\n}\n\n";
}

std::string upper(std::string s) {
  for (auto& c : s) c = static_cast<char>(std::toupper(c));
  return s;
}

void emit_program(std::ostringstream& out, const ProgramDef& prog,
                  const SpecFile& spec, bool taint_mode) {
  out << "inline constexpr std::uint32_t " << upper(prog.name)
      << "_PROG = " << prog.number << "u;\n\n";
  for (const auto& ver : prog.versions) {
    out << "inline constexpr std::uint32_t " << upper(ver.name)
        << "_VERS = " << ver.number << "u;\n";
    for (const auto& proc : ver.procs)
      out << "inline constexpr std::uint32_t " << upper(proc.name)
          << "_PROC = " << proc.number << "u;\n";
    out << "\n";

    // ---- typed client stub (RPC-Lib's generated client) ----
    out << "/// Typed client stub for " << prog.name << " v" << ver.number
        << ". One method per procedure in the .x file.\n";
    out << "class " << ver.name << "Client {\n public:\n";
    out << "  explicit " << ver.name
        << "Client(::cricket::rpc::RpcClient& client) : client_(&client) "
           "{}\n\n";
    for (const auto& proc : ver.procs) {
      const std::string res =
          is_void(proc.result) ? "void" : cpp_type(proc.result);
      out << "  " << res << " " << proc.name << "(";
      for (std::size_t i = 0; i < proc.args.size(); ++i) {
        if (i) out << ", ";
        out << stub_param(proc.args[i], i);
      }
      out << ") {\n";
      if (is_void(proc.result)) {
        out << "    client_->call_void(" << upper(proc.name) << "_PROC";
      } else {
        out << "    return client_->call<" << res << ">("
            << upper(proc.name) << "_PROC";
      }
      for (std::size_t i = 0; i < proc.args.size(); ++i) out << ", a" << i;
      out << ");\n  }\n\n";
    }
    out << "  [[nodiscard]] ::cricket::rpc::RpcClient& rpc() noexcept { "
           "return *client_; }\n\n";
    out << " private:\n  ::cricket::rpc::RpcClient* client_;\n};\n\n";

    // ---- abstract service skeleton (rpcgen's generated server) ----
    out << "/// Server skeleton for " << prog.name << " v" << ver.number
        << ": implement the pure virtuals and call register_into().\n"
        << "/// Opaque arguments arrive as views into the received record,\n"
        << "/// valid until the handler returns; copy what must outlive it.\n";
    out << "class " << ver.name << "Service {\n public:\n";
    out << "  virtual ~" << ver.name << "Service() = default;\n\n";
    for (const auto& proc : ver.procs) {
      const std::string res =
          is_void(proc.result) ? "void" : cpp_type(proc.result);
      out << "  virtual " << res << " " << proc.name << "(";
      for (std::size_t i = 0; i < proc.args.size(); ++i) {
        if (i) out << ", ";
        out << server_arg_type(spec, proc.args[i], taint_mode) << " a" << i;
      }
      out << ") = 0;\n";
    }
    out << "\n  /// Binds every procedure into an RPC dispatch registry.\n";
    out << "  void register_into(::cricket::rpc::ServiceRegistry& registry) "
           "{\n";
    for (const auto& proc : ver.procs) {
      const std::string res =
          is_void(proc.result) ? "void" : cpp_type(proc.result);
      out << "    registry.register_typed<" << res;
      for (const auto& arg : proc.args)
        out << ", " << server_arg_type(spec, arg, taint_mode);
      out << ">(\n        " << upper(prog.name) << "_PROG, "
          << upper(ver.name) << "_VERS, " << upper(proc.name) << "_PROC,\n";
      out << "        [this](";
      for (std::size_t i = 0; i < proc.args.size(); ++i) {
        if (i) out << ", ";
        out << server_arg_type(spec, proc.args[i], taint_mode) << " a" << i;
      }
      out << ") { return this->" << proc.name << "(";
      for (std::size_t i = 0; i < proc.args.size(); ++i) {
        if (i) out << ", ";
        out << "std::move(a" << i << ")";
      }
      out << "); });\n";
    }
    out << "  }\n};\n\n";
  }
}

/// Emits `namespace taint` with default validators whose bounds come from
/// the wire-size interval analysis (the PR 4 bounds tables): no conforming
/// message can describe more bytes than the largest legal payload, so any
/// wire length above it is hostile by construction.
void emit_taint_namespace(std::ostringstream& out, const SpecFile& spec) {
  const BoundsResult bounds = compute_bounds(spec);
  std::uint64_t max_args = 0;
  bool any_bounded = false;
  for (const auto& p : bounds.procs) {
    if (!p.args.bounded) continue;
    any_bounded = true;
    max_args = std::max(max_args, p.args.max);
  }
  const std::uint64_t arg_bytes =
      any_bounded ? max_args : UINT64_MAX;
  const std::uint64_t payload =
      bounds.max_payload != 0 ? bounds.max_payload : arg_bytes;

  out << "namespace taint {\n\n";
  out << "// Derived from the rpclgen wire-size bounds tables for this "
         "spec.\n";
  out << "inline constexpr std::uint64_t kMaxArgWireBytes = " << arg_bytes
      << "ull;\n";
  out << "inline constexpr std::uint64_t kMaxPayloadBytes = " << payload
      << "ull;\n\n";
  out << "/// Default validator for wire-declared byte lengths and counts:\n"
         "/// a value larger than the biggest legal payload is hostile\n"
         "/// regardless of which field it arrived in. Handlers with a\n"
         "/// tighter semantic bound should validate against that instead.\n"
         "template <typename T>\n"
         "[[nodiscard]] inline T validate_length(::cricket::xdr::Untrusted<T> "
         "v,\n"
         "                                       const char* what) {\n"
         "  constexpr std::uint64_t kTypeMax =\n"
         "      static_cast<std::uint64_t>(std::numeric_limits<T>::max());\n"
         "  return v.validate(\n"
         "      static_cast<T>(kMaxPayloadBytes < kTypeMax ? kMaxPayloadBytes\n"
         "                                                 : kTypeMax),\n"
         "      what);\n"
         "}\n\n";
  for (const auto& s : spec.structs) {
    for (const auto& f : s.fields) {
      if (!wraps_untrusted(spec, f.type, /*taint_mode=*/true)) continue;
      out << "[[nodiscard]] inline " << cpp_type(f.type) << " validate_"
          << s.name << "_" << f.name << "(const " << s.name << "& v) {\n"
          << "  return validate_length<" << cpp_type(f.type) << ">(v."
          << f.name << ", \"" << s.name << "." << f.name << "\");\n"
          << "}\n\n";
    }
  }
  out << "}  // namespace taint\n\n";
}

}  // namespace

std::string generate_header(const SpecFile& spec,
                            const CodegenOptions& options) {
  std::ostringstream out;
  out << "// GENERATED by rpclgen from " << options.source_name
      << " — do not edit.\n";
  out << "// Equivalent to the output of rpcgen (server) and RPC-Lib's\n";
  out << "// procedural macros (client) for the same specification.\n";
  out << "#pragma once\n\n";
  out << "#include <array>\n#include <cstdint>\n";
  if (options.taint) out << "#include <limits>\n";
  out << "#include <optional>\n"
         "#include <span>\n#include <string>\n#include <utility>\n"
         "#include <vector>\n\n";
  out << "#include \"rpc/client.hpp\"\n#include \"rpc/server.hpp\"\n";
  if (options.taint) out << "#include \"xdr/taint.hpp\"\n";
  out << "#include \"xdr/xdr.hpp\"\n\n";
  out << "namespace " << options.ns << " {\n\n";

  for (const auto& c : spec.consts)
    out << "inline constexpr std::int64_t " << c.name << " = " << c.value
        << ";\n";
  if (!spec.consts.empty()) out << "\n";

  for (const auto& e : spec.enums) emit_enum(out, e);
  for (const auto& t : spec.typedefs)
    out << "using " << t.name << " = " << cpp_type(t.type) << ";\n";
  if (!spec.typedefs.empty()) out << "\n";
  for (const auto& s : spec.structs) emit_struct(out, s, spec, options.taint);
  for (const auto& u : spec.unions) emit_union(out, u, spec);
  if (options.taint) emit_taint_namespace(out, spec);
  for (const auto& p : spec.programs)
    emit_program(out, p, spec, options.taint);

  out << "}  // namespace " << options.ns << "\n";
  return out.str();
}

}  // namespace cricket::rpcl
