// C++ code generator for RPCL specifications.
//
// Plays both roles from the paper's pipeline (Fig. 4): what `rpcgen` does
// for the Cricket server in C, and what RPC-Lib's procedural macros do for
// the Rust client. From one .x file it emits a single header containing the
// XDR-serializable data types, the program/version/procedure constants, a
// typed client stub per version (a class template over the caller that puts
// calls on the wire, rpc::RpcClient by default), and an abstract service
// skeleton the server implements — so adding a procedure to the .x file
// makes it callable with no hand-written marshalling on either side.
#pragma once

#include <string>

#include "rpcl/ast.hpp"

namespace cricket::rpcl {

struct CodegenOptions {
  /// Namespace the generated code lives in (e.g. "cricket::proto").
  std::string ns = "cricket::proto";
  /// Name recorded in the header's provenance comment.
  std::string source_name = "<spec>";
  /// Wiretaint mode (--emit-taint): scalars marked `tainted` in the spec —
  /// directly or via a tainted typedef — are emitted as
  /// ::cricket::xdr::Untrusted<T> in generated arg structs and in the
  /// server skeleton (the decode side of the trust boundary), while the
  /// client stub keeps plain types. Also emits a `taint` namespace with
  /// default validators derived from the wire-size bounds tables.
  bool taint = false;
};

/// Generates the full header text. Throws ParseError on constructs the
/// generator cannot express (none for valid specs).
[[nodiscard]] std::string generate_header(const SpecFile& spec,
                                          const CodegenOptions& options);

}  // namespace cricket::rpcl
