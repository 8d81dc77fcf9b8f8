#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "rpcl/bounds.hpp"
#include "rpcl/codegen.hpp"
#include "rpcl/lexer.hpp"
#include "rpcl/parser.hpp"
#include "rpcl/sema.hpp"

namespace cricket::rpcl {
namespace {

// ---------------------------------- lexer ----------------------------------

TEST(Lexer, BasicTokens) {
  const auto toks = tokenize("struct foo { int bar; };");
  ASSERT_GE(toks.size(), 8u);
  EXPECT_EQ(toks[0].kind, TokKind::kIdentifier);
  EXPECT_EQ(toks[0].text, "struct");
  EXPECT_EQ(toks[2].kind, TokKind::kLBrace);
  EXPECT_EQ(toks.back().kind, TokKind::kEof);
}

TEST(Lexer, Numbers) {
  const auto toks = tokenize("17 -5 0x20 010");
  EXPECT_EQ(toks[0].number, 17);
  EXPECT_EQ(toks[1].number, -5);
  EXPECT_EQ(toks[2].number, 0x20);
  EXPECT_EQ(toks[3].number, 8);  // octal
}

TEST(Lexer, CommentsAreStripped) {
  const auto toks = tokenize(R"(
    /* block
       comment */
    const A = 1; // trailing
    % #include <passthrough.h>
    const B = 2;
  )");
  int idents = 0;
  for (const auto& t : toks)
    if (t.kind == TokKind::kIdentifier) ++idents;
  EXPECT_EQ(idents, 4);  // const A const B
}

TEST(Lexer, UnterminatedCommentThrows) {
  EXPECT_THROW((void)tokenize("/* oops"), ParseError);
}

TEST(Lexer, BadCharacterThrows) {
  EXPECT_THROW((void)tokenize("const $ = 1;"), ParseError);
}

TEST(Lexer, TracksLineNumbers) {
  const auto toks = tokenize("a\nb\n  c");
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[1].line, 2);
  EXPECT_EQ(toks[2].line, 3);
}

TEST(Lexer, TracksColumns) {
  const auto toks = tokenize("  foo bar\n    baz");
  EXPECT_EQ(toks[0].col, 3);
  EXPECT_EQ(toks[1].col, 7);
  EXPECT_EQ(toks[2].line, 2);
  EXPECT_EQ(toks[2].col, 5);
}

TEST(Lexer, ColumnsResetAfterBlockComment) {
  const auto toks = tokenize("/* one\n   two */ foo");
  EXPECT_EQ(toks[0].line, 2);
  EXPECT_EQ(toks[0].col, 11);
}

// --------------------------------- parser ----------------------------------

constexpr const char* kSmallSpec = R"(
const MAX_NAME = 64;

enum op_kind {
  OP_READ = 0,
  OP_WRITE = 1
};

typedef unsigned hyper dev_ptr;

struct request {
  op_kind kind;
  dev_ptr ptr;
  opaque payload<>;
  string label<MAX_NAME>;
  int dims[3];
  *unsigned int maybe_flags;
};

union result switch (int err) {
  case 0:
    opaque data<>;
  default:
    void;
};

program TESTPROG {
  version TESTVERS {
    void null(void) = 0;
    request echo(request) = 1;
    unsigned hyper add(unsigned int, unsigned int) = 2;
  } = 1;
} = 0x20000099;
)";

TEST(Parser, ParsesFullSpec) {
  const SpecFile spec = parse_spec(kSmallSpec);
  EXPECT_EQ(spec.consts.size(), 1u);
  EXPECT_EQ(spec.consts[0].value, 64);
  ASSERT_EQ(spec.enums.size(), 1u);
  EXPECT_EQ(spec.enums[0].values[1].first, "OP_WRITE");
  ASSERT_EQ(spec.typedefs.size(), 1u);
  ASSERT_EQ(spec.structs.size(), 1u);
  ASSERT_EQ(spec.unions.size(), 1u);
  ASSERT_EQ(spec.programs.size(), 1u);
  EXPECT_EQ(spec.programs[0].number, 0x20000099u);
  ASSERT_EQ(spec.programs[0].versions.size(), 1u);
  EXPECT_EQ(spec.programs[0].versions[0].procs.size(), 3u);
}

TEST(Parser, StructFieldDecorations) {
  const SpecFile spec = parse_spec(kSmallSpec);
  const StructDef* req = spec.find_struct("request");
  ASSERT_NE(req, nullptr);
  ASSERT_EQ(req->fields.size(), 6u);
  EXPECT_EQ(req->fields[2].type.decoration,
            TypeRef::Decoration::kVariableArray);
  EXPECT_EQ(req->fields[3].type.bound, 64u);  // via const MAX_NAME
  EXPECT_EQ(req->fields[4].type.decoration, TypeRef::Decoration::kFixedArray);
  EXPECT_EQ(req->fields[4].type.bound, 3u);
  EXPECT_EQ(req->fields[5].type.decoration, TypeRef::Decoration::kOptional);
}

TEST(Parser, ProcedureSignatures) {
  const SpecFile spec = parse_spec(kSmallSpec);
  const auto& procs = spec.programs[0].versions[0].procs;
  EXPECT_TRUE(procs[0].result.is_void());
  EXPECT_TRUE(procs[0].args.empty());
  EXPECT_EQ(procs[1].args.size(), 1u);
  EXPECT_EQ(procs[2].args.size(), 2u);
  EXPECT_EQ(procs[2].number, 2u);
}

TEST(Parser, EnumValuesUsableAsConstants) {
  const SpecFile spec = parse_spec(R"(
    enum e { A = 5 };
    struct s { int xs[A]; };
  )");
  EXPECT_EQ(spec.structs[0].fields[0].type.bound, 5u);
}

TEST(Parser, UndefinedTypeRejected) {
  EXPECT_THROW((void)parse_spec("struct s { nosuchtype x; };"), ParseError);
}

TEST(Parser, DuplicateTypeNameRejected) {
  EXPECT_THROW((void)parse_spec("struct s { int a; }; struct s { int b; };"),
               ParseError);
}

TEST(Parser, DuplicateProcNumberRejected) {
  EXPECT_THROW((void)parse_spec(R"(
    program P { version V {
      void a(void) = 1;
      void b(void) = 1;
    } = 1; } = 99;
  )"),
               ParseError);
}

TEST(Parser, SyntaxErrorHasLineNumber) {
  try {
    (void)parse_spec("const A = ;\n");
    FAIL();
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 1);
  }
}

TEST(Parser, UnknownConstantRejected) {
  EXPECT_THROW((void)parse_spec("struct s { int xs[UNDEFINED]; };"),
               ParseError);
}

// --------------------------------- codegen ---------------------------------

TEST(Codegen, EmitsExpectedDeclarations) {
  const SpecFile spec = parse_spec(kSmallSpec);
  const std::string header =
      generate_header(spec, {.ns = "testgen", .source_name = "small.x"});

  // Types.
  EXPECT_NE(header.find("struct request {"), std::string::npos);
  EXPECT_NE(header.find("enum class op_kind : std::int32_t"),
            std::string::npos);
  EXPECT_NE(header.find("using dev_ptr = std::uint64_t;"), std::string::npos);
  EXPECT_NE(header.find("std::array<std::int32_t, 3> dims{};"),
            std::string::npos);
  EXPECT_NE(header.find("std::optional<std::uint32_t> maybe_flags{};"),
            std::string::npos);
  // Serializers.
  EXPECT_NE(header.find("inline void xdr_encode(::cricket::xdr::Encoder& "
                        "enc, const request& v)"),
            std::string::npos);
  // Program constants.
  EXPECT_NE(header.find("TESTPROG_PROG = 536871065u"), std::string::npos);
  EXPECT_NE(header.find("ECHO_PROC = 1u"), std::string::npos);
  // Client stub and service skeleton.
  EXPECT_NE(header.find("class TESTVERSClient {"), std::string::npos);
  EXPECT_NE(header.find("class TESTVERSService {"), std::string::npos);
  EXPECT_NE(header.find("virtual std::uint64_t add(std::uint32_t a0, "
                        "std::uint32_t a1) = 0;"),
            std::string::npos);
  EXPECT_NE(header.find("void register_into"), std::string::npos);
}

TEST(Codegen, UnionBecomesTaggedStruct) {
  const SpecFile spec = parse_spec(kSmallSpec);
  const std::string header = generate_header(spec, {.ns = "t"});
  EXPECT_NE(header.find("struct result {"), std::string::npos);
  EXPECT_NE(header.find("std::int32_t err{};"), std::string::npos);
  EXPECT_NE(header.find("std::optional<std::vector<std::uint8_t>> data;"),
            std::string::npos);
}

TEST(Codegen, HeaderIsSelfDescribing) {
  const SpecFile spec = parse_spec("const X = 1;");
  const std::string header =
      generate_header(spec, {.ns = "t", .source_name = "origin.x"});
  EXPECT_NE(header.find("GENERATED by rpclgen from origin.x"),
            std::string::npos);
  EXPECT_NE(header.find("#pragma once"), std::string::npos);
}

}  // namespace
}  // namespace cricket::rpcl

// ----------------------- declared-bounds enforcement ------------------------

namespace cricket::rpcl {
namespace {

// ----------------------------------- sema ----------------------------------

/// One seeded-bad spec per lint rule: the analyzer must report exactly this
/// rule at exactly this line (1-based; every spec string starts with '\n',
/// so the first content line is line 2).
struct BadSpecCase {
  const char* rule;
  Severity severity;
  int line;
  const char* spec;
};

const BadSpecCase kBadSpecs[] = {
    {"RPCL001", Severity::kError, 3, R"(
program A { version V { void p(void) = 1; } = 1; } = 5;
program B { version W { void q(void) = 1; } = 1; } = 5;
)"},
    {"RPCL002", Severity::kError, 4, R"(
program A {
  version V1 { void p(void) = 1; } = 1;
  version V2 { void q(void) = 1; } = 1;
} = 5;
)"},
    {"RPCL003", Severity::kError, 4, R"(
program P { version V {
  void a(void) = 1;
  void b(void) = 1;
} = 1; } = 9;
)"},
    {"RPCL004", Severity::kError, 3, R"(
struct s { int a; };
struct s { int b; };
)"},
    {"RPCL004", Severity::kError, 3, R"(
const LIMIT = 1;
const LIMIT = 2;
)"},
    {"RPCL005", Severity::kError, 2, R"(
struct opaque { int a; };
)"},
    {"RPCL006", Severity::kWarning, 2, R"(
struct s { opaque data<>; };
)"},
    {"RPCL007", Severity::kError, 2, R"(
struct s { opaque data<2000000000>; };
)"},
    {"RPCL008", Severity::kError, 2, R"(
struct s { nosuchtype x; };
)"},
    {"RPCL009", Severity::kWarning, 2, R"(
struct never_referenced { int a; };
)"},
    {"RPCL010", Severity::kWarning, 4, R"(
program P { version V {
  void a(void) = 5;
  void b(void) = 3;
} = 1; } = 9;
)"},
    // wiretaint: 'tainted' only fits wire-decoded argument-side integer
    // scalars. Everything else is RPCL016.
    {"RPCL016", Severity::kError, 2, R"(
struct s { tainted float x; };
)"},
    {"RPCL016", Severity::kError, 2, R"(
struct s { tainted opaque d<8>; };
)"},
    {"RPCL016", Severity::kError, 2, R"(
program P { version V { tainted int f(void) = 1; } = 1; } = 9;
)"},
    {"RPCL016", Severity::kError, 2, R"(
union u switch (tainted int d) { case 0: void; default: void; };
)"},
};

TEST(Sema, EachRuleFiresWithRuleIdAndLine) {
  for (const auto& c : kBadSpecs) {
    SCOPED_TRACE(std::string(c.rule) + " @ line " + std::to_string(c.line));
    const SpecFile spec = parse_spec_unchecked(c.spec);
    const SemaResult result = analyze(spec);
    const Diagnostic* hit = nullptr;
    for (const auto& d : result.diagnostics)
      if (d.rule == c.rule) {
        hit = &d;
        break;
      }
    ASSERT_NE(hit, nullptr) << "rule did not fire";
    EXPECT_EQ(hit->severity, c.severity);
    EXPECT_EQ(hit->loc.line, c.line) << hit->message;
    EXPECT_GT(hit->loc.col, 0);
  }
}

TEST(Sema, CleanSpecHasNoDiagnostics) {
  const SpecFile spec = parse_spec_unchecked(R"(
struct point { int x; int y; };
program P { version V { point get(void) = 1; } = 1; } = 9;
)");
  const SemaResult result = analyze(spec);
  EXPECT_TRUE(result.diagnostics.empty())
      << (result.diagnostics.empty()
              ? ""
              : format_diagnostic(result.diagnostics[0], "spec"));
}

TEST(Sema, MaxBoundOptionIsRespected) {
  const SpecFile spec = parse_spec_unchecked("struct s { opaque d<32>; };");
  EXPECT_EQ(analyze(spec, {.max_bound = 16}).error_count(), 1u);
  EXPECT_EQ(analyze(spec, {.max_bound = 32}).error_count(), 0u);
}

TEST(Sema, BoundBudgetCountsElementWireSize) {
  // 8 hypers = 64 wire bytes: over a 32-byte budget even though the element
  // count alone is under it.
  const SpecFile spec =
      parse_spec_unchecked("struct s { unsigned hyper d<8>; };");
  EXPECT_EQ(analyze(spec, {.max_bound = 32}).error_count(), 1u);
  EXPECT_EQ(analyze(spec, {.max_bound = 64}).error_count(), 0u);
}

TEST(Sema, WarningsAsErrorsFlipsOk) {
  const SpecFile spec =
      parse_spec_unchecked("struct s { opaque data<>; };\n"
                           "program P { version V { int u(s) = 1; } = 1; }"
                           " = 9;");
  const SemaResult result = analyze(spec);
  EXPECT_EQ(result.error_count(), 0u);
  EXPECT_GE(result.warning_count(), 1u);
  EXPECT_TRUE(result.ok({}));
  EXPECT_FALSE(result.ok({.warnings_as_errors = true}));
}

TEST(Sema, FormatDiagnosticIsCompilerStyle) {
  const Diagnostic d{Severity::kWarning, "RPCL006", "unbounded opaque",
                     {12, 7}};
  EXPECT_EQ(format_diagnostic(d, "spec.x"),
            "spec.x:12:7: warning: unbounded opaque [RPCL006]");
}

TEST(Sema, ParseSpecStillThrowsOnFirstError) {
  // parse_spec's historical contract: error diagnostics throw ParseError
  // carrying the offending line; warnings do not throw (kSmallSpec has an
  // unbounded opaque and must keep parsing — see ParsesFullSpec above).
  try {
    (void)parse_spec("\nstruct s { nosuchtype x; };");
    FAIL();
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find("RPCL008"), std::string::npos);
  }
}

TEST(Sema, CommittedCricketSpecLintsClean) {
  // The golden check mirrored by the build: rpclgen --lint --Werror must
  // accept src/cricket/specs/cricket.x with zero errors AND zero warnings.
  std::ifstream in(CRICKET_SPEC_X);
  ASSERT_TRUE(in.is_open()) << "cannot open " << CRICKET_SPEC_X;
  std::ostringstream source;
  source << in.rdbuf();
  const SpecFile spec = parse_spec_unchecked(source.str());
  const SemaResult result = analyze(spec);
  for (const auto& d : result.diagnostics)
    ADD_FAILURE() << format_diagnostic(d, "cricket.x");
  EXPECT_TRUE(result.ok({.warnings_as_errors = true}));
}

TEST(Codegen, EmitsBoundsChecksForDeclaredLimits) {
  const SpecFile spec = parse_spec(R"(
    struct bounded {
      string label<32>;
      opaque blob<1024>;
      int values<8>;
      opaque unlimited<>;
    };
  )");
  const std::string header = generate_header(spec, {.ns = "t"});
  EXPECT_NE(header.find("v.label.size() > 32u"), std::string::npos);
  EXPECT_NE(header.find("v.blob.size() > 1024u"), std::string::npos);
  EXPECT_NE(header.find("v.values.size() > 8u"), std::string::npos);
  // Unbounded fields get no check.
  EXPECT_EQ(header.find("v.unlimited.size() >"), std::string::npos);
  EXPECT_NE(header.find("exceeds declared bound"), std::string::npos);
}

// ---------------------------------- bounds ---------------------------------

const SizeInterval* find_type(const BoundsResult& r, const std::string& name) {
  for (const auto& t : r.types)
    if (t.name == name) return &t.size;
  return nullptr;
}

const ProcBoundsInfo* find_proc(const BoundsResult& r,
                                const std::string& name) {
  for (const auto& p : r.procs)
    if (p.name == name) return &p;
  return nullptr;
}

TEST(Bounds, IntervalLatticePropagation) {
  // Every lattice rule at once: struct = sum, fixed opaque padded as a
  // unit, variable opaque/string = count + padded bound, optional =
  // discriminant + value, fixed array = count x element, variable array =
  // count + bound x element max, union = discriminant + [min/max over arms].
  const SpecFile spec = parse_spec_unchecked(R"(
struct s {
  int a;
  unsigned hyper b;
  opaque fixed[5];
  opaque var<9>;
  string str<7>;
  *int opt;
  int arr[3];
  float farr<2>;
};
union u switch (int t) {
  case 0: void;
  case 1: s val;
};
program P { version V { u f(s, int) = 1; } = 1; } = 9;
)");
  const BoundsResult r = compute_bounds(spec);
  EXPECT_TRUE(r.ok());
  const auto* s = find_type(r, "s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(*s, (SizeInterval{48, 80, true}));
  const auto* u = find_type(r, "u");
  ASSERT_NE(u, nullptr);
  EXPECT_EQ(*u, (SizeInterval{4, 84, true}));
  const auto* f = find_proc(r, "f");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->args, (SizeInterval{52, 84, true}));
  EXPECT_EQ(f->result, (SizeInterval{4, 84, true}));
  EXPECT_EQ(r.budget, 0u);  // no CRICKET_MAX_PAYLOAD, no --proc-budget
}

TEST(Bounds, GoldenIntervalsForCricketSpec) {
  std::ifstream in(CRICKET_SPEC_X);
  ASSERT_TRUE(in.is_open()) << "cannot open " << CRICKET_SPEC_X;
  std::ostringstream source;
  source << in.rdbuf();
  const SpecFile spec = parse_spec_unchecked(source.str());
  const BoundsResult r = compute_bounds(spec);
  for (const auto& d : r.diagnostics)
    ADD_FAILURE() << format_diagnostic(d, "cricket.x");
  EXPECT_TRUE(r.ok({.warnings_as_errors = true}));

  constexpr std::uint64_t kPayload = 1073741824;  // CRICKET_MAX_PAYLOAD
  EXPECT_EQ(r.max_payload, kPayload);
  EXPECT_EQ(r.budget, kPayload + 64 * 1024);

  EXPECT_EQ(*find_type(r, "rpc_dim3"), (SizeInterval{12, 12, true}));
  EXPECT_EQ(*find_type(r, "dev_props_result"), (SizeInterval{28, 284, true}));
  EXPECT_EQ(*find_type(r, "data_result"),
            (SizeInterval{8, 8 + kPayload, true}));

  const auto* count = find_proc(r, "rpc_get_device_count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->args, (SizeInterval{0, 0, true}));
  EXPECT_EQ(count->result, (SizeInterval{8, 8, true}));

  const auto* h2d = find_proc(r, "rpc_memcpy_h2d");
  ASSERT_NE(h2d, nullptr);
  EXPECT_EQ(h2d->args, (SizeInterval{12, 12 + kPayload, true}));
  EXPECT_EQ(h2d->result, (SizeInterval{4, 4, true}));

  const auto* launch = find_proc(r, "rpc_launch_kernel");
  ASSERT_NE(launch, nullptr);
  EXPECT_EQ(launch->args.min, 48u);
  EXPECT_EQ(launch->args.max, 48 + kPayload);

  // Every procedure is within the budget — the property the generated
  // static_asserts pin at compile time.
  for (const auto& p : r.procs) {
    EXPECT_TRUE(p.args.bounded && p.args.max <= r.budget) << p.name;
    EXPECT_TRUE(p.result.bounded && p.result.max <= r.budget) << p.name;
  }
}

/// Seeded-bad specs for the bounds rules, mirroring kBadSpecs: the pass
/// must report exactly this rule at exactly this line.
const BadSpecCase kBadBoundsSpecs[] = {
    // args unbounded transitively (through a named struct)
    {"RPCL011", Severity::kError, 3, R"(
struct s { opaque data<>; };
program P { version V { void u(s) = 1; } = 1; } = 9;
)"},
    // result unbounded directly
    {"RPCL011", Severity::kError, 2, R"(
program P { version V { string r(void) = 1; } = 1; } = 9;
)"},
    // bounded product overflows the 32-bit wire length
    {"RPCL012", Severity::kError, 2, R"(
struct big { unsigned hyper d<600000000>; };
program P { version V { void u(big) = 1; } = 1; } = 9;
)"},
    // one union arm dominates the worst case
    {"RPCL013", Severity::kWarning, 2, R"(
union u switch (int tag) {
  case 0: opaque blob<1000000>;
  case 1: int small;
};
program P { version V { void f(u) = 1; } = 1; } = 9;
)"},
    // self-recursion through an optional
    {"RPCL014", Severity::kError, 2, R"(
struct node { int v; *node next; };
program P { version V { void f(node) = 1; } = 1; } = 9;
)"},
    // mutual recursion (reported at the closing back-reference)
    {"RPCL014", Severity::kError, 3, R"(
struct a { b x; };
struct b { a y; };
program P { version V { void f(a) = 1; } = 1; } = 9;
)"},
    // auto budget: CRICKET_MAX_PAYLOAD + 64 KiB allowance, exceeded
    {"RPCL015", Severity::kError, 4, R"(
const CRICKET_MAX_PAYLOAD = 1024;
struct s { opaque d<66600>; };
program P { version V { void f(s) = 1; } = 1; } = 9;
)"},
};

TEST(Bounds, EachRuleFiresWithRuleIdAndLine) {
  for (const auto& c : kBadBoundsSpecs) {
    SCOPED_TRACE(std::string(c.rule) + " @ line " + std::to_string(c.line));
    const SpecFile spec = parse_spec_unchecked(c.spec);
    const BoundsResult result = compute_bounds(spec);
    const Diagnostic* hit = nullptr;
    for (const auto& d : result.diagnostics)
      if (d.rule == c.rule) {
        hit = &d;
        break;
      }
    ASSERT_NE(hit, nullptr) << "rule did not fire";
    EXPECT_EQ(hit->severity, c.severity);
    EXPECT_EQ(hit->loc.line, c.line) << hit->message;
    EXPECT_FALSE(result.ok({.warnings_as_errors = true}));
  }
}

TEST(Bounds, SaturatedArithmeticIsReportedNotWrapped) {
  // a.max ~ 4e9 (u32-clean), b.max ~ 1.6e19 (overflows u32), c.max would be
  // ~6.4e19 > UINT64_MAX: the computation must saturate and say so instead
  // of wrapping around to a small "certified" bound.
  const SpecFile spec = parse_spec_unchecked(R"(
struct a { opaque d<4000000000>; };
struct b { a v[4000000000]; };
struct c { b w[4]; };
program P { version V { void f(c) = 1; } = 1; } = 9;
)");
  const BoundsResult r = compute_bounds(spec);
  EXPECT_FALSE(r.ok());
  bool saturated = false;
  for (const auto& d : r.diagnostics) {
    EXPECT_EQ(d.rule, "RPCL012");
    if (d.message.find("saturates") != std::string::npos) saturated = true;
  }
  EXPECT_TRUE(saturated);
}

TEST(Bounds, ExplicitProcBudgetOverridesAuto) {
  const SpecFile spec = parse_spec_unchecked(R"(
struct s { opaque d<2048>; };
program P { version V { void f(s) = 1; } = 1; } = 9;
)");
  EXPECT_TRUE(compute_bounds(spec).ok());  // no budget at all
  const BoundsResult tight = compute_bounds(spec, {.proc_budget = 1024});
  EXPECT_EQ(tight.budget, 1024u);
  ASSERT_EQ(tight.error_count(), 1u);
  EXPECT_EQ(tight.diagnostics[0].rule, "RPCL015");
  EXPECT_TRUE(compute_bounds(spec, {.proc_budget = 4096}).ok());
}

TEST(Bounds, UnusedUnboundedTypeIsTotalButNotAnError) {
  // RPCL011 is a per-procedure property: an unbounded type no procedure
  // reaches stays legal, and the emitted table is total (sentinel max).
  const SpecFile spec = parse_spec_unchecked(R"(
struct scratch { opaque data<>; };
program P { version V { int f(int) = 1; } = 1; } = 9;
)");
  const BoundsResult r = compute_bounds(spec);
  EXPECT_TRUE(r.ok());
  const auto* scratch = find_type(r, "scratch");
  ASSERT_NE(scratch, nullptr);
  EXPECT_FALSE(scratch->bounded);
  EXPECT_EQ(scratch->min, 4u);
  const std::string header =
      generate_bounds_header(spec, r, {.ns = "t", .source_name = "t.x"});
  EXPECT_NE(header.find("::cricket::rpc::kUnboundedWireSize"),
            std::string::npos);
}

TEST(Bounds, GeneratedHeaderHasTablesBudgetAndAsserts) {
  const SpecFile spec = parse_spec_unchecked(R"(
const CRICKET_MAX_PAYLOAD = 4096;
struct s { opaque d<512>; };
program P { version V { s f(s) = 1; } = 1; } = 9;
)");
  const BoundsResult r = compute_bounds(spec);
  ASSERT_TRUE(r.ok());
  const std::string header =
      generate_bounds_header(spec, r, {.ns = "t::proto", .source_name = "t.x"});
  EXPECT_NE(header.find("namespace t::proto::bounds {"), std::string::npos);
  EXPECT_NE(header.find("kMaxPayload = 4096ull"), std::string::npos);
  EXPECT_NE(header.find("kProcBudget = " + std::to_string(4096 + 65536)),
            std::string::npos);
  EXPECT_NE(header.find("TypeWireBounds kTypeBounds[]"), std::string::npos);
  EXPECT_NE(header.find("ProcWireBounds kProcBounds[]"), std::string::npos);
  EXPECT_NE(header.find("{\"s\", 4ull, 516ull}"), std::string::npos);
  EXPECT_NE(header.find("\"f\"},"), std::string::npos);
  EXPECT_NE(
      header.find("static_assert(kProcBounds[0].args_max <= kProcBudget"),
      std::string::npos);
  EXPECT_NE(
      header.find("static_assert(kProcBounds[0].result_max <= kProcBudget"),
      std::string::npos);
}

TEST(Bounds, NoBudgetMeansNoAsserts) {
  const SpecFile spec = parse_spec_unchecked(
      "program P { version V { int f(int) = 1; } = 1; } = 9;");
  const BoundsResult r = compute_bounds(spec);
  ASSERT_TRUE(r.ok());
  const std::string header =
      generate_bounds_header(spec, r, {.ns = "t", .source_name = "t.x"});
  EXPECT_EQ(header.find("static_assert("), std::string::npos);
  EXPECT_EQ(header.find("kProcBudget"), std::string::npos);
}


// --------------------------------- wiretaint --------------------------------

TEST(Parser, TaintedAttributeIsCapturedOnFieldsArgsAndTypedefs) {
  const SpecFile spec = parse_spec(R"(
typedef tainted unsigned hyper handle_t;
struct req { tainted unsigned hyper len; unsigned hyper untainted; };
program P { version V {
  int f(tainted unsigned int, handle_t) = 1;
} = 1; } = 9;
)");
  EXPECT_TRUE(spec.typedefs.at(0).type.tainted);
  EXPECT_TRUE(spec.structs.at(0).fields.at(0).type.tainted);
  EXPECT_FALSE(spec.structs.at(0).fields.at(1).type.tainted);
  const auto& proc = spec.programs.at(0).versions.at(0).procs.at(0);
  EXPECT_TRUE(proc.args.at(0).tainted);
  // The second arg is a typedef reference: the *use* is untainted, the
  // taint lives on the typedef and is resolved at codegen time.
  EXPECT_FALSE(proc.args.at(1).tainted);
  EXPECT_FALSE(proc.result.tainted);
}

TEST(Sema, TaintedThroughTypedefChainToIntegerScalarIsClean) {
  const SpecFile spec = parse_spec_unchecked(R"(
typedef unsigned hyper bytes_t;
typedef bytes_t len_t;
struct req { tainted len_t n; };
program P { version V { int f(req) = 1; } = 1; } = 9;
)");
  const SemaResult result = analyze(spec);
  for (const auto& d : result.diagnostics)
    EXPECT_NE(d.rule, "RPCL016") << format_diagnostic(d, "spec");
}

const char* const kTaintSpec = R"(
typedef tainted unsigned hyper handle_t;
struct req {
  tainted unsigned hyper len;
  tainted int dim;
  unsigned hyper plain;
  opaque data<64>;
};
program P { version V {
  int f(req) = 1;
  int g(tainted unsigned hyper, handle_t, string<16>) = 2;
} = 1; } = 0x21000001;
)";

TEST(Codegen, TaintModeWrapsDecodedScalarsServerSideOnly) {
  const SpecFile spec = parse_spec(kTaintSpec);
  const std::string header =
      generate_header(spec, {.ns = "t", .taint = true});
  // Struct fields: annotated scalars wrap, everything else stays plain.
  EXPECT_NE(header.find(
                "::cricket::xdr::Untrusted<std::uint64_t> len{};"),
            std::string::npos);
  EXPECT_NE(header.find("::cricket::xdr::Untrusted<std::int32_t> dim{};"),
            std::string::npos);
  EXPECT_NE(header.find("std::uint64_t plain{};"), std::string::npos);
  // Skeleton virtuals take Untrusted for tainted scalar args, including
  // taint applied through the typedef.
  EXPECT_NE(header.find("virtual std::int32_t g("
                        "::cricket::xdr::Untrusted<std::uint64_t> a0, "
                        "::cricket::xdr::Untrusted<handle_t> a1, "
                        "std::string a2) = 0;"),
            std::string::npos);
  // The client stub is the trusted side: it must stay plain. Slice off the
  // client-stub class and assert no Untrusted appears inside it.
  const auto stub_pos = header.find("class VClient");
  ASSERT_NE(stub_pos, std::string::npos);
  const auto stub_end = header.find("\n};", stub_pos);
  const std::string stub = header.substr(stub_pos, stub_end - stub_pos);
  EXPECT_EQ(stub.find("Untrusted"), std::string::npos) << stub;
  // The taint namespace publishes the bounds-derived ceilings and a
  // per-field validator for every wrapped struct field.
  EXPECT_NE(header.find("namespace taint {"), std::string::npos);
  EXPECT_NE(header.find("kMaxPayloadBytes"), std::string::npos);
  EXPECT_NE(header.find("validate_req_len"), std::string::npos);
  EXPECT_NE(header.find("validate_req_dim"), std::string::npos);
  EXPECT_EQ(header.find("validate_req_plain"), std::string::npos);
}

TEST(Codegen, WithoutTaintModeAnnotationsAreInert) {
  const SpecFile spec = parse_spec(kTaintSpec);
  const std::string header = generate_header(spec, {.ns = "t"});
  EXPECT_EQ(header.find("Untrusted"), std::string::npos);
  EXPECT_EQ(header.find("namespace taint"), std::string::npos);
}

std::string read_spec(const char* path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream source;
  source << in.rdbuf();
  return source.str();
}

TEST(Codegen, GoldenTaintHeaderForCommittedCricketSpec) {
  const SpecFile spec = parse_spec(read_spec(CRICKET_SPEC_X));
  const std::string header = generate_header(
      spec, {.ns = "cricket::core::proto", .taint = true});
  // The load-bearing wrappings the server sweep relies on.
  EXPECT_NE(header.find("virtual u64_result rpc_malloc("
                        "::cricket::xdr::Untrusted<std::uint64_t> a0) = 0;"),
            std::string::npos);
  EXPECT_NE(header.find("::cricket::xdr::Untrusted<std::uint32_t> x{};"),
            std::string::npos);  // rpc_dim3
  // ptr_t taints at use sites through the tainted typedef; the alias
  // itself stays a plain alias.
  EXPECT_NE(header.find("using ptr_t = std::uint64_t;"), std::string::npos);
  EXPECT_NE(header.find("::cricket::xdr::Untrusted<ptr_t>"),
            std::string::npos);
  EXPECT_NE(header.find("kMaxPayloadBytes = 1073741824ull;"),
            std::string::npos);
  // The stub is a class template over the caller that puts calls on the
  // wire, so the synchronous RpcClient and the pipelined cudart client
  // drive the same generated methods.
  EXPECT_NE(
      header.find("template <typename Client = ::cricket::rpc::RpcClient>\n"
                  "class CRICKETVERSClient {"),
      std::string::npos);
  EXPECT_NE(header.find("return client_->template call<int_result>("
                        "RPC_GET_DEVICE_COUNT_PROC);"),
            std::string::npos);
  const auto stub_pos = header.find("class CRICKETVERSClient");
  ASSERT_NE(stub_pos, std::string::npos);
  const auto stub_end = header.find("\n};", stub_pos);
  EXPECT_EQ(header.substr(stub_pos, stub_end - stub_pos).find("Untrusted"),
            std::string::npos);
}

TEST(Codegen, TopLevelOpaqueArgsAreBorrowedOnBothSides) {
  const SpecFile spec = parse_spec(read_spec(CRICKET_SPEC_X));
  const std::string header = generate_header(
      spec, {.ns = "cricket::core::proto", .taint = true});
  // Procedure arguments declared opaque<> travel as views: the stub takes
  // the caller's bytes, the skeleton a view into the received record.
  EXPECT_NE(header.find("std::int32_t rpc_memcpy_h2d(const ptr_t& a0, "
                        "std::span<const std::uint8_t> a1) {"),
            std::string::npos);
  EXPECT_NE(header.find("virtual std::int32_t rpc_memcpy_h2d("
                        "::cricket::xdr::Untrusted<ptr_t> a0, "
                        "std::span<const std::uint8_t> a1) = 0;"),
            std::string::npos);
  EXPECT_NE(header.find("virtual u64_result rpc_module_load("
                        "std::span<const std::uint8_t> a0) = 0;"),
            std::string::npos);
  EXPECT_NE(header.find("std::span<const std::uint8_t> a5) = 0;"),
            std::string::npos);  // rpc_launch_kernel's parameter blob
  // Struct fields own their bytes.
  EXPECT_NE(header.find("std::vector<std::uint8_t> data{};"),
            std::string::npos);  // data_result
  EXPECT_EQ(header.find("std::vector<std::uint8_t> a"), std::string::npos);
}

TEST(Codegen, GoldenTaintHeaderForCommittedMigrateSpec) {
  const SpecFile spec = parse_spec(read_spec(MIGRATE_SPEC_X));
  const std::string header = generate_header(
      spec, {.ns = "cricket::migrate::proto", .taint = true});
  EXPECT_NE(header.find(
                "::cricket::xdr::Untrusted<std::uint64_t> offset{};"),
            std::string::npos);
  EXPECT_NE(header.find(
                "::cricket::xdr::Untrusted<std::uint64_t> ticket{};"),
            std::string::npos);
  // The checksum is only ever compared against a recomputed value; it is
  // deliberately not tainted.
  EXPECT_NE(header.find("std::uint64_t checksum{};"), std::string::npos);
  EXPECT_NE(header.find("kMaxPayloadBytes = 262164ull;"), std::string::npos);
  const auto stub_pos = header.find("class MIGRATEVERSClient");
  ASSERT_NE(stub_pos, std::string::npos);
  const auto stub_end = header.find("\n};", stub_pos);
  EXPECT_EQ(header.substr(stub_pos, stub_end - stub_pos).find("Untrusted"),
            std::string::npos);
}

#ifdef RPCLGEN_BIN
int run_rpclgen(const std::string& args) {
  const int rc =
      std::system((std::string(RPCLGEN_BIN) + " " + args + " >/dev/null 2>&1")
                      .c_str());
  return WEXITSTATUS(rc);
}

TEST(Cli, EmitTaintArgParsingIsStrict) {
  // --emit-taint is a header-generation flag; combining it with the other
  // modes (or misspelling it) is a usage error, exit code 2.
  EXPECT_EQ(run_rpclgen("--emit-taint --lint " CRICKET_SPEC_X), 2);
  EXPECT_EQ(run_rpclgen("--emit-bounds --emit-taint " CRICKET_SPEC_X), 2);
  EXPECT_EQ(run_rpclgen("--emit-tain " CRICKET_SPEC_X " /dev/null"), 2);
  EXPECT_EQ(run_rpclgen("--emit-taint " CRICKET_SPEC_X " /dev/null"), 0);
  EXPECT_EQ(run_rpclgen("--help"), 0);
}
#endif  // RPCLGEN_BIN

}  // namespace
}  // namespace cricket::rpcl
