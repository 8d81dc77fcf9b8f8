#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>
#include <cmath>

#include <type_traits>

#include "sim/rng.hpp"
#include "xdr/taint.hpp"
#include "xdr/xdr.hpp"

namespace cricket::xdr {
namespace {

enum class Color : std::int32_t { kRed = 0, kGreen = 1, kBlue = 7 };

TEST(XdrEncoder, U32IsBigEndian) {
  Encoder enc;
  enc.put_u32(0x01020304u);
  const auto b = enc.bytes();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0], 0x01);
  EXPECT_EQ(b[1], 0x02);
  EXPECT_EQ(b[2], 0x03);
  EXPECT_EQ(b[3], 0x04);
}

TEST(XdrEncoder, I32NegativeTwosComplement) {
  Encoder enc;
  enc.put_i32(-1);
  const auto b = enc.bytes();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(b[static_cast<std::size_t>(i)], 0xFF);
}

TEST(XdrEncoder, HyperSplitsHighLow) {
  Encoder enc;
  enc.put_u64(0x0102030405060708ULL);
  const auto b = enc.bytes();
  ASSERT_EQ(b.size(), 8u);
  EXPECT_EQ(b[0], 0x01);
  EXPECT_EQ(b[7], 0x08);
}

TEST(XdrEncoder, StringPadsToFour) {
  Encoder enc;
  enc.put_string("abcde");  // 4 len + 5 data + 3 pad
  EXPECT_EQ(enc.size(), 12u);
  const auto b = enc.bytes();
  EXPECT_EQ(b[3], 5);          // length
  EXPECT_EQ(b[4], 'a');
  EXPECT_EQ(b[9], 0);          // padding
  EXPECT_EQ(b[10], 0);
  EXPECT_EQ(b[11], 0);
}

TEST(XdrEncoder, OpaqueAlreadyAlignedHasNoPadding) {
  Encoder enc;
  const std::uint8_t data[4] = {1, 2, 3, 4};
  enc.put_opaque(data);
  EXPECT_EQ(enc.size(), 8u);  // 4 length + 4 data
}

TEST(XdrRoundTrip, AllScalarTypes) {
  Encoder enc;
  enc.put_u32(0xDEADBEEFu);
  enc.put_i32(std::numeric_limits<std::int32_t>::min());
  enc.put_u64(0xFEEDFACECAFEBEEFULL);
  enc.put_i64(std::numeric_limits<std::int64_t>::min());
  enc.put_bool(true);
  enc.put_bool(false);
  enc.put_f32(3.14159f);
  enc.put_f64(-2.718281828459045);
  enc.put_enum(Color::kBlue);

  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(dec.get_i32(), std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(dec.get_u64(), 0xFEEDFACECAFEBEEFULL);
  EXPECT_EQ(dec.get_i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_TRUE(dec.get_bool());
  EXPECT_FALSE(dec.get_bool());
  EXPECT_FLOAT_EQ(dec.get_f32(), 3.14159f);
  EXPECT_DOUBLE_EQ(dec.get_f64(), -2.718281828459045);
  EXPECT_EQ(dec.get_enum<Color>(), Color::kBlue);
  EXPECT_TRUE(dec.exhausted());
}

TEST(XdrRoundTrip, SpecialFloats) {
  Encoder enc;
  enc.put_f32(std::numeric_limits<float>::infinity());
  enc.put_f64(-std::numeric_limits<double>::infinity());
  enc.put_f32(std::numeric_limits<float>::quiet_NaN());
  enc.put_f64(0.0);
  enc.put_f64(-0.0);

  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_f32(), std::numeric_limits<float>::infinity());
  EXPECT_EQ(dec.get_f64(), -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(dec.get_f32()));
  EXPECT_EQ(dec.get_f64(), 0.0);
  EXPECT_TRUE(std::signbit(dec.get_f64()));
}

TEST(XdrRoundTrip, EmptyString) {
  Encoder enc;
  enc.put_string("");
  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_string(), "");
  EXPECT_TRUE(dec.exhausted());
}

TEST(XdrRoundTrip, EmptyOpaque) {
  Encoder enc;
  enc.put_opaque({});
  Decoder dec(enc.bytes());
  EXPECT_TRUE(dec.get_opaque().empty());
  EXPECT_TRUE(dec.exhausted());
}

TEST(XdrRoundTrip, FixedOpaque) {
  Encoder enc;
  const std::uint8_t data[5] = {9, 8, 7, 6, 5};
  enc.put_opaque_fixed(data);
  EXPECT_EQ(enc.size(), 8u);  // 5 + 3 pad, no length
  Decoder dec(enc.bytes());
  std::uint8_t out[5] = {};
  dec.get_opaque_fixed(out);
  EXPECT_EQ(out[0], 9);
  EXPECT_EQ(out[4], 5);
  EXPECT_TRUE(dec.exhausted());
}

TEST(XdrDecoder, UnderrunThrows) {
  const std::uint8_t two[2] = {0, 0};
  Decoder dec(two);
  EXPECT_THROW((void)dec.get_u32(), XdrError);
}

TEST(XdrDecoder, InvalidBoolThrows) {
  Encoder enc;
  enc.put_u32(2);
  Decoder dec(enc.bytes());
  EXPECT_THROW((void)dec.get_bool(), XdrError);
}

TEST(XdrDecoder, NonZeroPaddingThrows) {
  // "a" + non-zero padding byte.
  const std::uint8_t bad[] = {0, 0, 0, 1, 'a', 0xFF, 0, 0};
  Decoder dec(bad);
  EXPECT_THROW((void)dec.get_string(), XdrError);
}

TEST(XdrDecoder, OverMaxLenThrows) {
  Encoder enc;
  enc.put_opaque(std::vector<std::uint8_t>(100));
  Decoder dec(enc.bytes());
  EXPECT_THROW((void)dec.get_opaque(/*max_len=*/50), XdrError);
}

TEST(XdrDecoder, LengthBeyondBufferThrows) {
  Encoder enc;
  enc.put_u32(1000);  // claims 1000 bytes follow; they do not
  Decoder dec(enc.bytes());
  EXPECT_THROW((void)dec.get_opaque(), XdrError);
}

TEST(XdrDecoder, ExpectExhaustedThrowsOnTrailing) {
  Encoder enc;
  enc.put_u32(1);
  enc.put_u32(2);
  Decoder dec(enc.bytes());
  (void)dec.get_u32();
  EXPECT_THROW(dec.expect_exhausted(), XdrError);
}

TEST(XdrAdl, VectorOfStructuredTypes) {
  std::vector<std::uint32_t> v = {1, 2, 3, 4, 5};
  Encoder enc;
  xdr_encode(enc, v);
  EXPECT_EQ(enc.size(), 4u + 4u * 5u);
  Decoder dec(enc.bytes());
  std::vector<std::uint32_t> out;
  xdr_decode(dec, out);
  EXPECT_EQ(out, v);
}

TEST(XdrAdl, HostileArrayCountRejected) {
  Encoder enc;
  enc.put_u32(0x40000000u);  // ~1G elements claimed in a 4-byte buffer
  Decoder dec(enc.bytes());
  std::vector<std::uint32_t> out;
  EXPECT_THROW(xdr_decode(dec, out), XdrError);
}

TEST(XdrAdl, HostileWideElementCountRejectedWithoutAllocation) {
  // Regression: the count guard must scale by the element's minimum wire
  // size and run BEFORE the vector is resized. A 16-byte message claiming
  // one billion 8-byte elements is rejected up front — the old guard
  // (remaining()/4 + 1, element-size-blind) admitted hostile counts to the
  // resize for every element type wider than 4 bytes.
  Encoder enc;
  enc.put_u32(1000000000u);  // claimed element count
  enc.put_u64(0);            // 12 bytes of actual payload follow the count
  enc.put_u32(0);
  Decoder dec(enc.bytes());
  std::vector<std::uint64_t> out;
  EXPECT_THROW(xdr_decode(dec, out), XdrError);
  EXPECT_TRUE(out.empty());  // thrown before any resize touched the output
}

TEST(XdrAdl, WideElementCountBoundaryIsExact) {
  Encoder enc;
  xdr_encode(enc, std::vector<std::uint64_t>{7, 8});  // count + 16 bytes
  {
    // Exactly-fitting count decodes.
    Decoder dec(enc.bytes());
    std::vector<std::uint64_t> out;
    xdr_decode(dec, out);
    EXPECT_EQ(out, (std::vector<std::uint64_t>{7, 8}));
  }
  // Same bytes with the count bumped by one: claims 24 > 16 remaining, and
  // the old guard's "+ 1" slack must not readmit it.
  std::vector<std::uint8_t> bytes(enc.bytes().begin(), enc.bytes().end());
  bytes[3] = 3;
  Decoder dec(bytes);
  std::vector<std::uint64_t> out;
  EXPECT_THROW(xdr_decode(dec, out), XdrError);
  EXPECT_TRUE(out.empty());
}

TEST(XdrDecoder, SkipOpaqueConsumesWithoutCopy) {
  Encoder enc;
  enc.put_opaque(std::vector<std::uint8_t>(10, 0xCD));  // 4 + 10 + 2 pad
  enc.put_u32(0xFEEDF00Du);
  Decoder dec(enc.bytes());
  dec.skip_opaque();
  EXPECT_EQ(dec.get_u32(), 0xFEEDF00Du);
  dec.expect_exhausted();
}

TEST(XdrDecoder, SkipOpaqueEnforcesMaxLenAndBuffer) {
  Encoder enc;
  enc.put_opaque(std::vector<std::uint8_t>(10, 0xCD));
  {
    Decoder dec(enc.bytes());
    EXPECT_THROW(dec.skip_opaque(8), XdrError);  // over caller's cap
  }
  Encoder lie;
  lie.put_u32(100);  // claims 100 bytes, none follow
  Decoder dec(lie.bytes());
  EXPECT_THROW(dec.skip_opaque(), XdrError);
}

TEST(XdrDecoder, OpaqueViewAliasesTheSourceBuffer) {
  Encoder enc;
  enc.put_opaque(std::vector<std::uint8_t>{1, 2, 3, 4, 5});  // 4 + 5 + 3 pad
  enc.put_u32(0xFEEDF00Du);
  const std::vector<std::uint8_t> wire(enc.bytes().begin(), enc.bytes().end());
  Decoder dec(wire);
  const std::span<const std::uint8_t> view = dec.get_opaque_view();
  // A view into the record, not a copy: same address, same bytes.
  EXPECT_EQ(view.data(), wire.data() + 4);
  EXPECT_EQ(std::vector<std::uint8_t>(view.begin(), view.end()),
            (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(dec.get_u32(), 0xFEEDF00Du);  // padding consumed
  dec.expect_exhausted();
}

TEST(XdrDecoder, OpaqueViewZeroLength) {
  Encoder enc;
  enc.put_opaque({});
  enc.put_u32(7);
  Decoder dec(enc.bytes());
  EXPECT_TRUE(dec.get_opaque_view().empty());
  EXPECT_EQ(dec.get_u32(), 7u);
  dec.expect_exhausted();
}

TEST(XdrDecoder, OpaqueViewChecksMatchGetOpaque) {
  Encoder enc;
  enc.put_opaque(std::vector<std::uint8_t>(10, 0xCD));
  const std::vector<std::uint8_t> ok(enc.bytes().begin(), enc.bytes().end());
  {
    Decoder dec(ok);  // over the caller's bound
    EXPECT_THROW((void)dec.get_opaque_view(8), XdrError);
  }
  {
    Decoder dec(ok);  // the bound itself is allowed
    EXPECT_EQ(dec.get_opaque_view(10).size(), 10u);
  }
  {
    Encoder lie;  // claims 100 bytes, 4 follow
    lie.put_u32(100);
    lie.put_u32(0);
    Decoder dec(lie.bytes());
    EXPECT_THROW((void)dec.get_opaque_view(), XdrError);
  }
  {
    auto bad_pad = ok;  // 4 + 10 body + 2 pad: corrupt the last pad byte
    bad_pad.back() = 1;
    Decoder view_dec(bad_pad);
    EXPECT_THROW((void)view_dec.get_opaque_view(), XdrError);
    Decoder copy_dec(bad_pad);
    EXPECT_THROW((void)copy_dec.get_opaque(), XdrError);
  }
  {
    // Body complete, padding cut off.
    const std::vector<std::uint8_t> no_pad(ok.begin(), ok.end() - 2);
    Decoder dec(no_pad);
    EXPECT_THROW((void)dec.get_opaque_view(), XdrError);
  }
}

TEST(XdrAdl, BorrowedOpaqueEncodesLikeAVector) {
  const std::vector<std::uint8_t> bytes = {9, 8, 7};
  Encoder as_vector;
  xdr_encode(as_vector, bytes);
  Encoder as_span;
  xdr_encode(as_span, std::span<const std::uint8_t>(bytes));
  EXPECT_TRUE(std::ranges::equal(as_vector.bytes(), as_span.bytes()));
  Decoder dec(as_span.bytes());
  std::span<const std::uint8_t> view;
  xdr_decode(dec, view);
  EXPECT_TRUE(std::ranges::equal(view, bytes));
  dec.expect_exhausted();
}

TEST(XdrEncoder, AdoptedBufferEncodesLikeAFreshOne) {
  const auto encode = [](Encoder& enc) {
    enc.put_u32(0xA1B2C3D4u);
    enc.put_opaque(std::vector<std::uint8_t>{1, 2, 3});
    enc.put_string("xdr");
    enc.put_u64(42);
  };
  Encoder fresh;
  encode(fresh);
  // A used buffer, longer than the new message and full of non-zero bytes:
  // adopting it must drop the old contents but keep the allocation.
  std::vector<std::uint8_t> used(4096, 0xEE);
  const std::uint8_t* storage = used.data();
  Encoder adopted(std::move(used));
  EXPECT_EQ(adopted.size(), 0u);
  encode(adopted);
  EXPECT_TRUE(std::ranges::equal(adopted.bytes(), fresh.bytes()));
  const auto taken = adopted.take();
  EXPECT_EQ(taken.data(), storage);  // no reallocation
  EXPECT_GE(taken.capacity(), 4096u);
}

TEST(XdrAdl, OptionalPresentAndAbsent) {
  std::optional<std::string> present = "hello";
  std::optional<std::string> absent;
  Encoder enc;
  xdr_encode(enc, present);
  xdr_encode(enc, absent);
  Decoder dec(enc.bytes());
  std::optional<std::string> p, a;
  xdr_decode(dec, p);
  xdr_decode(dec, a);
  EXPECT_EQ(p, "hello");
  EXPECT_FALSE(a.has_value());
}

TEST(XdrAdl, ToFromBytesRoundTrip) {
  const std::string s = "the quick brown fox";
  EXPECT_EQ(from_bytes<std::string>(to_bytes(s)), s);
}

TEST(XdrAdl, FromBytesRejectsTrailingGarbage) {
  auto bytes = to_bytes(std::uint32_t{7});
  bytes.push_back(0);
  EXPECT_THROW((void)from_bytes<std::uint32_t>(bytes), XdrError);
}

// Property sweep: random opaque payloads of every alignment class survive a
// round trip and always produce 4-byte-aligned encodings.
class XdrOpaqueProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(XdrOpaqueProperty, RoundTripAndAlignment) {
  sim::Xoshiro256ss rng(GetParam() * 997 + 1);
  std::vector<std::uint8_t> payload(GetParam());
  rng.fill_bytes(payload);

  Encoder enc;
  enc.put_opaque(payload);
  EXPECT_EQ(enc.size() % 4, 0u);

  Decoder dec(enc.bytes());
  EXPECT_EQ(dec.get_opaque(), payload);
  EXPECT_TRUE(dec.exhausted());
}

INSTANTIATE_TEST_SUITE_P(Alignments, XdrOpaqueProperty,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 63, 64, 65, 1000,
                                           4096, 65537));

// Property sweep: random scalar sequences round-trip exactly.
class XdrFuzzRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XdrFuzzRoundTrip, MixedScalarSequence) {
  sim::Xoshiro256ss rng(GetParam());
  Encoder enc;
  std::vector<std::uint64_t> values;
  std::vector<int> kinds;
  for (int i = 0; i < 200; ++i) {
    const int kind = static_cast<int>(rng.next() % 4);
    const std::uint64_t v = rng.next();
    kinds.push_back(kind);
    values.push_back(v);
    switch (kind) {
      case 0: enc.put_u32(static_cast<std::uint32_t>(v)); break;
      case 1: enc.put_u64(v); break;
      case 2: enc.put_i32(static_cast<std::int32_t>(v)); break;
      default: enc.put_f64(static_cast<double>(v)); break;
    }
  }
  Decoder dec(enc.bytes());
  for (int i = 0; i < 200; ++i) {
    switch (kinds[static_cast<std::size_t>(i)]) {
      case 0:
        EXPECT_EQ(dec.get_u32(),
                  static_cast<std::uint32_t>(values[static_cast<std::size_t>(i)]));
        break;
      case 1:
        EXPECT_EQ(dec.get_u64(), values[static_cast<std::size_t>(i)]);
        break;
      case 2:
        EXPECT_EQ(dec.get_i32(),
                  static_cast<std::int32_t>(values[static_cast<std::size_t>(i)]));
        break;
      default:
        EXPECT_DOUBLE_EQ(
            dec.get_f64(),
            static_cast<double>(values[static_cast<std::size_t>(i)]));
        break;
    }
  }
  EXPECT_TRUE(dec.exhausted());
}

INSTANTIATE_TEST_SUITE_P(Seeds, XdrFuzzRoundTrip,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ------------------------- wiretaint: Untrusted<T> -------------------------

using U64 = Untrusted<std::uint64_t>;
using I32 = Untrusted<std::int32_t>;

// The whole point of the wrapper: a tainted scalar cannot silently become a
// plain one. Detected at compile time, asserted here so a future implicit
// conversion operator cannot sneak in.
static_assert(!std::is_convertible_v<U64, std::uint64_t>);
static_assert(!std::is_convertible_v<I32, std::int32_t>);
static_assert(!std::is_convertible_v<std::uint64_t, U64>,
              "wrapping must be an explicit, visible act");
static_assert(!std::is_assignable_v<std::uint64_t&, U64>);

TEST(UntrustedTaint, ValidateAcceptsInBoundAndThrowsBeyond) {
  EXPECT_EQ(U64(41).validate(41), 41u);
  EXPECT_EQ(U64(0).validate(41), 0u);
  EXPECT_THROW((void)U64(42).validate(41), TaintError);
  // Signed: negative values never validate against an upper bound.
  EXPECT_THROW((void)I32(-1).validate(100), TaintError);
  // And a TaintError is an XdrError, so dispatch maps it to kGarbageArgs.
  EXPECT_THROW((void)U64(42).validate(41), XdrError);
}

TEST(UntrustedTaint, ValidateRangeIsInclusiveBothEnds) {
  EXPECT_EQ(I32(5).validate_range(5, 9), 5);
  EXPECT_EQ(I32(9).validate_range(5, 9), 9);
  EXPECT_THROW((void)I32(4).validate_range(5, 9), TaintError);
  EXPECT_THROW((void)I32(10).validate_range(5, 9), TaintError);
}

TEST(UntrustedTaint, ValidateIndexIsExclusiveOfExtent) {
  EXPECT_EQ(U64(9).validate_index(10), 9u);
  EXPECT_THROW((void)U64(10).validate_index(10), TaintError);
  EXPECT_THROW((void)I32(-1).validate_index(10), TaintError);
}

TEST(UntrustedTaint, TryValidateNeverThrowsAndOnlyWritesOnSuccess) {
  std::uint64_t out = 77;
  EXPECT_FALSE(U64(42).try_validate(41, out));
  EXPECT_EQ(out, 77u);  // refused: out untouched
  EXPECT_TRUE(U64(41).try_validate(41, out));
  EXPECT_EQ(out, 41u);
  // Free-function spelling, bound up front.
  EXPECT_TRUE(try_validate(U64(3), std::uint64_t{8}, out));
  EXPECT_EQ(out, 3u);
}

TEST(UntrustedTaint, TrustUncheckedPassesRawValueThrough) {
  EXPECT_EQ(U64(~0ull).trust_unchecked("test: raw passthrough"), ~0ull);
  EXPECT_EQ(I32(-7).trust_unchecked("test: raw passthrough"), -7);
}

TEST(UntrustedTaint, ArithmeticPropagatesTaint) {
  // The result of mixing tainted and plain operands is tainted: the only
  // way to observe it is another exit.
  const U64 sum = U64(40) + 2u;
  static_assert(std::is_same_v<decltype(sum), const U64>);
  EXPECT_EQ(sum.validate(100), 42u);
  EXPECT_EQ((2u + U64(40)).validate(100), 42u);
  EXPECT_EQ((U64(40) + U64(2)).validate(100), 42u);
  EXPECT_EQ((U64(44) - 2u).validate(100), 42u);
  EXPECT_EQ((U64(21) * 2u).validate(100), 42u);
  EXPECT_EQ((U64(84) / 2u).validate(100), 42u);
}

TEST(UntrustedTaint, AdditionSaturatesInsteadOfWrapping) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  // The classic offset+len wrap: saturates to max, so any bound check
  // downstream still refuses it.
  EXPECT_EQ((U64(kMax - 3) + 8u).trust_unchecked("test"), kMax);
  EXPECT_FALSE((U64(kMax - 3) + 8u) <= kMax - 1);
  constexpr std::int32_t kIMax = std::numeric_limits<std::int32_t>::max();
  constexpr std::int32_t kIMin = std::numeric_limits<std::int32_t>::min();
  EXPECT_EQ((I32(kIMax) + 1).trust_unchecked("test"), kIMax);
  EXPECT_EQ((I32(kIMin) + (-1)).trust_unchecked("test"), kIMin);
}

TEST(UntrustedTaint, SubtractionAndMultiplicationSaturate) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ((U64(3) - 8u).trust_unchecked("test"), 0u);  // clamps, no wrap
  EXPECT_EQ((U64(1ull << 60) * 1024u).trust_unchecked("test"), kMax);
  constexpr std::int32_t kIMax = std::numeric_limits<std::int32_t>::max();
  constexpr std::int32_t kIMin = std::numeric_limits<std::int32_t>::min();
  EXPECT_EQ((I32(kIMin) - 1).trust_unchecked("test"), kIMin);
  EXPECT_EQ((I32(kIMax) * 2).trust_unchecked("test"), kIMax);
  EXPECT_EQ((I32(kIMin) * 2).trust_unchecked("test"), kIMin);
}

TEST(UntrustedTaint, DivisionRefusesHostileDivisors) {
  EXPECT_THROW((void)(U64(42) / U64(0)), TaintError);
  EXPECT_THROW((void)(std::uint64_t{42} / U64(0)), TaintError);
  constexpr std::int32_t kIMin = std::numeric_limits<std::int32_t>::min();
  // INT_MIN / -1 is UB on plain ints; here it saturates.
  EXPECT_EQ((I32(kIMin) / -1).trust_unchecked("test"),
            std::numeric_limits<std::int32_t>::max());
}

TEST(UntrustedTaint, ComparisonsAreSignSafeAndDoNotUntaint) {
  // -1 reinterpreted as unsigned must NOT pass a size check.
  EXPECT_FALSE(I32(-1) > 0);
  EXPECT_TRUE(I32(-1) < 0u);  // cmp_less: true even against unsigned
  EXPECT_TRUE(U64(~0ull) > 0);
  EXPECT_TRUE(U64(5) == 5u);
  EXPECT_TRUE(U64(5) != 6u);
  EXPECT_TRUE(U64(5) <= 5u);
  EXPECT_TRUE(5u >= U64(5));
  EXPECT_TRUE(U64(4) < U64(5));
}

TEST(UntrustedTaint, DecodeTaintsAndEncodeRoundTrips) {
  Encoder enc;
  xdr_encode(enc, U64(0xDEADBEEFCAFEF00Dull));
  Decoder dec(enc.bytes());
  U64 v;
  xdr_decode(dec, v);
  EXPECT_TRUE(dec.exhausted());
  EXPECT_EQ(v.validate(~0ull), 0xDEADBEEFCAFEF00Dull);
}

}  // namespace
}  // namespace cricket::xdr
