// XDR: External Data Representation (RFC 4506).
//
// The wire format beneath ONC RPC. All quantities are multiples of four
// bytes, big-endian, with implicit zero padding. This is a complete,
// from-scratch implementation covering every type the Cricket RPCL interface
// uses: integers, hypers, floats, booleans, enums, fixed/variable opaques,
// strings, fixed/variable arrays, and optionals.
//
// Extension point: user-defined structs serialize via free functions
//   void xdr_encode(Encoder&, const T&);
//   void xdr_decode(Decoder&, T&);
// found by ADL — the rpclgen code generator emits exactly these.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace cricket::xdr {

/// Thrown on malformed input: truncated buffers, over-limit lengths,
/// non-zero padding, invalid booleans.
class XdrError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Serializes values into a growable byte buffer per RFC 4506.
/// Not thread-safe (one encoder per message).
class Encoder {
 public:
  Encoder() = default;
  explicit Encoder(std::size_t reserve_bytes) { buf_.reserve(reserve_bytes); }
  /// Adopts `reuse` as the output buffer: its contents are dropped but its
  /// capacity is kept, so a caller cycling one vector through take() and
  /// this constructor encodes without reallocating.
  explicit Encoder(std::vector<std::uint8_t>&& reuse) noexcept
      : buf_(std::move(reuse)) {
    buf_.clear();
  }

  void put_u32(std::uint32_t v);
  void put_i32(std::int32_t v) { put_u32(static_cast<std::uint32_t>(v)); }
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  void put_bool(bool v) { put_u32(v ? 1u : 0u); }
  void put_f32(float v);
  void put_f64(double v);

  /// Fixed-length opaque: bytes plus zero padding to a 4-byte boundary.
  void put_opaque_fixed(std::span<const std::uint8_t> bytes);
  /// Variable-length opaque: u32 length prefix, then fixed opaque.
  void put_opaque(std::span<const std::uint8_t> bytes);
  /// String: identical wire format to variable opaque.
  void put_string(std::string_view s);
  /// Appends bytes that are already XDR-encoded, verbatim (no length, no
  /// padding): a pre-encoded argument or result body behind a header.
  void put_raw(std::span<const std::uint8_t> bytes) {
    append(bytes.data(), bytes.size());
  }

  template <typename E>
    requires std::is_enum_v<E>
  void put_enum(E e) {
    put_i32(static_cast<std::int32_t>(e));
  }

  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(buf_);
  }
  void clear() noexcept { buf_.clear(); }

 private:
  void append(const void* data, std::size_t n);
  void pad_to_4();
  /// append() plus zero padding to a 4-byte boundary.
  void append_padded(const void* data, std::size_t n);

  std::vector<std::uint8_t> buf_;
};

/// Deserializes values from a fixed byte buffer per RFC 4506. Every read is
/// bounds-checked; padding bytes are verified to be zero (strict mode).
/// Does not own the buffer. Not thread-safe.
class Decoder {
 public:
  explicit Decoder(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  [[nodiscard]] std::uint32_t get_u32();
  [[nodiscard]] std::int32_t get_i32() {
    return static_cast<std::int32_t>(get_u32());
  }
  [[nodiscard]] std::uint64_t get_u64();
  [[nodiscard]] std::int64_t get_i64() {
    return static_cast<std::int64_t>(get_u64());
  }
  [[nodiscard]] bool get_bool();
  [[nodiscard]] float get_f32();
  [[nodiscard]] double get_f64();

  /// Reads exactly `n` opaque bytes plus padding.
  void get_opaque_fixed(std::span<std::uint8_t> out);
  /// Reads a length-prefixed opaque; rejects lengths above `max_len`.
  [[nodiscard]] std::vector<std::uint8_t> get_opaque(
      std::uint32_t max_len = kDefaultMaxLen);
  /// get_opaque without the copy: same length, bound and padding checks,
  /// but returns a view of the body inside the decoded buffer, valid for
  /// as long as that buffer is.
  [[nodiscard]] std::span<const std::uint8_t> get_opaque_view(
      std::uint32_t max_len = kDefaultMaxLen);
  [[nodiscard]] std::string get_string(std::uint32_t max_len = kDefaultMaxLen);
  /// Advances past a length-prefixed opaque without materialising the body
  /// (same validation as get_opaque, zero allocation) — for header peeks.
  void skip_opaque(std::uint32_t max_len = kDefaultMaxLen);

  template <typename E>
    requires std::is_enum_v<E>
  [[nodiscard]] E get_enum() {
    return static_cast<E>(get_i32());
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] bool exhausted() const noexcept { return pos_ == data_.size(); }

  /// Fails (throws XdrError) unless the whole buffer was consumed — catches
  /// messages with trailing garbage.
  void expect_exhausted() const;

  /// Default cap for variable-length fields. Cricket ships cubin images and
  /// device-memory payloads inline, so this is deliberately large (1 GiB).
  static constexpr std::uint32_t kDefaultMaxLen = 1u << 30;

 private:
  const std::uint8_t* take(std::size_t n);
  void skip_padding(std::size_t payload_len);

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// ADL-extensible encode/decode entry points for composite types.
// ---------------------------------------------------------------------------

inline void xdr_encode(Encoder& enc, std::uint32_t v) { enc.put_u32(v); }
inline void xdr_encode(Encoder& enc, std::int32_t v) { enc.put_i32(v); }
inline void xdr_encode(Encoder& enc, std::uint64_t v) { enc.put_u64(v); }
inline void xdr_encode(Encoder& enc, std::int64_t v) { enc.put_i64(v); }
inline void xdr_encode(Encoder& enc, bool v) { enc.put_bool(v); }
inline void xdr_encode(Encoder& enc, float v) { enc.put_f32(v); }
inline void xdr_encode(Encoder& enc, double v) { enc.put_f64(v); }
inline void xdr_encode(Encoder& enc, const std::string& v) {
  enc.put_string(v);
}
inline void xdr_encode(Encoder& enc, const std::vector<std::uint8_t>& v) {
  enc.put_opaque(v);
}
inline void xdr_encode(Encoder& enc, std::span<const std::uint8_t> v) {
  enc.put_opaque(v);
}
template <typename E>
  requires std::is_enum_v<E>
void xdr_encode(Encoder& enc, E v) {
  enc.put_enum(v);
}

inline void xdr_decode(Decoder& dec, std::uint32_t& v) { v = dec.get_u32(); }
inline void xdr_decode(Decoder& dec, std::int32_t& v) { v = dec.get_i32(); }
inline void xdr_decode(Decoder& dec, std::uint64_t& v) { v = dec.get_u64(); }
inline void xdr_decode(Decoder& dec, std::int64_t& v) { v = dec.get_i64(); }
inline void xdr_decode(Decoder& dec, bool& v) { v = dec.get_bool(); }
inline void xdr_decode(Decoder& dec, float& v) { v = dec.get_f32(); }
inline void xdr_decode(Decoder& dec, double& v) { v = dec.get_f64(); }
inline void xdr_decode(Decoder& dec, std::string& v) { v = dec.get_string(); }
inline void xdr_decode(Decoder& dec, std::vector<std::uint8_t>& v) {
  v = dec.get_opaque();
}
/// Borrowed variable-length opaque: views the decoder's buffer.
inline void xdr_decode(Decoder& dec, std::span<const std::uint8_t>& v) {
  v = dec.get_opaque_view();
}
template <typename E>
  requires std::is_enum_v<E>
void xdr_decode(Decoder& dec, E& v) {
  v = dec.get_enum<E>();
}

/// Variable-length array<T>: u32 count then each element.
template <typename T>
  requires(!std::is_same_v<T, std::uint8_t>)
void xdr_encode(Encoder& enc, const std::vector<T>& v) {
  enc.put_u32(static_cast<std::uint32_t>(v.size()));
  for (const auto& e : v) xdr_encode(enc, e);
}

/// Smallest possible wire encoding of one element of T, for pre-allocation
/// sanity checks. 8 for 8-byte scalars; 4 for everything else (4-byte
/// scalars, enums, and any compound type, whose cheapest encoding still
/// carries at least one 4-byte word: a count, a discriminant, or a field).
template <typename T>
consteval std::size_t xdr_min_wire_size() {
  if constexpr (std::is_same_v<T, std::uint64_t> ||
                std::is_same_v<T, std::int64_t> ||
                std::is_same_v<T, double>) {
    return 8;
  } else {
    return 4;
  }
}

template <typename T>
  requires(!std::is_same_v<T, std::uint8_t>)
void xdr_decode(Decoder& dec, std::vector<T>& v) {
  const std::uint32_t n = dec.get_u32();
  // Guard against hostile counts BEFORE any allocation: n elements need at
  // least n * min-element-size bytes, so a 4-byte count on a short message
  // can never trigger a multi-GiB reserve. Strictly `>` with no slack — a
  // count the buffer cannot possibly satisfy is malformed, full stop.
  if (static_cast<std::size_t>(n) > dec.remaining() / xdr_min_wire_size<T>())
    throw XdrError("array count exceeds remaining buffer");
  v.clear();
  v.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    T e{};
    xdr_decode(dec, e);
    v.push_back(std::move(e));
  }
}

/// Fixed-length opaque: std::array<uint8_t, N> (no length prefix).
template <std::size_t N>
void xdr_encode(Encoder& enc, const std::array<std::uint8_t, N>& v) {
  enc.put_opaque_fixed(v);
}

template <std::size_t N>
void xdr_decode(Decoder& dec, std::array<std::uint8_t, N>& v) {
  dec.get_opaque_fixed(v);
}

/// Fixed-length array<T, N>: elements only, no count on the wire.
template <typename T, std::size_t N>
  requires(!std::is_same_v<T, std::uint8_t>)
void xdr_encode(Encoder& enc, const std::array<T, N>& v) {
  for (const auto& e : v) xdr_encode(enc, e);
}

template <typename T, std::size_t N>
  requires(!std::is_same_v<T, std::uint8_t>)
void xdr_decode(Decoder& dec, std::array<T, N>& v) {
  for (auto& e : v) xdr_decode(dec, e);
}

/// Optional<T>: the RFC's `*T` pointer syntax — bool discriminant + value.
template <typename T>
void xdr_encode(Encoder& enc, const std::optional<T>& v) {
  enc.put_bool(v.has_value());
  if (v) xdr_encode(enc, *v);
}

template <typename T>
void xdr_decode(Decoder& dec, std::optional<T>& v) {
  if (dec.get_bool()) {
    T e{};
    xdr_decode(dec, e);
    v = std::move(e);
  } else {
    v.reset();
  }
}

/// Round-trip helpers for single values.
template <typename T>
[[nodiscard]] std::vector<std::uint8_t> to_bytes(const T& value) {
  Encoder enc;
  xdr_encode(enc, value);
  return enc.take();
}

template <typename T>
[[nodiscard]] T from_bytes(std::span<const std::uint8_t> bytes) {
  Decoder dec(bytes);
  T value{};
  xdr_decode(dec, value);
  dec.expect_exhausted();
  return value;
}

}  // namespace cricket::xdr
