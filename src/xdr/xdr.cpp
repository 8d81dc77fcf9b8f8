#include "xdr/xdr.hpp"

#include <algorithm>
#include <bit>
#include <limits>

namespace cricket::xdr {
namespace {

constexpr std::size_t padded(std::size_t n) noexcept { return (n + 3) & ~std::size_t{3}; }

}  // namespace

// --------------------------------- Encoder ---------------------------------

void Encoder::append(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

void Encoder::pad_to_4() {
  while (buf_.size() % 4 != 0) buf_.push_back(0);
}

void Encoder::append_padded(const void* data, std::size_t n) {
  // One growth step for the body and its padding together: growing for the
  // body alone, then again for up to 3 pad bytes, would reallocate and copy
  // a payload-sized body twice.
  const std::size_t need = buf_.size() + padded(n);
  if (need > buf_.capacity())
    buf_.reserve(std::max(need, 2 * buf_.capacity()));
  append(data, n);
  pad_to_4();
}

void Encoder::put_u32(std::uint32_t v) {
  const std::uint8_t be[4] = {
      static_cast<std::uint8_t>(v >> 24), static_cast<std::uint8_t>(v >> 16),
      static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
  append(be, 4);
}

void Encoder::put_u64(std::uint64_t v) {
  put_u32(static_cast<std::uint32_t>(v >> 32));
  put_u32(static_cast<std::uint32_t>(v));
}

void Encoder::put_f32(float v) {
  static_assert(sizeof(float) == 4 && std::numeric_limits<float>::is_iec559);
  put_u32(std::bit_cast<std::uint32_t>(v));
}

void Encoder::put_f64(double v) {
  static_assert(sizeof(double) == 8 && std::numeric_limits<double>::is_iec559);
  put_u64(std::bit_cast<std::uint64_t>(v));
}

void Encoder::put_opaque_fixed(std::span<const std::uint8_t> bytes) {
  append_padded(bytes.data(), bytes.size());
}

void Encoder::put_opaque(std::span<const std::uint8_t> bytes) {
  put_u32(static_cast<std::uint32_t>(bytes.size()));
  put_opaque_fixed(bytes);
}

void Encoder::put_string(std::string_view s) {
  put_u32(static_cast<std::uint32_t>(s.size()));
  append_padded(s.data(), s.size());
}

// --------------------------------- Decoder ---------------------------------

const std::uint8_t* Decoder::take(std::size_t n) {
  if (n > remaining()) throw XdrError("XDR buffer underrun");
  const std::uint8_t* p = data_.data() + pos_;
  pos_ += n;
  return p;
}

void Decoder::skip_padding(std::size_t payload_len) {
  const std::size_t pad = padded(payload_len) - payload_len;
  const std::uint8_t* p = take(pad);
  for (std::size_t i = 0; i < pad; ++i)
    if (p[i] != 0) throw XdrError("non-zero XDR padding");
}

std::uint32_t Decoder::get_u32() {
  const std::uint8_t* p = take(4);
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

std::uint64_t Decoder::get_u64() {
  const std::uint64_t hi = get_u32();
  return (hi << 32) | get_u32();
}

bool Decoder::get_bool() {
  const std::uint32_t v = get_u32();
  if (v > 1) throw XdrError("invalid XDR boolean");
  return v == 1;
}

float Decoder::get_f32() { return std::bit_cast<float>(get_u32()); }
double Decoder::get_f64() { return std::bit_cast<double>(get_u64()); }

void Decoder::get_opaque_fixed(std::span<std::uint8_t> out) {
  const std::uint8_t* p = take(out.size());
  std::memcpy(out.data(), p, out.size());
  skip_padding(out.size());
}

std::vector<std::uint8_t> Decoder::get_opaque(std::uint32_t max_len) {
  const auto body = get_opaque_view(max_len);
  return {body.begin(), body.end()};
}

std::span<const std::uint8_t> Decoder::get_opaque_view(std::uint32_t max_len) {
  const std::uint32_t n = get_u32();
  if (n > max_len) throw XdrError("XDR opaque exceeds maximum length");
  if (n > remaining()) throw XdrError("XDR opaque exceeds buffer");
  const std::uint8_t* p = take(n);
  skip_padding(n);
  return {p, n};
}

std::string Decoder::get_string(std::uint32_t max_len) {
  const std::uint32_t n = get_u32();
  if (n > max_len) throw XdrError("XDR string exceeds maximum length");
  if (n > remaining()) throw XdrError("XDR string exceeds buffer");
  const std::uint8_t* p = take(n);
  std::string out(reinterpret_cast<const char*>(p), n);
  skip_padding(n);
  return out;
}

void Decoder::skip_opaque(std::uint32_t max_len) {
  (void)get_opaque_view(max_len);
}

void Decoder::expect_exhausted() const {
  if (!exhausted()) throw XdrError("trailing bytes after XDR message");
}

}  // namespace cricket::xdr
