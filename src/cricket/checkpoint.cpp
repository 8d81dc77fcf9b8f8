#include "cricket/checkpoint.hpp"

#include <fstream>

#include "xdr/framed_blob.hpp"

namespace cricket::core {
namespace {

/// v1: magic, version, body. v2 appends the FNV-64 checksum of the body so a
/// bit-flipped migration transfer fails loudly instead of restoring garbage.
constexpr xdr::BlobFormat kFormat{.magic = {'C', 'K', 'P', 'T'},
                                  .version = 2,
                                  .checksum_since = 2,
                                  .noun = "checkpoint"};

}  // namespace

std::vector<std::uint8_t> encode_checkpoint(
    const gpusim::DeviceSnapshot& snap) {
  xdr::Encoder enc = xdr::begin_blob(kFormat);
  enc.put_u64(snap.next_id);

  enc.put_u32(static_cast<std::uint32_t>(snap.allocations.size()));
  for (const auto& a : snap.allocations) {
    enc.put_u64(a.addr);
    enc.put_u64(a.size);
    enc.put_opaque(a.bytes);
  }
  enc.put_u32(static_cast<std::uint32_t>(snap.modules.size()));
  for (const auto& m : snap.modules) {
    enc.put_u64(m.id);
    enc.put_opaque(m.image);
    enc.put_u32(static_cast<std::uint32_t>(m.globals.size()));
    for (const auto& [name, addr] : m.globals) {
      enc.put_string(name);
      enc.put_u64(addr);
    }
  }
  enc.put_u32(static_cast<std::uint32_t>(snap.functions.size()));
  for (const auto& f : snap.functions) {
    enc.put_u64(f.id);
    enc.put_u64(f.module);
    enc.put_string(f.kernel_name);
  }
  enc.put_u32(static_cast<std::uint32_t>(snap.streams.size()));
  for (const auto& [id, finish] : snap.streams) {
    enc.put_u64(id);
    enc.put_i64(finish);
  }
  enc.put_u32(static_cast<std::uint32_t>(snap.events.size()));
  for (const auto& [id, ts] : snap.events) {
    enc.put_u64(id);
    enc.put_i64(ts);
  }
  return xdr::seal_blob(enc);
}

gpusim::DeviceSnapshot decode_checkpoint(std::span<const std::uint8_t> bytes) {
  try {
    xdr::Decoder dec(
        xdr::open_blob<CheckpointError, CheckpointVersionError>(bytes,
                                                                kFormat));
    gpusim::DeviceSnapshot snap;
    snap.next_id = dec.get_u64();

    const std::uint32_t na = dec.get_u32();
    snap.allocations.reserve(na);
    for (std::uint32_t i = 0; i < na; ++i) {
      gpusim::DeviceSnapshot::AllocationRecord rec;
      rec.addr = dec.get_u64();
      rec.size = dec.get_u64();
      rec.bytes = dec.get_opaque();
      if (rec.bytes.size() != rec.size)
        throw CheckpointError("allocation content size mismatch");
      snap.allocations.push_back(std::move(rec));
    }
    const std::uint32_t nm = dec.get_u32();
    snap.modules.reserve(nm);
    for (std::uint32_t i = 0; i < nm; ++i) {
      gpusim::DeviceSnapshot::ModuleRecord rec;
      rec.id = dec.get_u64();
      rec.image = dec.get_opaque();
      const std::uint32_t ng = dec.get_u32();
      for (std::uint32_t g = 0; g < ng; ++g) {
        std::string name = dec.get_string(4096);
        const std::uint64_t addr = dec.get_u64();
        rec.globals.emplace_back(std::move(name), addr);
      }
      snap.modules.push_back(std::move(rec));
    }
    const std::uint32_t nf = dec.get_u32();
    snap.functions.reserve(nf);
    for (std::uint32_t i = 0; i < nf; ++i) {
      gpusim::DeviceSnapshot::FunctionRecord rec;
      rec.id = dec.get_u64();
      rec.module = dec.get_u64();
      rec.kernel_name = dec.get_string(4096);
      snap.functions.push_back(std::move(rec));
    }
    const std::uint32_t ns = dec.get_u32();
    for (std::uint32_t i = 0; i < ns; ++i) {
      const std::uint64_t id = dec.get_u64();
      snap.streams.emplace_back(id, dec.get_i64());
    }
    const std::uint32_t ne = dec.get_u32();
    for (std::uint32_t i = 0; i < ne; ++i) {
      const std::uint64_t id = dec.get_u64();
      snap.events.emplace_back(id, dec.get_i64());
    }
    dec.expect_exhausted();
    return snap;
  } catch (const xdr::XdrError& e) {
    throw CheckpointError(std::string("malformed checkpoint: ") + e.what());
  }
}

void checkpoint_to_file(gpusim::Device& device, const std::string& path) {
  const auto bytes = encode_checkpoint(device.snapshot());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw CheckpointError("cannot open checkpoint file for writing");
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw CheckpointError("checkpoint write failed");
}

void restore_from_file(gpusim::Device& device, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw CheckpointError("cannot open checkpoint file");
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  device.restore(decode_checkpoint(bytes));
}

}  // namespace cricket::core
