#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <initializer_list>
#include <span>
#include <vector>

#include "cudart/raii.hpp"
#include "sim/rng.hpp"
#include "workloads/kernels.hpp"

namespace perfbench {

namespace {

using cricket::cuda::CudaApi;
using cricket::cuda::DevPtr;
using cricket::cuda::Error;
using cricket::cuda::FuncId;
using cricket::sim::Xoshiro256ss;
using Bytes = std::span<const std::uint8_t>;

Xoshiro256ss session_rng(std::uint64_t seed, std::uint64_t index) {
  cricket::sim::SplitMix64 mix(seed * 0x9E3779B97F4A7C15ull ^ index);
  return Xoshiro256ss(mix.next());
}

std::uint64_t pick(Xoshiro256ss& rng, std::uint64_t n) {
  return rng.next() % n;
}

template <typename T>
void shuffle(std::vector<T>& items, Xoshiro256ss& rng) {
  for (std::size_t i = items.size(); i > 1; --i)
    std::swap(items[i - 1], items[pick(rng, i)]);
}

std::vector<std::uint8_t> seeded_bytes(std::uint64_t seed, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  Xoshiro256ss(seed).fill_bytes(out);
  return out;
}

// ---------------------------------------------------------------------------
// Calls every workload makes, each filed under its op kind
// ---------------------------------------------------------------------------

struct Module {
  cricket::cuda::ModuleId id = 0;
  std::vector<FuncId> funcs;
};

void get_device_count(CudaApi& api, Recorder& rec) {
  int count = 0;
  if (rec.call(Kind::kGetDeviceCount,
               [&] { return api.get_device_count(count); }) ==
          Error::kSuccess &&
      count != 1)
    rec.fail("cudaGetDeviceCount reported " + std::to_string(count));
}

/// A CUDA application's start: query the device, select it, load the
/// sample module and resolve its kernels.
Module open_session(CudaApi& api, Recorder& rec, Bytes image,
                    std::initializer_list<const char*> kernels) {
  Module m;
  get_device_count(api, rec);
  rec.call(Kind::kSetDevice, [&] { return api.set_device(0); });
  rec.call(Kind::kModuleLoad, [&] { return api.module_load(m.id, image); });
  for (const char* name : kernels) {
    FuncId f = 0;
    rec.call(Kind::kGetFunction,
             [&] { return api.module_get_function(f, m.id, name); });
    m.funcs.push_back(f);
  }
  return m;
}

void close_session(CudaApi& api, Recorder& rec, const Module& m) {
  rec.call(Kind::kModuleUnload, [&] { return api.module_unload(m.id); });
}

DevPtr alloc(CudaApi& api, Recorder& rec, std::uint64_t size) {
  DevPtr p = 0;
  rec.call(Kind::kMalloc, [&] { return api.malloc(p, size); });
  return p;
}

void release(CudaApi& api, Recorder& rec, DevPtr p) {
  rec.call(Kind::kFree, [&] { return api.free(p); });
}

void h2d(CudaApi& api, Recorder& rec, DevPtr dst, Bytes src) {
  rec.call(Kind::kMemcpyH2D, [&] { return api.memcpy_h2d(dst, src); },
           src.size());
}

/// D2H copy into `dst`, checked byte for byte against `expect`.
void d2h_checked(CudaApi& api, Recorder& rec, std::span<std::uint8_t> dst,
                 DevPtr src, Bytes expect, const char* what) {
  if (rec.call(Kind::kMemcpyD2H, [&] { return api.memcpy_d2h(dst, src); },
               dst.size()) != Error::kSuccess)
    return;
  if (!std::equal(dst.begin(), dst.end(), expect.begin(), expect.end()))
    rec.fail(std::string(what) + ": device bytes differ from the expected");
}

void launch(CudaApi& api, Recorder& rec, FuncId f, cricket::cuda::Dim3 grid,
            cricket::cuda::Dim3 block, std::uint32_t shared, Bytes params) {
  rec.call(Kind::kLaunch, [&] {
    return api.launch_kernel(f, grid, block, shared,
                             cricket::gpusim::kDefaultStream, params);
  });
}

/// Ends a burst: every burst closes with cudaDeviceSynchronize.
void sync(CudaApi& api, Recorder& rec) {
  rec.call(Kind::kSynchronize, [&] { return api.device_synchronize(); });
  rec.end_burst();
}

// ---------------------------------------------------------------------------
// small_calls
// ---------------------------------------------------------------------------

/// Serial client, no payload to speak of: a seeded mix of
/// cudaGetDeviceCount, 4 KiB cudaMalloc/cudaFree, vectorAdd launches
/// (28-byte parameter blob, timing-only device) and memcpys of at most
/// 256 B, in bursts of 16-48 calls.
class SmallCalls final : public Workload {
 public:
  [[nodiscard]] bool timing_only() const override { return true; }

  void prepare(std::uint64_t seed) override {
    seed_ = seed;
    image_ = cricket::workloads::sample_cubin();
  }

  void session(CudaApi& api, Recorder& rec,
               std::uint64_t index) const override {
    constexpr int kBursts = 128;
    constexpr std::uint64_t kMinCalls = 16, kMaxCalls = 48;
    constexpr std::size_t kMaxCopy = 256, kMaxLive = 8;
    auto rng = session_rng(seed_, index);
    const Module mod =
        open_session(api, rec, image_, {cricket::workloads::kVectorAddKernel});
    const DevPtr a = alloc(api, rec, 1024), b = alloc(api, rec, 1024),
                 c = alloc(api, rec, 1024), scratch = alloc(api, rec, kMaxCopy);
    cricket::cuda::ParamPacker params;
    params.add_ptr(c).add_ptr(a).add_ptr(b).add(std::uint32_t{256});
    // Host mirror of `scratch`: every D2H must read back exactly it.
    std::array<std::uint8_t, kMaxCopy> shadow{}, readback{};
    rng.fill_bytes(shadow);
    h2d(api, rec, scratch, shadow);
    std::vector<DevPtr> live;

    for (int burst = 0; burst < kBursts; ++burst) {
      rec.begin_burst();
      const std::uint64_t calls =
          kMinCalls + pick(rng, kMaxCalls - kMinCalls + 1);
      for (std::uint64_t i = 0; i < calls; ++i) {
        switch (pick(rng, 4)) {
          case 0:
            get_device_count(api, rec);
            break;
          case 1:
            if (live.size() < kMaxLive && (live.empty() || pick(rng, 2) == 0)) {
              live.push_back(alloc(api, rec, 4096));
            } else {
              const std::size_t victim = pick(rng, live.size());
              release(api, rec, live[victim]);
              live[victim] = live.back();
              live.pop_back();
            }
            break;
          case 2:
            launch(api, rec, mod.funcs[0], {1, 1, 1}, {256, 1, 1}, 0,
                   params.bytes());
            break;
          default: {
            const std::size_t n = 1 + pick(rng, kMaxCopy);
            const std::span<std::uint8_t> window(shadow.data(), n);
            if (pick(rng, 2) == 0) {
              rng.fill_bytes(window);
              h2d(api, rec, scratch, window);
            } else {
              d2h_checked(api, rec, std::span(readback.data(), n), scratch,
                          window, "small D2H");
            }
          }
        }
      }
      sync(api, rec);
    }
    for (const DevPtr p : live) release(api, rec, p);
    for (const DevPtr p : {a, b, c, scratch}) release(api, rec, p);
    close_session(api, rec, mod);
  }

 private:
  std::uint64_t seed_ = 0;
  std::vector<std::uint8_t> image_;
};

// ---------------------------------------------------------------------------
// bulk_copy
// ---------------------------------------------------------------------------

/// Serial client, payload-bound: each burst copies a seeded size H2D, reads
/// it back D2H (checked byte for byte) and synchronizes. A session draws
/// one size from each of five octave classes between 256 KiB and 8 MiB, in
/// seeded order, so every session moves a similar volume.
class BulkCopy final : public Workload {
 public:
  static constexpr std::size_t kMinCopy = 256 << 10;
  static constexpr int kClasses = 5;  // [256 KiB << k, 256 KiB << (k + 1)]
  static constexpr std::size_t kMaxCopy = kMinCopy << kClasses;
  static constexpr std::size_t kSlack = 64 << 10;

  [[nodiscard]] std::size_t probe_bytes() const override { return kMaxCopy; }
  [[nodiscard]] double probe_nominal_us() const override { return 12500; }

  void prepare(std::uint64_t seed) override {
    seed_ = seed;
    image_ = cricket::workloads::sample_cubin();
    source_ = seeded_bytes(seed ^ 0xB01C, kMaxCopy + kSlack);
    readback_.assign(kMaxCopy, 0);
  }

  void session(CudaApi& api, Recorder& rec,
               std::uint64_t index) const override {
    auto rng = session_rng(seed_, index);
    std::vector<std::size_t> sizes;
    for (int k = 0; k < kClasses; ++k) {
      const std::size_t lo = kMinCopy << k;
      sizes.push_back(lo + pick(rng, lo + 1));
    }
    shuffle(sizes, rng);

    const Module mod = open_session(api, rec, image_, {});
    const DevPtr dev = alloc(api, rec, kMaxCopy);
    for (const std::size_t n : sizes) {
      const Bytes src(source_.data() + pick(rng, kSlack + 1), n);
      rec.begin_burst();
      h2d(api, rec, dev, src);
      d2h_checked(api, rec, std::span(readback_.data(), n), dev, src,
                  "bulk D2H");
      sync(api, rec);
    }
    release(api, rec, dev);
    close_session(api, rec, mod);
  }

 private:
  std::uint64_t seed_ = 0;
  std::vector<std::uint8_t> image_;
  std::vector<std::uint8_t> source_;
  mutable std::vector<std::uint8_t> readback_;  // reused host buffer
};

// ---------------------------------------------------------------------------
// pipelined_launch
// ---------------------------------------------------------------------------

/// Pipelined client (depth 32, batching) against the pipelined serve loop:
/// each burst uploads a seeded input of 64 B - 4 KiB, enqueues 64
/// fire-and-forget vectorAdd launches, reads the input back (checked) and
/// synchronizes.
class PipelinedLaunch final : public Workload {
 public:
  static constexpr std::size_t kMinCopy = 64, kMaxCopy = 4096;
  static constexpr int kLaunches = 64;

  [[nodiscard]] bool pipelined() const override { return true; }
  [[nodiscard]] bool timing_only() const override { return true; }

  void prepare(std::uint64_t seed) override {
    seed_ = seed;
    image_ = cricket::workloads::sample_cubin();
    source_ = seeded_bytes(seed ^ 0x91BE, 2 * kMaxCopy);
    readback_.assign(kMaxCopy, 0);
  }

  void session(CudaApi& api, Recorder& rec,
               std::uint64_t index) const override {
    constexpr int kBursts = 256;
    auto rng = session_rng(seed_, index);
    const Module mod =
        open_session(api, rec, image_, {cricket::workloads::kVectorAddKernel});
    const DevPtr a = alloc(api, rec, 1024), b = alloc(api, rec, 1024),
                 c = alloc(api, rec, 1024), scratch = alloc(api, rec, kMaxCopy);
    cricket::cuda::ParamPacker params;
    params.add_ptr(c).add_ptr(a).add_ptr(b).add(std::uint32_t{256});
    for (int burst = 0; burst < kBursts; ++burst) {
      const std::size_t n = kMinCopy + pick(rng, kMaxCopy - kMinCopy + 1);
      const Bytes src(source_.data() + pick(rng, kMaxCopy + 1), n);
      rec.begin_burst();
      h2d(api, rec, scratch, src);
      for (int i = 0; i < kLaunches; ++i)
        launch(api, rec, mod.funcs[0], {1, 1, 1}, {256, 1, 1}, 0,
               params.bytes());
      d2h_checked(api, rec, std::span(readback_.data(), n), scratch, src,
                  "pipelined D2H");
      sync(api, rec);
    }
    for (const DevPtr p : {a, b, c, scratch}) release(api, rec, p);
    close_session(api, rec, mod);
  }

 private:
  std::uint64_t seed_ = 0;
  std::vector<std::uint8_t> image_;
  std::vector<std::uint8_t> source_;
  mutable std::vector<std::uint8_t> readback_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "small_calls") return std::make_unique<SmallCalls>();
  if (name == "bulk_copy") return std::make_unique<BulkCopy>();
  if (name == "pipelined_launch") return std::make_unique<PipelinedLaunch>();
  return nullptr;
}

}  // namespace perfbench
