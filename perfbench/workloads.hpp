// The benchmark's three closed-loop workloads.
//
// A workload is a seeded sequence of sessions. Each session connects,
// loads the sample module, runs bursts of CUDA calls that each end with
// cudaDeviceSynchronize, and disconnects. Session `i` of seed `s` is the
// same call sequence every time it is run, on any CudaApi, so the local
// replay and the drift probe can re-run exactly what the remote run did.
// README.md gives the reasons for each workload's mix and sizes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "cudart/api.hpp"
#include "recorder.hpp"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Runs on the pipelined client (AsyncRemoteCudaApi) and serve loop.
  [[nodiscard]] virtual bool pipelined() const { return false; }
  /// Kernels charge their modelled cost but skip the arithmetic.
  [[nodiscard]] virtual bool timing_only() const { return false; }

  /// The SpeedProbe that tracks the host's speed for this workload: the
  /// size of its fresh buffer (the largest copy the workload makes, at
  /// least 256 KiB) and its nominal busy time, about what it took on the
  /// 4-vCPU VM the benchmark was built on.
  [[nodiscard]] virtual std::size_t probe_bytes() const { return 256 << 10; }
  [[nodiscard]] virtual double probe_nominal_us() const { return 3800; }

  /// Builds the seeded inputs.
  virtual void prepare(std::uint64_t seed) = 0;

  /// Runs session `index` of the seeded sequence through `api`.
  virtual void session(cricket::cuda::CudaApi& api, Recorder& rec,
                       std::uint64_t index) const = 0;
};

/// Null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace perfbench
