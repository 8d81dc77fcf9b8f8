// Split virtqueue (virtio 1.x "split ring") implementation.
//
// RustyHermit and Unikraft reach the host network through virtio-net queues
// (paper §3.1/§4: "a TAP device using virtio for network virtualization").
// This is a faithful split-ring model: a descriptor table whose entries
// address a guest memory arena, an available ring the driver fills, and a
// used ring the device fills. Notifications ("kicks" guest→device and
// "interrupts" device→guest) are condition variables; the cost model charges
// VM-exit time per kick at a higher layer.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "sim/annotations.hpp"

namespace cricket::vnet {

class VirtqError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Flat guest-physical memory arena descriptors point into. Zeroed, like
/// fresh guest RAM, but by calloc: the pages come from the kernel already
/// zero and are only touched when a descriptor first uses them, so a
/// connection does not pay to clear arena space it never reaches.
class GuestMemory {
 public:
  explicit GuestMemory(std::size_t size)
      : mem_(static_cast<std::uint8_t*>(std::calloc(size, 1))), size_(size) {
    if (mem_ == nullptr && size != 0) throw std::bad_alloc();
  }

  [[nodiscard]] std::span<std::uint8_t> at(std::uint64_t addr,
                                           std::uint32_t len) {
    if (addr > size_ || len > size_ - addr)
      throw VirtqError("descriptor addresses outside guest memory");
    return {mem_.get() + addr, len};
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  struct Free {
    void operator()(std::uint8_t* p) const noexcept { std::free(p); }
  };
  std::unique_ptr<std::uint8_t[], Free> mem_;
  std::size_t size_;
};

/// Virtio descriptor flags.
constexpr std::uint16_t kDescNext = 1;   // chained to `next`
constexpr std::uint16_t kDescWrite = 2;  // device-writable (RX buffer)

struct VirtqDesc {
  std::uint64_t addr = 0;
  std::uint32_t len = 0;
  std::uint16_t flags = 0;
  std::uint16_t next = 0;
};

/// One element the device popped from the available ring: the head index
/// plus the resolved descriptor chain.
struct VirtqChain {
  std::uint16_t head = 0;
  std::vector<VirtqDesc> descs;

  /// Total length of device-readable / device-writable parts.
  [[nodiscard]] std::uint32_t readable_len() const noexcept;
  [[nodiscard]] std::uint32_t writable_len() const noexcept;
};

/// A single split virtqueue. The driver side and device side may run on
/// different threads; all state is protected by one mutex.
class Virtqueue {
 public:
  Virtqueue(GuestMemory& memory, std::uint16_t queue_size);

  // ------------------------------ driver side ----------------------------
  /// Allocates descriptors for a chain: `out` spans are device-readable
  /// (copied into guest memory), `in_lens` are device-writable buffer sizes.
  /// Returns the head descriptor index, or nullopt if the table is full.
  std::optional<std::uint16_t> add_chain(
      std::span<const std::span<const std::uint8_t>> out,
      std::span<const std::uint32_t> in_lens) CRICKET_EXCLUDES(mu_);

  /// Exposes the chain on the available ring and notifies the device.
  void kick(std::uint16_t head) CRICKET_EXCLUDES(mu_);

  /// Completed chain from the used ring: (head, bytes written by device).
  /// With `wait`, blocks until a chain completes, the queue shuts down, or
  /// `deadline` (if given) passes; returns nullopt in the last two cases
  /// and, without `wait`, when none is pending.
  std::optional<std::pair<std::uint16_t, std::uint32_t>> take_used(
      bool wait,
      std::optional<std::chrono::steady_clock::time_point> deadline = {})
      CRICKET_EXCLUDES(mu_);

  /// Reads back a device-written ("in") buffer of a completed chain and
  /// frees the chain's descriptors.
  [[nodiscard]] std::vector<std::uint8_t> read_in_buffers(
      std::uint16_t head, std::uint32_t written) CRICKET_EXCLUDES(mu_);
  /// Frees a chain's descriptors without reading (TX completion).
  void recycle(std::uint16_t head) CRICKET_EXCLUDES(mu_);

  // ------------------------------ device side ----------------------------
  /// Next available chain; blocks when `wait` (returns nullopt on shutdown
  /// or, for non-waiting calls, when the ring is empty).
  std::optional<VirtqChain> pop_avail(bool wait) CRICKET_EXCLUDES(mu_);

  /// Copies device-readable chain content out of guest memory.
  [[nodiscard]] std::vector<std::uint8_t> gather(const VirtqChain& chain)
      CRICKET_EXCLUDES(mu_);
  /// Scatters `data` into the chain's device-writable buffers; returns bytes
  /// written (trailing data is truncated if the chain is too small).
  std::uint32_t scatter(const VirtqChain& chain,
                        std::span<const std::uint8_t> data)
      CRICKET_EXCLUDES(mu_);
  /// Marks the chain used and notifies the driver.
  void push_used(std::uint16_t head, std::uint32_t written)
      CRICKET_EXCLUDES(mu_);

  void shutdown() CRICKET_EXCLUDES(mu_);

  [[nodiscard]] std::uint16_t queue_size() const noexcept {
    return queue_size_;
  }
  [[nodiscard]] std::uint64_t kicks() const noexcept CRICKET_EXCLUDES(mu_);
  [[nodiscard]] std::uint64_t interrupts() const noexcept
      CRICKET_EXCLUDES(mu_);

 private:
  std::uint16_t alloc_desc_locked() CRICKET_REQUIRES(mu_);
  void free_chain_locked(std::uint16_t head) CRICKET_REQUIRES(mu_);
  VirtqChain resolve_chain_locked(std::uint16_t head) const
      CRICKET_REQUIRES(mu_);

  GuestMemory* memory_;
  std::uint16_t queue_size_;
  std::vector<VirtqDesc> desc_table_ CRICKET_GUARDED_BY(mu_);
  // FIFO of heads.
  std::vector<std::uint16_t> avail_ring_ CRICKET_GUARDED_BY(mu_);
  std::vector<std::pair<std::uint16_t, std::uint32_t>> used_ring_
      CRICKET_GUARDED_BY(mu_);
  std::vector<std::uint16_t> free_list_ CRICKET_GUARDED_BY(mu_);
  // Per-chain bookkeeping of allocated arena regions (addr reuse).
  std::uint64_t arena_next_ = 0;

  mutable sim::Mutex mu_;
  sim::CondVar avail_cv_;  // device waits for kicks
  sim::CondVar used_cv_;   // driver waits for interrupts
  bool shutdown_ CRICKET_GUARDED_BY(mu_) = false;
  std::uint64_t kick_count_ CRICKET_GUARDED_BY(mu_) = 0;
  std::uint64_t interrupt_count_ CRICKET_GUARDED_BY(mu_) = 0;
};

}  // namespace cricket::vnet
