#include "vnet/virtqueue.hpp"

#include <algorithm>
#include <cstring>

namespace cricket::vnet {

std::uint32_t VirtqChain::readable_len() const noexcept {
  std::uint32_t n = 0;
  for (const auto& d : descs)
    if (!(d.flags & kDescWrite)) n += d.len;
  return n;
}

std::uint32_t VirtqChain::writable_len() const noexcept {
  std::uint32_t n = 0;
  for (const auto& d : descs)
    if (d.flags & kDescWrite) n += d.len;
  return n;
}

Virtqueue::Virtqueue(GuestMemory& memory, std::uint16_t queue_size)
    : memory_(&memory), queue_size_(queue_size), desc_table_(queue_size) {
  if (queue_size == 0 || (queue_size & (queue_size - 1)) != 0)
    throw VirtqError("queue size must be a power of two");
  if (memory.size() / queue_size == 0)
    throw VirtqError("guest memory too small for queue");
  free_list_.reserve(queue_size);
  for (std::uint16_t i = 0; i < queue_size; ++i)
    free_list_.push_back(static_cast<std::uint16_t>(queue_size - 1 - i));
}

std::uint16_t Virtqueue::alloc_desc_locked() {
  if (free_list_.empty()) throw VirtqError("descriptor table exhausted");
  const std::uint16_t id = free_list_.back();
  free_list_.pop_back();
  return id;
}

void Virtqueue::free_chain_locked(std::uint16_t head) {
  std::uint16_t cur = head;
  for (;;) {
    const VirtqDesc d = desc_table_[cur];
    free_list_.push_back(cur);
    if (!(d.flags & kDescNext)) break;
    cur = d.next;
  }
}

VirtqChain Virtqueue::resolve_chain_locked(std::uint16_t head) const {
  VirtqChain chain;
  chain.head = head;
  std::uint16_t cur = head;
  for (std::size_t guard = 0; guard <= queue_size_; ++guard) {
    const VirtqDesc d = desc_table_[cur];
    chain.descs.push_back(d);
    if (!(d.flags & kDescNext)) return chain;
    cur = d.next;
  }
  throw VirtqError("descriptor chain loop");
}

std::optional<std::uint16_t> Virtqueue::add_chain(
    std::span<const std::span<const std::uint8_t>> out,
    std::span<const std::uint32_t> in_lens) {
  const std::size_t needed = out.size() + in_lens.size();
  if (needed == 0) throw VirtqError("empty descriptor chain");

  sim::MutexLock lock(mu_);
  if (free_list_.size() < needed) return std::nullopt;

  const std::uint64_t slot = memory_->size() / queue_size_;
  std::vector<std::uint16_t> ids;
  ids.reserve(needed);
  for (std::size_t i = 0; i < needed; ++i) ids.push_back(alloc_desc_locked());

  std::size_t idx = 0;
  for (const auto& buf : out) {
    if (buf.size() > slot) throw VirtqError("buffer exceeds descriptor slot");
    const std::uint16_t id = ids[idx];
    VirtqDesc& d = desc_table_[id];
    d.addr = static_cast<std::uint64_t>(id) * slot;
    d.len = static_cast<std::uint32_t>(buf.size());
    d.flags = idx + 1 < needed ? kDescNext : 0;
    d.next = idx + 1 < needed ? ids[idx + 1] : 0;
    auto dst = memory_->at(d.addr, d.len);
    std::copy(buf.begin(), buf.end(), dst.begin());
    ++idx;
  }
  for (const auto len : in_lens) {
    if (len > slot) throw VirtqError("buffer exceeds descriptor slot");
    const std::uint16_t id = ids[idx];
    VirtqDesc& d = desc_table_[id];
    d.addr = static_cast<std::uint64_t>(id) * slot;
    d.len = len;
    d.flags = static_cast<std::uint16_t>(
        kDescWrite | (idx + 1 < needed ? kDescNext : 0));
    d.next = idx + 1 < needed ? ids[idx + 1] : 0;
    ++idx;
  }
  return ids.front();
}

void Virtqueue::kick(std::uint16_t head) {
  {
    sim::MutexLock lock(mu_);
    avail_ring_.push_back(head);
    ++kick_count_;
  }
  avail_cv_.notify_one();
}

std::optional<VirtqChain> Virtqueue::pop_avail(bool wait) {
  sim::MutexLock lock(mu_);
  if (wait)
    while (!shutdown_ && avail_ring_.empty()) avail_cv_.wait(mu_);
  if (avail_ring_.empty()) return std::nullopt;
  const std::uint16_t head = avail_ring_.front();
  avail_ring_.erase(avail_ring_.begin());
  return resolve_chain_locked(head);
}

std::vector<std::uint8_t> Virtqueue::gather(const VirtqChain& chain) {
  std::vector<std::uint8_t> out;
  out.reserve(chain.readable_len());
  sim::MutexLock lock(mu_);
  for (const auto& d : chain.descs) {
    if (d.flags & kDescWrite) continue;
    const auto src = memory_->at(d.addr, d.len);
    out.insert(out.end(), src.begin(), src.end());
  }
  return out;
}

std::uint32_t Virtqueue::scatter(const VirtqChain& chain,
                                 std::span<const std::uint8_t> data) {
  std::size_t off = 0;
  sim::MutexLock lock(mu_);
  for (const auto& d : chain.descs) {
    if (!(d.flags & kDescWrite)) continue;
    const std::size_t n = std::min<std::size_t>(d.len, data.size() - off);
    if (n == 0) break;
    auto dst = memory_->at(d.addr, static_cast<std::uint32_t>(n));
    std::memcpy(dst.data(), data.data() + off, n);
    off += n;
  }
  return static_cast<std::uint32_t>(off);
}

void Virtqueue::push_used(std::uint16_t head, std::uint32_t written) {
  {
    sim::MutexLock lock(mu_);
    used_ring_.emplace_back(head, written);
    ++interrupt_count_;
  }
  used_cv_.notify_one();
}

std::optional<std::pair<std::uint16_t, std::uint32_t>> Virtqueue::take_used(
    bool wait, std::optional<std::chrono::steady_clock::time_point> deadline) {
  sim::MutexLock lock(mu_);
  while (wait && !shutdown_ && used_ring_.empty()) {
    if (!deadline) {
      used_cv_.wait(mu_);
    } else if (used_cv_.wait_until(mu_, *deadline) ==
               std::cv_status::timeout) {
      break;
    }
  }
  if (used_ring_.empty()) return std::nullopt;
  const auto entry = used_ring_.front();
  used_ring_.erase(used_ring_.begin());
  return entry;
}

std::vector<std::uint8_t> Virtqueue::read_in_buffers(std::uint16_t head,
                                                     std::uint32_t written) {
  sim::MutexLock lock(mu_);
  const VirtqChain chain = resolve_chain_locked(head);
  std::vector<std::uint8_t> out;
  out.reserve(written);
  std::uint32_t remaining = written;
  for (const auto& d : chain.descs) {
    if (!(d.flags & kDescWrite) || remaining == 0) continue;
    const std::uint32_t n = std::min(d.len, remaining);
    const auto src = memory_->at(d.addr, n);
    out.insert(out.end(), src.begin(), src.end());
    remaining -= n;
  }
  free_chain_locked(head);
  return out;
}

void Virtqueue::recycle(std::uint16_t head) {
  sim::MutexLock lock(mu_);
  free_chain_locked(head);
}

void Virtqueue::shutdown() {
  {
    sim::MutexLock lock(mu_);
    shutdown_ = true;
  }
  avail_cv_.notify_all();
  used_cv_.notify_all();
}

std::uint64_t Virtqueue::kicks() const noexcept {
  sim::MutexLock lock(mu_);
  return kick_count_;
}

std::uint64_t Virtqueue::interrupts() const noexcept {
  sim::MutexLock lock(mu_);
  return interrupt_count_;
}

}  // namespace cricket::vnet
