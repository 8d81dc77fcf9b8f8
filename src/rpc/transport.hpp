// Byte-stream transports beneath the ONC RPC record layer.
//
// The RPC runtime only needs a reliable, ordered byte stream — exactly what
// the paper's stack gets from TCP (smoltcp in RustyHermit, lwIP in Unikraft,
// the Linux kernel elsewhere). Implementations here:
//   * PipeTransport   — in-process bounded duplex pipe (deterministic tests,
//                       and the carrier the vnet cost models wrap).
//   * TcpTransport    — real loopback sockets for integration tests.
// The vnet module layers virtio/TCP simulation and virtual-time charging on
// top of this interface.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/annotations.hpp"

namespace cricket::rpc {

/// Thrown on transport-level failures (peer closed, socket error).
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by recv() when a set_recv_timeout bound elapses with no data. A
/// subclass of TransportError so callers without deadline handling keep
/// their existing failure classification; the retry layer catches it
/// specifically to distinguish "slow" from "gone".
class TransportTimeout : public TransportError {
 public:
  using TransportError::TransportError;
};

/// Reliable ordered byte stream. Implementations must be safe for one
/// concurrent sender plus one concurrent receiver (full duplex), but not for
/// multiple concurrent senders.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Blocks until all of `data` is accepted. Throws TransportError if the
  /// peer is gone.
  virtual void send(std::span<const std::uint8_t> data) = 0;

  /// Blocks until at least one byte is available; returns the number of bytes
  /// read into `out`, or 0 on orderly end-of-stream.
  virtual std::size_t recv(std::span<std::uint8_t> out) = 0;

  /// Reads exactly `out.size()` bytes or throws TransportError on EOF. The
  /// default loops recv(); a transport that charges virtual time per
  /// receive call overrides it to wait for every byte and charge one
  /// receive (MSG_WAITALL).
  virtual void recv_exact(std::span<std::uint8_t> out);

  /// Bounds how long any single recv() may block; once the bound elapses
  /// with no data, recv() throws TransportTimeout. Zero clears the bound.
  /// Returns true when the transport honours it. Pipes, TCP and the virtio
  /// data path (whose RX used-ring wait takes the deadline) all do; the base
  /// implementation returns false (recv stays fully blocking), so a
  /// transport without timed waits degrades to deadline-between-records
  /// only.
  virtual bool set_recv_timeout(std::chrono::nanoseconds /*timeout*/) {
    return false;
  }

  /// Half-closes the write side; the peer's recv() will drain then return 0.
  virtual void shutdown() = 0;
};

/// One direction of an in-process pipe: a bounded byte FIFO.
/// Thread-safe.
class ByteQueue {
 public:
  explicit ByteQueue(std::size_t capacity) : capacity_(capacity) {}

  /// Blocks while full. Throws TransportError if closed.
  void push(std::span<const std::uint8_t> data) CRICKET_EXCLUDES(mu_);
  /// Blocks while empty and open; returns bytes read (0 = closed and drained).
  std::size_t pop(std::span<std::uint8_t> out) CRICKET_EXCLUDES(mu_);
  /// pop() with a deadline: gives up after `timeout` with no data, throwing
  /// TransportTimeout. timeout <= 0 waits forever, which is pop().
  std::size_t pop_for(std::span<std::uint8_t> out,
                      std::chrono::nanoseconds timeout) CRICKET_EXCLUDES(mu_);
  void close() CRICKET_EXCLUDES(mu_);

 private:
  sim::Mutex mu_;
  sim::CondVar cv_;
  std::deque<std::uint8_t> fifo_ CRICKET_GUARDED_BY(mu_);
  std::size_t capacity_;
  bool closed_ CRICKET_GUARDED_BY(mu_) = false;
};

/// In-process duplex transport; create pairs with `make_pipe_pair`.
class PipeTransport final : public Transport {
 public:
  PipeTransport(std::shared_ptr<ByteQueue> tx, std::shared_ptr<ByteQueue> rx)
      : tx_(std::move(tx)), rx_(std::move(rx)) {}
  ~PipeTransport() override { PipeTransport::shutdown(); }

  void send(std::span<const std::uint8_t> data) override { tx_->push(data); }
  std::size_t recv(std::span<std::uint8_t> out) override {
    const auto timeout = recv_timeout_.load(std::memory_order_relaxed);
    if (timeout > 0) {
      return rx_->pop_for(out, std::chrono::nanoseconds(timeout));
    }
    return rx_->pop(out);
  }
  bool set_recv_timeout(std::chrono::nanoseconds timeout) override {
    recv_timeout_.store(timeout.count(), std::memory_order_relaxed);
    return true;
  }
  void shutdown() override { tx_->close(); }

 private:
  std::shared_ptr<ByteQueue> tx_;
  std::shared_ptr<ByteQueue> rx_;
  std::atomic<std::int64_t> recv_timeout_{0};
};

/// Creates a connected pair of in-process transports (client end, server end).
[[nodiscard]] std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
make_pipe_pair(std::size_t capacity_bytes = 1 << 20);

/// Real TCP socket transport (used for loopback integration tests).
class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(int fd) noexcept : fd_(fd) {}
  ~TcpTransport() override;
  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  void send(std::span<const std::uint8_t> data) override;
  std::size_t recv(std::span<std::uint8_t> out) override;
  bool set_recv_timeout(std::chrono::nanoseconds timeout) override;
  void shutdown() override;

  /// Connects to 127.0.0.1:`port`.
  [[nodiscard]] static std::unique_ptr<TcpTransport> connect_loopback(
      std::uint16_t port);

 private:
  int fd_;
  std::atomic<std::int64_t> recv_timeout_ns_{0};
};

/// Listening TCP socket bound to a loopback ephemeral port.
class TcpListener {
 public:
  TcpListener();  // binds 127.0.0.1:0
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  /// Blocks for one inbound connection; returns nullptr once closed.
  [[nodiscard]] std::unique_ptr<TcpTransport> accept();
  /// Safe to call from another thread while accept() is blocked.
  void close();

 private:
  std::atomic<int> fd_{-1};
  std::uint16_t port_ = 0;
};

}  // namespace cricket::rpc
