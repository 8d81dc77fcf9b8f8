#include "rpc/transport.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>

namespace cricket::rpc {

void Transport::recv_exact(std::span<std::uint8_t> out) {
  std::size_t got = 0;
  while (got < out.size()) {
    const std::size_t n = recv(out.subspan(got));
    if (n == 0) throw TransportError("connection closed mid-message");
    got += n;
  }
}

// -------------------------------- ByteQueue --------------------------------

void ByteQueue::push(std::span<const std::uint8_t> data) {
  std::size_t off = 0;
  while (off < data.size()) {
    sim::MutexLock lock(mu_);
    while (!closed_ && fifo_.size() >= capacity_) cv_.wait(mu_);
    if (closed_) throw TransportError("pipe closed");
    const std::size_t room = capacity_ - fifo_.size();
    const std::size_t n = std::min(room, data.size() - off);
    fifo_.insert(fifo_.end(), data.begin() + static_cast<std::ptrdiff_t>(off),
                 data.begin() + static_cast<std::ptrdiff_t>(off + n));
    off += n;
    cv_.notify_all();
  }
}

std::size_t ByteQueue::pop(std::span<std::uint8_t> out) {
  return pop_for(out, std::chrono::nanoseconds::zero());
}

std::size_t ByteQueue::pop_for(std::span<std::uint8_t> out,
                               std::chrono::nanoseconds timeout) {
  const bool bounded = timeout > std::chrono::nanoseconds::zero();
  const auto deadline = bounded ? std::chrono::steady_clock::now() + timeout
                                : std::chrono::steady_clock::time_point{};
  sim::MutexLock lock(mu_);
  while (!closed_ && fifo_.empty()) {
    if (!bounded) {
      cv_.wait(mu_);
      continue;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      throw TransportTimeout("pipe recv timed out");
    }
    cv_.wait_until(mu_, deadline);
  }
  if (fifo_.empty()) return 0;  // closed and drained
  const std::size_t n = std::min(out.size(), fifo_.size());
  std::copy_n(fifo_.begin(), n, out.begin());
  fifo_.erase(fifo_.begin(), fifo_.begin() + static_cast<std::ptrdiff_t>(n));
  cv_.notify_all();
  return n;
}

void ByteQueue::close() {
  sim::MutexLock lock(mu_);
  closed_ = true;
  cv_.notify_all();
}

std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
make_pipe_pair(std::size_t capacity_bytes) {
  auto a_to_b = std::make_shared<ByteQueue>(capacity_bytes);
  auto b_to_a = std::make_shared<ByteQueue>(capacity_bytes);
  return {std::make_unique<PipeTransport>(a_to_b, b_to_a),
          std::make_unique<PipeTransport>(b_to_a, a_to_b)};
}

// ------------------------------- TcpTransport ------------------------------

TcpTransport::~TcpTransport() {
  if (fd_ >= 0) ::close(fd_);
}

void TcpTransport::send(std::span<const std::uint8_t> data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw TransportError(std::string("send: ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

std::size_t TcpTransport::recv(std::span<std::uint8_t> out) {
  const std::int64_t timeout_ns =
      recv_timeout_ns_.load(std::memory_order_relaxed);
  if (timeout_ns > 0) {
    // Bound the wait with poll() rather than SO_RCVTIMEO so a zero return
    // can still be cleanly distinguished from orderly EOF.
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    const int timeout_ms = static_cast<int>(
        std::min<std::int64_t>((timeout_ns + 999'999) / 1'000'000,
                               std::numeric_limits<int>::max()));
    for (;;) {
      const int rc = ::poll(&pfd, 1, timeout_ms);
      if (rc > 0) break;
      if (rc == 0) throw TransportTimeout("tcp recv timed out");
      if (errno == EINTR) continue;
      throw TransportError(std::string("poll: ") + std::strerror(errno));
    }
  }
  for (;;) {
    const ssize_t n = ::recv(fd_, out.data(), out.size(), 0);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    throw TransportError(std::string("recv: ") + std::strerror(errno));
  }
}

bool TcpTransport::set_recv_timeout(std::chrono::nanoseconds timeout) {
  recv_timeout_ns_.store(timeout.count(), std::memory_order_relaxed);
  return true;
}

void TcpTransport::shutdown() { ::shutdown(fd_, SHUT_WR); }

std::unique_ptr<TcpTransport> TcpTransport::connect_loopback(
    std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw TransportError("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw TransportError(std::string("connect: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return std::make_unique<TcpTransport>(fd);
}

// ------------------------------- TcpListener -------------------------------

TcpListener::TcpListener() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw TransportError("socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    throw TransportError(std::string("bind/listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  fd_.store(fd);
}

TcpListener::~TcpListener() { close(); }

std::unique_ptr<TcpTransport> TcpListener::accept() {
  const int lfd = fd_.load();
  if (lfd < 0) return nullptr;
  const int cfd = ::accept(lfd, nullptr, nullptr);
  if (cfd < 0) return nullptr;  // listener closed
  const int one = 1;
  ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return std::make_unique<TcpTransport>(cfd);
}

void TcpListener::close() {
  const int fd = fd_.exchange(-1);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

}  // namespace cricket::rpc
