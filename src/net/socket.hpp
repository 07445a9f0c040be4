#pragma once

/// \file socket.hpp
/// Thin RAII + error-checked wrappers over the POSIX TCP calls the
/// network front-end needs (src/net/). No abstraction is attempted
/// beyond ownership and exceptions: the server's loops work with raw
/// fds and the readiness loop of net/event_loop.hpp directly.

#include <cstdint>
#include <stdexcept>
#include <string>

namespace lynceus::net {

class SocketError : public std::runtime_error {
 public:
  explicit SocketError(const std::string& message)
      : std::runtime_error(message) {}
};

/// Owns one file descriptor; movable, closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  /// Relinquishes ownership without closing.
  [[nodiscard]] int release() noexcept {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void close() noexcept;

 private:
  int fd_ = -1;
};

/// Binds + listens on host:port (port 0 = ephemeral). Throws SocketError.
[[nodiscard]] Socket listen_tcp(const std::string& host, std::uint16_t port,
                                int backlog = 128);

/// Blocking connect to host:port. Throws SocketError.
[[nodiscard]] Socket connect_tcp(const std::string& host, std::uint16_t port);

/// The locally bound port of a socket (what an ephemeral bind got).
[[nodiscard]] std::uint16_t local_port(int fd);

void set_nonblocking(int fd, bool on);
/// Disables Nagle — the protocol is small request/reply frames where
/// coalescing only adds latency.
void set_nodelay(int fd);

}  // namespace lynceus::net
