#pragma once

/// \file event_loop.hpp
/// Readiness multiplexing for the loop threads of the tuning server:
/// one `EventLoop` per loop thread watches every connection it owns
/// (hundreds to thousands of sockets) plus a `WakeupFd` the acceptor
/// pokes when it hands the loop a new connection through its lane — so
/// the loop blocks in one `wait()` call instead of rebuilding a pollfd
/// array per iteration and busy-ticking for lane traffic.
///
/// On Linux the loop is epoll (O(ready) dispatch, interest registered
/// once per state change); elsewhere it degrades to poll(2) over an
/// interest map kept by the same add/modify/remove API, so the
/// server code is platform-independent. The `WakeupFd` is an eventfd
/// on Linux and a self-pipe elsewhere; `notify()` is cheap, thread-safe
/// and coalescing (N notifies before a drain wake the loop once).
///
/// Not thread-safe (except WakeupFd::notify): each EventLoop belongs to
/// exactly one loop thread, matching the thread layout of
/// tuning_server.hpp.

#include <atomic>
#include <cstdint>
#include <vector>

namespace lynceus::net {

class EventLoop {
 public:
  struct Event {
    std::uint64_t data = 0;  ///< the token passed to add()/modify()
    bool readable = false;
    bool writable = false;
    /// Error or hangup on the fd — the owner should read to EOF / reap.
    bool broken = false;
  };

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` with the given interest; `data` comes back verbatim
  /// in Event::data (connection id, or a sentinel for the wakeup fd).
  void add(int fd, std::uint64_t data, bool want_read, bool want_write);
  /// Updates interest/token for an already-registered fd.
  void modify(int fd, std::uint64_t data, bool want_read, bool want_write);
  /// Deregisters; must be called before the fd is closed.
  void remove(int fd);

  /// Blocks up to `timeout_ms` (-1 = forever) and fills events().
  /// Returns the number of ready events (0 on timeout). EINTR is
  /// retried internally.
  std::size_t wait(int timeout_ms);
  [[nodiscard]] const std::vector<Event>& events() const noexcept {
    return events_;
  }

 private:
  std::vector<Event> events_;
#ifdef __linux__
  int epoll_fd_ = -1;
  std::vector<char> raw_;  ///< epoll_event scratch, sized in wait()
#else
  struct Interest {
    int fd;
    std::uint64_t data;
    bool want_read;
    bool want_write;
  };
  std::vector<Interest> interests_;
  std::vector<char> raw_;  ///< pollfd scratch
#endif
};

/// A doorbell another thread can ring to wake an EventLoop::wait().
/// Register read_fd() with the loop; ring with notify(); clear with
/// drain() once woken. Multiple notifies coalesce into one readable
/// event.
///
/// The bell is ARMED: notify() pays its write(2) only when the consumer
/// has declared itself (about to be) blocked via arm(). A busy consumer
/// sweeps its lanes every iteration anyway, so ringing it would be a
/// wasted syscall per enqueue — on a loaded server that is the dominant
/// wire cost after the frame bodies themselves. The protocol is the
/// classic sleep/wake handshake:
///
///   consumer: arm(); re-check ALL work sources; if empty, block on
///             read_fd(); on wake drain() then disarm().
///   producer: push work; notify().
///
/// arm() and notify() are both seq_cst read-modify-writes, so either
/// the producer's notify() sees the armed flag (and rings), or the
/// consumer's post-arm() re-check sees the pushed work (and skips the
/// block). The consumer MUST re-check after arming — arming after the
/// check reintroduces the lost-wake race. notify(true) forces the ring
/// regardless of the flag (shutdown paths, where the consumer's
/// re-check list may not include the stop flag yet).
class WakeupFd {
 public:
  WakeupFd();
  ~WakeupFd();

  WakeupFd(const WakeupFd&) = delete;
  WakeupFd& operator=(const WakeupFd&) = delete;

  [[nodiscard]] int read_fd() const noexcept { return read_fd_; }
  /// Thread-safe; never blocks (a full pipe already guarantees a wake).
  /// Rings only when armed, unless `force`.
  void notify(bool force = false) noexcept;
  /// Owner-thread only: declare intent to block. Re-check every work
  /// source AFTER this call and before actually blocking.
  void arm() noexcept { armed_.exchange(true, std::memory_order_seq_cst); }
  /// Owner-thread only: back awake (with or without having blocked).
  void disarm() noexcept { armed_.store(false, std::memory_order_relaxed); }
  /// Owner-thread only: consume pending notifications.
  void drain() noexcept;

 private:
  /// Producer claims the ring: true -> false exactly once per sleep.
  [[nodiscard]] bool take_ring(bool force) noexcept {
    return force || armed_.exchange(false, std::memory_order_seq_cst);
  }

  std::atomic<bool> armed_{false};
  int read_fd_ = -1;
  int write_fd_ = -1;  ///< == read_fd_ for eventfd
};

}  // namespace lynceus::net
