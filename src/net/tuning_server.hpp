#pragma once

/// \file tuning_server.hpp
/// The TCP front-end of the tuning service: `net::TuningServer` turns the
/// single-process `service::TuningService` into a sharded network server
/// speaking the length-prefixed protocol of net/protocol.hpp.
///
/// ## Thread layout: 1 acceptor + K loops
///
/// For K shards (by default one per hardware thread, at most kMaxShards)
/// the server runs K + 1 threads:
///
///   * **1 acceptor** owns the listening socket and hands each accepted
///     connection to loop `conn_id % K` over a bounded SPSC lane
///     (util/spsc_queue.hpp), ringing the loop's doorbell. When a lane is
///     full the acceptor holds that one connection and stops accepting —
///     the kernel backlog is the natural backpressure.
///   * **K loop threads** each run an epoll readiness loop
///     (net/event_loop.hpp) over the connections they were handed and own
///     one FIFO `service::TuningService` holding every session those
///     connections open. A loop splits each byte stream into frames,
///     decodes a frame (JSON or negotiated binary — net/protocol.hpp,
///     net/binary_codec.hpp) and applies it on the spot: open, tell plus
///     sweep, snapshot, result, close. The reply and any pushed `run`
///     frames are appended to the connection's output buffer, flushed
///     with one `send` once the input at hand is decoded. Malformed input
///     (bad frame, bad JSON/binary, unknown message, broken handshake) is
///     answered with a typed fatal `error` frame and the connection is
///     closed. The server executes no profiling runs — remote drivers own
///     their clusters (or replay tables) and tell results back.
///
/// ## Placement: sessions live on their connection's loop
///
/// A session belongs to the connection that opened it (any other
/// connection naming it gets a typed error), so it lives on that
/// connection's loop: a request never crosses a thread, and a loop is
/// busy exactly when one of its connections has work. A synchronous
/// driver keeps one request in flight per connection, so this placement
/// costs it no parallelism, and connections on different loops never
/// wait on each other. Wire session ids come from one server-wide
/// counter; when a connection dies its loop closes the sessions it
/// owned.
///
/// ## Backpressure: a cap on unsent output
///
/// A loop stops reading a connection while that connection's unsent
/// output exceeds kMaxUnsentOutput, and resumes — in order — once the
/// peer has drained it below the cap. The kernel's TCP window then
/// throttles a driver that writes without reading, so its memory on the
/// server stays bounded and its loop keeps serving every other
/// connection. Loops sleep in the event loop when idle and are woken by
/// socket readiness or the acceptor's doorbell — no busy ticks.
///
/// ## Determinism contract
///
/// A session opened over the wire is byte-identical to the same
/// SessionSpec opened in process: specs, results and snapshots cross the
/// wire through the bit-exact codec (JsonWriter::value_exact), each
/// session lives entirely on one single-threaded loop, and the
/// per-session trajectory contract of service/tuning_service.hpp is
/// interleaving-independent — so neither the shard count, the placement,
/// nor the number of concurrent connections can move a byte of any
/// trajectory. tests/test_net_service.cpp pins 64 remote sessions across
/// loops against their solo in-process runs.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/types.hpp"
#include "net/event_loop.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "service/session_spec.hpp"
#include "util/spsc_queue.hpp"

namespace lynceus::net {

class TuningServer {
 public:
  /// Which frame-body encodings the server will negotiate (the hello
  /// handshake in net/protocol.hpp). kNegotiate accepts both and takes
  /// the client's first offered preference; kJsonOnly never picks
  /// binary; kBinaryOnly rejects connections that do not negotiate
  /// binary (including legacy clients that skip the hello) with a
  /// typed "bad_negotiation" error.
  enum class WirePolicy { kNegotiate, kJsonOnly, kBinaryOnly };

  /// Upper bound on Options::shards: every shard is a loop thread of its
  /// own, so far more shards than cores only oversubscribes the machine.
  static constexpr std::size_t kMaxShards = 64;

  /// A loop stops reading a connection while more than this many bytes
  /// of its output are unsent (see "Backpressure" above).
  static constexpr std::size_t kMaxUnsentOutput = std::size_t{1} << 20;

  struct Options {
    std::string host = "127.0.0.1";
    /// 0 = ephemeral (query the bound port with port()).
    std::uint16_t port = 0;
    /// Loop threads, in [1, kMaxShards]; connection c (in accept order)
    /// and every session it opens live on loop `c % shards`. Defaults to
    /// one per hardware thread: each loop decides one request at a time,
    /// so fewer loops than cores leaves cores idle under load.
    std::size_t shards = std::clamp<std::size_t>(
        std::thread::hardware_concurrency(), 1, kMaxShards);
    /// Per-loop RootCache capacity (0 = off). Sessions sharing a loop
    /// AND a recurrent problem warm-start each other, exactly as in the
    /// in-process service; trajectories are unaffected.
    std::size_t root_cache_capacity = 0;
    /// Default failure policy for sessions whose spec carries none.
    service::RunPolicy run_policy;
    /// Frames larger than this are a fatal protocol error.
    std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
    /// Encodings the hello handshake may pick (default: both).
    WirePolicy wire = WirePolicy::kNegotiate;
    /// Pin loop t to core t (mod cores) — opt-in cache locality
    /// (util/affinity.hpp). Trajectories are unaffected either way.
    bool pin_threads = false;
  };

  /// Saturation counters of one acceptor→loop connection lane
  /// (request_lane_stats()).
  struct LaneStats {
    std::size_t loop = 0;
    std::size_t capacity = 0;
    /// Highest occupancy any push observed (SpscQueue::high_water).
    std::size_t high_water = 0;
    /// Connections that found the lane full and were held by the
    /// acceptor until it drained.
    std::size_t stalls = 0;
  };

  /// Binds, spawns the acceptor and loop threads, and serves until
  /// stop() or destruction.
  TuningServer();
  explicit TuningServer(Options options);
  ~TuningServer();

  TuningServer(const TuningServer&) = delete;
  TuningServer& operator=(const TuningServer&) = delete;

  /// Registers `problem` under (suite, job) for ProblemRef resolution —
  /// how embedders (and tests) serve problems the bundled suites do not
  /// cover. Refs naming a bundled suite ("tf" | "scout" | "cherrypick")
  /// always resolve, building the replay dataset on first use. A
  /// registered problem's budget is its own; the ref's budget_multiplier
  /// is ignored for it. Thread-safe; typically called before clients
  /// connect.
  void register_problem(const std::string& suite, const std::string& job,
                        core::OptimizationProblem problem);

  /// The bound listening port (resolves ephemeral binds).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Stops accepting, closes every connection, joins all threads. Open
  /// sessions are discarded (snapshot first for a graceful drain).
  /// Idempotent.
  void stop();

  /// Sessions ever opened per loop (monitoring/tests; racy snapshot).
  [[nodiscard]] std::vector<std::size_t> shard_session_counts() const;

  /// Saturation stats of the K acceptor→loop lanes, in loop order
  /// (monitoring/tests; racy snapshot).
  [[nodiscard]] std::vector<LaneStats> request_lane_stats() const;

 private:
  /// One loop thread's connections, sessions and service
  /// (tuning_server.cpp).
  class Loop;

  /// A connection handed from the acceptor to its loop.
  struct NewConn {
    int fd = -1;
    std::uint64_t id = 0;
  };

  /// What the acceptor and monitoring share with one loop thread.
  struct LoopShared {
    explicit LoopShared(std::size_t lane_capacity) : accepts(lane_capacity) {}
    util::SpscQueue<NewConn> accepts;
    /// Rung by the acceptor after a push, and by stop().
    WakeupFd wake;
    std::atomic<std::size_t> holds{0};
    std::atomic<std::size_t> opened{0};
  };

  void acceptor_loop();
  void run_loop(std::size_t t);

  /// Resolves the spec's problem against the registry / bundled suites.
  /// Returned pointer is stable for the server's lifetime. Throws
  /// std::invalid_argument when unresolvable.
  const core::OptimizationProblem* resolve_problem(
      const service::SessionSpec& spec);

  Options options_;
  Socket listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> next_session_{0};
  std::vector<std::unique_ptr<LoopShared>> loops_;

  mutable std::mutex problems_mutex_;
  /// Stable-address problem storage, keyed "suite\njob" (registered) or
  /// "suite\njob\nb" (bundled, built on first use).
  std::map<std::string, std::unique_ptr<core::OptimizationProblem>> problems_;

  std::vector<std::thread> threads_;
};

}  // namespace lynceus::net
