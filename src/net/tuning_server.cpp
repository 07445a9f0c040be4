#include "net/tuning_server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "cloud/workloads.hpp"
#include "eval/experiment.hpp"
#include "net/binary_codec.hpp"
#include "service/tuning_service.hpp"
#include "util/affinity.hpp"
#include "util/json.hpp"

namespace lynceus::net {

namespace {

/// Keys for the problem registry; '\n' cannot appear in JSON string
/// values that reach us unescaped, so it is a safe separator.
std::string registry_key(const std::string& suite, const std::string& job) {
  return suite + '\n' + job;
}

std::string bundled_key(const std::string& suite, const std::string& job,
                        double b) {
  util::JsonWriter w;  // bit-exact double, reused as a map key
  w.value_exact(b);
  return suite + '\n' + job + '\n' + w.str();
}

}  // namespace

TuningServer::TuningServer() : TuningServer(Options{}) {}

TuningServer::TuningServer(Options options) : options_(std::move(options)) {
  if (options_.shards == 0 || options_.shards > kMaxShards) {
    throw std::invalid_argument("TuningServer: shards must be between 1 and " +
                                std::to_string(kMaxShards));
  }
  options_.run_policy.validate();
  listener_ = listen_tcp(options_.host, options_.port);
  set_nonblocking(listener_.fd(), true);
  port_ = local_port(listener_.fd());

  const std::size_t k = options_.shards;
  loops_.reserve(k);
  for (std::size_t t = 0; t < k; ++t) {
    loops_.push_back(std::make_unique<LoopShared>());
  }
  threads_.reserve(k + 1);
  for (std::size_t t = 0; t < k; ++t) {
    threads_.emplace_back([this, t] { run_loop(t); });
  }
  threads_.emplace_back([this] { acceptor_loop(); });
}

TuningServer::~TuningServer() { stop(); }

void TuningServer::stop() {
  if (stop_.exchange(true)) {
    return;
  }
  // Ring every doorbell so the loops notice stop_ now. Forced: the
  // armed-flag gate would otherwise skip a loop between arm() and block.
  for (const auto& l : loops_) l->wake.notify(/*force=*/true);
  for (std::thread& th : threads_) {
    if (th.joinable()) th.join();
  }
  threads_.clear();
  listener_.close();
}

std::vector<std::size_t> TuningServer::shard_session_counts() const {
  std::vector<std::size_t> counts;
  counts.reserve(loops_.size());
  for (const auto& l : loops_) counts.push_back(l->opened.load());
  return counts;
}

std::vector<TuningServer::LaneStats> TuningServer::request_lane_stats() const {
  std::vector<LaneStats> out;
  out.reserve(loops_.size());
  for (std::size_t t = 0; t < loops_.size(); ++t) {
    const LoopShared& l = *loops_[t];
    std::lock_guard<std::mutex> lock(l.mutex);
    out.push_back(LaneStats{t, l.high_water, 0});
  }
  return out;
}

void TuningServer::register_problem(const std::string& suite,
                                    const std::string& job,
                                    core::OptimizationProblem problem) {
  problem.validate();
  std::lock_guard<std::mutex> lock(problems_mutex_);
  problems_[registry_key(suite, job)] =
      std::make_unique<core::OptimizationProblem>(std::move(problem));
}

const core::OptimizationProblem* TuningServer::resolve_problem(
    const service::SessionSpec& spec) {
  if (spec.problem != nullptr) {
    return spec.problem;
  }
  const service::ProblemRef& ref = spec.problem_ref;
  if (ref.empty()) {
    throw std::invalid_argument(
        "spec carries neither an in-process problem nor a problem reference");
  }
  std::lock_guard<std::mutex> lock(problems_mutex_);
  auto it = problems_.find(registry_key(ref.suite, ref.job));
  if (it != problems_.end()) {
    return it->second.get();
  }
  const std::string key = bundled_key(ref.suite, ref.job, ref.budget_multiplier);
  it = problems_.find(key);
  if (it != problems_.end()) {
    return it->second.get();
  }
  std::vector<cloud::Dataset> datasets;
  if (ref.suite == "tf" || ref.suite == "tensorflow") {
    datasets = cloud::make_tensorflow_datasets();
  } else if (ref.suite == "scout") {
    datasets = cloud::make_scout_datasets();
  } else if (ref.suite == "cherrypick") {
    datasets = cloud::make_cherrypick_datasets();
  } else {
    throw std::invalid_argument("unknown workload suite '" + ref.suite + "'");
  }
  for (const cloud::Dataset& ds : datasets) {
    if (ds.job_name() == ref.job) {
      auto built = std::make_unique<core::OptimizationProblem>(
          eval::make_problem(ds, ref.budget_multiplier));
      const core::OptimizationProblem* out = built.get();
      problems_[key] = std::move(built);
      return out;
    }
  }
  throw std::invalid_argument("suite '" + ref.suite + "' has no job named '" +
                              ref.job + "'");
}

// --- Acceptor ---------------------------------------------------------------

void TuningServer::acceptor_loop() {
  std::uint64_t next_conn = 0;
  pollfd pfd{};
  pfd.fd = listener_.fd();
  pfd.events = POLLIN;
  while (!stop_.load(std::memory_order_relaxed)) {
    pfd.revents = 0;
    const int rc = ::poll(&pfd, 1, 50);
    if (rc <= 0) continue;
    while (true) {
      const int fd = ::accept(listener_.fd(), nullptr, nullptr);
      if (fd < 0) break;  // EAGAIN / transient: poll again
      const NewConn nc{fd, next_conn++};
      LoopShared& l = *loops_[nc.id % options_.shards];
      {
        std::lock_guard<std::mutex> lock(l.mutex);
        l.accepts.push_back(nc);
        l.high_water = std::max(l.high_water, l.accepts.size());
      }
      l.wake.notify();
    }
  }
}

// --- Loop -------------------------------------------------------------------

/// One loop thread: the connections the acceptor handed it, the service
/// holding every session they open, and the readiness loop driving both.
/// Built and run on its own thread; nothing here is shared.
class TuningServer::Loop {
 public:
  Loop(TuningServer& server, std::size_t t)
      : server_(server), shared_(*server.loops_[t]), svc_(service_options()) {}

  void run() {
    loop_.add(shared_.wake.read_fd(), kWakeToken, /*want_read=*/true,
              /*want_write=*/false);
    while (!stopping()) {
      // Armed doorbell (see WakeupFd): declare the sleep, then re-check
      // the accept lane — an acceptor that pushed before the flag flipped
      // skipped its ring, so blocking now would lose the wake.
      shared_.wake.arm();
      const bool ready = stopping() || lane_pending();
      const std::size_t n = loop_.wait(ready ? 0 : -1);
      shared_.wake.disarm();
      if (stopping()) break;
      for (std::size_t i = 0; i < n; ++i) {
        const EventLoop::Event& ev = loop_.events()[i];
        if (ev.data == kWakeToken) {
          shared_.wake.drain();
        } else {
          on_event(ev);
        }
      }
      accept_new();
      // Connections that received runs pushed by another connection's
      // sweep; advance() may add more, so index rather than iterate.
      for (std::size_t i = 0; i < dirty_.size(); ++i) {
        const auto it = conns_.find(dirty_[i]);
        if (it != conns_.end()) advance(it->second);
      }
      dirty_.clear();
    }
  }

 private:
  /// The wakeup fd's token in the event loop; connection ids are dense
  /// from 0, so the max token is free.
  static constexpr std::uint64_t kWakeToken = ~std::uint64_t{0};

  /// Per-connection state: raw socket, incremental frame assembler,
  /// unsent output, negotiated encoding, the sessions it owns.
  struct Conn {
    std::uint64_t id = 0;
    Socket sock;
    FrameAssembler frames;
    std::string outbuf;
    std::size_t out_off = 0;
    WireEncoding enc = WireEncoding::kJson;
    /// False until the first frame fixes the encoding (hello or not).
    bool saw_first_frame = false;
    /// A fatal error reply is queued: flush outbuf, then close. No
    /// further input is read or decoded.
    bool closing = false;
    /// The peer hung up or the socket failed: tear down.
    bool eof = false;
    /// Decoding paused: unsent output passed kMaxUnsentOutput.
    bool stalled = false;
    /// Interest currently registered with the event loop.
    bool reg_read = true;
    bool reg_write = false;
    /// Wire ids of the sessions this connection opened and not closed.
    std::vector<std::uint64_t> sessions;

    Conn(std::uint64_t id_, int fd, std::size_t max_frame)
        : id(id_), sock(fd), frames(max_frame) {}

    [[nodiscard]] std::size_t unsent() const noexcept {
      return outbuf.size() - out_off;
    }
    [[nodiscard]] bool wants_write() const noexcept { return unsent() > 0; }

    void queue(const std::string& frame) {
      if (out_off > 0 && out_off >= outbuf.size() / 2) {
        outbuf.erase(0, out_off);
        out_off = 0;
      }
      outbuf.append(frame);
    }
  };

  struct Session {
    service::SessionId local = 0;
    Conn* owner = nullptr;
  };

  [[nodiscard]] service::TuningService::Options service_options() const {
    service::TuningService::Options o;
    o.root_cache_capacity = server_.options_.root_cache_capacity;
    o.run_policy = server_.options_.run_policy;
    return o;
  }

  [[nodiscard]] bool stopping() const noexcept {
    return server_.stop_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] bool lane_pending() const {
    std::lock_guard<std::mutex> lock(shared_.mutex);
    return !shared_.accepts.empty();
  }

  void accept_new() {
    {
      std::lock_guard<std::mutex> lock(shared_.mutex);
      taken_.swap(shared_.accepts);
    }
    for (const NewConn& nc : taken_) {
      try {
        set_nonblocking(nc.fd, true);
      } catch (const SocketError&) {
        ::close(nc.fd);
        continue;
      }
      set_nodelay(nc.fd);
      Conn conn(nc.id, nc.fd, server_.options_.max_frame_bytes);
      try {
        loop_.add(nc.fd, nc.id, /*want_read=*/true, /*want_write=*/false);
      } catch (const std::exception&) {
        continue;  // cannot watch it: drop it (`conn` closes the socket)
      }
      conns_.emplace(nc.id, std::move(conn));
    }
    taken_.clear();
  }

  void on_event(const EventLoop::Event& ev) {
    const auto it = conns_.find(ev.data);
    if (it == conns_.end()) return;
    Conn& c = it->second;
    if (ev.readable) {
      // Read interest off yet "readable": the event is the peer's hangup
      // (epoll reports it regardless of interest).
      if (c.reg_read) {
        read_conn(c);
      } else if (!c.closing) {
        c.eof = true;
      }
    }
    if (ev.broken && !ev.readable) c.eof = true;
    advance(c);
  }

  /// Decodes buffered frames, then reads the socket until it would
  /// block, the peer hangs up, or the connection closes or stalls.
  void read_conn(Conn& c) {
    while (!c.closing && !c.eof) {
      drain_frames(c);
      if (c.closing || c.stalled) return;
      const ssize_t n = ::recv(c.sock.fd(), rbuf_.data(), rbuf_.size(), 0);
      if (n > 0) {
        c.frames.feed(rbuf_.data(), static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      c.eof = true;  // peer closed (n == 0) or hard socket error
    }
  }

  /// Applies every complete buffered frame, stalling the connection
  /// while its unsent output is over the cap.
  void drain_frames(Conn& c) {
    try {
      while (!c.closing) {
        if (c.unsent() > kMaxUnsentOutput) {
          write_conn(c);
          if (c.unsent() > kMaxUnsentOutput) {
            c.stalled = true;
            return;
          }
        }
        if (!c.frames.next(payload_)) return;
        handle_payload(c, payload_);
      }
    } catch (const FrameError& e) {
      queue_error(c, 0, "bad_frame", e.what());
    }
  }

  void write_conn(Conn& c) {
    while (c.wants_write()) {
      const ssize_t n = ::send(c.sock.fd(), c.outbuf.data() + c.out_off,
                               c.unsent(), MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      c.eof = true;
      return;
    }
    c.outbuf.clear();
    c.out_off = 0;
  }

  /// Per-connection progress pass: flush output, resume a stalled
  /// reader whose output drained, tear down a finished connection, sync
  /// event-loop interest. `c` is gone when it returns after a teardown.
  void advance(Conn& c) {
    write_conn(c);
    while (c.stalled && !c.closing && !c.eof &&
           c.unsent() <= kMaxUnsentOutput) {
      c.stalled = false;
      read_conn(c);
      write_conn(c);
    }
    if (c.eof || (c.closing && !c.wants_write())) {
      teardown(c);
      return;
    }
    const bool want_read = !c.closing && !c.stalled;
    const bool want_write = c.wants_write();
    if (want_read != c.reg_read || want_write != c.reg_write) {
      loop_.modify(c.sock.fd(), c.id, want_read, want_write);
      c.reg_read = want_read;
      c.reg_write = want_write;
    }
  }

  /// A dead connection abandons its sessions: close them so their
  /// steppers (and any in-flight bookkeeping) are reclaimed.
  void teardown(Conn& c) {
    for (const std::uint64_t wire : c.sessions) {
      const auto it = by_wire_.find(wire);
      svc_.close(it->second.local);
      wire_of_local_.erase(it->second.local);
      by_wire_.erase(it);
    }
    loop_.remove(c.sock.fd());
    conns_.erase(c.id);
  }

  void queue_error(Conn& c, std::uint64_t req, const char* code,
                   const std::string& message) {
    c.queue(encode_frame(encode_error_wire(c.enc, req, code, message, true)));
    c.closing = true;
  }

  /// The hello handshake (first frame only; see net/protocol.hpp).
  void negotiate(Conn& c, const Request& hello) {
    if (hello.version != kProtocolVersion) {
      queue_error(c, hello.req, "bad_negotiation",
                  "unsupported protocol version " +
                      std::to_string(hello.version));
      return;
    }
    const WirePolicy policy = server_.options_.wire;
    for (const std::string& name : hello.encodings) {
      WireEncoding e = WireEncoding::kJson;
      if (!wire_encoding_from_name(name, e)) continue;
      if (e == WireEncoding::kBinary && policy == WirePolicy::kJsonOnly) {
        continue;
      }
      if (e == WireEncoding::kJson && policy == WirePolicy::kBinaryOnly) {
        continue;
      }
      // The reply itself is JSON — the switch applies to what follows.
      c.queue(encode_frame(encode_hello_reply(hello.req, kProtocolVersion,
                                              wire_encoding_name(e))));
      c.enc = e;
      return;
    }
    queue_error(c, hello.req, "bad_negotiation",
                "no mutually supported encoding");
  }

  /// Decodes one frame payload and applies it; on a malformed message,
  /// queues a fatal error reply and marks the connection closing.
  void handle_payload(Conn& c, const std::string& body) {
    Request request;
    try {
      if (!c.saw_first_frame) {
        c.saw_first_frame = true;
        // The first frame is JSON by definition: either a hello or a
        // plain request that fixes the connection to JSON.
        request = parse_request(body);
        if (request.type == Request::Type::Hello) {
          negotiate(c, request);
          return;
        }
        if (server_.options_.wire == WirePolicy::kBinaryOnly) {
          queue_error(c, request.req, "bad_negotiation",
                      "server requires negotiated binary framing");
          return;
        }
      } else {
        request = parse_request_wire(c.enc, body);
        if (request.type == Request::Type::Hello) {
          queue_error(c, request.req, "bad_negotiation",
                      "negotiation replay: hello after the first frame");
          return;
        }
      }
    } catch (const std::exception& e) {
      queue_error(c, 0, "bad_message", e.what());
      return;
    }
    try {
      apply(c, request);
    } catch (const std::exception& e) {
      queue_error(c, request.req, "bad_request", e.what());
    }
  }

  void apply(Conn& c, Request& request) {
    switch (request.type) {
      case Request::Type::Hello:
        return;  // handled in handle_payload; unreachable
      case Request::Type::Open:
      case Request::Type::Restore: {
        service::SessionSpec& spec = request.spec;
        spec.problem = server_.resolve_problem(spec);
        const service::SessionId local =
            request.type == Request::Type::Open
                ? svc_.open_session(spec)
                : svc_.restore_session(spec, request.snapshot);
        const std::uint64_t wire = server_.next_session_.fetch_add(1);
        by_wire_[wire] = Session{local, &c};
        wire_of_local_[local] = wire;
        c.sessions.push_back(wire);
        shared_.opened.fetch_add(1, std::memory_order_relaxed);
        c.queue(encode_frame(encode_opened_wire(c.enc, request.req, wire)));
        sweep(c);
        return;
      }
      case Request::Type::NextRuns:
        sweep(c);
        return;
      case Request::Type::Tell:
      case Request::Type::Snapshot:
      case Request::Type::Result:
      case Request::Type::Close:
        break;
    }
    const auto it = by_wire_.find(request.session);
    if (it == by_wire_.end() || it->second.owner != &c) {
      queue_error(c, request.req, "bad_request",
                  "unknown session " + std::to_string(request.session));
      return;
    }
    const service::SessionId local = it->second.local;
    const std::uint64_t wire = request.session;
    switch (request.type) {
      case Request::Type::Tell: {
        svc_.tell(local, request.config, request.result);
        // Sweep BEFORE reporting: a stepper only learns it is finished
        // when the post-tell ask happens, so the told reply would
        // otherwise claim finished=false with no further run coming —
        // wedging a driver that waits for pushes. Runs pushed here
        // arrive before the told frame; clients buffer them.
        sweep(c);
        const bool quarantined = svc_.quarantined(local);
        const bool finished = quarantined || svc_.finished(local);
        c.queue(encode_frame(encode_told_wire(c.enc, request.req, wire,
                                              finished, quarantined,
                                              svc_.stop_reason(local))));
        return;
      }
      case Request::Type::Snapshot:
        c.queue(encode_frame(encode_snapshot_reply_wire(
            c.enc, request.req, wire, svc_.snapshot_session(local))));
        return;
      case Request::Type::Result:
        c.queue(encode_frame(encode_result_reply_wire(
            c.enc, request.req, wire, svc_.finished(local),
            svc_.quarantined(local), svc_.stop_reason(local),
            svc_.result(local))));
        return;
      default: {  // Close
        svc_.close(local);
        wire_of_local_.erase(local);
        by_wire_.erase(it);
        c.sessions.erase(std::find(c.sessions.begin(), c.sessions.end(), wire));
        c.queue(encode_frame(encode_closed_wire(c.enc, request.req, wire)));
        return;
      }
    }
  }

  /// Drains the service's ready queue and pushes the asked runs to their
  /// sessions' connections (all on this loop), rewriting local ids to
  /// wire ids. `current` is flushed by its caller; others are marked.
  void sweep(const Conn& current) {
    for (const service::PendingRun& run : svc_.next_runs()) {
      const auto wit = wire_of_local_.find(run.session);
      if (wit == wire_of_local_.end()) continue;
      Conn& owner = *by_wire_.at(wit->second).owner;
      service::PendingRun wire = run;
      wire.session = wit->second;
      owner.queue(encode_frame(encode_run_wire(owner.enc, wire)));
      if (&owner != &current) dirty_.push_back(owner.id);
    }
  }

  TuningServer& server_;
  LoopShared& shared_;
  service::TuningService svc_;
  EventLoop loop_;
  std::unordered_map<std::uint64_t, Conn> conns_;
  std::unordered_map<std::uint64_t, Session> by_wire_;
  std::unordered_map<service::SessionId, std::uint64_t> wire_of_local_;
  // Reused scratch: recv buffer and frame payload (framing stays
  // allocation-free in steady state — both keep their capacity).
  std::vector<char> rbuf_ = std::vector<char>(1 << 16);
  std::string payload_;
  std::vector<std::uint64_t> dirty_;
  /// The lane's connections, swapped out under its lock (accept_new).
  std::vector<NewConn> taken_;
};

void TuningServer::run_loop(std::size_t t) {
  if (options_.pin_threads) util::pin_current_thread(t);
  Loop(*this, t).run();
}

}  // namespace lynceus::net
