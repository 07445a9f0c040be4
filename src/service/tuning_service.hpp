#pragma once

/// \file tuning_service.hpp
/// Multiplexes many concurrent tuning sessions — one ask/tell stepper per
/// job being tuned — behind a single service object: the process-level
/// building block of the ROADMAP's production tuning service.
///
/// The classic optimize() entrypoint blocks one thread for one job until
/// its budget runs out. Cloud profiling runs take minutes and complete
/// asynchronously, so a server must instead keep N sessions suspended
/// while their runs are in flight and advance whichever session's result
/// arrives next. With the optimizers inverted into ask/tell steppers
/// (core/stepper.hpp) that is exactly what this class does:
///
///   * `open_session(spec)` starts a session from one declarative
///     `SessionSpec` (service/session_spec.hpp: optimizer kind — Lynceus,
///     multi-constraint, BO or RND — problem, knobs, run policy, seed),
///     injecting the service's shared resources: one `util::ThreadPool`
///     fanning out every session's root simulations, and optionally one
///     shared `core::RootCache`, so recurrent sessions of the same job
///     warm-start each other's root fits across the whole service.
///     Per-session observers and budgets ride in unchanged through the
///     optimizer options / the problem.
///   * `tell()` buffers the result of one run of its session's *wave*
///     (the runs the session's last step launched); when the wave's last
///     result lands, the session enters the ready queue.
///   * `next_runs()` drains the ready queue: it *steps* every ready
///     session, in deterministic round-robin order (see below), and
///     returns the profiling runs to launch.
///
/// A session step is the one place the run policy lives (both schedulers
/// call it): it applies the session's completed wave, journals, asks the
/// stepper when nothing is outstanding, and hands out the runs the session
/// is owed next.
///
/// ## Scheduling determinism
///
/// The ready queue is FIFO: sessions enter in open() order and re-enter
/// when their wave completes, so for a given sequence of open/tell calls,
/// next_runs() output is a pure function of that sequence — no
/// wall-clock, thread or hash-order dependence. Because a wave is applied
/// in canonical ask() order (core/stepper.hpp), per-session trajectories
/// are **bit-identical to the session's solo optimize() run** no matter
/// how many sessions are multiplexed or in which order their completions
/// are told; the shared root cache cannot perturb this either (exact-key
/// hits return the very doubles a refit would recompute).
/// tests/test_tuning_service.cpp pins both, up to 64 interleaved sessions
/// with out-of-order completions.
///
/// ## Run policy: retries, timeouts, quarantine
///
/// Real profiling runs fail (core::RunOutcome). The step interposes the
/// session's RunPolicy between the runner and the stepper. It walks the
/// completed wave in canonical ask order, never in arrival order:
///
///   * a FAILED result is retried up to `max_attempts` total tries, each
///     retry delayed by deterministic exponential backoff in *simulated*
///     time (PendingRun::start_delay — the driver applies it; no
///     wall-clock anywhere). Retries launch at the wave boundary, with
///     the session's next runs. The stepper is only told the failure once
///     attempts are exhausted; an eventual success is told as if the
///     failures never happened.
///   * every launched run carries a timeout (PendingRun::timeout_seconds):
///     the smaller of an absolute cap and `timeout_tmax_factor × Tmax` of
///     the session's problem — the paper's budget-capping instinct: a run
///     that has already exceeded Tmax can never be feasible, so letting it
///     keep billing the profiling budget buys nothing beyond the censored
///     observation, which the cap itself supplies. A hung run with no cap
///     never resolves, so it holds back its wave — retries included.
///   * after `quarantine_after` consecutive FAILED results (successes
///     reset the streak; timeouts leave it unchanged), the session is
///     quarantined: its stepper is aborted with stop_reason
///     "runner_failed", the rest of the wave is dropped, and later tell()s
///     for it are silently ignored.
///
/// Attempt numbers are per (session, config): the count of that config's
/// applied results. The fault-injection contract (eval/runner.hpp) keys
/// fault draws by (config, attempt), so a retried attempt gets fresh
/// draws while replay of the whole schedule stays byte-deterministic —
/// and so the outcome of a session is the same whichever scheduler steps
/// it and in whichever order its results are told.
///
/// ## Snapshot / restore and crash safety
///
/// snapshot(session) serializes the session's stepper (core/stepper.hpp);
/// snapshot_session(session) wraps it with the run-policy state (attempt
/// counters, failure streak, pending retries with their backoff delays,
/// quarantine flag) in a "lynceus-service-session" JSON envelope. Results
/// buffered in an incomplete wave are not part of either: restore() —
/// in this process or another, given the same problem, options and seed
/// — accepts both formats, and the restored session's first step
/// relaunches every outstanding run with its saved attempt number (and
/// retry delay). With Options::journal set, the service journals a
/// session at open/restore and once per applied wave — a crashed process
/// restores every session from its last journal entry and, because fault
/// draws are keyed by (config, attempt), finishes each one
/// byte-identically to the uninterrupted run (the crash-recovery drill in
/// tests/test_faults.cpp).
///
/// ## Throughput mode (opt-in, Options::throughput_workers > 0)
///
/// The FIFO loop above advances sessions round-robin from one thread: at
/// 64 sessions every core but one idles. run_throughput() inverts that —
/// a pool of `throughput_workers` threads pulls session steps off a
/// lock-free MPMC run queue (util/mpmc_queue.hpp), completions flow back
/// through an eval::AsyncCompletionPump delivery thread, and 64+ sessions
/// advance concurrently. It runs the very same step, so:
///
///   * **Per-session trajectories are bit-pinned** — byte-identical to
///     the session's FIFO run, for any worker count, faults and
///     quarantine included. A session's state is owned by whichever
///     worker holds its queue task (at most one task per session exists).
///   * **Cross-session interleaving is NOT pinned.** Which session's wave
///     completes first, runner submission order, simulated finish times
///     and total simulated duration all vary run to run. Anything derived
///     from global ordering (e.g. AsyncTableRunner::now()) is
///     nondeterministic in this mode.
///   * The journal callback is invoked from worker threads — it must be
///     thread-safe (per-session ordering is still serial).
///   * **Exclusions.** Throughput mode requires the shared RootCache off
///     (root_cache_capacity == 0; its LRU mutation order is not
///     order-insensitive) and the intra-decision pool off
///     (pool_workers == 0; session-level parallelism replaces it) — the
///     constructor enforces both. Do not call other service methods while
///     run_throughput() is running.
///
/// Single-threaded by design (throughput mode aside): the service is an
/// event-loop core — calls are cheap state transitions (ask() decision
/// work happens inside next_runs()), and callers own the concurrency
/// model around it.

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/bo.hpp"
#include "core/constraints.hpp"
#include "core/lookahead.hpp"
#include "core/lynceus.hpp"
#include "core/random_search.hpp"
#include "core/stepper.hpp"
#include "core/types.hpp"
#include "eval/runner.hpp"
#include "service/session_spec.hpp"
#include "util/thread_pool.hpp"

namespace lynceus::service {

using SessionId = std::uint64_t;

/// One profiling run the driver must execute and tell() back. The policy
/// fields map 1:1 onto eval::AsyncTableRunner::SubmitOptions; drivers with
/// no fault/timeout support may ignore them (the defaults are inert).
struct PendingRun {
  SessionId session = 0;
  core::ConfigId config = 0;
  /// Attempt number for this (session, config): 0 for a first try,
  /// incremented per retry. Feed to the fault-injection layer.
  std::uint64_t attempt = 0;
  /// Kill the run at this cap (kTimedOut); +infinity = no cap.
  double timeout_seconds = std::numeric_limits<double>::infinity();
  /// Retry backoff: start the run this many simulated seconds late.
  double start_delay = 0.0;

  /// The replay runner's submit options carrying this run's policy fields.
  [[nodiscard]] eval::AsyncTableRunner::SubmitOptions submit_options() const {
    eval::AsyncTableRunner::SubmitOptions o;
    o.timeout_seconds = timeout_seconds;
    o.attempt = attempt;
    o.start_delay = start_delay;
    return o;
  }
};

// RunPolicy (the failure-handling policy; see the "Run policy" section of
// the file comment) now lives in service/session_spec.hpp so a SessionSpec
// can carry a per-session policy across the wire.

class TuningService {
 public:
  struct Options {
    /// Workers of the service-owned thread pool shared by every session's
    /// root-simulation fan-out (0 = no pool, decisions run inline).
    std::size_t pool_workers = 0;
    /// Capacity of the service-owned RootCache shared across sessions
    /// (0 = no shared cache). Sessions of one recurrent job reuse each
    /// other's root fits; unrelated jobs sharing one service should keep
    /// this small or off (see the RootCache sharing contract in
    /// core/lookahead.hpp). The shared cache keeps root predictions, not
    /// fitted models. Trajectories are unaffected either way.
    std::size_t root_cache_capacity = 0;
    /// Workers of the throughput-mode scheduler (see "Throughput mode" in
    /// the file comment): 0 = FIFO event-loop service (the default,
    /// deterministic across sessions); > 0 enables run_throughput() with
    /// that many session-step workers. Mutually exclusive with
    /// pool_workers and root_cache_capacity (the constructor throws).
    std::size_t throughput_workers = 0;
    /// Failure-handling policy applied to every session whose SessionSpec
    /// does not carry its own (default: inert).
    RunPolicy run_policy;
    /// Crash-safety journal: when set, invoked with (session id,
    /// snapshot_session(id)) at open/restore and after every applied wave
    /// — persist the string; restore() of the latest entry per session
    /// resumes the service byte-identically after a crash. The callback
    /// must not call back into the service.
    std::function<void(SessionId, const std::string&)> journal;
  };

  TuningService();
  explicit TuningService(Options options);

  /// THE session entrypoint: opens a session described by one declarative
  /// SessionSpec (service/session_spec.hpp) — optimizer kind, problem,
  /// knobs, optional per-session RunPolicy, seed. The service injects its
  /// shared pool/cache into the stepper; `spec.problem` must be set (and
  /// outlive the session) — callers holding only a ProblemRef resolve it
  /// first (the network server does this via its workload registry). The
  /// CLI, the examples and the wire protocol all funnel through here.
  SessionId open_session(const SessionSpec& spec);

  /// Reopens a snapshot — either a bare stepper snapshot or a
  /// snapshot_session() envelope — into a fresh session built from `spec`
  /// (which must describe the saved session: same optimizer, problem,
  /// knobs and seed). The restored session finishes byte-identically.
  SessionId restore_session(const SessionSpec& spec,
                            const std::string& snapshot_json);

  /// Opens a session around a caller-built stepper (open_session is
  /// preferred — it injects the shared pool and cache; this overload wires
  /// in whatever the stepper was built with). The problem behind the
  /// stepper must outlive the session.
  SessionId open(std::unique_ptr<core::OptimizerStepper> stepper);

  /// Steps every ready session (deterministic round-robin; see file
  /// comment) and returns the profiling runs to launch: retries of the
  /// applied wave, or the next asked batch. Sessions that finish or are
  /// quarantined during the sweep emit no runs — query finished()/result().
  /// `max_runs` caps the sweep (remaining ready sessions stay queued).
  [[nodiscard]] std::vector<PendingRun> next_runs(
      std::size_t max_runs = SIZE_MAX);

  /// Buffers one completed run into its session's wave; the run policy
  /// applies it when the wave completes (next_runs()). Throws
  /// std::invalid_argument for an unknown session, a session with no run
  /// in flight, a run the session did not ask for or one already told in
  /// this wave — with the strong exception guarantee: a throwing tell()
  /// leaves the service state untouched. Tells for a quarantined session
  /// are silently dropped.
  void tell(SessionId session, core::ConfigId config,
            const core::RunResult& result);

  /// True when the session was quarantined by the run policy (its stepper
  /// reports stop_reason "runner_failed").
  [[nodiscard]] bool quarantined(SessionId session) const;
  /// Every open session currently quarantined, in id order.
  [[nodiscard]] std::vector<SessionId> quarantined_sessions() const;

  [[nodiscard]] bool finished(SessionId session) const;
  /// The stepper's stop reason (empty while running).
  [[nodiscard]] const std::string& stop_reason(SessionId session) const;
  /// The session's (partial, until finished) optimization result.
  [[nodiscard]] core::OptimizerResult result(SessionId session) const;
  [[nodiscard]] const core::OptimizerStepper& stepper(
      SessionId session) const;

  /// True when no session has runs in flight and none is ready to ask —
  /// i.e. next_runs() would return nothing.
  [[nodiscard]] bool idle() const noexcept;
  [[nodiscard]] std::size_t session_count() const noexcept {
    return sessions_.size() - closed_count_;
  }

  /// Releases a session's state (finished or abandoned mid-flight). Its
  /// id is never reused.
  void close(SessionId session);

  /// Serializes the session (see core/stepper.hpp "Snapshot format").
  [[nodiscard]] std::string snapshot(SessionId session) const;

  /// Serializes the session *including its run-policy state* (attempt
  /// counters, failure streak, pending retries, quarantine flag) in the
  /// "lynceus-service-session" envelope — what the journal emits.
  [[nodiscard]] std::string snapshot_session(SessionId session) const;

  /// Reopens a snapshot into a caller-built stepper (restore_session is
  /// preferred). Accepts both a bare stepper snapshot and a
  /// snapshot_session() envelope (the latter also restores the policy
  /// state and pending retries). Throws std::runtime_error for an envelope
  /// whose policy state contradicts its stepper: a retry of a config that
  /// is not outstanding or listed twice, a retry attempt that is not the
  /// config's saved attempt count, or a quarantined session whose stepper
  /// is not finished. The restored session re-enters the ready queue
  /// unless finished.
  SessionId restore(std::unique_ptr<core::OptimizerStepper> stepper,
                    const std::string& snapshot_json);

  /// Drives every open session to completion against `runner` with the
  /// worker pool described under "Throughput mode" in the file comment
  /// (requires Options::throughput_workers > 0; throws std::logic_error
  /// otherwise). Returns once every session is finished or quarantined —
  /// or, mirroring drain(), once only forever-hung runs remain, leaving
  /// those sessions unfinished with their runs counted in flight.
  /// Every open session takes part: ready ones are stepped at once, the
  /// others when `runner` delivers the rest of their wave. The runner must
  /// be untouched by other threads for the duration of the call.
  void run_throughput(eval::AsyncTableRunner& runner);

  [[nodiscard]] const Options& options() const noexcept { return options_; }

  /// The shared resources, for callers building their own steppers.
  [[nodiscard]] util::ThreadPool* shared_pool() noexcept {
    return pool_ ? pool_.get() : nullptr;
  }
  [[nodiscard]] core::RootCache* shared_cache() noexcept {
    return cache_ ? cache_.get() : nullptr;
  }

 private:
  struct Session {
    std::unique_ptr<core::OptimizerStepper> stepper;
    /// Failure-handling policy for THIS session: the spec's own when
    /// open_session() got one, the service-wide Options::run_policy
    /// otherwise. All retry/timeout/quarantine decisions read this.
    RunPolicy policy;
    bool queued = false;        ///< in ready_
    bool closed = false;
    bool quarantined = false;   ///< run policy gave up on this session
    /// Applied results per config: the attempt number of its next launch.
    std::unordered_map<core::ConfigId, std::uint64_t> attempts;
    std::size_t consecutive_failures = 0;
    /// The wave: configs the last step launched, in canonical ask order.
    std::vector<core::ConfigId> wave;
    /// Results told for the wave so far, in arrival order.
    std::vector<std::pair<core::ConfigId, core::RunResult>> told;
    /// (config, backoff delay) of the runs the last applied wave retries.
    std::vector<std::pair<core::ConfigId, double>> retries;
  };

  Session& session_at(SessionId id);
  [[nodiscard]] const Session& session_at(SessionId id) const;
  /// Registers a session, queues it and journals it.
  SessionId admit(Session s);
  void enqueue_ready(SessionId id);
  [[nodiscard]] double effective_timeout(const Session& s) const;
  /// The run-policy step (file comment): applies the completed wave,
  /// journals, asks if nothing is outstanding and appends the runs the
  /// session is owed to `out`; they become its new wave.
  void step(SessionId id, std::vector<PendingRun>& out);
  void journal(SessionId id);

  Options options_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<core::RootCache> cache_;
  std::vector<Session> sessions_;  ///< index = SessionId
  std::deque<SessionId> ready_;    ///< FIFO of sessions to step next
  std::size_t closed_count_ = 0;
};

/// Drains `service` to completion against the simulated-async replay
/// runner: launches everything next_runs() asks for (tagged with the
/// session id, with the run policy's timeout/attempt/backoff applied),
/// routes each completion — earliest simulated finish first, i.e. out of
/// submission order — back to its session, and returns once the service
/// is idle. Under fault injection this includes failed and timed-out
/// completions; sessions the policy quarantines simply stop emitting runs
/// and the drain still reaches idle. The event loop the CLI batch mode,
/// the service benchmarks and the examples all share; a real deployment
/// replaces it with its cluster transport. With
/// Options::throughput_workers > 0 this dispatches to
/// service.run_throughput(runner) instead, so drivers support both modes
/// transparently.
void drain(TuningService& service, eval::AsyncTableRunner& runner);

}  // namespace lynceus::service
