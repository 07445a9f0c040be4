#pragma once

/// \file bench.hpp
/// Shared vocabulary of the repository benchmark (README.md): the three
/// workloads, the session plan every workload draws its sessions from, the
/// outcome of one timed phase, and the helpers the workloads share —
/// solo reference runs, trajectory comparison and digests, statistics.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cloud/dataset.hpp"
#include "core/trace.hpp"
#include "core/types.hpp"
#include "eval/runner.hpp"
#include "service/session_spec.hpp"
#include "service/tuning_service.hpp"
#include "spans.hpp"

namespace lynbench {

using namespace lynceus;

/// One bundled job: its replay table and the problem the server builds for
/// the same `problem_ref` (eval::make_problem, budget multiplier 3).
struct Job {
  std::string suite;
  cloud::Dataset dataset;
  core::OptimizationProblem problem;
};

/// Builds every job of a bundled suite ("scout" or "tf").
[[nodiscard]] std::vector<Job> build_jobs(const std::string& suite);

struct Workload {
  std::string name;
  std::string suite;         ///< "scout" | "tf"
  unsigned lookahead = 1;
  bool faults = false;       ///< FaultPlan + RunPolicy on
  /// Consecutive session indices that share one job. The fleets drain
  /// blocks of 64 sessions of one job (one replay table per drain).
  std::size_t block = 1;
  /// The first `quality_sessions` sessions of every run (a whole number of
  /// passes over the suite's jobs) are the fixed set
  /// the digest, cno_p90, explore_cost_usd and the fault counts cover; a
  /// run always completes at least these, so those figures repeat exactly
  /// for a given seed however fast the machine is.
  std::size_t quality_sessions = 0;
};

/// Every run measures at least this many steps.
inline constexpr std::size_t kMinSteps = 1000;

/// One reported metric.
struct Metric {
  const char* unit = "";
  double value = 0.0;
};

[[nodiscard]] const Workload* find_workload(const std::string& name);

/// Maps session index -> (job, seed, spec). Session seeds and the fault
/// seed derive from the benchmark seed; the job order is fixed (blocks of
/// `block` sessions cycling through the suite), so every seed covers the
/// same job mix and the program only ever sees the generated specs.
struct Plan {
  const Workload* workload = nullptr;
  const std::vector<Job>* jobs = nullptr;
  std::uint64_t seed = 0;
  std::size_t block = 1;

  Plan(const Workload& w, const std::vector<Job>& j, std::uint64_t bench_seed);
  /// Warm-up sessions: a seed domain disjoint from the measured one, one
  /// session per job.
  [[nodiscard]] Plan warmup() const;

  [[nodiscard]] std::size_t job_of(std::size_t index) const;
  [[nodiscard]] std::uint64_t seed_of(std::size_t index) const;
  /// The session's spec. With `in_process`, `problem` points at the job's
  /// problem; otherwise only `problem_ref` is set (wire form).
  [[nodiscard]] service::SessionSpec spec(std::size_t index,
                                          bool in_process) const;
  /// Faults of session `index`'s runs. Fault draws are keyed by (fault
  /// seed, config, attempt), so one seed gives every session of a job the
  /// same faulty configs; each block (one drain of fleet_local) therefore
  /// draws from its own fault seed, so that a run averages over many fault
  /// draws instead of hanging on one.
  [[nodiscard]] eval::FaultPlan fault_plan(std::size_t index) const;
};

/// When a phase stops opening sessions.
struct Quota {
  std::int64_t deadline_ns = 0;
  std::size_t min_sessions = 0;
  std::size_t min_steps = 0;
  std::size_t max_sessions = SIZE_MAX;

  [[nodiscard]] bool open_more(std::size_t opened, std::size_t steps) const {
    if (opened >= max_sessions) return false;
    return opened < min_sessions || steps < min_steps ||
           now_ns() < deadline_ns;
  }
};

/// One session as the workload measured it.
struct Outcome {
  std::size_t index = 0;
  core::OptimizerResult result;
  std::string stop_reason;
  bool finished = false;
  bool quarantined = false;
};

/// Process resource usage (getrusage) at one instant.
struct Usage {
  double cpu_s = 0.0;
  long context_switches = 0;
};
[[nodiscard]] Usage usage_now();
[[nodiscard]] double peak_rss_mb();

/// The exact frames of a remote run, for the codec replay.
struct FrameMix {
  struct Open {
    std::uint64_t session = 0;
    service::SessionSpec spec;
  };
  struct Tell {
    std::uint64_t session = 0;
    core::ConfigId config = 0;
    core::RunResult result;
    bool finished = false;
    bool quarantined = false;
    std::string stop_reason;
  };
  std::vector<Open> opens;
  std::vector<Tell> tells;
  std::vector<service::PendingRun> runs;
  /// Result request + reply per finished session (wire id, outcome index
  /// in the phase) and the close that follows it.
  std::vector<std::pair<std::uint64_t, std::size_t>> results;
};

/// Everything one timed phase produced.
struct Phase {
  double wall_s = 0.0;
  Usage usage;                      ///< delta over the phase
  double peak_rss_mb = 0.0;          ///< once the quality set finished
  std::vector<Outcome> sessions;    ///< sorted by index
  std::vector<double> step_ms;
  std::size_t steps = 0;
  std::size_t runs = 0;             ///< profiling runs executed, retries too
  std::uint64_t attempted = 0;      ///< client / service calls + sessions
  std::uint64_t failed = 0;
  std::vector<double> drain_cpu_util;  ///< fleet_local, one per drain
  double drain_cpu_s = 0.0;         ///< fleet_local, summed over drains
  double drain_wall_s = 0.0;
  std::uint64_t allocs = 0;         ///< all threads, over the phase
  /// Traced phases only.
  std::vector<std::unique_ptr<SpanLog>> logs;
  double driver_cpu_s = 0.0;        ///< driver threads' CPU, whole phase
  FrameMix frames;
  std::uint8_t wire_encoding = 0;   ///< net::WireEncoding of the clients

  [[nodiscard]] std::size_t decisions() const;
};

/// Records the DecisionEvents of one session (core.viable_mean /
/// core.roots_mean).
class DecisionLog final : public core::OptimizerObserver {
 public:
  void on_decision(const core::DecisionEvent& e) override {
    events.push_back(e);
  }
  std::vector<core::DecisionEvent> events;
};

/// Solo in-process FIFO runs of sessions [0, count) of `plan`, under the
/// plan's fault plan, on `threads` threads. `logs`, when non-null, gets one
/// DecisionLog per session.
[[nodiscard]] std::vector<Outcome> reference_runs(
    const Plan& plan, std::size_t count, std::size_t threads,
    std::vector<DecisionLog>* logs);

/// Trajectory equality: explored configs with their measurements, failure
/// ledger, spend, recommendation, decision count and stop state.
/// Wall-clock decision time is excluded.
[[nodiscard]] bool same_trajectory(const Outcome& a, const Outcome& b);

/// FNV-1a-64 digest of one trajectory, as tools/trajectory_dump hashes it
/// (ids, recommendation) plus the failure ledger and the exact spend.
[[nodiscard]] std::uint64_t trajectory_hash(const Outcome& o);
[[nodiscard]] std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v);
inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

/// Linear-interpolated quantile, q in [0,1]; 0 for an empty set.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double mean(const std::vector<double>& v);


}  // namespace lynbench
