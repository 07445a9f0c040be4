#pragma once

/// \file workloads.hpp
/// The three workloads of the benchmark. Each one owns its set-up (dataset
/// builds, server or service start, warm-up) and runs closed-loop timed
/// phases against the session plan; see README.md for why each exists.

#include <map>
#include <memory>
#include <string>

#include "bench.hpp"

namespace lynbench {

class WorkloadRunner {
 public:
  virtual ~WorkloadRunner() = default;

  /// One complete set-up: build the datasets, start the server or
  /// service, warm up. Spans go to `log` when non-null.
  virtual void setup(SpanLog* log) = 0;
  /// Undoes setup() (the set-up is repeated to time it).
  virtual void teardown() = 0;
  /// One timed phase from session 0 of the plan until `quota` is met.
  virtual Phase run(const Quota& quota, bool traced) = 0;
  /// Layer counters only the server exposes (fleet_remote).
  virtual void server_metrics(std::map<std::string, double>& out) {
    (void)out;
  }

  [[nodiscard]] const Plan& plan() const { return *plan_; }
  [[nodiscard]] const std::vector<Job>& jobs() const { return jobs_; }

 protected:
  /// Builds the jobs and the plan over them (timed as cloud.build_datasets).
  void build(const Workload& w, std::uint64_t seed, SpanLog* log);

  std::vector<Job> jobs_;
  std::unique_ptr<Plan> plan_;
};

[[nodiscard]] std::unique_ptr<WorkloadRunner> make_runner(
    const Workload& workload, std::uint64_t seed);

/// Worker threads the workloads use on this machine.
[[nodiscard]] std::size_t machine_threads();

}  // namespace lynbench
