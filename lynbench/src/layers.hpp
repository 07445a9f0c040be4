#pragma once

/// \file layers.hpp
/// Per-layer metrics of the traced run (README.md lists each metric, its
/// unit and the end-to-end metric it should move). They are derived from
/// the spans the workloads record around their calls into the program,
/// plus replays of single layers' public functions on data the run
/// produced; the replays are spanned too.

#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "workloads.hpp"

namespace lynbench {

struct LayerInputs {
  const Plan* plan = nullptr;
  WorkloadRunner* runner = nullptr;
  const Phase* traced = nullptr;
  const Phase* untraced = nullptr;        ///< same run, tracing off
  const SpanLog* setup_log = nullptr;
  SpanLog* replay_log = nullptr;
  const std::vector<Outcome>* refs = nullptr;
  const std::vector<DecisionLog>* decision_logs = nullptr;
  std::size_t machine_threads = 1;
};

/// Every per-layer metric, by name (0 where the workload does not
/// exercise the layer).
[[nodiscard]] std::map<std::string, Metric> layer_metrics(
    const LayerInputs& in);

/// Writes the spans of `logs` as one JSON document.
void write_trace(const std::string& path, const std::string& workload,
                 std::uint64_t seed, const std::vector<const SpanLog*>& logs);

}  // namespace lynbench
