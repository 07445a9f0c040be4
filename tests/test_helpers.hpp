#pragma once

/// Shared fixtures for the optimizer and harness tests: a small synthetic
/// dataset with a known cost surface, cheap enough that full Lynceus runs
/// (including lookahead) complete in milliseconds.

#include <cmath>
#include <memory>

#include "cloud/dataset.hpp"
#include "core/types.hpp"
#include "eval/experiment.hpp"
#include "service/session_spec.hpp"

namespace lynceus::testing {

/// 4 x 6 grid (24 configs). Runtime surface: a bowl with its minimum at
/// (a=2, b=1); unit prices grow with b. Roughly half the configurations
/// violate the derived (median) deadline.
inline std::shared_ptr<const space::ConfigSpace> tiny_space() {
  return std::make_shared<space::ConfigSpace>(
      "tinybowl", std::vector<space::ParamDomain>{
                      space::numeric_param("a", {0, 1, 2, 3}),
                      space::numeric_param("b", {0, 1, 2, 3, 4, 5})});
}

inline cloud::Dataset tiny_dataset() {
  auto sp = tiny_space();
  std::vector<cloud::Observation> obs(sp->size());
  for (std::size_t i = 0; i < sp->size(); ++i) {
    const auto id = static_cast<space::ConfigId>(i);
    const double a = sp->value(id, 0);
    const double b = sp->value(id, 1);
    cloud::Observation o;
    o.runtime_seconds =
        60.0 + 40.0 * ((a - 2.0) * (a - 2.0) + 0.5 * (b - 1.0) * (b - 1.0));
    o.unit_price_per_hour = 10.0 + 6.0 * b;
    obs[i] = o;
  }
  return cloud::Dataset("tinybowl", std::move(sp), std::move(obs));
}

/// Problem with the paper's defaults (N from the 3%-or-dims rule,
/// B = N·m̃·b).
inline core::OptimizationProblem tiny_problem(double b = 3.0) {
  static const cloud::Dataset ds = tiny_dataset();
  return eval::make_problem(ds, b);
}

/// A `kind` session over the in-process `problem`; callers set the knobs
/// they pin on the returned spec's fields.
inline service::SessionSpec session_spec(
    const char* kind, const core::OptimizationProblem& problem,
    std::uint64_t seed) {
  service::SessionSpec spec;
  spec.optimizer = kind;
  spec.problem = &problem;
  spec.seed = seed;
  return spec;
}

}  // namespace lynceus::testing
