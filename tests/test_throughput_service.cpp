/// Throughput-mode scheduler tests (service/throughput.cpp): the
/// bit-pinning half of the "Throughput mode" contract — every session's
/// trajectory byte-identical to its solo/FIFO run for any worker count,
/// including under fault injection — plus option validation, stall
/// handling for un-capped hangs, and journaling from worker threads.
/// Part of the `concurrency` ctest label (run under -fsanitize=thread in
/// the debug-tsan CI leg).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "eval/runner.hpp"
#include "service/tuning_service.hpp"
#include "test_helpers.hpp"

namespace lynceus::service {
namespace {

using core::ConfigId;
using core::OptimizerResult;
using lynceus::testing::session_spec;

double tiny_energy(const space::ConfigSpace& sp, ConfigId id) {
  return 10.0 + 4.0 * sp.value(id, 0) + 3.0 * sp.value(id, 1);
}

eval::TableRunner::MetricsFn tiny_metrics() {
  const auto sp = lynceus::testing::tiny_space();
  return [sp](space::ConfigId id) {
    return std::vector<double>{tiny_energy(*sp, id)};
  };
}

core::ConstraintDef tiny_constraint(double cap) {
  core::ConstraintDef c;
  c.name = "energy";
  c.metric_index = 0;
  c.threshold = [cap](ConfigId) { return cap; };
  return c;
}

void expect_identical(const OptimizerResult& a, const OptimizerResult& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].id, b.history[i].id) << "step " << i;
    EXPECT_EQ(a.history[i].cost, b.history[i].cost) << "step " << i;
    EXPECT_EQ(a.history[i].feasible, b.history[i].feasible) << "step " << i;
  }
  ASSERT_EQ(a.failures.size(), b.failures.size());
  for (std::size_t i = 0; i < a.failures.size(); ++i) {
    EXPECT_EQ(a.failures[i].id, b.failures[i].id) << "failure " << i;
    EXPECT_EQ(a.failures[i].cost, b.failures[i].cost) << "failure " << i;
    EXPECT_EQ(a.failures[i].after_samples, b.failures[i].after_samples)
        << "failure " << i;
  }
  EXPECT_EQ(a.budget_spent, b.budget_spent);
  EXPECT_EQ(a.budget_spent_on_failures, b.budget_spent_on_failures);
  EXPECT_EQ(a.recommendation, b.recommendation);
  EXPECT_EQ(a.recommendation_feasible, b.recommendation_feasible);
  EXPECT_EQ(a.decisions, b.decisions);
}

TuningService::Options throughput_options(std::size_t workers) {
  TuningService::Options o;
  o.throughput_workers = workers;
  return o;
}

TEST(ThroughputService, OptionValidationAndModeDispatch) {
  {
    TuningService::Options o = throughput_options(2);
    o.root_cache_capacity = 8;
    EXPECT_THROW(TuningService{o}, std::invalid_argument);
  }
  {
    TuningService::Options o = throughput_options(2);
    o.pool_workers = 2;
    EXPECT_THROW(TuningService{o}, std::invalid_argument);
  }
  // run_throughput on a FIFO-mode service is a logic error, not a silent
  // fall-through.
  const auto ds = lynceus::testing::tiny_dataset();
  TuningService fifo;
  eval::AsyncTableRunner async(ds);
  EXPECT_THROW(fifo.run_throughput(async), std::logic_error);
  // A throughput service with no sessions drains trivially.
  TuningService empty(throughput_options(2));
  eval::AsyncTableRunner async2(ds);
  drain(empty, async2);
  EXPECT_TRUE(empty.idle());
}

TEST(ThroughputService, SixtyFourSessionsMatchTheirSoloRuns) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();

  TuningService service(throughput_options(4));
  eval::AsyncTableRunner async(ds);

  std::vector<SessionId> ids;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    SessionSpec spec = session_spec("lynceus", problem, seed);
    spec.lookahead = seed % 2 == 0 ? 1U : 0U;
    ids.push_back(service.open_session(spec));
  }
  drain(service, async);  // dispatches to run_throughput

  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    core::LynceusOptions opts;
    opts.lookahead = seed % 2 == 0 ? 1U : 0U;
    opts.incremental_refit = false;
    eval::TableRunner solo(ds);
    auto stepper = core::LynceusOptimizer(opts).make_stepper(problem, seed);
    const OptimizerResult golden = core::drive(*stepper, solo);
    ASSERT_TRUE(service.finished(ids[seed - 1]));
    expect_identical(service.result(ids[seed - 1]), golden);
  }
  EXPECT_TRUE(service.idle());
}

TEST(ThroughputService, MixedOptimizerKindsMatchTheirSoloRuns) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();

  for (const bool incremental : {false, true}) {
    SCOPED_TRACE(incremental ? "incremental refit" : "scratch refit");
    TuningService service(throughput_options(3));
    eval::AsyncTableRunner async(ds, tiny_metrics());

    std::vector<SessionId> ids;
    std::vector<std::function<OptimizerResult()>> solos;
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      core::LynceusOptions lopts;
      lopts.lookahead = 1;
      lopts.incremental_refit = incremental;
      SessionSpec ly = session_spec("lynceus", problem, seed);
      ly.lookahead = 1;
      ly.incremental_refit = incremental;
      ids.push_back(service.open_session(ly));
      solos.push_back([&, lopts, seed] {
        eval::TableRunner solo(ds, tiny_metrics());
        auto stepper =
            core::LynceusOptimizer(lopts).make_stepper(problem, seed);
        return core::drive(*stepper, solo);
      });

      core::MultiConstraintOptions mopts;
      mopts.lookahead = 1;
      mopts.incremental_refit = incremental;
      SessionSpec mc = session_spec("multi_constraint", problem, seed);
      mc.lookahead = 1;
      mc.incremental_refit = incremental;
      mc.constraints.push_back({"energy", 0, 26.0, nullptr});
      ids.push_back(service.open_session(mc));
      solos.push_back([&, mopts, seed] {
        eval::TableRunner solo(ds, tiny_metrics());
        auto stepper = core::MultiConstraintLynceus({tiny_constraint(26.0)},
                                                    mopts)
                           .make_stepper(problem, seed);
        return core::drive(*stepper, solo);
      });

      ids.push_back(service.open_session(session_spec("bo", problem, seed)));
      solos.push_back([&, seed] {
        eval::TableRunner solo(ds, tiny_metrics());
        auto stepper = core::BayesianOptimizer().make_stepper(problem, seed);
        return core::drive(*stepper, solo);
      });

      ids.push_back(
          service.open_session(session_spec("random", problem, seed)));
      solos.push_back([&, seed] {
        eval::TableRunner solo(ds, tiny_metrics());
        auto stepper = core::RandomSearch().make_stepper(problem, seed);
        return core::drive(*stepper, solo);
      });
    }

    drain(service, async);

    for (std::size_t i = 0; i < ids.size(); ++i) {
      SCOPED_TRACE("session " + std::to_string(ids[i]));
      ASSERT_TRUE(service.finished(ids[i]));
      expect_identical(service.result(ids[i]), solos[i]());
    }
  }
}

/// FIFO loop that collects every completion the runner can deliver
/// before telling any, then tells them in reverse arrival order.
void drain_reversed(TuningService& service, eval::AsyncTableRunner& async) {
  while (true) {
    for (const PendingRun& run : service.next_runs()) {
      async.submit(run.session, run.config, run.submit_options());
    }
    std::vector<eval::AsyncTableRunner::Completion> batch;
    while (auto c = async.next_completion()) batch.push_back(*c);
    if (batch.empty()) return;
    for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
      service.tell(it->tag, it->config, it->result);
    }
  }
}

/// The cross-mode half of the contract under faults: same sessions, same
/// fault plan and run policy — quarantine included — told forward by the
/// FIFO drain, told in reverse by a batching FIFO loop, or stepped by
/// the throughput workers: per-session results (histories, failure
/// ledgers, budgets) and stop reasons must match byte-for-byte.
TEST(ThroughputService, FaultyRunsMatchFifoModeByteForByte) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();

  enum class Feed { kFifo, kFifoReversed, kThroughput1, kThroughput4 };
  using Outcome =
      std::pair<std::vector<OptimizerResult>, std::vector<std::string>>;
  const auto run_mode = [&](Feed feed, double fail_rate,
                            std::size_t quarantine_after) {
    eval::FaultPlan plan;
    plan.seed = 99;
    plan.fail_rate = fail_rate;
    plan.hang_rate = 0.1;
    plan.straggler_rate = 0.2;
    plan.straggler_factor = 3.0;
    TuningService::Options o;
    o.throughput_workers = feed == Feed::kThroughput1   ? 1
                           : feed == Feed::kThroughput4 ? 4
                                                        : 0;
    o.run_policy.max_attempts = 2;
    o.run_policy.backoff_base_seconds = 5.0;
    o.run_policy.run_timeout_seconds = 600.0;
    o.run_policy.quarantine_after = quarantine_after;
    TuningService service(o);
    eval::AsyncTableRunner async(ds);
    async.set_fault_plan(plan);
    std::vector<SessionId> ids;
    for (std::uint64_t seed = 21; seed <= 28; ++seed) {
      SessionSpec spec = session_spec("lynceus", problem, seed);
      spec.lookahead = static_cast<unsigned>(seed % 2);
      ids.push_back(service.open_session(spec));
    }
    if (feed == Feed::kFifoReversed) {
      drain_reversed(service, async);
    } else {
      drain(service, async);
    }
    Outcome out;
    for (const SessionId id : ids) {
      EXPECT_TRUE(service.finished(id));
      out.first.push_back(service.result(id));
      out.second.push_back(service.stop_reason(id));
    }
    return out;
  };

  std::size_t quarantined = 0;
  for (const double fail_rate : {0.45, 0.7}) {
    for (const std::size_t quarantine_after : {0U, 2U, 3U}) {
      SCOPED_TRACE("fail_rate " + std::to_string(fail_rate) +
                   " quarantine_after " + std::to_string(quarantine_after));
      const Outcome fifo = run_mode(Feed::kFifo, fail_rate, quarantine_after);
      for (const Feed feed :
           {Feed::kFifoReversed, Feed::kThroughput1, Feed::kThroughput4}) {
        SCOPED_TRACE("feed " + std::to_string(static_cast<int>(feed)));
        const Outcome other = run_mode(feed, fail_rate, quarantine_after);
        ASSERT_EQ(fifo.first.size(), other.first.size());
        for (std::size_t i = 0; i < fifo.first.size(); ++i) {
          SCOPED_TRACE("session " + std::to_string(i));
          expect_identical(fifo.first[i], other.first[i]);
          EXPECT_EQ(fifo.second[i], other.second[i]);
        }
      }
      quarantined += static_cast<std::size_t>(std::count(
          fifo.second.begin(), fifo.second.end(), "runner_failed"));
    }
  }
  // The grid really exercises quarantine, mid-trajectory.
  EXPECT_GT(quarantined, 0U);
}

TEST(ThroughputService, FailEverythingQuarantinesIdenticallyToFifo) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();

  eval::FaultPlan plan;
  plan.seed = 7;
  plan.fail_rate = 1.0;

  const auto run_mode = [&](std::size_t workers) {
    TuningService::Options o;
    o.throughput_workers = workers;
    o.run_policy.max_attempts = 2;
    o.run_policy.quarantine_after = 3;
    TuningService service(o);
    eval::AsyncTableRunner async(ds);
    async.set_fault_plan(plan);
    std::vector<SessionId> ids;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      ids.push_back(
          service.open_session(session_spec("random", problem, seed)));
    }
    drain(service, async);
    return std::make_pair(std::move(service), std::move(ids));
  };

  auto [fifo, fifo_ids] = run_mode(0);
  auto [tp, tp_ids] = run_mode(3);
  for (std::size_t i = 0; i < fifo_ids.size(); ++i) {
    SCOPED_TRACE("session " + std::to_string(i));
    EXPECT_TRUE(fifo.quarantined(fifo_ids[i]));
    EXPECT_TRUE(tp.quarantined(tp_ids[i]));
    EXPECT_EQ(tp.stop_reason(tp_ids[i]), "runner_failed");
    expect_identical(fifo.result(fifo_ids[i]), tp.result(tp_ids[i]));
  }
  EXPECT_TRUE(tp.idle());
}

/// Un-capped hangs leave runs outstanding forever. The worker pool must
/// prove the stall and return — mirroring the FIFO drain() — instead of
/// polling forever, leaving the hung sessions unfinished and in flight.
TEST(ThroughputService, UncappedHangsStallCleanly) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();

  eval::FaultPlan plan;
  plan.seed = 3;
  plan.hang_rate = 1.0;  // every run hangs; no run policy timeout

  TuningService service(throughput_options(2));
  eval::AsyncTableRunner async(ds);
  async.set_fault_plan(plan);
  std::vector<SessionId> ids;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ids.push_back(service.open_session(session_spec("random", problem, seed)));
  }
  drain(service, async);  // must return despite nothing ever completing

  EXPECT_FALSE(service.idle());
  for (const SessionId id : ids) {
    EXPECT_FALSE(service.finished(id));
    EXPECT_FALSE(service.quarantined(id));
  }
}

/// Journaling from worker threads: the callback sees a serial per-session
/// stream (thread-safe across sessions), and the final envelope restores
/// — into either mode — to the same byte-identical result.
TEST(ThroughputService, JournaledSessionsRestoreIntoEitherMode) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();

  std::mutex journal_mutex;
  std::map<SessionId, std::string> last_envelope;
  std::map<SessionId, std::size_t> envelope_count;

  TuningService::Options o = throughput_options(4);
  o.journal = [&](SessionId id, const std::string& snap) {
    std::lock_guard<std::mutex> lk(journal_mutex);
    last_envelope[id] = snap;
    ++envelope_count[id];
  };
  TuningService service(o);
  eval::AsyncTableRunner async(ds);

  // Sessions 31..34 refit from scratch, 35..38 incrementally.
  const auto spec_of = [&](std::uint64_t seed) {
    SessionSpec spec = session_spec("lynceus", problem, seed);
    spec.lookahead = 1;
    spec.incremental_refit = seed > 34;
    return spec;
  };
  std::vector<SessionId> ids;
  for (std::uint64_t seed = 31; seed <= 38; ++seed) {
    ids.push_back(service.open_session(spec_of(seed)));
  }
  drain(service, async);

  for (std::size_t i = 0; i < ids.size(); ++i) {
    SCOPED_TRACE("session " + std::to_string(ids[i]));
    ASSERT_TRUE(service.finished(ids[i]));
    // open() journals once, then once per applied wave.
    EXPECT_GE(envelope_count[ids[i]], 2U);
    const std::uint64_t seed = 31 + i;
    // The final envelope restores to the finished state in FIFO mode…
    TuningService fifo;
    eval::AsyncTableRunner a1(ds);
    const SessionId r1 =
        fifo.restore_session(spec_of(seed), last_envelope[ids[i]]);
    drain(fifo, a1);
    expect_identical(fifo.result(r1), service.result(ids[i]));
    // …and in throughput mode.
    TuningService tp(throughput_options(2));
    eval::AsyncTableRunner a2(ds);
    const SessionId r2 =
        tp.restore_session(spec_of(seed), last_envelope[ids[i]]);
    drain(tp, a2);
    expect_identical(tp.result(r2), service.result(ids[i]));
  }
}

/// A FIFO-journaled envelope that carries a *pending retry* restores into
/// throughput mode mid-batch: the saved attempt number (and hence fault
/// draw) and the rest of the outstanding batch are relaunched, finishing
/// byte-identically to the FIFO restore.
TEST(ThroughputService, RestoresFifoEnvelopeWithQueuedRetries) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();

  eval::FaultPlan plan;
  plan.seed = 99;
  plan.fail_rate = 0.45;

  TuningService::Options o;
  o.run_policy.max_attempts = 3;
  o.run_policy.backoff_base_seconds = 5.0;
  o.run_policy.run_timeout_seconds = 600.0;
  TuningService fifo(o);
  eval::AsyncTableRunner async(ds);
  async.set_fault_plan(plan);

  SessionSpec spec = session_spec("lynceus", problem, 21);
  spec.lookahead = 0;
  const SessionId id = fifo.open_session(spec);

  // Drive FIFO until an applied wave retries a run, then snapshot that
  // envelope.
  std::string envelope;
  while (envelope.empty() && !fifo.finished(id)) {
    for (const PendingRun& run : fifo.next_runs()) {
      async.submit(run.session, run.config, run.submit_options());
    }
    const auto c = async.next_completion();
    ASSERT_TRUE(c.has_value());
    fifo.tell(c->tag, c->config, c->result);
    const std::string snap = fifo.snapshot_session(id);
    if (snap.find("\"retries\":[{") != std::string::npos) envelope = snap;
  }
  ASSERT_FALSE(envelope.empty()) << "fault plan never queued a retry";

  // Finish the FIFO original for the golden result.
  drain(fifo, async);
  ASSERT_TRUE(fifo.finished(id));

  TuningService tp(throughput_options(2));
  eval::AsyncTableRunner a2(ds);
  a2.set_fault_plan(plan);
  const SessionId rid = tp.restore_session(spec, envelope);
  drain(tp, a2);
  ASSERT_TRUE(tp.finished(rid));
  expect_identical(tp.result(rid), fifo.result(id));
}

}  // namespace
}  // namespace lynceus::service
