#include "eval/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/bo.hpp"
#include "core/lynceus.hpp"
#include "test_helpers.hpp"

namespace lynceus::eval {
namespace {

TEST(TableRunner, ReplaysDatasetValues) {
  const auto ds = testing::tiny_dataset();
  TableRunner runner(ds);
  const auto r = runner.run(3);
  EXPECT_DOUBLE_EQ(r.runtime_seconds, ds.runtime(3));
  EXPECT_DOUBLE_EQ(r.cost, ds.cost(3));
  EXPECT_FALSE(r.timed_out);
  EXPECT_TRUE(r.metrics.empty());
  EXPECT_EQ(runner.runs_served(), 1U);
}

TEST(TableRunner, MetricsFunctionInvoked) {
  const auto ds = testing::tiny_dataset();
  TableRunner runner(ds, [](space::ConfigId id) {
    return std::vector<double>{static_cast<double>(id) * 2.0};
  });
  const auto r = runner.run(4);
  ASSERT_EQ(r.metrics.size(), 1U);
  EXPECT_DOUBLE_EQ(r.metrics[0], 8.0);
}

TEST(FaultPlan, ValidatesRatesAndFactor) {
  FaultPlan plan;
  EXPECT_NO_THROW(plan.validate());
  EXPECT_FALSE(plan.active());
  plan.fail_rate = 1.5;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan.fail_rate = 0.5;
  EXPECT_TRUE(plan.active());
  plan.straggler_factor = 0.5;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(FaultInjectingRunner, InactivePlanLeavesRunsUntouched) {
  const auto ds = testing::tiny_dataset();
  TableRunner plain(ds);
  TableRunner inner(ds);
  FaultInjectingRunner faulty(inner, FaultPlan{});
  for (space::ConfigId id = 0; id < ds.size(); ++id) {
    const auto a = plain.run(id);
    const auto b = faulty.run(id);
    EXPECT_EQ(a.runtime_seconds, b.runtime_seconds);
    EXPECT_EQ(a.cost, b.cost);
    EXPECT_TRUE(b.ok());
  }
}

TEST(FaultInjectingRunner, CertainFailureBillsPartialCost) {
  const auto ds = testing::tiny_dataset();
  TableRunner inner(ds);
  FaultPlan plan;
  plan.seed = 7;
  plan.fail_rate = 1.0;
  FaultInjectingRunner faulty(inner, plan);
  const auto r = faulty.run(3);
  EXPECT_TRUE(r.failed());
  EXPECT_FALSE(r.censored());
  // The crash happens at a uniform fraction of the runtime; the partial
  // bill scales with the elapsed fraction.
  EXPECT_GT(ds.runtime(3), r.runtime_seconds);
  EXPECT_GT(ds.cost(3), r.cost);
  EXPECT_GE(r.cost, 0.0);
  EXPECT_DOUBLE_EQ(r.cost / ds.cost(3), r.runtime_seconds / ds.runtime(3));
  EXPECT_TRUE(r.metrics.empty());
}

TEST(FaultInjectingRunner, ReplayIsByteDeterministic) {
  const auto ds = testing::tiny_dataset();
  FaultPlan plan;
  plan.seed = 42;
  plan.fail_rate = 0.4;
  plan.straggler_rate = 0.3;
  plan.straggler_factor = 3.0;
  TableRunner inner_a(ds);
  TableRunner inner_b(ds);
  FaultInjectingRunner a(inner_a, plan);
  FaultInjectingRunner b(inner_b, plan);
  bool saw_fault = false;
  for (int pass = 0; pass < 4; ++pass) {  // repeated ids = fresh attempts
    for (space::ConfigId id = 0; id < ds.size(); ++id) {
      const auto ra = a.run(id);
      const auto rb = b.run(id);
      EXPECT_EQ(ra.outcome, rb.outcome);
      EXPECT_EQ(ra.runtime_seconds, rb.runtime_seconds);
      EXPECT_EQ(ra.cost, rb.cost);
      saw_fault = saw_fault || !ra.ok() || ra.runtime_seconds != ds.runtime(id);
    }
  }
  EXPECT_TRUE(saw_fault);
}

TEST(FaultInjectingRunner, RetriesAreFreshAttempts) {
  // Attempt numbers advance per config, so a config is not doomed to the
  // same fate forever: across many attempts both outcomes appear.
  const auto ds = testing::tiny_dataset();
  TableRunner inner(ds);
  FaultPlan plan;
  plan.seed = 9;
  plan.fail_rate = 0.5;
  FaultInjectingRunner faulty(inner, plan);
  int failed = 0;
  int ok = 0;
  for (int attempt = 0; attempt < 32; ++attempt) {
    const auto r = faulty.run(5);
    (r.failed() ? failed : ok) += 1;
  }
  EXPECT_GT(failed, 0);
  EXPECT_GT(ok, 0);
}

TEST(FaultInjectingRunner, TimeoutCapsLongRuns) {
  const auto ds = testing::tiny_dataset();
  TableRunner inner(ds);
  FaultPlan plan;  // inactive: the cap alone censors
  const double cap = ds.runtime(3) * 0.5;
  FaultInjectingRunner capped(inner, plan, cap);
  const auto r = capped.run(3);
  EXPECT_EQ(r.outcome, core::RunOutcome::kTimedOut);
  EXPECT_TRUE(r.censored());
  EXPECT_DOUBLE_EQ(r.runtime_seconds, cap);
  EXPECT_DOUBLE_EQ(r.cost, ds.cost(3) * 0.5);
}

TEST(FaultInjectingRunner, HangWithTimeoutTimesOut) {
  const auto ds = testing::tiny_dataset();
  TableRunner inner(ds);
  FaultPlan plan;
  plan.seed = 1;
  plan.hang_rate = 1.0;
  FaultInjectingRunner faulty(inner, plan, 10.0);
  const auto r = faulty.run(0);
  EXPECT_EQ(r.outcome, core::RunOutcome::kTimedOut);
  EXPECT_DOUBLE_EQ(r.runtime_seconds, 10.0);
}

TEST(FaultInjectingRunner, HangWithoutTimeoutThrows) {
  const auto ds = testing::tiny_dataset();
  TableRunner inner(ds);
  FaultPlan plan;
  plan.seed = 1;
  plan.hang_rate = 1.0;
  FaultInjectingRunner faulty(inner, plan);
  EXPECT_THROW((void)faulty.run(0), std::runtime_error);
}

TEST(FailureInjection, OptimizerSurfacesRunnerErrors) {
  // A hung deployment with no timeout mid-optimization must propagate to
  // the caller, not be silently swallowed (the user needs to know their
  // job is stuck).
  const auto ds = testing::tiny_dataset();
  const auto problem = testing::tiny_problem();
  TableRunner inner(ds);
  FaultPlan plan;
  plan.seed = 3;
  plan.hang_rate = 1.0;
  FaultInjectingRunner failing(inner, plan);
  core::BayesianOptimizer bo;
  EXPECT_THROW((void)bo.optimize(problem, failing, 1), std::runtime_error);
}

TEST(FailureInjection, LynceusSurfacesRunnerErrors) {
  const auto ds = testing::tiny_dataset();
  const auto problem = testing::tiny_problem();
  TableRunner inner(ds);
  FaultPlan plan;
  plan.seed = 3;
  plan.hang_rate = 1.0;
  FaultInjectingRunner failing(inner, plan);
  core::LynceusOptions opts;
  opts.lookahead = 1;
  core::LynceusOptimizer lyn(opts);
  EXPECT_THROW((void)lyn.optimize(problem, failing, 1), std::runtime_error);
}

TEST(AsyncTableRunner, CompletesInSimulatedTimeOrder) {
  const auto ds = testing::tiny_dataset();
  AsyncTableRunner async(ds);
  // Pick two configs with distinct runtimes; the slower-submitted-first
  // pair must complete fast-first.
  space::ConfigId slow = 0;
  space::ConfigId fast = 0;
  for (space::ConfigId id = 0; id < ds.size(); ++id) {
    if (ds.runtime(id) > ds.runtime(slow)) slow = id;
    if (ds.runtime(id) < ds.runtime(fast)) fast = id;
  }
  ASSERT_LT(ds.runtime(fast), ds.runtime(slow));

  async.submit(100, slow);
  async.submit(200, fast);
  EXPECT_EQ(async.outstanding(), 2U);

  const auto first = async.next_completion();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->tag, 200U);
  EXPECT_EQ(first->config, fast);
  EXPECT_DOUBLE_EQ(first->result.cost, ds.cost(fast));
  EXPECT_DOUBLE_EQ(async.now(), ds.runtime(fast));

  const auto second = async.next_completion();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->tag, 100U);
  EXPECT_DOUBLE_EQ(async.now(), ds.runtime(slow));

  EXPECT_FALSE(async.next_completion().has_value());
  EXPECT_EQ(async.runs_served(), 2U);
}

TEST(AsyncTableRunner, TiesBreakBySubmissionTicket) {
  const auto ds = testing::tiny_dataset();
  AsyncTableRunner async(ds);
  const auto t0 = async.submit(1, 4);
  const auto t1 = async.submit(2, 4);  // identical runtime → tie
  EXPECT_LT(t0, t1);
  EXPECT_EQ(async.next_completion()->tag, 1U);
  EXPECT_EQ(async.next_completion()->tag, 2U);
}

TEST(AsyncTableRunner, ClockAdvancesAcrossSubmissionWaves) {
  const auto ds = testing::tiny_dataset();
  AsyncTableRunner async(ds);
  async.submit(0, 3);
  const auto first = async.next_completion();
  ASSERT_TRUE(first.has_value());
  // A run submitted after the first completion starts at the new now().
  async.submit(0, 3);
  const auto second = async.next_completion();
  ASSERT_TRUE(second.has_value());
  EXPECT_DOUBLE_EQ(second->finish_time, 2.0 * ds.runtime(3));
}

TEST(AsyncTableRunner, HeapOrderMatchesSortedReferenceAtScale) {
  // 10k outstanding runs: the (finish_time, ticket) min-heap must pop in
  // exactly the order a full sort of the submissions would produce.
  const auto ds = testing::tiny_dataset();
  AsyncTableRunner async(ds);
  std::vector<std::pair<double, std::uint64_t>> expected;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    const auto config = static_cast<space::ConfigId>((i * 7) % ds.size());
    const auto ticket = async.submit(i, config);
    expected.emplace_back(ds.runtime(config), ticket);
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(async.outstanding(), 10000U);
  for (const auto& [finish, ticket] : expected) {
    const auto c = async.next_completion();
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->ticket, ticket);
    EXPECT_DOUBLE_EQ(c->finish_time, finish);
  }
  EXPECT_FALSE(async.next_completion().has_value());
}

TEST(AsyncTableRunner, SubmitOptionsApplyTimeoutAndDelay) {
  const auto ds = testing::tiny_dataset();
  AsyncTableRunner async(ds);
  AsyncTableRunner::SubmitOptions opts;
  opts.start_delay = 4.0;
  async.submit(0, 3, opts);
  const auto delayed = async.next_completion();
  ASSERT_TRUE(delayed.has_value());
  EXPECT_DOUBLE_EQ(delayed->finish_time, 4.0 + ds.runtime(3));
  EXPECT_TRUE(delayed->result.ok());

  AsyncTableRunner::SubmitOptions capped;
  capped.timeout_seconds = ds.runtime(3) * 0.25;
  async.submit(0, 3, capped);
  const auto censored = async.next_completion();
  ASSERT_TRUE(censored.has_value());
  EXPECT_EQ(censored->result.outcome, core::RunOutcome::kTimedOut);
  EXPECT_DOUBLE_EQ(censored->result.runtime_seconds, ds.runtime(3) * 0.25);
}

TEST(AsyncTableRunner, UncappedHangStaysOutstandingForever) {
  const auto ds = testing::tiny_dataset();
  AsyncTableRunner async(ds);
  FaultPlan plan;
  plan.seed = 1;
  plan.hang_rate = 1.0;
  async.set_fault_plan(plan);
  async.submit(0, 2);
  EXPECT_EQ(async.outstanding(), 1U);
  EXPECT_FALSE(async.next_finish_time().has_value());
  EXPECT_FALSE(async.next_completion().has_value());
  EXPECT_EQ(async.outstanding(), 1U);  // hung, not lost

  // A capped hang, by contrast, completes as a timeout.
  AsyncTableRunner::SubmitOptions capped;
  capped.timeout_seconds = 30.0;
  async.submit(0, 2, capped);
  const auto c = async.next_completion();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->result.outcome, core::RunOutcome::kTimedOut);
  EXPECT_DOUBLE_EQ(c->finish_time, 30.0);
}

TEST(AsyncTableRunner, FaultDrawsAreInterleavingIndependent) {
  // The same (config, attempt) resolves identically whether it is
  // submitted alone or among a crowd of other sessions' runs.
  const auto ds = testing::tiny_dataset();
  FaultPlan plan;
  plan.seed = 11;
  plan.fail_rate = 0.6;
  plan.straggler_rate = 0.3;
  plan.straggler_factor = 2.0;

  AsyncTableRunner solo(ds);
  solo.set_fault_plan(plan);
  solo.submit(0, 5);
  const auto alone = solo.next_completion();
  ASSERT_TRUE(alone.has_value());

  AsyncTableRunner crowd(ds);
  crowd.set_fault_plan(plan);
  for (space::ConfigId id = 0; id < ds.size(); ++id) crowd.submit(1, id);
  crowd.submit(0, 5, AsyncTableRunner::SubmitOptions{});  // attempt 0 again
  std::optional<AsyncTableRunner::Completion> mine;
  while (auto c = crowd.next_completion()) {
    if (c->tag == 0) mine = c;
  }
  ASSERT_TRUE(mine.has_value());
  EXPECT_EQ(mine->result.outcome, alone->result.outcome);
  EXPECT_EQ(mine->result.runtime_seconds, alone->result.runtime_seconds);
  EXPECT_EQ(mine->result.cost, alone->result.cost);
}

TEST(AsyncTableRunner, SplitByTagAndFoldBack) {
  // Each part pops its tags' runs exactly as the whole runner would, with
  // the same fault draws; fold() sums the counts, keeps the latest clock
  // and takes back what a part never popped (a forever-hung run).
  const auto ds = testing::tiny_dataset();
  FaultPlan plan;
  plan.seed = 5;
  plan.fail_rate = 0.3;
  plan.hang_rate = 0.2;
  plan.straggler_rate = 0.3;
  plan.straggler_factor = 2.0;
  const auto fill = [&](AsyncTableRunner& r) {
    r.set_fault_plan(plan);
    for (space::ConfigId id = 0; id < ds.size(); ++id) r.submit(id % 5, id);
  };

  AsyncTableRunner whole(ds);
  fill(whole);
  std::vector<std::vector<AsyncTableRunner::Completion>> by_part(3);
  while (auto c = whole.next_completion()) by_part[c->tag % 3].push_back(*c);

  AsyncTableRunner runner(ds);
  fill(runner);
  std::vector<AsyncTableRunner> parts = runner.split(3);
  EXPECT_EQ(runner.outstanding(), 0U);
  std::size_t served = 0;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    SCOPED_TRACE("part " + std::to_string(p));
    std::size_t k = 0;
    while (auto c = parts[p].next_completion()) {
      ASSERT_LT(k, by_part[p].size());
      EXPECT_EQ(c->ticket, by_part[p][k].ticket);
      EXPECT_EQ(c->config, by_part[p][k].config);
      EXPECT_EQ(c->finish_time, by_part[p][k].finish_time);
      EXPECT_EQ(c->result.outcome, by_part[p][k].result.outcome);
      EXPECT_EQ(c->result.cost, by_part[p][k].result.cost);
      ++k;
    }
    EXPECT_EQ(k, by_part[p].size());
    served += k;
  }
  ASSERT_GT(whole.outstanding(), 0U) << "the plan hung no run";
  runner.fold(parts);
  EXPECT_EQ(runner.runs_served(), served);
  EXPECT_EQ(runner.runs_served(), whole.runs_served());
  EXPECT_EQ(runner.now(), whole.now());
  EXPECT_EQ(runner.outstanding(), whole.outstanding());
  EXPECT_FALSE(runner.next_completion().has_value());
}

TEST(AsyncTableRunner, MetricsFunctionInvoked) {
  const auto ds = testing::tiny_dataset();
  AsyncTableRunner async(ds, [](space::ConfigId id) {
    return std::vector<double>{static_cast<double>(id) * 2.0};
  });
  async.submit(0, 4);
  const auto c = async.next_completion();
  ASSERT_TRUE(c.has_value());
  ASSERT_EQ(c->result.metrics.size(), 1U);
  EXPECT_DOUBLE_EQ(c->result.metrics[0], 8.0);
}

}  // namespace
}  // namespace lynceus::eval
