#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "cloud/workloads.hpp"
#include "eval/experiment.hpp"
#include "util/rng.hpp"

namespace lynbench {

namespace {

// Why each workload exists is recorded in README.md.
const Workload kWorkloads[] = {
    {"fleet_remote", "scout", 1, true, 64, 1152},
    {"fleet_local", "scout", 1, true, 64, 1152},
    {"deep_local", "tf", 2, false, 1, 24},
};

}  // namespace

std::vector<Job> build_jobs(const std::string& suite) {
  std::vector<cloud::Dataset> datasets =
      suite == "tf" ? cloud::make_tensorflow_datasets()
                    : cloud::make_scout_datasets();
  std::vector<Job> jobs;
  jobs.reserve(datasets.size());
  for (cloud::Dataset& ds : datasets) {
    core::OptimizationProblem problem = eval::make_problem(ds, 3.0);
    jobs.push_back(Job{suite, std::move(ds), std::move(problem)});
  }
  return jobs;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Plan::Plan(const Workload& w, const std::vector<Job>& j,
           std::uint64_t bench_seed)
    : workload(&w),
      jobs(&j),
      seed(util::derive_seed(bench_seed, 1)),
      block(w.block) {}

Plan Plan::warmup() const {
  Plan p = *this;
  p.seed = util::derive_seed(seed, 0x5EED);
  p.block = 1;
  return p;
}

std::size_t Plan::job_of(std::size_t index) const {
  return (index / block) % jobs->size();
}

std::uint64_t Plan::seed_of(std::size_t index) const {
  return util::derive_seed(seed, index);
}

service::SessionSpec Plan::spec(std::size_t index, bool in_process) const {
  const Job& job = (*jobs)[job_of(index)];
  service::SessionSpec s;
  s.optimizer = "lynceus";
  s.seed = seed_of(index);
  s.lookahead = workload->lookahead;
  s.screen_width = 24;
  s.incremental_refit = false;
  s.branch_parallel = false;
  s.problem_ref = service::ProblemRef{job.suite, job.dataset.job_name(), 3.0};
  if (in_process) s.problem = &job.problem;
  if (workload->faults) {
    service::RunPolicy policy;
    policy.max_attempts = 2;
    policy.timeout_tmax_factor = 1.5;
    policy.quarantine_after = 0;
    s.run_policy = policy;
  }
  return s;
}

eval::FaultPlan Plan::fault_plan(std::size_t index) const {
  eval::FaultPlan f;
  if (!workload->faults) return f;
  f.seed = util::derive_seed(util::derive_seed(seed, 0xFA17), index / block);
  f.fail_rate = 0.05;
  f.straggler_rate = 0.05;
  f.straggler_factor = 2.0;
  f.hang_rate = 0.01;
  return f;
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  u.context_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  return u;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::size_t Phase::decisions() const {
  std::size_t d = 0;
  for (const Outcome& o : sessions) d += o.result.decisions;
  return d;
}

std::vector<Outcome> reference_runs(const Plan& plan, std::size_t count,
                                    std::size_t threads,
                                    std::vector<DecisionLog>* logs) {
  std::vector<Outcome> out(count);
  if (logs != nullptr) logs->assign(count, DecisionLog{});
  std::exception_ptr error;
  std::mutex error_mutex;
  std::vector<std::thread> pool;
  std::atomic<std::size_t> next{0};
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      try {
        for (std::size_t i = next++; i < count; i = next++) {
          service::SessionSpec spec = plan.spec(i, /*in_process=*/true);
          if (logs != nullptr) spec.observer = &(*logs)[i];
          service::TuningService svc;
          const service::SessionId id = svc.open_session(spec);
          eval::AsyncTableRunner runner(
              (*plan.jobs)[plan.job_of(i)].dataset);
          runner.set_fault_plan(plan.fault_plan(i));
          service::drain(svc, runner);
          Outcome& o = out[i];
          o.index = i;
          o.result = svc.result(id);
          o.stop_reason = svc.stop_reason(id);
          o.finished = svc.finished(id);
          o.quarantined = svc.quarantined(id);
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        error = std::current_exception();
      }
    });
  }
  for (std::thread& th : pool) th.join();
  if (error) std::rethrow_exception(error);
  return out;
}

namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

}  // namespace

bool same_trajectory(const Outcome& a, const Outcome& b) {
  const core::OptimizerResult& x = a.result;
  const core::OptimizerResult& y = b.result;
  if (a.finished != b.finished || a.quarantined != b.quarantined ||
      a.stop_reason != b.stop_reason || x.recommendation != y.recommendation ||
      x.recommendation_feasible != y.recommendation_feasible ||
      x.decisions != y.decisions || !same_bits(x.budget_spent, y.budget_spent) ||
      !same_bits(x.budget_spent_on_failures, y.budget_spent_on_failures) ||
      x.history.size() != y.history.size() ||
      x.failures.size() != y.failures.size()) {
    return false;
  }
  for (std::size_t i = 0; i < x.history.size(); ++i) {
    const core::Sample& p = x.history[i];
    const core::Sample& q = y.history[i];
    if (p.id != q.id || p.feasible != q.feasible ||
        !same_bits(p.runtime_seconds, q.runtime_seconds) ||
        !same_bits(p.cost, q.cost)) {
      return false;
    }
  }
  for (std::size_t i = 0; i < x.failures.size(); ++i) {
    const core::FailureRecord& p = x.failures[i];
    const core::FailureRecord& q = y.failures[i];
    if (p.id != q.id || p.after_samples != q.after_samples ||
        !same_bits(p.cost, q.cost)) {
      return false;
    }
  }
  return true;
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xFFULL;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t trajectory_hash(const Outcome& o) {
  const core::OptimizerResult& r = o.result;
  std::uint64_t h = kFnvOffset;
  for (const core::Sample& s : r.history) h = fnv1a(h, s.id);
  h = fnv1a(h, r.recommendation ? *r.recommendation + 1 : 0);
  h = fnv1a(h, r.recommendation_feasible ? 1 : 0);
  for (const core::FailureRecord& f : r.failures) {
    h = fnv1a(h, f.id);
    h = fnv1a(h, f.after_samples);
  }
  h = fnv1a(h, bits(r.budget_spent));
  return fnv1a(h, o.quarantined ? 1 : 0);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }


double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace lynbench
