#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <exception>
#include <thread>
#include <unordered_map>

#include "net/tuning_client.hpp"
#include "net/tuning_server.hpp"
#include "util/alloc_count.hpp"

namespace lynbench {

namespace {

// Shapes fixed by the workload definitions (README.md), not by the machine,
// so every machine runs the same work.
constexpr std::size_t kConnections = 4;
constexpr std::size_t kSessionsPerConnection = 16;
constexpr std::size_t kServiceWorkers = 3;
constexpr std::size_t kDrainBatch = 64;

double ms_between(std::int64_t a, std::int64_t b) { return (b - a) / 1e6; }

/// Lazily built replay runners, one per block of the plan (one job, one
/// fault seed).
class Runners {
 public:
  explicit Runners(const Plan& plan) : plan_(&plan) {}

  /// Executes one profiling run of session `index`: the runner holds
  /// nothing else in flight, so the completion popped is the run just
  /// submitted.
  core::RunResult run(std::size_t index, const service::PendingRun& pending) {
    auto& r = by_block_[index / plan_->block];
    if (!r) {
      r = std::make_unique<eval::AsyncTableRunner>(
          (*plan_->jobs)[plan_->job_of(index)].dataset);
      r->set_fault_plan(plan_->fault_plan(index));
    }
    eval::AsyncTableRunner::SubmitOptions o;
    o.timeout_seconds = pending.timeout_seconds;
    o.attempt = pending.attempt;
    o.start_delay = pending.start_delay;
    r->submit(pending.session, pending.config, o);
    return r->next_completion().value().result;
  }

 private:
  const Plan* plan_;
  std::unordered_map<std::size_t, std::unique_ptr<eval::AsyncTableRunner>>
      by_block_;
};

/// Phase bookkeeping shared by the workloads: wall, CPU, context switches
/// and allocations over the phase. Peak RSS is taken once the quality set
/// has finished (see note_quality_done), so that a faster program, which
/// gets through more sessions in the same time, does not read as using
/// more memory; the end of the phase is the fallback.
class PhaseClock {
 public:
  PhaseClock()
      : t0_(now_ns()), u0_(usage_now()), a0_(util::alloc_count_all_threads()) {}

  void finish(Phase& p) const {
    const Usage u1 = usage_now();
    p.wall_s = (now_ns() - t0_) * 1e-9;
    p.usage.cpu_s = u1.cpu_s - u0_.cpu_s;
    p.usage.context_switches = u1.context_switches - u0_.context_switches;
    p.allocs = util::alloc_count_all_threads() - a0_;
    if (p.peak_rss_mb == 0.0) p.peak_rss_mb = peak_rss_mb();
    std::sort(p.sessions.begin(), p.sessions.end(),
              [](const Outcome& a, const Outcome& b) {
                return a.index < b.index;
              });
  }

 private:
  std::int64_t t0_;
  Usage u0_;
  std::uint64_t a0_;
};

/// Records peak RSS the first time `finished` sessions cover the quality
/// set.
void note_quality_done(Phase& p, std::size_t finished, const Quota& quota) {
  if (p.peak_rss_mb == 0.0 && finished >= quota.min_sessions) {
    p.peak_rss_mb = peak_rss_mb();
  }
}

// ------------------------------------------------------------ fleet_remote

class RemoteFleet final : public WorkloadRunner {
 public:
  RemoteFleet(const Workload& w, std::uint64_t seed) : w_(&w), seed_(seed) {}

  void setup(SpanLog* log) override {
    build(*w_, seed_, log);
    {
      Scope s(log, "net.server_start");
      server_ = std::make_unique<net::TuningServer>();
    }
    for (std::size_t c = 0; c < kConnections; ++c) {
      Scope s(log, "net.connect");
      clients_.push_back(
          std::make_unique<net::TuningClient>("127.0.0.1", server_->port()));
    }
    // One session per job: the server builds each problem on first use.
    const Plan warm = plan_->warmup();
    Quota q;
    q.min_sessions = q.max_sessions = jobs_.size();
    const Phase p = drive(warm, q, false);
    if (p.failed != 0) throw std::runtime_error("fleet_remote warm-up failed");
  }

  void teardown() override {
    clients_.clear();
    server_.reset();
  }

  Phase run(const Quota& quota, bool traced) override {
    return drive(*plan_, quota, traced);
  }

  void server_metrics(std::map<std::string, double>& out) override {
    double high_water = 0.0;
    double stalls = 0.0;
    for (const auto& l : server_->request_lane_stats()) {
      high_water = std::max(high_water, static_cast<double>(l.high_water));
      stalls += static_cast<double>(l.stalls);
    }
    const std::vector<std::size_t> counts = server_->shard_session_counts();
    double total = 0.0;
    double most = 0.0;
    for (const std::size_t n : counts) {
      total += static_cast<double>(n);
      most = std::max(most, static_cast<double>(n));
    }
    out["net.lane_high_water"] = high_water;
    out["net.lane_stalls"] = stalls;
    out["net.shard_imbalance"] =
        total > 0.0 ? most / (total / static_cast<double>(counts.size()))
                    : 0.0;
  }

 private:
  /// Counters the driver threads share.
  struct Shared {
    std::atomic<std::size_t> next{0};      ///< next session index to open
    std::atomic<std::size_t> steps{0};
    std::atomic<std::size_t> finished{0};
    std::atomic<double> rss_at_quality{0.0};
  };

  struct Driver {
    std::vector<Outcome> sessions;
    std::vector<double> step_ms;
    std::size_t runs = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::int64_t cpu_ns = 0;
    FrameMix frames;
    std::string error;
  };

  Phase drive(const Plan& plan, const Quota& quota, bool traced) {
    Shared shared;
    std::vector<Driver> drivers(kConnections);
    Phase phase;
    for (std::size_t c = 0; c < kConnections; ++c) {
      phase.logs.push_back(traced ? std::make_unique<SpanLog>(c) : nullptr);
    }
    const PhaseClock clock;
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        drive_connection(plan, quota, *clients_[c], phase.logs[c].get(),
                         shared, drivers[c]);
      });
    }
    for (std::thread& t : threads) t.join();
    for (Driver& d : drivers) {
      if (!d.error.empty()) std::fprintf(stderr, "driver: %s\n", d.error.c_str());
      phase.sessions.insert(phase.sessions.end(), d.sessions.begin(),
                            d.sessions.end());
      phase.step_ms.insert(phase.step_ms.end(), d.step_ms.begin(),
                           d.step_ms.end());
      phase.runs += d.runs;
      phase.attempted += d.attempted;
      phase.failed += d.failed;
      phase.driver_cpu_s += d.cpu_ns * 1e-9;
      auto& f = phase.frames;
      f.opens.insert(f.opens.end(), d.frames.opens.begin(),
                     d.frames.opens.end());
      f.tells.insert(f.tells.end(), d.frames.tells.begin(),
                     d.frames.tells.end());
      f.runs.insert(f.runs.end(), d.frames.runs.begin(), d.frames.runs.end());
      f.results.insert(f.results.end(), d.frames.results.begin(),
                       d.frames.results.end());
    }
    phase.steps = phase.step_ms.size();
    phase.peak_rss_mb = shared.rss_at_quality.load();
    phase.wire_encoding = static_cast<std::uint8_t>(clients_[0]->encoding());
    clock.finish(phase);
    return phase;
  }

  /// One closed-loop driver: keeps up to 16 sessions open on its
  /// connection, executes each pushed run against the replay table and
  /// tells the result back, replacing finished sessions with the next
  /// index of the plan until the quota says stop.
  static void drive_connection(const Plan& plan, const Quota& quota,
                               net::TuningClient& client, SpanLog* log,
                               Shared& shared, Driver& d) {
    const std::int64_t cpu0 = thread_cpu_ns();
    Runners runners(plan);
    std::unordered_map<std::uint64_t, std::size_t> open;  // wire id -> index
    std::deque<service::PendingRun> queue;
    const bool traced = log != nullptr;

    const auto open_next = [&]() {
      std::size_t i = shared.next.load();
      do {
        if (!quota.open_more(i, shared.steps.load())) return;
      } while (!shared.next.compare_exchange_weak(i, i + 1));
      const service::SessionSpec spec = plan.spec(i, /*in_process=*/false);
      ++d.attempted;
      std::uint64_t id = 0;
      {
        Scope s(log, "net.open", i);
        id = client.open(spec);
      }
      if (traced) d.frames.opens.push_back(FrameMix::Open{id, spec});
      open[id] = i;
    };

    try {
      for (std::size_t k = 0; k < kSessionsPerConnection; ++k) open_next();
      while (!open.empty()) {
        while (auto r = client.take_run(false)) queue.push_back(*r);
        if (queue.empty()) {
          ++d.attempted;
          Scope s(log, "net.take_run");
          if (auto r = client.take_run(true)) queue.push_back(*r);
          continue;
        }
        const service::PendingRun run = queue.front();
        queue.pop_front();
        const std::size_t index = open.at(run.session);
        if (traced) d.frames.runs.push_back(run);
        core::RunResult result;
        {
          Scope s(log, "eval.runner", index);
          result = runners.run(index, run);
        }
        ++d.runs;
        ++d.attempted;
        const std::int64_t t0 = now_ns();
        net::TuningClient::TellStatus told;
        {
          Scope s(log, "net.tell", index);
          told = client.tell(run.session, run.config, result);
        }
        d.step_ms.push_back(ms_between(t0, now_ns()));
        shared.steps.fetch_add(1, std::memory_order_relaxed);
        if (traced) {
          d.frames.tells.push_back(FrameMix::Tell{run.session, run.config,
                                                  result, told.finished,
                                                  told.quarantined,
                                                  told.stop_reason});
        }
        if (!told.finished && !told.quarantined) continue;

        Outcome out;
        out.index = index;
        d.attempted += 3;  // result, close, and the session itself
        {
          Scope s(log, "net.result", index);
          net::TuningClient::ResultReply rep = client.result(run.session);
          out.result = std::move(rep.result);
          out.stop_reason = rep.stop_reason;
          out.finished = rep.finished;
          out.quarantined = rep.quarantined;
        }
        {
          Scope s(log, "net.close", index);
          client.close_session(run.session);
        }
        if (!out.finished) ++d.failed;
        if (traced) d.frames.results.emplace_back(run.session, index);
        d.sessions.push_back(std::move(out));
        if (shared.finished.fetch_add(1) + 1 == quota.min_sessions) {
          shared.rss_at_quality.store(peak_rss_mb());
        }
        open.erase(run.session);
        open_next();
      }
    } catch (const std::exception& e) {
      ++d.failed;
      d.error = e.what();
    }
    d.cpu_ns = thread_cpu_ns() - cpu0;
  }

  const Workload* w_;
  std::uint64_t seed_;
  std::unique_ptr<net::TuningServer> server_;
  std::vector<std::unique_ptr<net::TuningClient>> clients_;
};

// ------------------------------------------------------------- fleet_local

/// Times each in-process step from the stepper's side: from the first
/// result applied after a decision (or the bootstrap landing) to the next
/// decision. Each session owns one, and a session is advanced by one
/// worker at a time, so no lock is needed.
class StepClock final : public core::OptimizerObserver {
 public:
  void on_bootstrap(const core::Sample&) override { mark(); }
  void on_run(const core::Sample&) override { mark(); }
  void on_failure(const core::FailureRecord&) override { mark(); }
  void on_decision(const core::DecisionEvent&) override {
    if (start_ == 0) return;
    step_ms.push_back(ms_between(start_, now_ns()));
    start_ = 0;
  }

  std::vector<double> step_ms;

 private:
  void mark() {
    if (start_ == 0) start_ = now_ns();
  }
  std::int64_t start_ = 0;
};

class LocalFleet final : public WorkloadRunner {
 public:
  LocalFleet(const Workload& w, std::uint64_t seed) : w_(&w), seed_(seed) {}

  // No warm-up drain: the first drains of a fresh process are where the
  // intermittent throughput-mode stall shows, and they stay in the phase.
  void setup(SpanLog* log) override {
    build(*w_, seed_, log);
    Scope s(log, "service.start");
    service::TuningService::Options o;
    o.throughput_workers = kServiceWorkers;
    svc_ = std::make_unique<service::TuningService>(o);
  }

  void teardown() override { svc_.reset(); }

  Phase run(const Quota& quota, bool traced) override {
    Phase phase;
    phase.logs.push_back(traced ? std::make_unique<SpanLog>(0) : nullptr);
    SpanLog* log = phase.logs[0].get();
    const double threads = static_cast<double>(machine_threads());
    const std::int64_t cpu0 = thread_cpu_ns();
    const PhaseClock clock;
    std::size_t next = 0;
    try {
      while (quota.open_more(next, phase.steps)) {
        std::vector<StepClock> clocks(kDrainBatch);
        std::vector<service::SessionId> ids;
        for (std::size_t k = 0; k < kDrainBatch; ++k) {
          service::SessionSpec spec = plan_->spec(next + k, true);
          spec.observer = &clocks[k];
          ++phase.attempted;
          Scope s(log, "service.open", next + k);
          ids.push_back(svc_->open_session(spec));
        }
        eval::AsyncTableRunner runner(jobs_[plan_->job_of(next)].dataset);
        runner.set_fault_plan(plan_->fault_plan(next));
        const Usage u0 = usage_now();
        const std::int64_t w0 = now_ns();
        {
          ++phase.attempted;
          Scope s(log, "service.drain");
          service::drain(*svc_, runner);
        }
        const double wall = (now_ns() - w0) * 1e-9;
        const double cpu = usage_now().cpu_s - u0.cpu_s;
        phase.drain_cpu_util.push_back(cpu / (wall * threads));
        phase.drain_cpu_s += cpu;
        phase.drain_wall_s += wall;
        phase.runs += runner.runs_served();
        for (std::size_t k = 0; k < kDrainBatch; ++k) {
          Outcome out;
          out.index = next + k;
          phase.attempted += 3;  // result, close, and the session itself
          {
            Scope s(log, "service.result", out.index);
            out.result = svc_->result(ids[k]);
            out.stop_reason = svc_->stop_reason(ids[k]);
            out.finished = svc_->finished(ids[k]);
            out.quarantined = svc_->quarantined(ids[k]);
          }
          svc_->close(ids[k]);
          if (!out.finished) ++phase.failed;
          phase.sessions.push_back(std::move(out));
          phase.step_ms.insert(phase.step_ms.end(), clocks[k].step_ms.begin(),
                               clocks[k].step_ms.end());
        }
        phase.steps = phase.step_ms.size();
        next += kDrainBatch;
        note_quality_done(phase, phase.sessions.size(), quota);
      }
    } catch (const std::exception& e) {
      ++phase.failed;
      std::fprintf(stderr, "driver: %s\n", e.what());
    }
    phase.driver_cpu_s = (thread_cpu_ns() - cpu0) * 1e-9;
    clock.finish(phase);
    return phase;
  }

 private:
  const Workload* w_;
  std::uint64_t seed_;
  std::unique_ptr<service::TuningService> svc_;
};

// -------------------------------------------------------------- deep_local

class DeepLocal final : public WorkloadRunner {
 public:
  DeepLocal(const Workload& w, std::uint64_t seed) : w_(&w), seed_(seed) {}

  void setup(SpanLog* log) override {
    build(*w_, seed_, log);
    {
      Scope s(log, "service.start");
      service::TuningService::Options o;
      o.pool_workers = kServiceWorkers;
      svc_ = std::make_unique<service::TuningService>(o);
    }
    // Warm the pool and the engine with a few decisions of a warm-up
    // session, then abandon it.
    Scope s(log, "harness.warmup");
    const Plan warm = plan_->warmup();
    Runners runners(warm);
    const service::SessionId id = svc_->open_session(warm.spec(0, true));
    std::vector<service::PendingRun> runs = svc_->next_runs();
    for (int step = 0; step < 3 && !runs.empty(); ++step) {
      for (const auto& r : runs) {
        svc_->tell(r.session, r.config, runners.run(0, r));
      }
      runs = svc_->next_runs();
    }
    svc_->close(id);
  }

  void teardown() override { svc_.reset(); }

  Phase run(const Quota& quota, bool traced) override {
    Phase phase;
    phase.logs.push_back(traced ? std::make_unique<SpanLog>(0) : nullptr);
    SpanLog* log = phase.logs[0].get();
    Runners runners(*plan_);
    const std::int64_t cpu0 = thread_cpu_ns();
    const PhaseClock clock;
    try {
      for (std::size_t i = 0; quota.open_more(i, phase.steps); ++i) {
        service::SessionId id = 0;
        {
          ++phase.attempted;
          Scope s(log, "service.open", i);
          id = svc_->open_session(plan_->spec(i, true));
        }
        std::vector<service::PendingRun> runs;
        {
          ++phase.attempted;
          Scope s(log, "service.next_runs", i);
          runs = svc_->next_runs();
        }
        while (!runs.empty()) {
          // A step: tell the wave's results, then sweep for the next
          // instruction. The replay runner's time is not part of it.
          double step = 0.0;
          for (const service::PendingRun& r : runs) {
            core::RunResult result;
            {
              Scope s(log, "eval.runner", i);
              result = runners.run(i, r);
            }
            ++phase.runs;
            ++phase.attempted;
            const std::int64_t t0 = now_ns();
            {
              Scope s(log, "service.tell", i);
              svc_->tell(r.session, r.config, result);
            }
            step += ms_between(t0, now_ns());
          }
          ++phase.attempted;
          const std::int64_t t0 = now_ns();
          {
            Scope s(log, "service.next_runs", i);
            runs = svc_->next_runs();
          }
          step += ms_between(t0, now_ns());
          phase.step_ms.push_back(step);
          phase.steps = phase.step_ms.size();
        }
        Outcome out;
        out.index = i;
        phase.attempted += 3;  // result, close, and the session itself
        {
          Scope s(log, "service.result", i);
          out.result = svc_->result(id);
          out.stop_reason = svc_->stop_reason(id);
          out.finished = svc_->finished(id);
          out.quarantined = svc_->quarantined(id);
        }
        svc_->close(id);
        if (!out.finished) ++phase.failed;
        phase.sessions.push_back(std::move(out));
        note_quality_done(phase, phase.sessions.size(), quota);
      }
    } catch (const std::exception& e) {
      ++phase.failed;
      std::fprintf(stderr, "driver: %s\n", e.what());
    }
    phase.driver_cpu_s = (thread_cpu_ns() - cpu0) * 1e-9;
    clock.finish(phase);
    return phase;
  }

 private:
  const Workload* w_;
  std::uint64_t seed_;
  std::unique_ptr<service::TuningService> svc_;
};

}  // namespace

void WorkloadRunner::build(const Workload& w, std::uint64_t seed,
                           SpanLog* log) {
  plan_.reset();
  {
    Scope s(log, "cloud.build_datasets");
    jobs_ = build_jobs(w.suite);
  }
  plan_ = std::make_unique<Plan>(w, jobs_, seed);
}

std::unique_ptr<WorkloadRunner> make_runner(const Workload& workload,
                                            std::uint64_t seed) {
  if (workload.name == "fleet_remote") {
    return std::make_unique<RemoteFleet>(workload, seed);
  }
  if (workload.name == "fleet_local") {
    return std::make_unique<LocalFleet>(workload, seed);
  }
  return std::make_unique<DeepLocal>(workload, seed);
}

std::size_t machine_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace lynbench
