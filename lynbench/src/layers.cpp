#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>

#include "core/bo.hpp"
#include "core/lookahead.hpp"
#include "eval/runner.hpp"
#include "model/regressor.hpp"
#include "net/binary_codec.hpp"
#include "net/protocol.hpp"
#include "util/rng.hpp"

namespace lynbench {

namespace {

constexpr std::size_t kReplayReps = 3;

/// Every per-layer metric and its unit; README.md defines each one.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"net.encode_us_per_frame", "us"},
    {"net.decode_us_per_frame", "us"},
    {"net.bytes_per_step", "bytes"},
    {"net.open_rtt_p50_ms", "ms"},
    {"net.take_run_wait_ms_per_step", "ms"},
    {"net.lane_high_water", "count"},
    {"net.lane_stalls", "count"},
    {"net.shard_imbalance", "ratio"},
    {"service.next_runs_ms_p50", "ms"},
    {"service.tell_us_p50", "us"},
    {"service.open_us", "us"},
    {"service.cpu_util", "ratio"},
    {"service.cs_per_decision", "count"},
    {"service.retries", "count"},
    {"service.timeouts", "count"},
    {"service.failed_runs", "count"},
    {"core.decision_ms_p50", "ms"},
    {"core.viable_mean", "count"},
    {"core.roots_mean", "count"},
    {"core.fit_ms", "ms"},
    {"core.screen_ms", "ms"},
    {"core.simulate_ms", "ms"},
    {"model.ensemble_fit_ms", "ms"},
    {"model.predict_all_us", "us"},
    {"util.allocs_per_decision", "count"},
    {"util.spec_codec_us", "us"},
    {"cloud.dataset_build_ms", "ms"},
    {"eval.runner_us_per_run", "us"},
    {"harness.driver_cpu_share", "ratio"},
    {"harness.trace_overhead_pct", "%"},
};

/// Durations (ms) of every span called `name` in `logs`.
std::vector<double> span_ms(const std::vector<const SpanLog*>& logs,
                            const std::string& name) {
  std::vector<double> out;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if (name == s.name) out.push_back(s.ms());
    }
  }
  return out;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

/// Times `fn` kReplayReps times; returns the median wall milliseconds.
template <typename Fn>
double replay_ms(SpanLog& log, const char* name, Fn&& fn) {
  std::vector<double> ms;
  for (std::size_t r = 0; r < kReplayReps; ++r) {
    const std::int64_t t0 = now_ns();
    {
      Scope s(&log, name);
      fn();
    }
    ms.push_back((now_ns() - t0) / 1e6);
  }
  return median(ms);
}

/// The run's exact frame mix, re-encoded and re-decoded through the public
/// codec functions in the connection's negotiated encoding.
void codec_replay(const Phase& p, SpanLog& log,
                  std::map<std::string, double>& m) {
  const auto enc = static_cast<net::WireEncoding>(p.wire_encoding);
  const FrameMix& f = p.frames;
  std::unordered_map<std::size_t, const Outcome*> by_index;
  for (const Outcome& o : p.sessions) by_index[o.index] = &o;

  std::vector<std::string> to_server;
  std::vector<std::string> to_client;
  const auto encode_all = [&] {
    to_server.clear();
    to_client.clear();
    std::uint64_t req = 1;
    for (const FrameMix::Open& o : f.opens) {
      to_server.push_back(net::encode_frame(net::encode_open_wire(enc, req, o.spec)));
      to_client.push_back(
          net::encode_frame(net::encode_opened_wire(enc, req++, o.session)));
    }
    for (const service::PendingRun& r : f.runs) {
      to_client.push_back(net::encode_frame(net::encode_run_wire(enc, r)));
    }
    for (const FrameMix::Tell& t : f.tells) {
      to_server.push_back(net::encode_frame(
          net::encode_tell_wire(enc, req, t.session, t.config, t.result)));
      to_client.push_back(net::encode_frame(net::encode_told_wire(
          enc, req++, t.session, t.finished, t.quarantined, t.stop_reason)));
    }
    for (const auto& [session, index] : f.results) {
      const Outcome& o = *by_index.at(index);
      to_server.push_back(net::encode_frame(
          net::encode_result_request_wire(enc, req, session)));
      to_client.push_back(net::encode_frame(net::encode_result_reply_wire(
          enc, req++, session, o.finished, o.quarantined, o.stop_reason,
          o.result)));
      to_server.push_back(
          net::encode_frame(net::encode_close_wire(enc, req, session)));
      to_client.push_back(
          net::encode_frame(net::encode_closed_wire(enc, req++, session)));
    }
  };
  const double frames = static_cast<double>(f.opens.size() * 2 +
                                            f.runs.size() +
                                            f.tells.size() * 2 +
                                            f.results.size() * 4);
  if (frames == 0.0) return;
  const double encode_ms = replay_ms(log, "net.encode_replay", encode_all);

  std::size_t decoded = 0;
  const auto decode_all = [&] {
    decoded = 0;
    std::string payload;
    net::FrameAssembler in_server;
    for (const std::string& frame : to_server) {
      in_server.feed(frame.data(), frame.size());
      while (in_server.next(payload)) {
        (void)net::parse_request_wire(enc, payload);
        ++decoded;
      }
    }
    net::FrameAssembler in_client;
    for (const std::string& frame : to_client) {
      in_client.feed(frame.data(), frame.size());
      while (in_client.next(payload)) {
        (void)net::parse_server_message_wire(enc, payload);
        ++decoded;
      }
    }
  };
  const double decode_ms = replay_ms(log, "net.decode_replay", decode_all);
  if (static_cast<double>(decoded) != frames) {
    throw std::runtime_error("codec replay decoded a different frame count");
  }
  double bytes = 0.0;
  for (const auto& s : to_server) bytes += static_cast<double>(s.size());
  for (const auto& s : to_client) bytes += static_cast<double>(s.size());
  m["net.encode_us_per_frame"] = encode_ms * 1e3 / frames;
  m["net.decode_us_per_frame"] = decode_ms * 1e3 / frames;
  m["net.bytes_per_step"] =
      p.steps > 0 ? bytes / static_cast<double>(p.steps) : 0.0;
}

/// Lookahead engine fit / screen / simulate, replayed on the sample sets
/// (half-way prefixes of the first sessions' histories) the run produced.
void core_replay(const Workload& w, const Plan& plan,
                 const std::vector<Outcome>& sessions, SpanLog& log,
                 std::map<std::string, double>& m) {
  std::vector<double> fit;
  std::vector<double> screen;
  std::vector<double> simulate;
  std::size_t sets = 0;
  for (const Outcome& o : sessions) {
    if (sets == 8) break;
    const auto& h = o.result.history;
    if (h.size() < 4) continue;
    ++sets;
    const core::OptimizationProblem& problem =
        (*plan.jobs)[plan.job_of(o.index)].problem;
    const std::vector<core::Sample> prefix(h.begin(),
                                           h.begin() + h.size() / 2);
    double spent = 0.0;
    for (const core::Sample& s : prefix) spent += s.cost;
    core::LookaheadEngine::Options opts;
    opts.lookahead = w.lookahead;
    core::LookaheadEngine engine(
        problem, opts, core::default_tree_model_factory(*problem.space), 1);
    const std::uint64_t seed = plan.seed_of(o.index);
    std::vector<core::ConfigId> roots;
    for (std::size_t r = 0; r < kReplayReps; ++r) {
      std::int64_t t0 = now_ns();
      {
        Scope s(&log, "core.begin_decision", o.index);
        engine.begin_decision(prefix, problem.budget - spent, seed);
      }
      fit.push_back((now_ns() - t0) / 1e6);
      t0 = now_ns();
      {
        Scope s(&log, "core.screened_roots", o.index);
        engine.screened_roots(24, roots);
      }
      screen.push_back((now_ns() - t0) / 1e6);
      t0 = now_ns();
      {
        Scope s(&log, "core.simulate", o.index);
        for (const core::ConfigId root : roots) {
          (void)engine.simulate(root, util::derive_seed(seed, root));
        }
      }
      simulate.push_back((now_ns() - t0) / 1e6);
    }
  }
  m["core.fit_ms"] = median(fit);
  m["core.screen_ms"] = median(screen);
  m["core.simulate_ms"] = median(simulate);
}

/// Bagging ensemble fit and SoA predict_all at the run's median history
/// size, on the history of a session that reached that size.
void model_replay(const Plan& plan, const std::vector<Outcome>& sessions,
                  SpanLog& log, std::map<std::string, double>& m) {
  std::vector<double> sizes;
  for (const Outcome& o : sessions) {
    sizes.push_back(static_cast<double>(o.result.history.size()));
  }
  const auto target = static_cast<std::size_t>(median(sizes));
  const Outcome* pick = nullptr;
  for (const Outcome& o : sessions) {
    if (o.result.history.size() >= target) {
      pick = &o;
      break;
    }
  }
  if (pick == nullptr || target == 0) return;
  const Job& job = (*plan.jobs)[plan.job_of(pick->index)];
  const model::FeatureMatrix fm(job.dataset.space());
  std::vector<std::uint32_t> rows;
  std::vector<double> y;
  for (std::size_t i = 0; i < target; ++i) {
    rows.push_back(static_cast<std::uint32_t>(pick->result.history[i].id));
    y.push_back(pick->result.history[i].cost);
  }
  const model::ModelFactory factory =
      core::default_tree_model_factory(job.dataset.space());
  std::unique_ptr<model::Regressor> model = factory();
  std::vector<model::Prediction> preds(fm.rows());
  m["model.ensemble_fit_ms"] = replay_ms(log, "model.fit", [&] {
    model->fit(fm, rows, y, plan.seed_of(pick->index));
  });
  m["model.predict_all_us"] =
      1e3 * replay_ms(log, "model.predict_all",
                      [&] { model->predict_all(fm, preds); });
}

/// Retries, timeouts and failed runs of the first `count` sessions,
/// re-derived from each trajectory and the plan's pure fault draws: a
/// config whose first attempt failed was retried once (max_attempts 2),
/// timeouts are never retried.
void fault_counts(const Plan& plan, const std::vector<Outcome>& refs,
                  std::size_t count, std::map<std::string, double>& m) {
  double retries = 0.0;
  double timeouts = 0.0;
  double failed = 0.0;
  for (std::size_t i = 0; i < count && i < refs.size(); ++i) {
    const Job& job = (*plan.jobs)[plan.job_of(i)];
    const double cap = 1.5 * job.problem.tmax_seconds;
    const eval::FaultPlan faults = plan.fault_plan(i);
    const auto attempt = [&](core::ConfigId id, std::uint64_t a) {
      const auto& obs = job.dataset.observation(id);
      core::RunResult base;
      base.runtime_seconds = obs.runtime_seconds;
      base.cost = obs.cost();
      base.timed_out = obs.timed_out;
      return eval::cap_injected_run(eval::inject_faults(faults, id, a, base),
                                    base, cap);
    };
    for (const core::Sample& s : refs[i].result.history) {
      core::RunResult r = attempt(s.id, 0);
      if (r.failed()) {
        ++retries;
        r = attempt(s.id, 1);
      }
      if (r.outcome == core::RunOutcome::kTimedOut) ++timeouts;
    }
    for (const core::FailureRecord& f : refs[i].result.failures) {
      (void)f;
      ++retries;
      ++failed;
    }
  }
  m["service.retries"] = retries;
  m["service.timeouts"] = timeouts;
  m["service.failed_runs"] = failed;
}

/// Replay-runner cost per run when the workload hands its runs to the
/// service (fleet_local): the first sessions' configs through a fresh
/// runner with the plan's faults.
double runner_replay_us(const Plan& plan, const std::vector<Outcome>& refs,
                        std::size_t count, SpanLog& log) {
  std::size_t runs = 0;
  const double ms = replay_ms(log, "eval.runner_replay", [&] {
    runs = 0;
    for (std::size_t i = 0; i < count && i < refs.size(); ++i) {
      const Job& job = (*plan.jobs)[plan.job_of(i)];
      eval::AsyncTableRunner runner(job.dataset);
      runner.set_fault_plan(plan.fault_plan(i));
      eval::AsyncTableRunner::SubmitOptions o;
      o.timeout_seconds = 1.5 * job.problem.tmax_seconds;
      for (const core::Sample& s : refs[i].result.history) {
        runner.submit(i, s.id, o);
        ++runs;
      }
      while (runner.next_completion().has_value()) {
      }
    }
  });
  return runs > 0 ? ms * 1e3 / static_cast<double>(runs) : 0.0;
}

}  // namespace

std::map<std::string, Metric> layer_metrics(const LayerInputs& in) {
  std::map<std::string, double> m;
  for (const auto& [name, unit] : kLayerMetrics) m[name] = 0.0;
  const Phase& p = *in.traced;
  const Plan& plan = *in.plan;
  const Workload& w = *plan.workload;
  std::vector<const SpanLog*> logs;
  for (const auto& l : p.logs) logs.push_back(l.get());
  SpanLog& replay = *in.replay_log;
  const double decisions = static_cast<double>(p.decisions());
  const double steps = static_cast<double>(p.steps);
  const std::size_t quality =
      std::min(w.quality_sessions, in.refs->size());

  // net: the codec replay and the client-side spans (fleet_remote only).
  if (!p.frames.opens.empty()) codec_replay(p, replay, m);
  m["net.open_rtt_p50_ms"] = median(span_ms(logs, "net.open"));
  if (steps > 0.0) {
    m["net.take_run_wait_ms_per_step"] =
        sum(span_ms(logs, "net.take_run")) / steps;
  }
  in.runner->server_metrics(m);

  // service
  m["service.next_runs_ms_p50"] = median(span_ms(logs, "service.next_runs"));
  m["service.tell_us_p50"] = 1e3 * median(span_ms(logs, "service.tell"));
  m["service.open_us"] = 1e3 * median(span_ms(logs, "service.open"));
  const bool drains = p.drain_wall_s > 0.0;
  m["service.cpu_util"] =
      (drains ? p.drain_cpu_s : p.usage.cpu_s) /
      ((drains ? p.drain_wall_s : p.wall_s) *
       static_cast<double>(in.machine_threads));
  if (decisions > 0.0) {
    m["service.cs_per_decision"] =
        static_cast<double>(p.usage.context_switches) / decisions;
  }
  fault_counts(plan, *in.refs, quality, m);

  // core
  std::vector<double> per_decision;
  for (const Outcome& o : p.sessions) {
    if (o.result.decisions == 0) continue;
    per_decision.push_back(1e3 * o.result.decision_seconds /
                           static_cast<double>(o.result.decisions));
  }
  m["core.decision_ms_p50"] = median(per_decision);
  std::vector<double> viable;
  std::vector<double> roots;
  for (std::size_t i = 0; i < quality; ++i) {
    for (const core::DecisionEvent& e : (*in.decision_logs)[i].events) {
      viable.push_back(static_cast<double>(e.viable_count));
      roots.push_back(static_cast<double>(e.simulated_roots));
    }
  }
  m["core.viable_mean"] = mean(viable);
  m["core.roots_mean"] = mean(roots);
  const std::vector<Outcome> first(in.refs->begin(),
                                   in.refs->begin() + quality);
  core_replay(w, plan, first, replay, m);

  // model
  model_replay(plan, first, replay, m);

  // util
  if (decisions > 0.0) {
    m["util.allocs_per_decision"] = static_cast<double>(p.allocs) / decisions;
  }
  std::vector<service::SessionSpec> specs;
  for (std::size_t i = 0; i < quality; ++i) specs.push_back(plan.spec(i, false));
  const double codec_ms = replay_ms(replay, "util.spec_codec", [&] {
    for (const service::SessionSpec& s : specs) {
      (void)service::SessionSpec::from_json(s.to_json());
    }
  });
  if (!specs.empty()) {
    m["util.spec_codec_us"] = codec_ms * 1e3 / static_cast<double>(specs.size());
  }

  // cloud
  m["cloud.dataset_build_ms"] =
      median(span_ms({in.setup_log}, "cloud.build_datasets"));

  // eval
  const std::vector<double> runner_ms = span_ms(logs, "eval.runner");
  m["eval.runner_us_per_run"] =
      !runner_ms.empty() ? 1e3 * mean(runner_ms)
                         : runner_replay_us(plan, *in.refs, quality, replay);

  // harness: the driver threads' CPU outside every call into the program,
  // over the process CPU; and the traced phase's cost per decision over
  // the untraced one's.
  double inside_ms = 0.0;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if (s.parent < 0) inside_ms += s.cpu_ns / 1e6;
    }
  }
  if (p.usage.cpu_s > 0.0) {
    m["harness.driver_cpu_share"] =
        std::max(0.0, p.driver_cpu_s - inside_ms / 1e3) / p.usage.cpu_s;
  }
  const Phase& b = *in.untraced;
  const double base_decisions = static_cast<double>(b.decisions());
  if (decisions > 0.0 && base_decisions > 0.0) {
    m["harness.trace_overhead_pct"] =
        100.0 * ((p.wall_s / decisions) / (b.wall_s / base_decisions) - 1.0);
  }
  std::map<std::string, Metric> out;
  for (const auto& [name, unit] : kLayerMetrics) out[name] = {unit, m.at(name)};
  if (out.size() != m.size()) {
    throw std::logic_error("a per-layer metric is missing from the table");
  }
  return out;
}

void write_trace(const std::string& path, const std::string& workload,
                 std::uint64_t seed, const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\"workload\":\"%s\",\"seed\":%llu,\"fields\":[\"name\","
               "\"thread\",\"start_ns\",\"end_ns\",\"cpu_ns\",\"parent\","
               "\"session\"],\"spans\":[",
               workload.c_str(), static_cast<unsigned long long>(seed));
  bool first = true;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      std::fprintf(f, "%s\n[\"%s\",%u,%lld,%lld,%lld,%d,%llu]",
                   first ? "" : ",", s.name, log->thread(),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.cpu_ns), s.parent,
                   static_cast<unsigned long long>(s.session));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

}  // namespace lynbench
