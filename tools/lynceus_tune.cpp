/// lynceus_tune — command-line tuner over the bundled workloads or a
/// user-supplied measurement CSV.
///
///   lynceus_tune --suite=tf --job=cnn                    # defaults
///   lynceus_tune --suite=scout --job=spark-kmeans --optimizer=bo
///   lynceus_tune --suite=tf --job=rnn --la=1 --b=5 --trace
///   lynceus_tune --suite=tf --job=cnn --sessions=8       # service batch
///   lynceus_tune --job=cnn --snapshot=s.json --snapshot-after=14
///   lynceus_tune --job=cnn --resume=s.json               # and finish
///
/// Run `lynceus_tune --help` for the full flag reference (kept in one
/// place there). Every mode builds its sessions from the one SessionSpec
/// that make_spec() maps the flags to; the environment is never read.
/// Repeated or conflicting flags and negative counts are a hard error.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>

#include "cloud/workloads.hpp"
#include "core/stepper.hpp"
#include "core/trace.hpp"
#include "eval/experiment.hpp"
#include "eval/metrics.hpp"
#include "eval/runner.hpp"
#include "net/tuning_client.hpp"
#include "net/tuning_server.hpp"
#include "service/session_spec.hpp"
#include "service/tuning_service.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace lynceus;

const char kUsage[] = R"(lynceus_tune — tune a bundled (or CSV-replayed) job

Flags:
  --suite     tf | scout | cherrypick          (default tf)
  --job       job name within the suite        (default: first job)
  --optimizer lynceus | bo | rnd | cherrypick  (default lynceus)
  --la        Lynceus lookahead                (default 2)
  --screen    Lynceus root-screening width     (default 24, 0 = all)
  --b         budget multiplier                (default 3)
  --seed      RNG seed                         (default 1)
  --dataset   CSV produced by Dataset::save_csv / export_datasets,
              replayed instead of the synthetic surface (its rows must
              match the suite's configuration space)
  --incremental      Lynceus incremental ensemble refit (faster lookahead
              decisions, see core/lookahead.hpp). Default off.
  --branch-parallel  also parallelize *inside* each root simulation
              (trajectory-neutral; pooled-determinism contract in
              core/lookahead.hpp). Default off.
  --sessions N       tune N concurrent sessions of the job (seeds
              seed..seed+N-1) through the TuningService over one shared
              thread pool, fed by simulated asynchronous run completions
              (lynceus | bo | rnd only; incompatible with --trace). A
              shared root cache only pays off for identical recurrent
              sessions — distinct seeds never share root states — so this
              mode runs without one.
  --throughput-workers N  with --sessions: drain the sessions with N
              session-owning loops (N threads, each stepping its own
              sessions against its own share of the runner; a loop that
              runs dry steals a ready session) instead of one loop and
              the shared decision pool. Every session's trajectory is
              byte-identical either way — the scheduling contract in
              service/tuning_service.hpp — only wall-clock changes.
              Mutually exclusive with the shared decision pool, so this
              mode runs without one. Default 0 = one loop.
  --snapshot PATH    serialize the session to PATH and exit once
              --snapshot-after tell()s have been applied
  --snapshot-after K runs applied before snapshotting (default: after
              the bootstrap)
  --resume PATH      restore the session saved at PATH and finish it
  --fault-rate P     deterministic fault injection: every profiling
              attempt crashes partway with probability P and straggles
              with probability P, drawn from a seeded stream keyed by
              (config, attempt) — same flags, same faults, byte-for-byte
              (the replay contract in eval/runner.hpp). Default 0 = off.
  --fault-seed S     seed of the fault stream (default 1)
  --straggler-factor F  duration multiplier for straggling runs
              (default 2, must be >= 1)
  --max-retries N    re-run a FAILED attempt up to N extra times before
              accepting the failure (default 0); each retry is a fresh
              attempt with fresh fault draws. With --sessions this is the
              TuningService retry policy; otherwise a synchronous re-run.
  --run-timeout T    kill any attempt after T seconds — the result
              becomes a censored timed-out observation at the cap
  --serve PORT       run a network tuning service on 127.0.0.1:PORT
              (PORT 0 = ephemeral, printed at startup) and block until
              stdin reaches EOF. Each of --shards loop threads frames,
              decodes, decides and replies for the connections assigned
              to it; a session lives on the loop of the connection that
              opened it. --max-retries/--run-timeout set the server's
              default RunPolicy; the tuning flags are unused (clients
              send their own SessionSpec).
  --shards K         with --serve: number of loop threads, 1 to 64
              (default: one per hardware thread, at most 64)
  --wire W           frame-body encoding, "json" or "binary". Default:
              negotiate — the client offers binary and the server picks
              it when allowed. With --serve, W restricts what the
              handshake may choose (binary-only servers reject clients
              that do not negotiate binary with a typed error). With
              --connect, "binary" demands binary (typed bad_negotiation
              error if refused) and "json" skips the handshake.
              Trajectories are byte-identical under either encoding.
  --pin-threads      with --serve: pin loop t to core t (cache
              locality; perf hint only)
  --connect HOST:PORT  tune over the network instead of in process: open
              --sessions sessions (default 1) built from the usual
              suite/job/optimizer flags, execute the profiling runs the
              server pushes against the local replay table, and tell the
              results back. Per-session trajectories are byte-identical
              to the in-process run (contract in src/net/
              tuning_server.hpp). Incompatible with --dataset, --trace,
              --snapshot/--resume and --throughput-workers.
  --trace     print the per-decision table
  --list      list the suite's jobs and exit
  --help      this text

Repeated or conflicting flags (e.g. --trace --no-trace) are an error, and
so is a negative --la, --screen, --sessions, --throughput-workers or
--snapshot-after.
)";

std::vector<cloud::Dataset> suite_datasets(const std::string& suite) {
  if (suite == "tf" || suite == "tensorflow") {
    return cloud::make_tensorflow_datasets();
  }
  if (suite == "scout") return cloud::make_scout_datasets();
  if (suite == "cherrypick") return cloud::make_cherrypick_datasets();
  throw std::invalid_argument("unknown suite '" + suite +
                              "' (expected tf | scout | cherrypick)");
}

const cloud::Dataset& pick_job(const std::vector<cloud::Dataset>& all,
                               const std::string& job) {
  if (job.empty()) return all.front();
  for (const auto& ds : all) {
    // Accept both the short name ("cnn") and the full one
    // ("tensorflow-cnn").
    if (ds.job_name() == job ||
        ds.job_name().find("-" + job) != std::string::npos) {
      return ds;
    }
  }
  throw std::invalid_argument("unknown job '" + job + "' (use --list)");
}

/// An integer flag that sets an unsigned count of type T: a negative or
/// oversized value is a usage error, not a silent wrap-around.
template <typename T>
T count_flag(const util::CliFlags& flags, const std::string& name,
             T fallback) {
  const std::int64_t v =
      flags.get_int(name, static_cast<std::int64_t>(fallback));
  if (v < 0 || static_cast<std::uint64_t>(v) > std::numeric_limits<T>::max()) {
    throw std::invalid_argument(
        "--" + name + " must be between 0 and " +
        std::to_string(std::numeric_limits<T>::max()) + ", got " +
        std::to_string(v));
  }
  return static_cast<T>(v);
}

/// The --fault-rate/--fault-seed/--straggler-factor/--max-retries/
/// --run-timeout knobs, resolved and validated.
struct FaultChoice {
  eval::FaultPlan plan;  ///< inactive when --fault-rate is 0 (the default)
  double run_timeout = std::numeric_limits<double>::infinity();
  std::size_t max_retries = 0;

  [[nodiscard]] bool active() const {
    return plan.active() || std::isfinite(run_timeout);
  }
};

FaultChoice parse_faults(const util::CliFlags& flags) {
  FaultChoice f;
  const double rate = flags.get_double("fault-rate", 0.0);
  f.plan.seed = static_cast<std::uint64_t>(flags.get_int("fault-seed", 1));
  f.plan.fail_rate = rate;
  f.plan.straggler_rate = rate;
  f.plan.straggler_factor = flags.get_double("straggler-factor", 2.0);
  f.plan.validate();  // rates in [0,1], factor finite and >= 1
  f.run_timeout = flags.get_double(
      "run-timeout", std::numeric_limits<double>::infinity());
  if (std::isnan(f.run_timeout) || f.run_timeout <= 0.0) {
    throw std::invalid_argument("--run-timeout must be positive");
  }
  const std::int64_t retries = flags.get_int("max-retries", 0);
  if (retries < 0) {
    throw std::invalid_argument("--max-retries must be non-negative");
  }
  f.max_retries = static_cast<std::size_t>(retries);
  return f;
}

/// Synchronous-mode retry decorator: a FAILED result is re-run up to the
/// retry budget; every re-run is a fresh attempt of the inner
/// fault-injecting runner, so it gets fresh fault draws. (--sessions mode
/// retries through the TuningService RunPolicy instead.)
class RetryingRunner final : public core::JobRunner {
 public:
  RetryingRunner(core::JobRunner& inner, std::size_t max_attempts)
      : inner_(&inner), max_attempts_(max_attempts) {}

  [[nodiscard]] core::RunResult run(space::ConfigId id) override {
    core::RunResult r = inner_->run(id);
    for (std::size_t a = 1; a < max_attempts_ && r.failed(); ++a) {
      r = inner_->run(id);
    }
    return r;
  }

 private:
  core::JobRunner* inner_;
  std::size_t max_attempts_;
};

/// The synchronous runner stack: the replay table, optionally wrapped in
/// fault injection and retries. The fault-free stack is the bare table
/// runner — bitwise identical behavior to a build without fault support.
struct RunnerStack {
  eval::TableRunner table;
  std::unique_ptr<eval::FaultInjectingRunner> faulty;
  std::unique_ptr<RetryingRunner> retrying;
  core::JobRunner* active;

  RunnerStack(const cloud::Dataset& dataset, const FaultChoice& faults)
      : table(dataset), active(&table) {
    if (!faults.active()) return;
    faulty = std::make_unique<eval::FaultInjectingRunner>(
        table, faults.plan, faults.run_timeout);
    active = faulty.get();
    if (faults.max_retries > 0) {
      retrying = std::make_unique<RetryingRunner>(*faulty,
                                                  faults.max_retries + 1);
      active = retrying.get();
    }
  }
};

/// The CLI flag set as one declarative SessionSpec. Every stepper-driven
/// mode opens its sessions from it: the single run, --snapshot/--resume,
/// the in-process service (--sessions, seeds seed..seed+N-1) and the wire
/// (--connect). The caller attaches the problem.
service::SessionSpec make_spec(const util::CliFlags& flags,
                               const FaultChoice& faults) {
  service::SessionSpec spec;
  const std::string name = flags.get_string("optimizer", "lynceus");
  const auto la = count_flag<unsigned>(flags, "la", 2);
  const auto screen = count_flag<unsigned>(flags, "screen", 24);
  if (name == "lynceus") {
    spec.optimizer = "lynceus";
    spec.lookahead = la;
    spec.screen_width = screen;
    spec.incremental_refit = flags.get_bool("incremental", false);
    spec.branch_parallel = flags.get_bool("branch-parallel", false);
  } else if (name == "bo") {
    spec.optimizer = "bo";
  } else if (name == "rnd") {
    spec.optimizer = "random";
  } else if (name == "cherrypick") {
    throw std::invalid_argument(
        "optimizer 'cherrypick' has no ask/tell stepper and runs only as a "
        "single in-process run (not with --sessions, --connect, --snapshot "
        "or --resume)");
  } else {
    throw std::invalid_argument(
        "unknown optimizer '" + name +
        "' (expected lynceus | bo | rnd | cherrypick)");
  }
  spec.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  if (faults.max_retries > 0 || std::isfinite(faults.run_timeout)) {
    service::RunPolicy policy;
    policy.max_attempts = faults.max_retries + 1;
    policy.run_timeout_seconds = faults.run_timeout;
    spec.run_policy = policy;
  }
  return spec;
}

void print_header(const cloud::Dataset& dataset,
                  const core::OptimizationProblem& problem,
                  const std::string& what) {
  std::printf("job %s | %zu configs | Tmax %.1f s | budget $%.4f | %s\n",
              dataset.job_name().c_str(), dataset.size(),
              problem.tmax_seconds, problem.budget, what.c_str());
}

void print_trace(const core::TraceRecorder& trace,
                 const cloud::Dataset& dataset) {
  std::printf("\niter | viable | chosen config\n");
  for (std::size_t i = 0; i < trace.decisions().size(); ++i) {
    const auto& d = trace.decisions()[i];
    std::printf("%4zu | %6zu | %s  ($%.4f predicted, $%.4f actual)\n",
                d.iteration, d.viable_count,
                dataset.space().describe(d.chosen).c_str(),
                d.predicted_cost, trace.runs()[i].cost);
  }
  if (!trace.stop_reason().empty()) {
    std::printf("stopped: %s\n", trace.stop_reason().c_str());
  }
}

void print_summary(const cloud::Dataset& dataset,
                   const core::OptimizationProblem& problem,
                   const core::OptimizerResult& result) {
  std::printf("\nexplored %zu configurations, spent $%.4f of $%.4f\n",
              result.explorations(), result.budget_spent, problem.budget);
  if (!result.failures.empty()) {
    std::printf("  %zu failed runs billed $%.4f of the spend\n",
                result.failures.size(), result.budget_spent_on_failures);
  }
  if (!result.recommendation) {
    std::printf("no configuration could be recommended\n");
    return;
  }
  const auto best = *result.recommendation;
  std::printf("recommended: %s\n", dataset.space().describe(best).c_str());
  std::printf("  runtime %.1f s (%s), cost $%.4f per run, CNO %.3f\n",
              dataset.runtime(best),
              result.recommendation_feasible ? "meets deadline"
                                             : "MISSES deadline",
              dataset.cost(best), eval::cno(dataset, result));
}

/// The single-run epilogue: the decision table (when traced), the summary,
/// and the exit code (1 when nothing could be recommended).
int finish_run(const cloud::Dataset& dataset,
               const core::OptimizationProblem& problem,
               const core::OptimizerResult& result,
               const core::TraceRecorder* trace) {
  if (trace != nullptr) print_trace(*trace, dataset);
  print_summary(dataset, problem, result);
  return result.recommendation ? 0 : 1;
}

/// --sessions N: the TuningService batch mode. Every session tunes the
/// same job with its own seed; runs complete asynchronously in simulated
/// time, so sessions' tell()s interleave out of submission order exactly
/// as they would against a real cluster.
int run_sessions(const cloud::Dataset& dataset,
                 const core::OptimizationProblem& problem,
                 const service::SessionSpec& base, const FaultChoice& faults,
                 std::size_t sessions, std::size_t throughput_workers) {
  service::TuningService::Options sopts;
  if (throughput_workers > 0) {
    // Throughput mode owns the parallelism (sessions spread over drain
    // loops); the shared decision pool is mutually exclusive with it.
    sopts.throughput_workers = throughput_workers;
  } else {
    sopts.pool_workers = util::default_worker_count();
  }
  // No shared root cache: sessions carry distinct seeds, so their root
  // states (bootstrap rows + fit seeds) never coincide and exact-key hits
  // are impossible — the cache would only burn memory here. Identical
  // recurrent sessions (the scenario the shared cache serves) are
  // benchmarked in bench_micro's session_throughput section.
  service::TuningService svc(sopts);

  std::vector<service::SessionId> ids;
  for (std::size_t i = 0; i < sessions; ++i) {
    service::SessionSpec spec = base;
    spec.seed = base.seed + i;
    spec.problem = &problem;
    ids.push_back(svc.open_session(spec));
  }

  eval::AsyncTableRunner async(dataset);
  if (faults.plan.active()) async.set_fault_plan(faults.plan);
  service::drain(svc, async);

  if (throughput_workers > 0) {
    std::printf("\n%zu sessions finished (throughput mode: %zu loops)\n",
                sessions, throughput_workers);
  } else {
    std::printf("\n%zu sessions finished (shared pool: %zu workers)\n",
                sessions, sopts.pool_workers);
  }
  for (std::size_t i = 0; i < sessions; ++i) {
    const auto result = svc.result(ids[i]);
    const long rec = result.recommendation
                         ? static_cast<long>(*result.recommendation)
                         : -1L;
    std::printf("  session %zu (seed %llu): %3zu runs (%zu failed), "
                "$%.4f spent, rec=%ld, CNO %.3f — %s\n",
                i, static_cast<unsigned long long>(base.seed + i),
                result.explorations(), result.failures.size(),
                result.budget_spent, rec, eval::cno(dataset, result),
                svc.stop_reason(ids[i]).c_str());
  }
  return 0;
}

/// --serve PORT: run the TCP front-end until stdin reaches EOF. The
/// tuning flags are unused — remote clients describe their sessions.
int run_serve(std::uint16_t port, std::size_t shards,
              net::TuningServer::WirePolicy wire, bool pin_threads,
              const FaultChoice& faults) {
  net::TuningServer::Options opts;
  opts.port = port;
  opts.shards = shards;
  opts.wire = wire;
  opts.pin_threads = pin_threads;
  opts.run_policy.max_attempts = faults.max_retries + 1;
  opts.run_policy.run_timeout_seconds = faults.run_timeout;
  net::TuningServer server(opts);
  const char* wire_desc =
      wire == net::TuningServer::WirePolicy::kJsonOnly     ? "json"
      : wire == net::TuningServer::WirePolicy::kBinaryOnly ? "binary"
                                                           : "negotiate";
  std::printf(
      "serving on 127.0.0.1:%u (%zu shards, wire %s) — EOF on stdin stops\n",
      static_cast<unsigned>(server.port()), shards, wire_desc);
  std::fflush(stdout);
  int c;
  while ((c = std::fgetc(stdin)) != EOF) {
  }
  server.stop();
  // Accept-lane report: a high water above 1 means a connect burst
  // outpaced a busy loop picking up its new connections.
  for (const net::TuningServer::LaneStats& ls : server.request_lane_stats()) {
    if (ls.high_water == 0) continue;
    std::printf("accept lane -> loop %zu: high water %zu\n", ls.loop,
                ls.high_water);
  }
  return 0;
}

/// --connect HOST:PORT: the remote-driver loop. The server owns the
/// optimizer state; this side resolves the same job locally and replays
/// the runs the server pushes.
int run_connect(const std::string& target, const std::string& suite,
                const cloud::Dataset& dataset, double b,
                const service::SessionSpec& base, const FaultChoice& faults,
                std::size_t sessions, net::TuningClient::WireMode wire) {
  const std::size_t colon = target.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == target.size()) {
    throw std::invalid_argument("--connect expects HOST:PORT");
  }
  const std::string host = target.substr(0, colon);
  const int port = std::stoi(target.substr(colon + 1));
  if (port <= 0 || port > 65535) {
    throw std::invalid_argument("--connect: port out of range");
  }

  std::optional<net::TuningClient> client;
  try {
    client.emplace(host, static_cast<std::uint16_t>(port),
                   net::kDefaultMaxFrameBytes, wire);
  } catch (const net::ProtocolError& e) {
    // The server refused the handshake (e.g. --wire binary against a
    // JSON-only server): a typed rejection, not a mystery disconnect.
    std::fprintf(stderr, "negotiation with %s failed [%s]: %s\n",
                 target.c_str(), e.code().c_str(), e.what());
    return 1;
  }
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < sessions; ++i) {
    service::SessionSpec spec = base;
    spec.seed = base.seed + i;
    spec.problem_ref =
        service::ProblemRef{suite, dataset.job_name(), b};
    ids.push_back(client->open(spec));
  }
  std::printf("opened %zu remote session(s) on %s (wire %s)\n", sessions,
              target.c_str(), net::wire_encoding_name(client->encoding()));

  eval::AsyncTableRunner async(dataset);
  if (faults.plan.active()) async.set_fault_plan(faults.plan);
  client->drain(async);

  int exit_code = 0;
  for (std::size_t i = 0; i < sessions; ++i) {
    const net::TuningClient::ResultReply reply = client->result(ids[i]);
    if (sessions == 1) {
      print_summary(dataset, eval::make_problem(dataset, b), reply.result);
      if (!reply.result.recommendation) exit_code = 1;
      continue;
    }
    const long rec = reply.result.recommendation
                         ? static_cast<long>(*reply.result.recommendation)
                         : -1L;
    std::printf("  session %zu (seed %llu): %3zu runs (%zu failed), "
                "$%.4f spent, rec=%ld, CNO %.3f — %s\n",
                i, static_cast<unsigned long long>(base.seed + i),
                reply.result.explorations(), reply.result.failures.size(),
                reply.result.budget_spent, rec,
                eval::cno(dataset, reply.result), reply.stop_reason.c_str());
    if (!reply.result.recommendation) exit_code = 1;
  }
  for (std::size_t i = 0; i < sessions; ++i) client->close_session(ids[i]);
  return exit_code;
}

int run(int argc, char** argv) {
  const util::CliFlags flags(
      argc, argv,
      {"suite", "job", "optimizer", "la", "screen", "b", "seed", "dataset",
       "incremental", "branch-parallel", "sessions", "throughput-workers",
       "snapshot", "snapshot-after", "resume", "fault-rate", "fault-seed",
       "straggler-factor", "max-retries", "run-timeout", "serve", "shards",
       "wire", "pin-threads", "connect", "trace", "list", "help"});

  if (flags.get_bool("help", false)) {
    std::fputs(kUsage, stdout);
    return 0;
  }

  const std::string wire_flag = flags.get_string("wire", "");
  if (!wire_flag.empty() && wire_flag != "json" && wire_flag != "binary") {
    throw std::invalid_argument("--wire expects json or binary");
  }

  if (flags.has("serve")) {
    if (flags.has("connect")) {
      throw std::invalid_argument("--serve and --connect are exclusive");
    }
    const std::int64_t port = flags.get_int("serve", 0);
    if (port < 0 || port > 65535) {
      throw std::invalid_argument("--serve: port out of range");
    }
    const std::size_t max_shards = net::TuningServer::kMaxShards;
    const std::int64_t shards = flags.get_int(
        "shards",
        static_cast<std::int64_t>(net::TuningServer::Options{}.shards));
    if (shards < 1 || static_cast<std::uint64_t>(shards) > max_shards) {
      throw std::invalid_argument("--shards must be between 1 and " +
                                  std::to_string(max_shards));
    }
    const net::TuningServer::WirePolicy policy =
        wire_flag == "json"     ? net::TuningServer::WirePolicy::kJsonOnly
        : wire_flag == "binary" ? net::TuningServer::WirePolicy::kBinaryOnly
                                : net::TuningServer::WirePolicy::kNegotiate;
    return run_serve(static_cast<std::uint16_t>(port),
                     static_cast<std::size_t>(shards), policy,
                     flags.get_bool("pin-threads", false),
                     parse_faults(flags));
  }
  if (flags.has("shards")) {
    throw std::invalid_argument("--shards requires --serve");
  }
  if (flags.has("pin-threads")) {
    throw std::invalid_argument("--pin-threads requires --serve");
  }
  if (!wire_flag.empty() && !flags.has("connect")) {
    throw std::invalid_argument("--wire requires --serve or --connect");
  }

  const auto all = suite_datasets(flags.get_string("suite", "tf"));
  if (flags.get_bool("list", false)) {
    for (const auto& ds : all) {
      std::printf("%-32s %4zu configs  Tmax %7.1f s\n", ds.job_name().c_str(),
                  ds.size(), ds.tmax_seconds());
    }
    return 0;
  }

  const cloud::Dataset* dataset = &pick_job(all, flags.get_string("job", ""));
  std::optional<cloud::Dataset> external;
  if (flags.has("dataset")) {
    external = cloud::Dataset::load_csv(flags.get_string("dataset", ""),
                                        dataset->job_name() + " (external)",
                                        dataset->space_ptr());
    dataset = &*external;
  }

  const double b = flags.get_double("b", 3.0);
  const auto problem = eval::make_problem(*dataset, b);
  const FaultChoice faults = parse_faults(flags);
  const bool want_trace = flags.get_bool("trace", false);

  const auto sessions = count_flag<std::size_t>(flags, "sessions", 1);
  const auto throughput_workers =
      count_flag<std::size_t>(flags, "throughput-workers", 0);
  const auto snapshot_after = count_flag<std::size_t>(
      flags, "snapshot-after", problem.bootstrap_samples);
  const bool stepped = flags.has("snapshot") || flags.has("resume");
  if (flags.has("connect")) {
    if (flags.has("dataset") || want_trace || stepped ||
        throughput_workers > 0) {
      throw std::invalid_argument(
          "--connect is incompatible with --dataset, --trace, --snapshot, "
          "--resume and --throughput-workers");
    }
    if (sessions < 1) {
      throw std::invalid_argument("--sessions must be >= 1");
    }
    const net::TuningClient::WireMode mode =
        wire_flag == "json"     ? net::TuningClient::WireMode::kJson
        : wire_flag == "binary" ? net::TuningClient::WireMode::kBinary
                                : net::TuningClient::WireMode::kNegotiate;
    return run_connect(flags.get_string("connect", ""),
                       flags.get_string("suite", "tf"), *dataset, b,
                       make_spec(flags, faults), faults, sessions, mode);
  }
  if (throughput_workers > 0 && sessions <= 1) {
    throw std::invalid_argument(
        "--throughput-workers schedules concurrent sessions and requires "
        "--sessions N with N > 1");
  }
  if (sessions > 1) {
    if (want_trace) {
      throw std::invalid_argument(
          "--trace prints one session's decision table and is not "
          "supported with --sessions");
    }
    const service::SessionSpec spec = make_spec(flags, faults);
    print_header(*dataset, problem, std::to_string(sessions) + " sessions");
    return run_sessions(*dataset, problem, spec, faults, sessions,
                        throughput_workers);
  }

  core::TraceRecorder trace;
  core::TraceRecorder* observer = want_trace ? &trace : nullptr;
  RunnerStack stack(*dataset, faults);
  core::JobRunner& runner = *stack.active;
  if (!stepped && flags.get_string("optimizer", "lynceus") == "cherrypick") {
    // CherryPick composes several optimizers and has no ask/tell stepper,
    // hence no SessionSpec: it keeps the closed loop. It reports nothing
    // to an observer, so --trace prints an empty decision table.
    auto cherrypick = eval::cherrypick_spec().make();
    print_header(*dataset, problem, cherrypick->name());
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    return finish_run(*dataset, problem,
                      cherrypick->optimize(problem, runner, seed), observer);
  }

  service::SessionSpec spec = make_spec(flags, faults);
  spec.problem = &problem;
  spec.observer = observer;
  // Per-decision root simulations fan out across the host's cores by
  // default; the explored trajectory does not depend on the pool size.
  util::ThreadPool pool(util::default_worker_count());
  const auto stepper = spec.make_stepper(&pool, nullptr);
  if (!stepped) {
    print_header(*dataset, problem, stepper->name());
    return finish_run(*dataset, problem, core::drive(*stepper, runner),
                      observer);
  }

  // --resume / --snapshot: the same stepper, driven by hand so the
  // session can be saved mid-flight.
  if (flags.has("resume")) {
    const std::string path = flags.get_string("resume", "");
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    if (!in) {
      std::fprintf(stderr, "lynceus_tune: cannot read %s\n", path.c_str());
      return 2;
    }
    stepper->restore(buf.str());
    std::printf("resumed %s from %s (%zu runs applied so far)\n",
                stepper->name().c_str(), path.c_str(),
                stepper->result().history.size());
  }
  std::size_t applied = stepper->result().history.size();
  const auto save_snapshot = [&]() -> bool {
    const std::string path = flags.get_string("snapshot", "");
    std::ofstream out(path);
    out << stepper->snapshot() << "\n";
    if (!out) {
      std::fprintf(stderr, "lynceus_tune: cannot write %s\n", path.c_str());
      return false;
    }
    std::printf("snapshot after %zu runs written to %s — resume with "
                "--resume=%s\n",
                applied, path.c_str(), path.c_str());
    return true;
  };
  while (!stepper->finished()) {
    // Snapshots may land mid-batch: told results ride inside the
    // snapshot, untold ones are re-asked for after a restore.
    if (flags.has("snapshot") && applied >= snapshot_after) {
      return save_snapshot() ? 0 : 2;
    }
    const core::StepAction& action = stepper->ask();
    if (action.kind == core::StepAction::Kind::Finished) break;
    for (core::ConfigId id : stepper->outstanding_configs()) {
      if (flags.has("snapshot") && applied >= snapshot_after) {
        return save_snapshot() ? 0 : 2;
      }
      stepper->tell(id, runner.run(id));
      ++applied;
    }
  }
  return finish_run(*dataset, problem, stepper->result(), observer);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lynceus_tune: %s\n", e.what());
    return 2;
  }
}
