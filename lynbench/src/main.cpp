/// lynbench — the repository benchmark (README.md).
///
///   lynbench --workload NAME --seed N --seconds S --trace 0|1
///            [--commit ID] [--trace-dir DIR]
///
/// Sets the workload up several times (setup_s is the median), runs one
/// timed closed-loop phase, recomputes every session solo in process as
/// the reference, and prints the end-to-end metrics (--trace 0) or the
/// per-layer metrics of a traced phase (--trace 1) as the last stdout
/// line. Exits 1 when a trajectory differs from its reference or a
/// session did not finish, 2 on a usage error or a refused build.

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "eval/metrics.hpp"
#include "layers.hpp"
#include "util/alloc_count.hpp"
#include "workloads.hpp"

extern char** environ;

namespace lynbench {
namespace {

constexpr int kSetupReps = 25;
constexpr std::size_t kReferenceThreads = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string trace_dir = ".";
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "lynbench: %s\n", message.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage_error("bad --seed " + v);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0.0)) {
        usage_error("bad --seconds " + v);
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage_error("bad --trace " + v);
      a.trace = v == "1";
    } else if (flag == "--commit") {
      a.commit = v;
    } else if (flag == "--trace-dir") {
      a.trace_dir = v;
    } else {
      usage_error("unknown argument " + flag);
    }
  }
  if (a.workload.empty()) usage_error("--workload is required");
  return a;
}

/// Refuses a build or environment that would measure another program.
void refuse_foreign_build() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "LYNCEUS_", 8) == 0) {
      usage_error(std::string("refusing to measure with ") + *e +
                  " set: it changes option defaults");
    }
  }
  bool sanitized = false;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  sanitized = true;
#endif
#endif
  bool release = std::strcmp(LYNBENCH_BUILD_TYPE, "Release") == 0;
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
  release = false;
#endif
  if (sanitized || !release) {
    usage_error("refusing to measure a non-Release or sanitized build");
  }
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
    s = s.c_str();
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

int run(const Args& args) {
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) usage_error("unknown workload " + args.workload);
  std::fprintf(stderr, "lynbench: %s seed %" PRIu64 " for %.1f s%s\n",
               w->name.c_str(), args.seed, args.seconds,
               args.trace ? " (traced)" : "");

  auto runner = make_runner(*w, args.seed);
  SpanLog setup_log(100);
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupReps; ++r) {
    if (r > 0) runner->teardown();
    const std::int64_t t0 = now_ns();
    runner->setup(args.trace ? &setup_log : nullptr);
    setup_s.push_back((now_ns() - t0) * 1e-9);
  }

  const auto quota = [&] {
    Quota q;
    q.deadline_ns = now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
    q.min_sessions = w->quality_sessions;
    q.min_steps = kMinSteps;
    return q;
  };
  // The traced run measures the traced phase first, in the same fresh
  // process state as an untraced run, then the same phase untraced: the
  // difference between the two is the tracing overhead.
  Phase traced;
  if (args.trace) traced = runner->run(quota(), true);
  Phase untraced = runner->run(quota(), false);
  const Phase& main_phase = args.trace ? traced : untraced;

  // Every session of every phase against its solo FIFO reference, computed
  // outside the timed phases and outside the set-up.
  std::size_t count = 0;
  for (const Phase* p : {&untraced, &traced}) {
    for (const Outcome& o : p->sessions) count = std::max(count, o.index + 1);
  }
  std::vector<DecisionLog> decision_logs;
  const std::int64_t r0 = now_ns();
  const std::vector<Outcome> refs =
      reference_runs(runner->plan(), count, kReferenceThreads,
                     args.trace ? &decision_logs : nullptr);
  const double ref_s = (now_ns() - r0) * 1e-9;

  std::size_t mismatches = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Phase* p : {&untraced, &traced}) {
    attempted += p->attempted;
    failed += p->failed;
    for (const Outcome& o : p->sessions) {
      if (!o.finished || !same_trajectory(o, refs[o.index])) {
        ++mismatches;
        if (mismatches <= 5) {
          std::fprintf(stderr, "trajectory mismatch: session %zu\n", o.index);
        }
      }
    }
  }
  // The quality set must be complete and in order.
  const std::size_t quality = w->quality_sessions;
  bool complete = main_phase.sessions.size() >= quality;
  for (std::size_t i = 0; complete && i < quality; ++i) {
    complete = main_phase.sessions[i].index == i;
  }
  const bool correct = complete && mismatches == 0 && failed == 0;

  std::uint64_t digest = kFnvOffset;
  std::vector<double> cnos;
  std::vector<double> spend;
  for (std::size_t i = 0; complete && i < quality; ++i) {
    const Outcome& o = main_phase.sessions[i];
    digest = fnv1a(digest, trajectory_hash(o));
    cnos.push_back(eval::cno(
        runner->jobs()[runner->plan().job_of(i)].dataset, o.result));
    spend.push_back(o.result.budget_spent);
  }

  std::map<std::string, Metric> metrics;
  if (!args.trace) {
    const Phase& p = untraced;
    const double decisions = static_cast<double>(p.decisions());
    metrics["decisions_per_s"] = {"1/s", decisions / p.wall_s};
    metrics["step_p50_ms"] = {"ms", quantile(p.step_ms, 0.50)};
    metrics["cpu_ms_per_decision"] = {"ms", 1e3 * p.usage.cpu_s / decisions};
    metrics["peak_rss_mb"] = {"MB", p.peak_rss_mb};
    metrics["setup_s"] = {"s", median(setup_s)};
    metrics["cno_p90"] = {"ratio", cnos.empty() ? 0.0
                                                : eval::summarize(cnos).p90};
    metrics["explore_cost_usd"] = {"USD", mean(spend)};
  } else {
    SpanLog replay_log(101);
    LayerInputs in;
    in.plan = &runner->plan();
    in.runner = runner.get();
    in.traced = &traced;
    in.untraced = &untraced;
    in.setup_log = &setup_log;
    in.replay_log = &replay_log;
    in.refs = &refs;
    in.decision_logs = &decision_logs;
    in.machine_threads = machine_threads();
    metrics = layer_metrics(in);
    std::vector<const SpanLog*> logs = {&setup_log};
    for (const auto& l : traced.logs) logs.push_back(l.get());
    logs.push_back(&replay_log);
    const std::string path = args.trace_dir + "/trace-" + w->name + "-" +
                             std::to_string(args.seed) + ".json";
    write_trace(path, w->name, args.seed, logs);
    std::fprintf(stderr, "lynbench: spans written to %s\n", path.c_str());
  }
  runner->teardown();

  // Run description: machine, sample counts, digest.
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof digest_hex, "%016" PRIx64, digest);
  std::string drains;
  for (const double u : main_phase.drain_cpu_util) {
    drains += (drains.empty() ? "" : ",") + num(u);
  }
  std::printf(
      "{\"info\":{\"workload\":%s,\"seed\":%" PRIu64
      ",\"nproc\":%zu,\"cpu\":%s,\"compiler\":%s,\"build\":%s,\"commit\":%s,"
      "\"alloc_hooks\":%s,\"trajectory_digest\":\"%s\",\"quality_sessions\":%zu,"
      "\"sessions\":%zu,\"steps\":%zu,\"decisions\":%zu,\"runs\":%zu,"
      "\"wall_s\":%s,\"reference_s\":%s,\"mismatches\":%zu,"
      "\"step_p99_ms\":%s,\"drain_cpu_util\":[%s]}}\n",
      json_string(w->name).c_str(), args.seed, machine_threads(),
      json_string(cpu_model()).c_str(), json_string(LYNBENCH_COMPILER).c_str(),
      json_string(LYNBENCH_BUILD_TYPE).c_str(),
      json_string(args.commit).c_str(),
      util::alloc_count_available() ? "true" : "false", digest_hex, quality,
      main_phase.sessions.size(), main_phase.steps, main_phase.decisions(),
      main_phase.runs, num(main_phase.wall_s).c_str(), num(ref_s).c_str(),
      mismatches, num(quantile(main_phase.step_ms, 0.99)).c_str(),
      drains.c_str());

  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out += (first ? "" : ", ") + json_string(name) + ": {\"value\": " +
           num(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  if (!correct) {
    std::fprintf(stderr, "lynbench: FAILED (%zu mismatches, %" PRIu64
                         " failed operations, quality set %s)\n",
                 mismatches, failed, complete ? "complete" : "incomplete");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace lynbench

int main(int argc, char** argv) {
  const lynbench::Args args = lynbench::parse_args(argc, argv);
  lynbench::refuse_foreign_build();
  // The kernel carries a process's peak RSS across exec, so whatever
  // launched this binary would set the floor of ru_maxrss. The benchmark
  // runs in a child forked here, before any thread exists, whose peak
  // starts from this small image.
  std::fflush(nullptr);
  const pid_t child = fork();
  if (child < 0) {
    std::perror("lynbench: fork");
    return 1;
  }
  if (child == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the launcher
    int code = 1;
    try {
      code = lynbench::run(args);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "lynbench: %s\n", e.what());
    }
    std::fflush(nullptr);
    std::_Exit(code);
  }
  int status = 0;
  while (waitpid(child, &status, 0) < 0) {
    if (errno != EINTR) {
      std::perror("lynbench: waitpid");
      return 1;
    }
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
}
