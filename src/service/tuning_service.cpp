#include "service/tuning_service.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/json.hpp"

namespace lynceus::service {

TuningService::TuningService() : TuningService(Options{}) {}

TuningService::TuningService(Options options) : options_(std::move(options)) {
  options_.run_policy.validate();
  if (options_.throughput_workers > 0) {
    // See "Throughput mode" in the header: the shared cache's LRU mutation
    // order is interleaving-dependent, and intra-decision pool fan-out
    // would oversubscribe the session-step workers.
    if (options_.root_cache_capacity > 0) {
      throw std::invalid_argument(
          "TuningService: throughput_workers requires the shared RootCache "
          "off (root_cache_capacity == 0)");
    }
    if (options_.pool_workers > 0) {
      throw std::invalid_argument(
          "TuningService: throughput_workers and pool_workers are mutually "
          "exclusive (session-level parallelism replaces the decision pool)");
    }
  }
  if (options_.pool_workers > 0) {
    pool_ = std::make_unique<util::ThreadPool>(options_.pool_workers);
  }
  if (options_.root_cache_capacity > 0) {
    core::RootCache::Options copts;
    copts.capacity = options_.root_cache_capacity;
    cache_ = std::make_unique<core::RootCache>(copts);
  }
}

TuningService::Session& TuningService::session_at(SessionId id) {
  if (id >= sessions_.size() || sessions_[id].closed) {
    throw std::invalid_argument("TuningService: unknown or closed session " +
                                std::to_string(id));
  }
  return sessions_[id];
}

const TuningService::Session& TuningService::session_at(SessionId id) const {
  if (id >= sessions_.size() || sessions_[id].closed) {
    throw std::invalid_argument("TuningService: unknown or closed session " +
                                std::to_string(id));
  }
  return sessions_[id];
}

SessionId TuningService::admit(Session s) {
  sessions_.push_back(std::move(s));
  const SessionId id = sessions_.size() - 1;
  enqueue_ready(id);
  journal(id);
  return id;
}

void TuningService::enqueue_ready(SessionId id) {
  Session& s = sessions_[id];
  if (s.queued || s.closed || s.stepper->finished()) return;
  ready_.push_back(id);
  s.queued = true;
}

double TuningService::effective_timeout(const Session& s) const {
  const RunPolicy& p = s.policy;
  double t = p.run_timeout_seconds;
  if (p.timeout_tmax_factor > 0.0) {
    t = std::min(t,
                 p.timeout_tmax_factor * s.stepper->problem().tmax_seconds);
  }
  return t;
}

void TuningService::journal(SessionId id) {
  if (options_.journal) options_.journal(id, snapshot_session(id));
}

SessionId TuningService::open(
    std::unique_ptr<core::OptimizerStepper> stepper) {
  if (stepper == nullptr) {
    throw std::invalid_argument("TuningService: null stepper");
  }
  Session s;
  s.stepper = std::move(stepper);
  s.policy = options_.run_policy;
  return admit(std::move(s));
}

SessionId TuningService::open_session(const SessionSpec& spec) {
  RunPolicy policy = spec.run_policy.value_or(options_.run_policy);
  policy.validate();
  const SessionId id = open(spec.make_stepper(shared_pool(), shared_cache()));
  sessions_[id].policy = policy;
  return id;
}

SessionId TuningService::restore_session(const SessionSpec& spec,
                                         const std::string& snapshot_json) {
  RunPolicy policy = spec.run_policy.value_or(options_.run_policy);
  policy.validate();
  const SessionId id =
      restore(spec.make_stepper(shared_pool(), shared_cache()), snapshot_json);
  sessions_[id].policy = policy;
  return id;
}

std::vector<PendingRun> TuningService::next_runs(std::size_t max_runs) {
  std::vector<PendingRun> out;
  while (!ready_.empty() && out.size() < max_runs) {
    const SessionId id = ready_.front();
    ready_.pop_front();
    sessions_[id].queued = false;
    // A queued entry for a closed session is skipped.
    if (!sessions_[id].closed) step(id, out);
  }
  return out;
}

void TuningService::step(SessionId id, std::vector<PendingRun>& out) {
  Session& s = sessions_[id];
  if (!s.told.empty()) {
    const RunPolicy& policy = s.policy;
    s.retries.clear();
    // Canonical order: the wave's (ask order), not arrival order, so the
    // outcome cannot depend on who told what when.
    for (core::ConfigId config : s.wave) {
      const auto it = std::find_if(
          s.told.begin(), s.told.end(),
          [config](const std::pair<core::ConfigId, core::RunResult>& e) {
            return e.first == config;
          });
      const core::RunResult& result = it->second;
      const std::uint64_t attempts_used = ++s.attempts[config];
      if (result.failed()) {
        ++s.consecutive_failures;
        if (policy.quarantine_after > 0 &&
            s.consecutive_failures >= policy.quarantine_after) {
          s.stepper->abort("runner_failed");
          s.quarantined = true;
          s.retries.clear();
          break;  // the rest of the wave is dropped
        }
        if (attempts_used < policy.max_attempts) {
          // The run stays outstanding; the stepper hears nothing yet.
          s.retries.emplace_back(
              config, policy.backoff_base_seconds *
                          std::pow(policy.backoff_multiplier,
                                   static_cast<double>(attempts_used - 1)));
          continue;
        }
        // Attempts exhausted: the stepper records the failure.
      } else if (result.ok()) {
        s.consecutive_failures = 0;
      }
      s.stepper->tell(config, result);
    }
    s.told.clear();
    journal(id);
  }
  s.wave.clear();
  if (s.stepper->finished() ||
      s.stepper->ask().kind == core::StepAction::Kind::Finished) {
    return;
  }
  // Everything outstanding is owed a launch: the asked batch, the wave's
  // retries, or — after a restore — the runs lost with the old process.
  const double timeout = effective_timeout(s);
  for (core::ConfigId config : s.stepper->outstanding_configs()) {
    PendingRun run;
    run.session = id;
    run.config = config;
    // Attempts count applied results, so a relaunch after a crash restore
    // reuses the lost run's attempt number and replays its fault draw.
    const auto it = s.attempts.find(config);
    run.attempt = it == s.attempts.end() ? 0 : it->second;
    run.timeout_seconds = timeout;
    for (const auto& [retried, delay] : s.retries) {
      if (retried == config) run.start_delay = delay;
    }
    out.push_back(run);
    s.wave.push_back(config);
  }
}

void TuningService::tell(SessionId session, core::ConfigId config,
                         const core::RunResult& result) {
  Session& s = session_at(session);
  // A quarantined session has nothing in flight; stray tells are dropped.
  if (s.quarantined) return;
  if (s.told.size() == s.wave.size()) {
    throw std::invalid_argument(
        "TuningService::tell: session " + std::to_string(session) +
        " has no run in flight");
  }
  // Validate before mutating anything (strong exception guarantee).
  const bool told = std::any_of(
      s.told.begin(), s.told.end(),
      [config](const std::pair<core::ConfigId, core::RunResult>& e) {
        return e.first == config;
      });
  if (told ||
      std::find(s.wave.begin(), s.wave.end(), config) == s.wave.end()) {
    throw std::invalid_argument(
        "TuningService::tell: configuration " + std::to_string(config) +
        " is not an untold outstanding run of session " +
        std::to_string(session));
  }
  s.told.emplace_back(config, result);
  if (s.told.size() == s.wave.size()) enqueue_ready(session);
}

bool TuningService::idle() const noexcept {
  return ready_.empty() &&
         std::none_of(sessions_.begin(), sessions_.end(), [](const Session& s) {
           return s.told.size() < s.wave.size();
         });
}

bool TuningService::quarantined(SessionId session) const {
  return session_at(session).quarantined;
}

std::vector<SessionId> TuningService::quarantined_sessions() const {
  std::vector<SessionId> out;
  for (SessionId id = 0; id < sessions_.size(); ++id) {
    if (!sessions_[id].closed && sessions_[id].quarantined) {
      out.push_back(id);
    }
  }
  return out;
}

bool TuningService::finished(SessionId session) const {
  return session_at(session).stepper->finished();
}

const std::string& TuningService::stop_reason(SessionId session) const {
  return session_at(session).stepper->stop_reason();
}

core::OptimizerResult TuningService::result(SessionId session) const {
  return session_at(session).stepper->result();
}

const core::OptimizerStepper& TuningService::stepper(
    SessionId session) const {
  return *session_at(session).stepper;
}

void TuningService::close(SessionId session) {
  Session& s = session_at(session);
  s = Session{};
  s.closed = true;
  ++closed_count_;
}

std::string TuningService::snapshot(SessionId session) const {
  return session_at(session).stepper->snapshot();
}

std::string TuningService::snapshot_session(SessionId session) const {
  const Session& s = session_at(session);
  util::JsonWriter w;
  w.begin_object();
  w.key("format").value("lynceus-service-session");
  w.key("version").value(1);
  w.key("policy").begin_object();
  w.key("consecutive_failures")
      .value(static_cast<std::uint64_t>(s.consecutive_failures));
  w.key("quarantined").value(s.quarantined);
  // The attempts map is unordered; serialize sorted by config so the
  // envelope bytes are deterministic.
  std::vector<std::pair<core::ConfigId, std::uint64_t>> attempts(
      s.attempts.begin(), s.attempts.end());
  std::sort(attempts.begin(), attempts.end());
  w.key("attempts").begin_array();
  for (const auto& [config, count] : attempts) {
    w.begin_object();
    w.key("config").value(static_cast<std::uint64_t>(config));
    w.key("count").value(count);
    w.end_object();
  }
  w.end_array();
  w.key("retries").begin_array();
  for (const auto& [config, delay] : s.retries) {
    w.begin_object();
    w.key("config").value(static_cast<std::uint64_t>(config));
    w.key("attempt").value(s.attempts.at(config));
    w.key("delay").value_exact(delay);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("stepper").value(s.stepper->snapshot());
  w.end_object();
  return w.str();
}

SessionId TuningService::restore(
    std::unique_ptr<core::OptimizerStepper> stepper,
    const std::string& snapshot_json) {
  if (stepper == nullptr) {
    throw std::invalid_argument("TuningService: null stepper");
  }
  Session s;
  s.policy = options_.run_policy;
  const util::JsonValue v = util::parse_json(snapshot_json);
  const util::JsonValue* format = v.find("format");
  if (format == nullptr || format->type() != util::JsonValue::Type::String ||
      format->as_string() != "lynceus-service-session") {
    stepper->restore(snapshot_json);
    s.stepper = std::move(stepper);
    return admit(std::move(s));
  }
  if (v.at("version").as_int() != 1) {
    throw std::runtime_error(
        "TuningService::restore: unsupported service-session version");
  }
  stepper->restore(v.at("stepper").as_string());
  const util::JsonValue& policy = v.at("policy");
  s.consecutive_failures =
      static_cast<std::size_t>(policy.at("consecutive_failures").as_uint());
  s.quarantined = policy.at("quarantined").as_bool();
  if (s.quarantined && !stepper->finished()) {
    throw std::runtime_error(
        "TuningService::restore: quarantined session with an unfinished "
        "stepper");
  }
  for (const util::JsonValue& a : policy.at("attempts").items()) {
    s.attempts[static_cast<core::ConfigId>(a.at("config").as_uint())] =
        a.at("count").as_uint();
  }
  const std::vector<core::ConfigId> outstanding =
      stepper->outstanding_configs();
  for (const util::JsonValue& r : policy.at("retries").items()) {
    const auto config = static_cast<core::ConfigId>(r.at("config").as_uint());
    const bool listed = std::any_of(
        s.retries.begin(), s.retries.end(),
        [config](const std::pair<core::ConfigId, double>& e) {
          return e.first == config;
        });
    if (listed || std::find(outstanding.begin(), outstanding.end(),
                            config) == outstanding.end()) {
      throw std::runtime_error(
          "TuningService::restore: retry of configuration " +
          std::to_string(config) + " is not a distinct outstanding run");
    }
    const auto count = s.attempts.find(config);
    if (count == s.attempts.end() ||
        r.at("attempt").as_uint() != count->second) {
      throw std::runtime_error(
          "TuningService::restore: retry attempt of configuration " +
          std::to_string(config) + " is not its saved attempt count");
    }
    s.retries.emplace_back(config, r.at("delay").as_double());
  }
  s.stepper = std::move(stepper);
  return admit(std::move(s));
}

void drain(TuningService& service, eval::AsyncTableRunner& runner) {
  if (service.options().throughput_workers > 0) {
    service.run_throughput(runner);
    return;
  }
  while (true) {
    for (const PendingRun& run : service.next_runs()) {
      runner.submit(run.session, run.config, run.submit_options());
    }
    const auto completion = runner.next_completion();
    if (!completion.has_value()) return;
    service.tell(completion->tag, completion->config, completion->result);
  }
}

}  // namespace lynceus::service
