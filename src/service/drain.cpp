/// \file drain.cpp
/// service::drain — the one session-owning loop behind both the default
/// FIFO drain and throughput mode ("Throughput mode" in tuning_service.hpp).
///
/// Ownership: a session belongs to the loop whose ready deque or runner
/// holds it. The deque's mutex hands a ready session from its owner to a
/// thief, and the join hands every session back to the caller, so Session
/// needs no lock of its own and the scheduler needs no atomics.
///
/// Termination is local: a loop stops once its deque is empty, its runner
/// has nothing left to pop and no other deque holds a ready session. A
/// loop left with only forever-hung runs just stops, like the FIFO loop.

#include <algorithm>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "service/tuning_service.hpp"

namespace lynceus::service {

struct TuningService::ReadyDeque {
  std::mutex mutex;
  std::deque<SessionId> ids;

  std::optional<SessionId> pop_front() {
    std::lock_guard<std::mutex> lk(mutex);
    if (ids.empty()) return std::nullopt;
    const SessionId id = ids.front();
    ids.pop_front();
    return id;
  }

  void push_back(SessionId id) {
    std::lock_guard<std::mutex> lk(mutex);
    ids.push_back(id);
  }

  /// One ready session from the fullest deque other than `t`'s; empty
  /// when every other deque is empty.
  static std::optional<SessionId> steal(std::vector<ReadyDeque>& deques,
                                        std::size_t t) {
    while (true) {
      std::size_t fullest = t;
      std::size_t most = 0;
      for (std::size_t u = 0; u < deques.size(); ++u) {
        if (u == t) continue;
        std::lock_guard<std::mutex> lk(deques[u].mutex);
        if (deques[u].ids.size() > most) {
          most = deques[u].ids.size();
          fullest = u;
        }
      }
      if (most == 0) return std::nullopt;
      std::lock_guard<std::mutex> lk(deques[fullest].mutex);
      if (!deques[fullest].ids.empty()) {
        const SessionId id = deques[fullest].ids.back();
        deques[fullest].ids.pop_back();
        return id;
      }
      // Its owner got there first; look again.
    }
  }
};

void TuningService::drain_loop(std::size_t t, std::vector<ReadyDeque>& deques,
                               eval::AsyncTableRunner& runner) {
  ReadyDeque& own = deques[t];
  // One loop pops one completion at a time: the FIFO order. Several loops
  // pop all they can first, so a loop's sessions wait on its deque, where
  // a dry loop can steal them, rather than in its runner, where it cannot.
  const bool pop_all = deques.size() > 1;
  std::vector<PendingRun> runs;  // reused across steps
  while (true) {
    std::optional<SessionId> id = own.pop_front();
    if (!id) {
      bool popped = false;
      while (const auto c = runner.next_completion()) {
        popped = true;
        if (buffer(c->tag, c->config, c->result)) own.push_back(c->tag);
        if (!pop_all) break;
      }
      if (popped) continue;
      id = ReadyDeque::steal(deques, t);
      if (!id) return;
    }
    runs.clear();
    step(*id, runs);
    for (const PendingRun& run : runs) {
      runner.submit(run.session, run.config, run.submit_options());
    }
  }
}

void drain(TuningService& service, eval::AsyncTableRunner& runner) {
  const std::size_t k =
      std::max<std::size_t>(service.options_.throughput_workers, 1);
  std::vector<TuningService::ReadyDeque> deques(k);
  for (const SessionId id : service.ready_) {
    service.sessions_[id].queued = false;
    if (!service.sessions_[id].closed) deques[id % k].ids.push_back(id);
  }
  service.ready_.clear();

  std::vector<std::exception_ptr> errors(k);
  const auto run_loop = [&](std::size_t t, eval::AsyncTableRunner& r) {
    try {
      service.drain_loop(t, deques, r);
    } catch (...) {
      errors[t] = std::current_exception();
    }
  };
  if (k == 1) {
    run_loop(0, runner);
  } else {
    std::vector<eval::AsyncTableRunner> parts = runner.split(k);
    std::vector<std::thread> threads;
    threads.reserve(k - 1);
    for (std::size_t t = 1; t < k; ++t) {
      // A loop that cannot start leaves its ready sessions to be stolen
      // and its error to be reported.
      try {
        threads.emplace_back(run_loop, t, std::ref(parts[t]));
      } catch (...) {
        errors[t] = std::current_exception();
      }
    }
    run_loop(0, parts[0]);
    for (std::thread& th : threads) th.join();
    runner.fold(parts);
  }

  // Only a loop that threw (or never started) leaves sessions on its
  // deque: queue them for the next call, then report the first error.
  for (TuningService::ReadyDeque& d : deques) {
    for (const SessionId id : d.ids) service.enqueue_ready(id);
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace lynceus::service
