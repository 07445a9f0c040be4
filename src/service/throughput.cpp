/// \file throughput.cpp
/// TuningService::run_throughput — the MPMC worker-pool scheduler behind
/// the "Throughput mode" contract in tuning_service.hpp.
///
/// Shape: one lock-free MPMC queue of session ids, seeded with the ready
/// queue; a task in the queue means "step this session" and confers
/// exclusive ownership of its Session on whichever worker pops it (at most
/// one task per session exists at any moment, so Session needs no lock).
/// The worker runs the same step as next_runs() — apply the completed
/// wave, journal, ask — and submits the runs it returns to the pump. The
/// delivery thread buffers each completion as a told result of its
/// session's wave and re-queues the session when the wave's last run
/// resolves.
///
/// Handoff: a step writes the session's new wave before its first pump
/// submit, and delivery runs under the pump lock that submit takes, so
/// every delivery sees the step's writes; the queue push after the last
/// delivery publishes the told results to the next worker. Workers touch
/// no Session once they start submitting.
///
/// Termination: an atomic count of unfinished sessions reaches zero, or —
/// when un-capped hangs leave runs outstanding forever — a worker proves
/// the system stalled: no task queued or being processed (tasks_live ==
/// 0) *and* the pump can never deliver again, both observed atomically
/// under the pump lock (AsyncCompletionPump::stalled). Stalled sessions
/// are left unfinished with their hung runs counted in flight, exactly
/// like the FIFO drain().

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "service/tuning_service.hpp"
#include "util/mpmc_queue.hpp"

namespace lynceus::service {

void TuningService::run_throughput(eval::AsyncTableRunner& runner) {
  const std::size_t workers = options_.throughput_workers;
  if (workers == 0) {
    throw std::logic_error(
        "TuningService::run_throughput: Options::throughput_workers is 0");
  }
  const auto live = static_cast<std::size_t>(
      std::count_if(sessions_.begin(), sessions_.end(), [](const Session& s) {
        return !s.closed && !s.stepper->finished();
      }));
  if (live == 0) return;

  // At most one task per session exists at any moment, so this can never
  // fill; the slack keeps the seed loop from ever spinning.
  util::MpmcQueue<SessionId> queue(
      std::max<std::size_t>(live + workers + 16, 64));
  std::atomic<std::size_t> sessions_remaining{live};
  /// Tasks queued or currently being stepped: incremented before a push,
  /// decremented after the step completes, so tasks_live == 0 means no
  /// worker holds any session and nothing is queued.
  std::atomic<std::size_t> tasks_live{0};
  std::atomic<bool> done{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;

  const auto push_task = [&](SessionId id) {
    tasks_live.fetch_add(1, std::memory_order_relaxed);
    util::Backoff backoff;
    while (!queue.try_push(id)) {
      if (done.load(std::memory_order_acquire)) return;
      backoff.spin();
    }
  };

  eval::AsyncCompletionPump pump(
      runner, [&](const eval::AsyncTableRunner::Completion& c) {
        Session& s = sessions_[c.tag];
        s.told.emplace_back(c.config, c.result);
        if (s.told.size() == s.wave.size()) {
          push_task(static_cast<SessionId>(c.tag));
        }
      });

  const auto worker_loop = [&]() {
    util::Backoff backoff;
    std::vector<PendingRun> runs;  // reused across steps
    SessionId id = 0;
    while (!done.load(std::memory_order_acquire)) {
      if (queue.try_pop(id)) {
        backoff.reset();
        try {
          runs.clear();
          step(id, runs);
          if (runs.empty()) {
            // Finished or quarantined (or, defensively, a stepper that
            // asks nothing yet is not finished).
            sessions_remaining.fetch_sub(1, std::memory_order_relaxed);
          }
          for (const PendingRun& run : runs) {
            pump.submit(id, run.config, run.submit_options());
          }
        } catch (...) {
          {
            std::lock_guard<std::mutex> lk(error_mutex);
            if (!first_error) first_error = std::current_exception();
          }
          done.store(true, std::memory_order_release);
        }
        tasks_live.fetch_sub(1, std::memory_order_relaxed);
        continue;
      }
      if (sessions_remaining.load(std::memory_order_relaxed) == 0) {
        done.store(true, std::memory_order_release);
        break;
      }
      if (tasks_live.load(std::memory_order_relaxed) == 0 &&
          pump.stalled([&] {
            return tasks_live.load(std::memory_order_relaxed) == 0;
          })) {
        // Only forever-hung runs remain: nothing will ever re-queue a
        // session, so give up like the FIFO drain does.
        done.store(true, std::memory_order_release);
        break;
      }
      backoff.spin();
    }
  };

  for (const SessionId id : ready_) {
    sessions_[id].queued = false;
    if (!sessions_[id].closed) push_task(id);
  }
  ready_.clear();
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) pool.emplace_back(worker_loop);
  for (std::thread& t : pool) t.join();
  pump.stop();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace lynceus::service
