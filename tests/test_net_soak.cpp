/// Connection-fan-in soak for the epoll readiness loop
/// (net/event_loop.hpp): hundreds of concurrent connections multiplexed
/// by a handful of loop threads, every session's trajectory still
/// byte-identical to its solo in-process run. The point is the CEILING —
/// a blocking-read design caps out at roughly one connection per thread
/// time-slice; the readiness loop must hold 512+ sockets open and live
/// at once.
///
/// Sized by build flavor: 512 connections in plain builds, fewer under
/// ASan/TSan (sanitizer thread/shadow overhead, CI wall-clock). The
/// LYNCEUS_SOAK_CONNECTIONS environment variable overrides both.

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/random_search.hpp"
#include "core/stepper.hpp"
#include "eval/runner.hpp"
#include "net/tuning_client.hpp"
#include "net/tuning_server.hpp"
#include "test_helpers.hpp"

namespace lynceus::net {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr std::size_t kDefaultSoakConnections = 96;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr std::size_t kDefaultSoakConnections = 96;
#else
constexpr std::size_t kDefaultSoakConnections = 512;
#endif
#else
constexpr std::size_t kDefaultSoakConnections = 512;
#endif

/// Connections this process can actually afford: each soak connection
/// costs two fds (client + server end in the same process), plus slack
/// for the binary, the event loops and the test harness.
std::size_t soak_connections() {
  std::size_t want = kDefaultSoakConnections;
  if (const char* env = std::getenv("LYNCEUS_SOAK_CONNECTIONS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) want = static_cast<std::size_t>(v);
  }
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) == 0) {
    const rlim_t need = 2 * want + 128;
    if (lim.rlim_cur < need) {
      rlimit raised = lim;
      raised.rlim_cur = need > lim.rlim_max ? lim.rlim_max : need;
      (void)::setrlimit(RLIMIT_NOFILE, &raised);
      (void)::getrlimit(RLIMIT_NOFILE, &lim);
    }
    if (static_cast<rlim_t>(2 * want + 128) > lim.rlim_cur) {
      want = (static_cast<std::size_t>(lim.rlim_cur) - 128) / 2;
    }
  }
  return want;
}

TEST(NetSoak, HundredsOfConcurrentConnectionsStayLiveAndDeterministic) {
  const std::size_t kConns = soak_connections();
  ASSERT_GE(kConns, 8U) << "file-descriptor limit too low to soak";
  const std::size_t kDrivers = 8;

  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();

  TuningServer::Options opts;
  opts.shards = 4;
  TuningServer server(opts);
  server.register_problem("test", "tinybowl", problem);

  // Phase 1: every driver connects all of its connections and opens one
  // session per connection, then waits until ALL kConns sockets are
  // established and opened — the server must hold every one of them
  // concurrently before any traffic-heavy draining starts.
  std::vector<std::unique_ptr<TuningClient>> clients(kConns);
  std::vector<std::uint64_t> session_of(kConns, 0);
  std::vector<std::string> errors(kDrivers);
  std::atomic<std::size_t> opened{0};

  auto spec_for = [](std::uint64_t seed) {
    service::SessionSpec spec;
    spec.optimizer = "random";  // cheap per step; the load is the fan-in
    spec.seed = seed;
    spec.problem_ref = service::ProblemRef{"test", "tinybowl", 3.0};
    return spec;
  };

  std::vector<std::thread> drivers;
  for (std::size_t d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&, d] {
      try {
        for (std::size_t i = d; i < kConns; i += kDrivers) {
          clients[i] = std::make_unique<TuningClient>(
              "127.0.0.1", server.port());
          session_of[i] = clients[i]->open(spec_for(i + 1));
          opened.fetch_add(1);
        }
        // Barrier: full fan-in reached before the drain phase.
        while (opened.load() < kConns) std::this_thread::yield();
        for (std::size_t i = d; i < kConns; i += kDrivers) {
          eval::AsyncTableRunner runner(ds);
          clients[i]->drain(runner);
        }
      } catch (const std::exception& e) {
        errors[d] = e.what();
        opened.store(kConns);  // release anyone stuck at the barrier
      }
    });
  }
  for (std::thread& t : drivers) t.join();
  for (std::size_t d = 0; d < kDrivers; ++d) {
    ASSERT_TRUE(errors[d].empty()) << "driver " << d << ": " << errors[d];
  }

  // Phase 2: with all sockets STILL open, collect every result and pin
  // it against the solo in-process trajectory.
  for (std::size_t i = 0; i < kConns; ++i) {
    SCOPED_TRACE("connection " + std::to_string(i));
    const TuningClient::ResultReply reply =
        clients[i]->result(session_of[i]);
    ASSERT_TRUE(reply.finished);

    eval::TableRunner solo(ds);
    auto stepper = core::RandomSearch().make_stepper(problem, i + 1);
    const core::OptimizerResult golden = core::drive(*stepper, solo);
    ASSERT_EQ(reply.result.history.size(), golden.history.size());
    for (std::size_t s = 0; s < golden.history.size(); ++s) {
      ASSERT_EQ(reply.result.history[s].id, golden.history[s].id);
      ASSERT_EQ(reply.result.history[s].cost, golden.history[s].cost);
    }
    ASSERT_EQ(reply.result.budget_spent, golden.budget_spent);
    ASSERT_EQ(reply.result.recommendation, golden.recommendation);
  }

  // Every shard carried a share of the load.
  const std::vector<std::size_t> counts = server.shard_session_counts();
  std::size_t total = 0;
  for (const std::size_t c : counts) {
    EXPECT_GT(c, 0U);
    total += c;
  }
  EXPECT_EQ(total, kConns);

  clients.clear();  // hang up all connections at once; server must cope
  server.stop();
}

}  // namespace
}  // namespace lynceus::net
