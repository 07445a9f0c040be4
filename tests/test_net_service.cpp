/// End-to-end tests for the TCP front-end (src/net/): the network
/// determinism contract (remote sessions byte-identical to solo
/// in-process runs, across shards and concurrent connections), protocol
/// hardening (malformed frames get a typed error and a closed connection,
/// never a crash), snapshot/restore over the wire, session placement and
/// output backpressure. Runs under the `net` ctest label; the stressy
/// cases are also in the TSan CI leg via the `concurrency` label.

#include "net/tuning_server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "eval/runner.hpp"
#include "net/binary_codec.hpp"
#include "net/tuning_client.hpp"
#include "test_helpers.hpp"

namespace lynceus::net {
namespace {

using core::ConfigId;
using core::OptimizerResult;

double tiny_energy(const space::ConfigSpace& sp, ConfigId id) {
  return 10.0 + 4.0 * sp.value(id, 0) + 3.0 * sp.value(id, 1);
}

eval::TableRunner::MetricsFn tiny_metrics() {
  const auto sp = lynceus::testing::tiny_space();
  return [sp](space::ConfigId id) {
    return std::vector<double>{tiny_energy(*sp, id)};
  };
}

core::ConstraintDef tiny_constraint(double cap) {
  core::ConstraintDef c;
  c.name = "energy";
  c.metric_index = 0;
  c.threshold = [cap](ConfigId) { return cap; };
  return c;
}

/// Same fields the in-process service tests pin: trajectory, spend and
/// recommendation. decision_seconds is wall clock and deliberately
/// excluded.
void expect_identical(const OptimizerResult& a, const OptimizerResult& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].id, b.history[i].id) << "step " << i;
    EXPECT_EQ(a.history[i].cost, b.history[i].cost) << "step " << i;
    EXPECT_EQ(a.history[i].feasible, b.history[i].feasible) << "step " << i;
  }
  EXPECT_EQ(a.budget_spent, b.budget_spent);
  EXPECT_EQ(a.recommendation, b.recommendation);
  EXPECT_EQ(a.recommendation_feasible, b.recommendation_feasible);
  EXPECT_EQ(a.decisions, b.decisions);
}

core::LynceusOptions lynceus_options_for(std::uint64_t seed) {
  core::LynceusOptions o;
  o.lookahead = seed % 2 == 0 ? 1U : 0U;
  o.incremental_refit = false;
  o.branch_parallel = false;
  return o;
}

service::SessionSpec remote_lynceus_spec(std::uint64_t seed) {
  service::SessionSpec spec;
  spec.optimizer = "lynceus";
  spec.seed = seed;
  spec.problem_ref = service::ProblemRef{"test", "tinybowl", 3.0};
  const core::LynceusOptions o = lynceus_options_for(seed);
  spec.lookahead = o.lookahead;
  spec.incremental_refit = false;
  spec.branch_parallel = false;
  return spec;
}

/// Drives seeds 1..`sessions` as remote Lynceus sessions spread evenly
/// over `clients` concurrent connections, one driver thread each, and
/// checks every trajectory against its solo in-process run.
void expect_remote_fleet_matches_solo(const TuningServer& server,
                                      std::uint64_t sessions,
                                      std::uint64_t clients) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();
  const std::uint64_t per_client = sessions / clients;
  std::vector<OptimizerResult> remote(sessions);
  std::vector<std::string> errors(clients);

  std::vector<std::thread> drivers;
  for (std::uint64_t c = 0; c < clients; ++c) {
    drivers.emplace_back([&, c] {
      try {
        TuningClient client("127.0.0.1", server.port());
        eval::AsyncTableRunner runner(ds);
        std::vector<std::pair<std::uint64_t, std::uint64_t>> opened;  // seed,id
        for (std::uint64_t k = 0; k < per_client; ++k) {
          const std::uint64_t seed = 1 + c * per_client + k;
          opened.emplace_back(seed, client.open(remote_lynceus_spec(seed)));
        }
        client.drain(runner);
        for (const auto& [seed, id] : opened) {
          const TuningClient::ResultReply reply = client.result(id);
          if (!reply.finished) {
            throw std::runtime_error("session for seed " +
                                     std::to_string(seed) + " not finished");
          }
          remote[seed - 1] = reply.result;
          client.close_session(id);
        }
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (std::thread& t : drivers) t.join();
  for (std::uint64_t c = 0; c < clients; ++c) {
    EXPECT_TRUE(errors[c].empty()) << "client " << c << ": " << errors[c];
  }

  for (std::uint64_t seed = 1; seed <= sessions; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    eval::TableRunner solo(ds);
    auto stepper = core::LynceusOptimizer(lynceus_options_for(seed))
                       .make_stepper(problem, seed);
    expect_identical(remote[seed - 1], core::drive(*stepper, solo));
  }
}

/// The acceptance gate of the redesign: 64 remote sessions, 8 concurrent
/// client connections, 2 shards, shared per-shard root caches — every
/// session's trajectory must be byte-identical to its solo in-process
/// run.
TEST(NetService, SixtyFourConcurrentRemoteSessionsMatchTheirSoloRuns) {
  TuningServer::Options opts;
  opts.shards = 2;
  opts.root_cache_capacity = 16;
  TuningServer server(opts);
  server.register_problem("test", "tinybowl", lynceus::testing::tiny_problem());

  constexpr std::uint64_t kSessions = 64;
  expect_remote_fleet_matches_solo(server, kSessions, 8);

  // Both shards carried sessions, and together they carried all of them.
  const std::vector<std::size_t> counts = server.shard_session_counts();
  ASSERT_EQ(counts.size(), 2U);
  EXPECT_GT(counts[0], 0U);
  EXPECT_GT(counts[1], 0U);
  EXPECT_EQ(counts[0] + counts[1], kSessions);
}

/// The default server runs one loop thread per hardware thread, and the
/// acceptor feeds each loop through one connection lane of its own: an
/// unbounded vector, so no lane has a capacity and none ever stalls.
TEST(NetService, DefaultServerRunsOneShardPerHardwareThread) {
  const std::size_t hw = std::thread::hardware_concurrency();
  const std::size_t expected =
      std::max<std::size_t>(1, std::min(hw, TuningServer::kMaxShards));
  TuningServer server;
  EXPECT_EQ(server.shard_session_counts().size(), expected);

  const std::vector<TuningServer::LaneStats> stats =
      server.request_lane_stats();
  ASSERT_EQ(stats.size(), expected);
  for (std::size_t t = 0; t < stats.size(); ++t) {
    EXPECT_EQ(stats[t].loop, t);
    EXPECT_EQ(stats[t].high_water, 0U);
    EXPECT_EQ(stats[t].stalls, 0U);
  }

  // The first connection rides loop 0's lane; the hello round trip
  // proves loop 0 took it.
  TuningClient client("127.0.0.1", server.port());
  const std::vector<TuningServer::LaneStats> after =
      server.request_lane_stats();
  for (std::size_t t = 0; t < after.size(); ++t) {
    EXPECT_EQ(after[t].high_water, t == 0 ? 1U : 0U);
    EXPECT_EQ(after[t].stalls, 0U);
  }
}

/// More shards must not move a byte: 16 sessions on 2 connections
/// against a server at its default options (one loop per hardware
/// thread) land exactly on their solo runs.
TEST(NetService, DefaultOptionsSessionsMatchTheirSoloRuns) {
  TuningServer server;
  server.register_problem("test", "tinybowl", lynceus::testing::tiny_problem());
  constexpr std::uint64_t kSessions = 16;
  expect_remote_fleet_matches_solo(server, kSessions, 2);

  const std::vector<std::size_t> counts = server.shard_session_counts();
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::size_t{0}),
            kSessions);
}

TEST(NetService, ConstructorRejectsShardCountsOutsideTheLaneMatrixBound) {
  TuningServer::Options opts;
  opts.shards = TuningServer::kMaxShards + 1;
  EXPECT_THROW(TuningServer{opts}, std::invalid_argument);
  opts.shards = 0;
  EXPECT_THROW(TuningServer{opts}, std::invalid_argument);
}

/// All four optimizer kinds over the wire on one connection — exercises
/// the metrics array + constraint codecs end to end.
TEST(NetService, MixedOptimizerKindsOverTheWireMatchSolo) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();
  TuningServer::Options opts;
  opts.shards = 2;
  TuningServer server(opts);
  server.register_problem("test", "tinybowl", problem);

  TuningClient client("127.0.0.1", server.port());
  eval::AsyncTableRunner runner(ds, tiny_metrics());

  std::vector<std::uint64_t> ids;
  std::vector<std::function<OptimizerResult()>> solos;
  // Seeds 1 and 2, each with scratch and with incremental refit.
  for (std::uint64_t k = 0; k < 4; ++k) {
    const std::uint64_t seed = 1 + k % 2;
    const bool incremental = k >= 2;
    service::SessionSpec ly = remote_lynceus_spec(seed);
    ly.lookahead = 1;
    ly.incremental_refit = incremental;
    ids.push_back(client.open(ly));
    solos.push_back([&, seed, incremental] {
      eval::TableRunner solo(ds, tiny_metrics());
      core::LynceusOptions o = lynceus_options_for(seed);
      o.lookahead = 1;
      o.incremental_refit = incremental;
      auto stepper = core::LynceusOptimizer(o).make_stepper(problem, seed);
      return core::drive(*stepper, solo);
    });

    service::SessionSpec mc;
    mc.optimizer = "multi_constraint";
    mc.seed = seed;
    mc.problem_ref = service::ProblemRef{"test", "tinybowl", 3.0};
    mc.lookahead = 1;
    mc.incremental_refit = incremental;
    mc.branch_parallel = false;
    service::ConstraintSpec cs;
    cs.name = "energy";
    cs.metric_index = 0;
    cs.threshold = 26.0;
    mc.constraints.push_back(cs);
    ids.push_back(client.open(mc));
    solos.push_back([&, seed, incremental] {
      eval::TableRunner solo(ds, tiny_metrics());
      core::MultiConstraintOptions o;
      o.lookahead = 1;
      o.incremental_refit = incremental;
      o.branch_parallel = false;
      auto stepper = core::MultiConstraintLynceus({tiny_constraint(26.0)}, o)
                         .make_stepper(problem, seed);
      return core::drive(*stepper, solo);
    });

    service::SessionSpec bo;
    bo.optimizer = "bo";
    bo.seed = seed;
    bo.problem_ref = service::ProblemRef{"test", "tinybowl", 3.0};
    ids.push_back(client.open(bo));
    solos.push_back([&, seed] {
      eval::TableRunner solo(ds, tiny_metrics());
      auto stepper = core::BayesianOptimizer().make_stepper(problem, seed);
      return core::drive(*stepper, solo);
    });

    service::SessionSpec rnd;
    rnd.optimizer = "random";
    rnd.seed = seed;
    rnd.problem_ref = service::ProblemRef{"test", "tinybowl", 3.0};
    ids.push_back(client.open(rnd));
    solos.push_back([&, seed] {
      eval::TableRunner solo(ds, tiny_metrics());
      auto stepper = core::RandomSearch().make_stepper(problem, seed);
      return core::drive(*stepper, solo);
    });
  }

  client.drain(runner);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    SCOPED_TRACE("session " + std::to_string(ids[i]));
    const TuningClient::ResultReply reply = client.result(ids[i]);
    ASSERT_TRUE(reply.finished);
    EXPECT_FALSE(reply.stop_reason.empty());
    expect_identical(reply.result, solos[i]());
  }
}

TEST(NetService, SnapshotRestoreOverTheWireFinishesByteIdentically) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();
  TuningServer server;
  server.register_problem("test", "tinybowl", problem);

  for (const bool incremental : {false, true}) {
    SCOPED_TRACE(incremental ? "incremental refit" : "scratch refit");
    service::SessionSpec spec = remote_lynceus_spec(23);
    spec.lookahead = 1;
    spec.incremental_refit = incremental;

    eval::TableRunner solo(ds);
    core::LynceusOptions o = lynceus_options_for(23);
    o.lookahead = 1;
    o.incremental_refit = incremental;
    auto ref = core::LynceusOptimizer(o).make_stepper(problem, 23);
    const OptimizerResult golden = core::drive(*ref, solo);

    // Resolve half of the bootstrap batch, snapshot mid-flight, hang up.
    std::string snap;
    {
      TuningClient client("127.0.0.1", server.port());
      const std::uint64_t id = client.open(spec);
      std::vector<service::PendingRun> batch;
      for (std::size_t i = 0; i < problem.bootstrap_samples; ++i) {
        const auto run = client.take_run(/*wait=*/true);
        ASSERT_TRUE(run.has_value());
        batch.push_back(*run);
      }
      for (std::size_t i = 0; i < problem.bootstrap_samples / 2; ++i) {
        core::RunResult r;
        r.runtime_seconds = ds.observation(batch[i].config).runtime_seconds;
        r.cost = ds.observation(batch[i].config).cost();
        const auto status = client.tell(id, batch[i].config, r);
        ASSERT_FALSE(status.finished);
      }
      snap = client.snapshot(id);
      client.close_session(id);
    }

    // Restore on a fresh connection: the still-in-flight half is
    // re-pushed, the told half is not, and the trajectory lands exactly on
    // the solo run's bytes.
    TuningClient revived("127.0.0.1", server.port());
    const std::uint64_t rid = revived.restore(spec, snap);
    eval::AsyncTableRunner runner(ds);
    revived.drain(runner);
    const TuningClient::ResultReply reply = revived.result(rid);
    ASSERT_TRUE(reply.finished);
    expect_identical(reply.result, golden);
  }
}

/// A session lives on the loop of the connection that opened it:
/// connection c (in accept order) is served by loop `c % shards`.
TEST(NetService, SessionsLiveOnTheirConnectionsLoop) {
  const auto problem = lynceus::testing::tiny_problem();
  TuningServer::Options opts;
  opts.shards = 4;
  {
    // 8 opens on one connection all land on that connection's loop.
    TuningServer server(opts);
    server.register_problem("test", "tinybowl", problem);
    expect_remote_fleet_matches_solo(server, 8, 1);
    EXPECT_EQ(server.shard_session_counts(),
              (std::vector<std::size_t>{8, 0, 0, 0}));
  }
  {
    // 4 connections opening 2 sessions each: one connection per loop.
    TuningServer server(opts);
    server.register_problem("test", "tinybowl", problem);
    expect_remote_fleet_matches_solo(server, 8, 4);
    EXPECT_EQ(server.shard_session_counts(),
              (std::vector<std::size_t>{2, 2, 2, 2}));
  }
}

/// Reads messages until the connection drops, returning the last error
/// frame seen (the server flushes the typed error before closing).
ServerMessage last_error_before_close(TuningClient& client) {
  ServerMessage last;
  last.type = ServerMessage::Type::Closed;  // sentinel: no error seen
  try {
    for (;;) {
      const ServerMessage m = client.read_message();
      if (m.type == ServerMessage::Type::Error) last = m;
    }
  } catch (const SocketError&) {
    // Connection closed — exactly what a fatal error promises.
  }
  return last;
}

void expect_fatal_error(const std::string& raw_bytes,
                        const std::string& expected_code,
                        std::uint16_t port) {
  SCOPED_TRACE("expecting " + expected_code);
  // WireMode::kJson skips the hello handshake, so `raw_bytes` is the
  // connection's FIRST frame — the legacy pre-negotiation path.
  TuningClient client("127.0.0.1", port, kDefaultMaxFrameBytes,
                      TuningClient::WireMode::kJson);
  client.send_raw(raw_bytes);
  const ServerMessage err = last_error_before_close(client);
  ASSERT_EQ(err.type, ServerMessage::Type::Error);
  EXPECT_EQ(err.code, expected_code);
  EXPECT_TRUE(err.fatal);
}

TEST(NetService, MalformedInputGetsTypedErrorAndClosedConnection) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();
  TuningServer server;
  server.register_problem("test", "tinybowl", problem);
  const std::uint16_t port = server.port();

  // Framing violations → "bad_frame".
  expect_fatal_error(std::string(4, '\0'), "bad_frame", port);  // zero length
  expect_fatal_error(std::string(4, '\xff'), "bad_frame", port);  // 4 GiB
  {
    // Declared length just past the server's cap.
    std::string header(4, '\0');
    const std::uint32_t len = kDefaultMaxFrameBytes + 1;
    for (int i = 0; i < 4; ++i) {
      header[i] = static_cast<char>((len >> (24 - 8 * i)) & 0xff);
    }
    expect_fatal_error(header, "bad_frame", port);
  }

  // Well-framed garbage → "bad_message".
  expect_fatal_error(encode_frame("this is not json"), "bad_message", port);
  expect_fatal_error(encode_frame("{\"type\":\"frobnicate\",\"req\":1}"),
                     "bad_message", port);
  expect_fatal_error(encode_frame("{\"req\":1}"), "bad_message", port);
  // 300 nesting levels blows util/json's depth bound, not the stack.
  expect_fatal_error(encode_frame(std::string(300, '[') +
                                  std::string(300, ']')),
                     "bad_message", port);

  // Well-formed requests the service rejects → "bad_request", also fatal.
  {
    TuningClient client("127.0.0.1", port);
    core::RunResult r;
    try {
      client.tell(9999, 0, r);  // tell before any open
      FAIL() << "tell for an unknown session did not error";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.code(), "bad_request");
    }
    EXPECT_THROW((void)client.read_message(), SocketError);
  }
  {
    TuningClient client("127.0.0.1", port);
    service::SessionSpec spec;
    spec.optimizer = "lynceus";
    spec.problem_ref = service::ProblemRef{"no-such-suite", "nope", 3.0};
    try {
      (void)client.open(spec);  // unresolvable problem reference
      FAIL() << "open with an unresolvable problem did not error";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.code(), "bad_request");
    }
  }

  // A peer that vanishes mid-frame is dropped without ceremony.
  {
    TuningClient client("127.0.0.1", port);
    client.send_raw(std::string("\x00\x00", 2));  // half a header, then gone
  }

  // Through all of that, the server never crashed and still serves: a
  // full session on a fresh connection completes normally.
  TuningClient survivor("127.0.0.1", port);
  service::SessionSpec spec;
  spec.optimizer = "random";
  spec.seed = 5;
  spec.problem_ref = service::ProblemRef{"test", "tinybowl", 3.0};
  const std::uint64_t id = survivor.open(spec);
  eval::AsyncTableRunner runner(ds);
  survivor.drain(runner);
  EXPECT_TRUE(survivor.result(id).finished);
}

/// The wire-tax contract: the SAME session driven over JSON frames and
/// over negotiated binary frames lands on identical bytes — and both on
/// the solo in-process run. A snapshot taken over one encoding restores
/// over the other.
TEST(NetService, CrossEncodingTrajectoriesAreByteIdentical) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();
  TuningServer server;
  server.register_problem("test", "tinybowl", problem);

  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    OptimizerResult by_enc[2];
    for (const TuningClient::WireMode mode :
         {TuningClient::WireMode::kJson, TuningClient::WireMode::kBinary}) {
      TuningClient client("127.0.0.1", server.port(), kDefaultMaxFrameBytes,
                          mode);
      ASSERT_EQ(client.encoding(), mode == TuningClient::WireMode::kBinary
                                       ? WireEncoding::kBinary
                                       : WireEncoding::kJson);
      const std::uint64_t id = client.open(remote_lynceus_spec(seed));
      eval::AsyncTableRunner runner(ds);
      client.drain(runner);
      const TuningClient::ResultReply reply = client.result(id);
      ASSERT_TRUE(reply.finished);
      by_enc[mode == TuningClient::WireMode::kBinary ? 1 : 0] = reply.result;
      client.close_session(id);
    }
    expect_identical(by_enc[0], by_enc[1]);
    eval::TableRunner solo(ds);
    auto stepper = core::LynceusOptimizer(lynceus_options_for(seed))
                       .make_stepper(problem, seed);
    expect_identical(by_enc[1], core::drive(*stepper, solo));
  }

  // Snapshot over JSON, restore over binary: mid-flight state crosses
  // the encoding boundary intact.
  service::SessionSpec spec = remote_lynceus_spec(23);
  spec.lookahead = 1;
  eval::TableRunner solo(ds);
  core::LynceusOptions o = lynceus_options_for(23);
  o.lookahead = 1;
  auto ref = core::LynceusOptimizer(o).make_stepper(problem, 23);
  const OptimizerResult golden = core::drive(*ref, solo);

  std::string snap;
  {
    TuningClient json_side("127.0.0.1", server.port(), kDefaultMaxFrameBytes,
                           TuningClient::WireMode::kJson);
    const std::uint64_t id = json_side.open(spec);
    for (std::size_t i = 0; i < problem.bootstrap_samples / 2; ++i) {
      const auto run = json_side.take_run(/*wait=*/true);
      ASSERT_TRUE(run.has_value());
      core::RunResult r;
      r.runtime_seconds = ds.observation(run->config).runtime_seconds;
      r.cost = ds.observation(run->config).cost();
      (void)json_side.tell(id, run->config, r);
    }
    snap = json_side.snapshot(id);
    json_side.close_session(id);
  }
  TuningClient bin_side("127.0.0.1", server.port(), kDefaultMaxFrameBytes,
                        TuningClient::WireMode::kBinary);
  const std::uint64_t rid = bin_side.restore(spec, snap);
  eval::AsyncTableRunner runner(ds);
  bin_side.drain(runner);
  const TuningClient::ResultReply reply = bin_side.result(rid);
  ASSERT_TRUE(reply.finished);
  expect_identical(reply.result, golden);
}

TEST(NetService, NegotiationRejectionsAreTypedErrors) {
  const auto problem = lynceus::testing::tiny_problem();

  // A binary-demanding client against a JSON-only server: the typed
  // rejection surfaces from the constructor, not a mystery disconnect.
  {
    TuningServer::Options opts;
    opts.wire = TuningServer::WirePolicy::kJsonOnly;
    TuningServer server(opts);
    try {
      TuningClient client("127.0.0.1", server.port(), kDefaultMaxFrameBytes,
                          TuningClient::WireMode::kBinary);
      FAIL() << "binary-only negotiation against a JSON-only server passed";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.code(), "bad_negotiation");
    }
    // Negotiate mode falls back to JSON and works.
    TuningClient fallback("127.0.0.1", server.port());
    EXPECT_EQ(fallback.encoding(), WireEncoding::kJson);
  }

  // A binary-only server rejects a legacy client that never negotiates.
  {
    TuningServer::Options opts;
    opts.wire = TuningServer::WirePolicy::kBinaryOnly;
    TuningServer server(opts);
    server.register_problem("test", "tinybowl", problem);
    TuningClient legacy("127.0.0.1", server.port(), kDefaultMaxFrameBytes,
                        TuningClient::WireMode::kJson);
    try {
      (void)legacy.open(remote_lynceus_spec(1));
      FAIL() << "legacy JSON open against a binary-only server passed";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.code(), "bad_negotiation");
    }
    // And accepts one that does negotiate.
    TuningClient modern("127.0.0.1", server.port(), kDefaultMaxFrameBytes,
                        TuningClient::WireMode::kBinary);
    EXPECT_EQ(modern.encoding(), WireEncoding::kBinary);
  }

  TuningServer server;
  const std::uint16_t port = server.port();

  // Unsupported protocol version.
  expect_fatal_error(
      encode_frame(encode_hello_request(1, 99, {"binary", "json"})),
      "bad_negotiation", port);

  // An offer with no encoding the server knows.
  expect_fatal_error(
      encode_frame(encode_hello_request(1, kProtocolVersion, {"pigeon"})),
      "bad_negotiation", port);

  // Negotiation replay: a second hello after the handshake is fatal.
  {
    TuningClient client("127.0.0.1", port, kDefaultMaxFrameBytes,
                        TuningClient::WireMode::kJson);
    client.send_raw(
        encode_frame(encode_hello_request(1, kProtocolVersion, {"json"})));
    const ServerMessage hello = client.read_message();
    ASSERT_EQ(hello.type, ServerMessage::Type::Hello);
    EXPECT_EQ(hello.encoding, "json");
    client.send_raw(
        encode_frame(encode_hello_request(2, kProtocolVersion, {"json"})));
    const ServerMessage err = last_error_before_close(client);
    ASSERT_EQ(err.type, ServerMessage::Type::Error);
    EXPECT_EQ(err.code, "bad_negotiation");
  }
}

/// Hostile bytes on an already-negotiated binary connection: every entry
/// of the malformed matrix must produce a typed fatal error and a closed
/// connection, and the server must keep serving afterwards.
TEST(NetService, MalformedBinaryFramesGetTypedErrors) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();
  TuningServer server;
  server.register_problem("test", "tinybowl", problem);
  const std::uint16_t port = server.port();

  const auto expect_binary_fatal = [&](const std::string& body,
                                       const std::string& expected_code) {
    SCOPED_TRACE("expecting " + expected_code);
    // The constructor negotiates binary; the hostile frame follows it.
    TuningClient client("127.0.0.1", port, kDefaultMaxFrameBytes,
                        TuningClient::WireMode::kBinary);
    client.send_raw(encode_frame(body));
    const ServerMessage err = last_error_before_close(client);
    ASSERT_EQ(err.type, ServerMessage::Type::Error);
    EXPECT_EQ(err.code, expected_code);
    EXPECT_TRUE(err.fatal);
  };

  // Unknown tag.
  expect_binary_fatal(std::string(1, '\x7e'), "bad_message");
  // JSON on a binary connection is just another unknown tag.
  expect_binary_fatal("{\"type\":\"next_runs\",\"req\":1}", "bad_message");
  // Truncated varint (continue bit, then end of frame).
  expect_binary_fatal(std::string("\x04\xff", 2), "bad_message");
  // Over-long varint (10 continuation bytes).
  expect_binary_fatal(std::string(1, '\x04') + std::string(10, '\xff') + '\x01',
                      "bad_message");
  // Wrong length: a close request with trailing bytes.
  expect_binary_fatal(binary_encode_close(1, 2) + '\x00', "bad_message");
  // A frame cut inside a double.
  {
    core::RunResult r;
    std::string tell = binary_encode_tell(1, 2, 3, r);
    tell.resize(tell.size() - 4);
    expect_binary_fatal(tell, "bad_message");
  }

  // Still serving: a full binary session completes after the abuse.
  TuningClient survivor("127.0.0.1", port, kDefaultMaxFrameBytes,
                        TuningClient::WireMode::kBinary);
  service::SessionSpec spec;
  spec.optimizer = "random";
  spec.seed = 7;
  spec.problem_ref = service::ProblemRef{"test", "tinybowl", 3.0};
  const std::uint64_t id = survivor.open(spec);
  eval::AsyncTableRunner runner(ds);
  survivor.drain(runner);
  EXPECT_TRUE(survivor.result(id).finished);
}

/// Backpressure: a driver that writes without reading must neither grow
/// the server's memory without bound nor stall the other connections on
/// its loop. Connection A pipelines thousands of `result` requests and
/// reads nothing, so the loop stops reading A once A's unsent replies
/// pass the output cap and TCP throttles A's writer. Meanwhile B, on the
/// same (only) loop, drives a session to completion byte-identically to
/// its solo run; then A reads every reply, in request order.
TEST(NetService, NonReadingConnectionIsThrottledWithoutStallingItsLoop) {
  const auto ds = lynceus::testing::tiny_dataset();
  const auto problem = lynceus::testing::tiny_problem();
  TuningServer::Options opts;
  opts.shards = 1;
  TuningServer server(opts);
  server.register_problem("test", "tinybowl", problem);
  // A budget wide enough to explore the whole space.
  server.register_problem("test", "widebowl",
                          lynceus::testing::tiny_problem(100.0));

  // A's session explores every configuration before the burst, so each
  // JSON result reply carries a 24-step history (~2 KB): the burst's
  // ~10 MB of replies far exceed the cap plus what loopback buffers.
  TuningClient a("127.0.0.1", server.port(), kDefaultMaxFrameBytes,
                 TuningClient::WireMode::kJson);
  service::SessionSpec wide;
  wide.optimizer = "random";
  wide.seed = 3;
  wide.problem_ref = service::ProblemRef{"test", "widebowl", 3.0};
  const std::uint64_t a_id = a.open(wide);
  {
    eval::AsyncTableRunner runner(ds);
    a.drain(runner);
  }
  ASSERT_EQ(a.result(a_id).result.history.size(),
            lynceus::testing::tiny_space()->size());
  constexpr std::uint64_t kRequests = 5000;
  constexpr std::uint64_t kFirstReq = 1'000'000;
  std::string burst;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    burst += encode_frame(
        encode_result_request_wire(a.encoding(), kFirstReq + i, a_id));
  }
  // Blocks in send() while the server is not reading A.
  std::thread writer([&] { a.send_raw(burst); });

  TuningClient b("127.0.0.1", server.port());
  const std::uint64_t b_id = b.open(remote_lynceus_spec(4));
  {
    eval::AsyncTableRunner runner(ds);
    b.drain(runner);
  }
  const TuningClient::ResultReply b_reply = b.result(b_id);
  EXPECT_TRUE(b_reply.finished);
  {
    eval::TableRunner solo(ds);
    auto stepper = core::LynceusOptimizer(lynceus_options_for(4))
                       .make_stepper(problem, 4);
    expect_identical(b_reply.result, core::drive(*stepper, solo));
  }

  std::size_t in_order = 0;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    const ServerMessage m = a.read_message();
    if (m.type != ServerMessage::Type::Result || m.req != kFirstReq + i ||
        m.session != a_id || !m.finished) {
      break;
    }
    ++in_order;
  }
  writer.join();
  EXPECT_EQ(in_order, kRequests);
}

TEST(NetService, StopClosesClientConnections) {
  const auto problem = lynceus::testing::tiny_problem();
  auto server = std::make_unique<TuningServer>();
  server->register_problem("test", "tinybowl", problem);
  TuningClient client("127.0.0.1", server->port());
  service::SessionSpec spec;
  spec.optimizer = "random";
  spec.seed = 1;
  spec.problem_ref = service::ProblemRef{"test", "tinybowl", 3.0};
  (void)client.open(spec);
  server->stop();
  // Reads now terminate instead of hanging forever.
  EXPECT_THROW(
      {
        for (;;) (void)client.read_message();
      },
      SocketError);
}

}  // namespace
}  // namespace lynceus::net
