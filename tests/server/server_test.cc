// End-to-end loopback coverage of ReachServer: a real TCP server on an
// ephemeral port, driven by the blocking Client. The acceptance bar for
// the serving layer: a 10k-query batched workload answered byte-identically
// to the in-process oracle, malformed input survived, concurrent clients
// served, and a graceful drain on SHUTDOWN.

#include "server/server.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "gtest/gtest.h"
#include "query/workload.h"
#include "server/client.h"
#include "util/mapped_blob.h"
#include "util/rng.h"

namespace reach {
namespace server {
namespace {

ServerOptions QuickOptions(const std::string& method) {
  ServerOptions options;
  options.method = method;
  options.build_threads = 1;
  options.workers = 3;
  return options;
}

/// The workload pairs plus the expected wire answers from the server's own
/// in-process index.
std::pair<std::vector<std::pair<Vertex, Vertex>>, std::vector<std::string>>
MakeExpected(const ReachServer& reach_server, size_t num_queries,
             size_t num_vertices, uint64_t seed) {
  Rng rng(seed);
  const std::shared_ptr<const ReachabilityIndex> index =
      reach_server.index();
  std::vector<std::pair<Vertex, Vertex>> queries;
  std::vector<std::string> expected;
  queries.reserve(num_queries);
  expected.reserve(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    const Vertex u = static_cast<Vertex>(rng.Uniform(num_vertices));
    const Vertex v = static_cast<Vertex>(rng.Uniform(num_vertices));
    queries.emplace_back(u, v);
    expected.push_back(index->Reachable(u, v) ? "1" : "0");
  }
  return {std::move(queries), std::move(expected)};
}

TEST(ReachServerTest, TenThousandQueryBatchMatchesInProcessOracle) {
  const Digraph graph = RandomDag(400, 1200, 21);
  ReachServer reach_server;
  ASSERT_TRUE(reach_server.Start(graph, QuickOptions("DL")).ok());
  ASSERT_NE(reach_server.port(), 0);

  auto [queries, expected] = MakeExpected(reach_server, 10000, 400, 97);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", reach_server.port()).ok());
  const auto answers = client.Batch(queries);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  // Byte-identical to the in-process oracle, slot by slot.
  EXPECT_EQ(*answers, expected);
  EXPECT_EQ(reach_server.stats().queries.load(), 10000u);
  EXPECT_EQ(reach_server.stats().batches.load(), 1u);

  client.Close();
  reach_server.Stop();
}

TEST(ReachServerTest, BatchLargerThanSocketBuffersDoesNotDeadlock) {
  // A frame bigger than both kernel socket buffers forces the client to
  // drain answers while still sending (Client::Batch interleaves via
  // poll); a send-everything-then-read client would deadlock against the
  // server's blocked writes here.
  const Digraph graph = ChainDag(50);
  ReachServer reach_server;
  ASSERT_TRUE(reach_server.Start(graph, QuickOptions("DL")).ok());

  constexpr size_t kQueries = 400000;  // ~3 MB request, ~800 KB response.
  auto [queries, expected] = MakeExpected(reach_server, kQueries, 50, 13);
  ServerOptions defaults;
  ASSERT_LE(kQueries, defaults.limits.max_batch);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", reach_server.port()).ok());
  const auto answers = client.Batch(queries);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_EQ(*answers, expected);
  client.Close();
  reach_server.Stop();
}

TEST(ReachServerTest, SingleQueriesAndPing) {
  const Digraph graph = ChainDag(6);
  ReachServer reach_server;
  ASSERT_TRUE(reach_server.Start(graph, QuickOptions("DL")).ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", reach_server.port()).ok());
  EXPECT_EQ(*client.Query(0, 5), "1");
  EXPECT_EQ(*client.Query(5, 0), "0");
  EXPECT_EQ(*client.Query(2, 2), "1");
  ASSERT_TRUE(client.SendRaw("PING\n").ok());
  EXPECT_EQ(*client.ReadLine(), "PONG");
  client.Close();
  reach_server.Stop();
}

TEST(ReachServerTest, CyclicInputIsCondensedFirst) {
  // 0 <-> 1 form one SCC; both reach 2.
  const Digraph graph =
      Digraph::FromEdges(3, {{0, 1}, {1, 0}, {1, 2}});
  ReachServer reach_server;
  ASSERT_TRUE(reach_server.Start(graph, QuickOptions("DL")).ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", reach_server.port()).ok());
  EXPECT_EQ(*client.Query(0, 1), "1");
  EXPECT_EQ(*client.Query(1, 0), "1");
  EXPECT_EQ(*client.Query(0, 2), "1");
  EXPECT_EQ(*client.Query(2, 0), "0");
  client.Close();
  reach_server.Stop();
}

TEST(ReachServerTest, MalformedInputNeverKillsTheServer) {
  const Digraph graph = ChainDag(4);
  ReachServer reach_server;
  ASSERT_TRUE(reach_server.Start(graph, QuickOptions("DL")).ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", reach_server.port()).ok());
  for (const char* junk :
       {"HELO\n", "Q 1\n", "Q a b\n", "BATCH nope\n", "Q 1 2 3\n"}) {
    ASSERT_TRUE(client.SendRaw(junk).ok());
    const auto line = client.ReadLine();
    ASSERT_TRUE(line.ok());
    EXPECT_EQ(line->rfind("ERR ", 0), 0u) << junk;
  }
  // An overlong line is protocol-fatal for that connection only. The
  // send may itself fail once the server closes mid-stream; either way
  // the server must survive.
  (void)client.SendRaw(std::string(100000, 'x'));
  // A fresh connection is unaffected.
  Client second;
  ASSERT_TRUE(second.Connect("127.0.0.1", reach_server.port()).ok());
  EXPECT_EQ(*second.Query(0, 3), "1");
  client.Close();
  second.Close();
  reach_server.Stop();
  EXPECT_GE(reach_server.stats().malformed.load(), 5u);
}

TEST(ReachServerTest, ConcurrentClientsGetConsistentAnswers) {
  const Digraph graph = RandomDag(200, 600, 5);
  ReachServer reach_server;
  ASSERT_TRUE(reach_server.Start(graph, QuickOptions("DL")).ok());

  constexpr int kClients = 3;
  constexpr size_t kQueriesEach = 2000;
  // Expected answers come from the main thread: client threads only talk
  // TCP (and the in-process index stays strictly concurrent-read).
  std::vector<std::vector<std::pair<Vertex, Vertex>>> queries(kClients);
  std::vector<std::vector<std::string>> expected(kClients);
  for (int c = 0; c < kClients; ++c) {
    std::tie(queries[c], expected[c]) =
        MakeExpected(reach_server, kQueriesEach, 200, 1000 + c);
  }
  std::vector<std::thread> threads;
  std::vector<int> ok(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (!client.Connect("127.0.0.1", reach_server.port()).ok()) return;
      const auto answers = client.Batch(queries[c]);
      ok[c] = answers.ok() && *answers == expected[c];
    });
  }
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) EXPECT_TRUE(ok[c]) << "client " << c;
  EXPECT_EQ(reach_server.stats().queries.load(),
            kClients * kQueriesEach);
  reach_server.Stop();
}

TEST(ReachServerTest, SerializedOracleServesConcurrentClients) {
  // BFS answers by traversal over shared scratch (ConcurrentQuerySafe is
  // false); the server must serialize its queries rather than race.
  const Digraph graph = RandomDag(150, 450, 9);
  ReachServer reach_server;
  ASSERT_TRUE(reach_server.Start(graph, QuickOptions("BFS")).ok());
  ASSERT_FALSE(reach_server.index()->oracle().ConcurrentQuerySafe());

  constexpr int kClients = 2;
  // BFS queries race on scratch, so even the expected answers must be
  // computed before any concurrency starts.
  std::vector<std::vector<std::pair<Vertex, Vertex>>> queries(kClients);
  std::vector<std::vector<std::string>> expected(kClients);
  for (int c = 0; c < kClients; ++c) {
    std::tie(queries[c], expected[c]) =
        MakeExpected(reach_server, 500, 150, 2000 + c);
  }
  std::vector<std::thread> threads;
  std::vector<int> ok(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (!client.Connect("127.0.0.1", reach_server.port()).ok()) return;
      const auto answers = client.Batch(queries[c]);
      ok[c] = answers.ok() && *answers == expected[c];
    });
  }
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) EXPECT_TRUE(ok[c]) << "client " << c;
  reach_server.Stop();
}

TEST(ReachServerTest, ShutdownDrainsAndStopsAccepting) {
  const Digraph graph = ChainDag(5);
  ReachServer reach_server;
  ASSERT_TRUE(reach_server.Start(graph, QuickOptions("DL")).ok());
  const uint16_t port = reach_server.port();

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  EXPECT_EQ(*client.Query(0, 4), "1");
  const auto farewell = client.Shutdown();
  ASSERT_TRUE(farewell.ok());
  EXPECT_EQ(*farewell, "BYE");

  // Wait() returns: the drain completed without Stop().
  reach_server.Wait();
  client.Close();

  // The listener is gone; a fresh connection must fail (immediately, or on
  // first use for a connection that raced the teardown).
  Client late;
  const Status connect_status = late.Connect("127.0.0.1", port);
  if (connect_status.ok()) {
    EXPECT_FALSE(late.Query(0, 1).ok());
  }
  // Stop() after a client-driven drain is a no-op, not a hang.
  reach_server.Stop();
}

TEST(ReachServerTest, SignalStopOnIdleServerUnblocksWait) {
  // Regression: the signal-initiated drain once set draining_ without
  // notifying the condition variable, and with zero connections ever made
  // there is no handler left to wake Wait() — reach_serve hung forever on
  // ctrl-C and could only be SIGKILLed.
  const Digraph graph = ChainDag(4);
  ReachServer reach_server;
  ASSERT_TRUE(reach_server.Start(graph, QuickOptions("DL")).ok());
  std::thread waiter([&] { reach_server.Wait(); });
  reach_server.RequestStopFromSignal();
  waiter.join();  // Must return; a regression trips the test timeout.
  // Stop() after a signal-driven drain stays a no-op, not a hang.
  reach_server.Stop();
}

TEST(ReachServerTest, SignalStopDrainsActiveConnection) {
  const Digraph graph = ChainDag(5);
  ReachServer reach_server;
  ASSERT_TRUE(reach_server.Start(graph, QuickOptions("DL")).ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", reach_server.port()).ok());
  EXPECT_EQ(*client.Query(0, 4), "1");
  reach_server.RequestStopFromSignal();
  reach_server.Wait();
  client.Close();
  reach_server.Stop();
}

TEST(ReachServerTest, StatsRoundTripThroughClient) {
  const Digraph graph = ChainDag(4);
  ReachServer reach_server;
  ASSERT_TRUE(reach_server.Start(graph, QuickOptions("HL")).ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", reach_server.port()).ok());
  ASSERT_TRUE(client.Query(0, 1).ok());
  const auto rows = client.Stats();
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  bool saw_method = false;
  bool saw_queries = false;
  for (const std::string& row : *rows) {
    saw_method |= row == "method HL";
    saw_queries |= row == "queries 1";
  }
  EXPECT_TRUE(saw_method);
  EXPECT_TRUE(saw_queries);
  client.Close();
  reach_server.Stop();
}

/// A temp-dir snapshot path, cleaned up (with its .tmp sibling) at scope
/// exit.
class ScopedSnapshotPath {
 public:
  explicit ScopedSnapshotPath(const std::string& name)
      : path_(::testing::TempDir() + name) {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  ~ScopedSnapshotPath() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  const std::string& get() const { return path_; }

 private:
  std::string path_;
};

TEST(ReachServerTest, SaveThenReloadRoundTripsOverProtocol) {
  const Digraph graph = RandomDag(120, 360, 17);
  ReachServer reach_server;
  ASSERT_TRUE(reach_server.Start(graph, QuickOptions("DL")).ok());
  ScopedSnapshotPath snap("save_then_reload.snap");

  auto [queries, expected] = MakeExpected(reach_server, 500, 120, 31);
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", reach_server.port()).ok());
  // SAVE publishes the live index; RELOAD swaps onto the saved file.
  EXPECT_EQ(*client.Save(snap.get()), "OK");
  EXPECT_EQ(*client.Reload(snap.get()), "OK");
  const auto answers = client.Batch(queries);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_EQ(*answers, expected);
  EXPECT_EQ(reach_server.stats().saves.load(), 1u);
  EXPECT_EQ(reach_server.stats().reloads.load(), 1u);
  EXPECT_EQ(reach_server.stats().malformed.load(), 0u);
  client.Close();
  reach_server.Stop();
}

TEST(ReachServerTest, ReloadUnderConcurrentBatchLoad) {
  // The swap-under-load acceptance bar: clients stream BATCH frames while
  // another connection hammers RELOAD. Every answer must stay correct, no
  // ERR may appear, and the old index must only die once its last
  // in-flight query released it (ASan/TSan in CI check exactly that).
  const Digraph graph = RandomDag(200, 600, 7);
  ScopedSnapshotPath snap("reload_under_load.snap");
  ReachServer reach_server;
  ServerOptions options = QuickOptions("DL");
  options.workers = 4;
  options.save_index_path = snap.get();
  ASSERT_TRUE(reach_server.Start(graph, options).ok());

  constexpr int kClients = 2;
  constexpr int kRounds = 20;
  constexpr size_t kQueriesEach = 300;
  std::vector<std::vector<std::pair<Vertex, Vertex>>> queries(kClients);
  std::vector<std::vector<std::string>> expected(kClients);
  for (int c = 0; c < kClients; ++c) {
    std::tie(queries[c], expected[c]) =
        MakeExpected(reach_server, kQueriesEach, 200, 4000 + c);
  }

  std::atomic<bool> queries_done{false};
  std::atomic<int> reloads_ok{0};
  std::atomic<int> reloads_bad{0};
  std::vector<int> ok(kClients, 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (!client.Connect("127.0.0.1", reach_server.port()).ok()) return;
      for (int round = 0; round < kRounds; ++round) {
        const auto answers = client.Batch(queries[c]);
        if (!answers.ok() || *answers != expected[c]) return;
      }
      ok[c] = 1;
    });
  }
  std::thread reloader([&] {
    Client client;
    if (!client.Connect("127.0.0.1", reach_server.port()).ok()) {
      reloads_bad.fetch_add(1);
      return;
    }
    while (!queries_done.load()) {
      const auto line = client.Reload(snap.get());
      if (line.ok() && *line == "OK") {
        reloads_ok.fetch_add(1);
      } else {
        reloads_bad.fetch_add(1);
        return;
      }
    }
  });
  for (std::thread& t : threads) t.join();
  queries_done.store(true);
  reloader.join();

  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(ok[c]) << "client " << c << " saw a wrong or failed batch";
  }
  EXPECT_GE(reloads_ok.load(), 1);
  EXPECT_EQ(reloads_bad.load(), 0);
  EXPECT_EQ(reach_server.stats().reloads.load(),
            static_cast<uint64_t>(reloads_ok.load()));
  EXPECT_EQ(reach_server.stats().malformed.load(), 0u);
  EXPECT_EQ(reach_server.stats().queries.load(),
            uint64_t{kClients} * kRounds * kQueriesEach);
  reach_server.Stop();
}

TEST(ReachServerTest, MmapLoadedServerServesAndSurvivesReloadRace) {
  // The zero-copy serving bar: a server started from --load-index serves
  // straight off the snapshot mapping, exposes the load diagnostics over
  // STATS, and survives clients racing RELOAD while the retiring index is
  // mmap-backed — the mapping must stay alive until the last in-flight
  // query on it finishes (ASan/TSan in CI check exactly that).
  const Digraph graph = RandomDag(200, 600, 29);
  ScopedSnapshotPath snap("mmap_reload_race.snap");
  {
    // Publish a snapshot from a build server, then retire it.
    ReachServer builder;
    ServerOptions options = QuickOptions("DL");
    options.save_index_path = snap.get();
    ASSERT_TRUE(builder.Start(graph, options).ok());
    builder.Stop();
  }

  ReachServer reach_server;
  ServerOptions options = QuickOptions("DL");
  options.workers = 4;
  options.load_index_path = snap.get();
  ASSERT_TRUE(reach_server.Start(graph, options).ok());
  EXPECT_TRUE(reach_server.loaded_from_snapshot());
  // RandomDag is a DAG, so the lazy load must skip SCC condensation.
  EXPECT_TRUE(reach_server.index()->identity_condensation());
  EXPECT_EQ(reach_server.loaded_mmap(), MappedBlob::PlatformSupportsMmap());

  // The publish diagnostics are visible over the wire.
  {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", reach_server.port()).ok());
    const auto stats = client.Stats();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    bool saw_load_ms = false;
    bool saw_rss = false;
    for (const std::string& line : *stats) {
      if (line.rfind("load_ms ", 0) == 0) saw_load_ms = true;
      if (line.rfind("rss_kb ", 0) == 0) saw_rss = true;
      if (line.rfind("mmap ", 0) == 0) {
        EXPECT_EQ(line, MappedBlob::PlatformSupportsMmap() ? "mmap 1"
                                                           : "mmap 0");
      }
      if (line.rfind("identity_scc ", 0) == 0) {
        EXPECT_EQ(line, "identity_scc 1");
      }
    }
    EXPECT_TRUE(saw_load_ms);
    EXPECT_TRUE(saw_rss);
    client.Close();
  }

  constexpr int kClients = 2;
  constexpr int kRounds = 15;
  constexpr size_t kQueriesEach = 300;
  std::vector<std::vector<std::pair<Vertex, Vertex>>> queries(kClients);
  std::vector<std::vector<std::string>> expected(kClients);
  for (int c = 0; c < kClients; ++c) {
    std::tie(queries[c], expected[c]) =
        MakeExpected(reach_server, kQueriesEach, 200, 8000 + c);
  }
  std::atomic<bool> queries_done{false};
  std::atomic<int> reloads_ok{0};
  std::atomic<int> reloads_bad{0};
  std::vector<int> ok(kClients, 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (!client.Connect("127.0.0.1", reach_server.port()).ok()) return;
      // Keep the load on until the reloader has landed (or failed) a
      // RELOAD: on a busy host the batches can otherwise all finish before
      // the reloader thread is first scheduled, and no swap races a batch.
      for (int round = 0; round < kRounds || (reloads_ok.load() == 0 &&
                                              reloads_bad.load() == 0);
           ++round) {
        const auto answers = client.Batch(queries[c]);
        if (!answers.ok() || *answers != expected[c]) return;
      }
      ok[c] = 1;
    });
  }
  std::thread reloader([&] {
    // Every successful RELOAD retires an mmap-backed index under load and
    // publishes a fresh mapping of the same snapshot.
    Client client;
    if (!client.Connect("127.0.0.1", reach_server.port()).ok()) {
      reloads_bad.fetch_add(1);
      return;
    }
    while (!queries_done.load()) {
      const auto line = client.Reload(snap.get());
      if (line.ok() && *line == "OK") {
        reloads_ok.fetch_add(1);
      } else {
        reloads_bad.fetch_add(1);
        return;
      }
    }
  });
  for (std::thread& t : threads) t.join();
  queries_done.store(true);
  reloader.join();

  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(ok[c]) << "client " << c << " saw a wrong or failed batch";
  }
  EXPECT_GE(reloads_ok.load(), 1);
  EXPECT_EQ(reloads_bad.load(), 0);
  EXPECT_EQ(reach_server.stats().malformed.load(), 0u);
  reach_server.Stop();
}

TEST(ReachServerTest, FailedReloadLeavesLiveIndexServing) {
  const Digraph graph = ChainDag(8);
  ReachServer reach_server;
  ASSERT_TRUE(reach_server.Start(graph, QuickOptions("DL")).ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", reach_server.port()).ok());

  // Nonexistent path.
  auto line = client.Reload("/no/such/snapshot.snap");
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(line->rfind("ERR ", 0), 0u) << *line;

  // Garbage bytes (bad magic).
  ScopedSnapshotPath garbage("reload_garbage.snap");
  {
    std::ofstream out(garbage.get(), std::ios::binary);
    out << "this is not a snapshot";
  }
  line = client.Reload(garbage.get());
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(line->rfind("ERR ", 0), 0u) << *line;

  // A valid snapshot, but for a different graph shape.
  ScopedSnapshotPath foreign("reload_foreign.snap");
  {
    const Digraph other = RandomDag(50, 150, 3);
    ReachServer other_server;
    ServerOptions other_options = QuickOptions("DL");
    other_options.save_index_path = foreign.get();
    ASSERT_TRUE(other_server.Start(other, other_options).ok());
    other_server.Stop();
  }
  line = client.Reload(foreign.get());
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(line->rfind("ERR ", 0), 0u) << *line;

  // Every failure left the live index untouched and the connection usable.
  EXPECT_EQ(*client.Query(0, 7), "1");
  EXPECT_EQ(*client.Query(7, 0), "0");
  EXPECT_EQ(reach_server.stats().reloads.load(), 0u);
  EXPECT_EQ(reach_server.stats().malformed.load(), 3u);
  client.Close();
  reach_server.Stop();
}

TEST(ReachServerTest, ReloadRefusedForNonSnapshotMethod) {
  // BFS has no snapshot form; RELOAD (and SAVE) must refuse without
  // touching the live traversal index.
  const Digraph graph = ChainDag(5);
  ReachServer reach_server;
  ASSERT_TRUE(reach_server.Start(graph, QuickOptions("BFS")).ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", reach_server.port()).ok());
  ScopedSnapshotPath snap("bfs_refused.snap");
  auto line = client.Save(snap.get());
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(line->rfind("ERR ", 0), 0u) << *line;
  line = client.Reload(snap.get());
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(line->rfind("ERR ", 0), 0u) << *line;
  EXPECT_EQ(*client.Query(0, 4), "1");
  client.Close();
  reach_server.Stop();
}

TEST(ReachServerTest, OutOfRangeQueryCountsOnlyAsMalformed) {
  // Wire-level pin of the disjoint-counter contract (the session-level pin
  // lives in protocol_test.cc).
  const Digraph graph = ChainDag(4);
  ReachServer reach_server;
  ASSERT_TRUE(reach_server.Start(graph, QuickOptions("DL")).ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", reach_server.port()).ok());
  EXPECT_EQ(*client.Query(0, 3), "1");
  EXPECT_EQ(client.Query(0, 99)->rfind("ERR ", 0), 0u);
  EXPECT_EQ(reach_server.stats().queries.load(), 1u);
  EXPECT_EQ(reach_server.stats().malformed.load(), 1u);
  client.Close();
  reach_server.Stop();
}

TEST(ReachServerTest, StartRejectsUnknownMethodAndBadAddress) {
  const Digraph graph = ChainDag(3);
  {
    ReachServer reach_server;
    const Status status =
        reach_server.Start(graph, QuickOptions("NOPE"));
    EXPECT_TRUE(status.IsInvalidArgument());
  }
  {
    ReachServer reach_server;
    ServerOptions options = QuickOptions("DL");
    options.host = "not-an-address";
    EXPECT_TRUE(reach_server.Start(graph, options).IsInvalidArgument());
  }
}

TEST(ReachServerTest, BudgetExceededBuildReportsStats) {
  const Digraph graph = RandomDag(300, 900, 3);
  ReachServer reach_server;
  ServerOptions options = QuickOptions("DL");
  options.budget.max_index_integers = 1;  // Guaranteed to blow.
  const Status status = reach_server.Start(graph, options);
  EXPECT_TRUE(status.IsResourceExhausted());
  EXPECT_FALSE(reach_server.build_stats().ok);
  EXPECT_TRUE(reach_server.build_stats().budget_exceeded);
}

}  // namespace
}  // namespace server
}  // namespace reach
