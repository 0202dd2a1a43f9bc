// Serve stage: a closed loop over loopback against the fixture's
// ReachServer (DL on p2p, two workers), with the process on one CPU. Two
// client connections send Q lines with a BATCH 256 frame every 64th
// request; connection 0 also RELOADs the set-up snapshot every 20,000
// requests.

#include <dirent.h>
#include <sched.h>

#include <charconv>
#include <cstdlib>
#include <latch>
#include <string>
#include <thread>

#include "core/distribution_labeling.h"
#include "perfbench.h"
#include "server/client.h"
#include "server/session.h"
#include "server/snapshot.h"

namespace perfbench {
namespace {

namespace srv = reach::server;

constexpr int kConnections = 2;
constexpr uint64_t kBatchEvery = 64;
constexpr size_t kBatchSize = 256;
constexpr uint64_t kReloadEvery = 20000;
constexpr uint64_t kRequestsPerSpan = 64;
constexpr int kReloadProbes = 32;
/// The served metrics are fast statistics over windows this long: a window
/// that a stall of the host hits drops out instead of pulling the slice
/// down.
constexpr int64_t kWindowNs = 20'000'000;

/// Confines every thread of the process (server workers, clients, the
/// build stage's pool, if any) to the CPU the caller runs on, and gives all
/// of them the caller's former mask back when it goes. On one CPU a
/// loopback round trip costs the session's work, syscalls and context
/// switches; across CPUs it also waits for an idle vCPU to wake, and on a
/// shared host that wake-up slows the round trip 2-3x for minutes at a
/// time.
class OneCpu {
 public:
  OneCpu() {
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    const int cpu = sched_getcpu();
    CPU_SET(cpu >= 0 ? cpu : 0, &one);
    SetAll(one);
    pinned_ = true;
  }
  ~OneCpu() {
    if (pinned_) SetAll(original_);
  }
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

 private:
  static void SetAll(const cpu_set_t& mask) {
    DIR* dir = opendir("/proc/self/task");
    if (dir == nullptr) return;
    while (const dirent* entry = readdir(dir)) {
      const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
      if (tid > 0) sched_setaffinity(tid, sizeof(mask), &mask);
    }
    closedir(dir);
  }

  cpu_set_t original_;
  bool pinned_ = false;
};

size_t Digits(Vertex v) {
  char buf[16];
  return static_cast<size_t>(std::to_chars(buf, buf + sizeof(buf), v).ptr -
                             buf);
}

/// Bytes of one "u v\n" pair line.
size_t PairBytes(Vertex u, Vertex v) { return Digits(u) + 1 + Digits(v) + 1; }

/// Answers and round trips that completed in one kWindowNs window.
struct Window {
  uint64_t answers = 0;
  std::vector<double> q_us, batch_us;
};

/// One client connection's state. The request counter, stream position and
/// RELOAD times persist across slices; the rest is per slice.
struct Connection {
  uint64_t requests = 0;
  size_t next = 0;
  std::vector<double> reload_ms;
  /// The slice's windows, and how many ended before its deadline.
  std::vector<Window> windows;
  size_t full_windows = 0;
  uint64_t answers = 0;
  uint64_t bytes = 0;
  Tally tally;
};

void RunConnection(int conn, const Fixture& fx, const StageRun& run,
                   int64_t until_ns, std::latch* connected, Connection* c) {
  srv::Client client;
  const bool ok = client.Connect("127.0.0.1", fx.server->port()).ok();
  connected->arrive_and_wait();
  if (!ok) {
    c->tally.Check(false);
    return;
  }
  const Stream& stream = fx.p2p_stream;
  const size_t n = stream.pairs.size();
  const auto expect = [&](size_t i) {
    return stream.expected[i] != 0 ? "1" : "0";
  };
  std::vector<std::pair<Vertex, Vertex>> batch(kBatchSize);
  std::vector<size_t> batch_ids(kBatchSize);
  const int64_t origin = NowNs();
  c->full_windows = static_cast<size_t>((until_ns - origin) / kWindowNs);
  const auto window = [&](int64_t at) -> Window& {
    const size_t w = static_cast<size_t>((at - origin) / kWindowNs);
    if (w >= c->windows.size()) c->windows.resize(w + 1);
    return c->windows[w];
  };
  int span = -1;
  for (; NowNs() < until_ns; ++c->requests) {
    const uint64_t req = c->requests;
    if (req % kRequestsPerSpan == 0) {
      run.tracer->Close(span);
      span = run.tracer->Open("wire.requests", run.parent, StageKind::kServe);
    }
    if (conn == 0 && req % kReloadEvery == 0) {
      const int64_t start = NowNs();
      reach::StatusOr<std::string> reply = client.Reload(fx.p2p_snapshot);
      const int64_t stop = NowNs();
      c->tally.Check(reply.ok() && *reply == "OK");
      if (!reply.ok()) break;
      c->reload_ms.push_back(static_cast<double>(stop - start) / 1e6);
    } else if (req % kBatchEvery == kBatchEvery - 1) {
      size_t request_bytes = 10;  // "BATCH 256\n"
      for (size_t k = 0; k < kBatchSize; ++k) {
        batch_ids[k] = c->next;
        batch[k] = stream.pairs[c->next];
        request_bytes += PairBytes(batch[k].first, batch[k].second);
        c->next = (c->next + 1) % n;
      }
      const int64_t start = NowNs();
      reach::StatusOr<std::vector<std::string>> answers = client.Batch(batch);
      const int64_t stop = NowNs();
      if (!answers.ok() || answers->size() != kBatchSize) {
        c->tally.Check(false);
        break;
      }
      for (size_t k = 0; k < kBatchSize; ++k) {
        c->tally.Check((*answers)[k] == expect(batch_ids[k]));
      }
      Window& w = window(stop);
      w.batch_us.push_back(static_cast<double>(stop - start) / 1e3);
      w.answers += kBatchSize;
      c->answers += kBatchSize;
      c->bytes += request_bytes + 2 * kBatchSize;
    } else {
      const auto [u, v] = stream.pairs[c->next];
      const int64_t start = NowNs();
      reach::StatusOr<std::string> reply = client.Query(u, v);
      const int64_t stop = NowNs();
      c->tally.Check(reply.ok() && *reply == expect(c->next));
      if (!reply.ok()) break;
      Window& w = window(stop);
      w.q_us.push_back(static_cast<double>(stop - start) / 1e3);
      ++w.answers;
      ++c->answers;
      c->bytes += 2 + PairBytes(u, v) + 2;  // "Q " + pair, "1\n"
      c->next = (c->next + 1) % n;
    }
  }
  run.tracer->Close(span);
}

/// The server's STATS "queries" counter, or nullopt on any error.
std::optional<uint64_t> ServedQueries(const Fixture& fx) {
  srv::Client client;
  if (!client.Connect("127.0.0.1", fx.server->port()).ok()) {
    return std::nullopt;
  }
  reach::StatusOr<std::vector<std::string>> rows = client.Stats();
  if (!rows.ok()) return std::nullopt;
  for (const std::string& row : *rows) {
    if (row.rfind("queries ", 0) == 0) {
      uint64_t value = 0;
      const char* begin = row.data() + 8;
      const char* end = row.data() + row.size();
      if (std::from_chars(begin, end, value).ptr == end) return value;
    }
  }
  return std::nullopt;
}

class ServeLoop final : public StageLoop {
 public:
  ServeLoop(const Fixture& fx, Tally* tally) : fx_(fx), tally_(tally) {
    for (int c = 0; c < kConnections; ++c) {
      conns_[c].next = static_cast<size_t>(c) * fx.p2p_stream.pairs.size() /
                       kConnections;
    }
  }

  /// One closed-loop window on one CPU: both connections run until
  /// `until_ns`.
  void Slice(int64_t until_ns, const StageRun& run) override {
    const OneCpu pin;
    const std::optional<uint64_t> served_before = ServedQueries(fx_);
    for (Connection& c : conns_) {
      c.windows.clear();
      c.answers = 0;
      c.bytes = 0;
    }
    std::latch connected(kConnections + 1);
    {
      std::vector<std::jthread> clients;
      for (int c = 0; c < kConnections; ++c) {
        clients.emplace_back(RunConnection, c, std::cref(fx_), std::cref(run),
                             until_ns, &connected, &conns_[c]);
      }
      connected.arrive_and_wait();
    }
    const std::optional<uint64_t> served_after = ServedQueries(fx_);

    uint64_t answers = 0;
    for (Connection& c : conns_) {
      answers += c.answers;
      bytes_ += c.bytes;
      tally_->attempted += c.tally.attempted;
      tally_->failed += c.tally.failed;
      c.tally = {};
    }
    // The server must have counted exactly the answers the clients got.
    const uint64_t served =
        served_before && served_after ? *served_after - *served_before : 0;
    tally_->Check(served_before && served_after && served == answers);
    answers_ += answers;
    served_ += served;
    size_t full_windows = conns_[0].full_windows;
    for (const Connection& c : conns_) {
      full_windows = std::min(full_windows, c.full_windows);
    }
    // Per full window: both connections' answers and median round trips.
    // The slice's p99s take every round trip, the last partial window too.
    std::vector<double> q_us, batch_us;
    for (size_t w = 0; w < full_windows; ++w) {
      uint64_t in_window = 0;
      std::vector<double> window_q, window_batch;
      for (const Connection& c : conns_) {
        if (w >= c.windows.size()) continue;
        const Window& cw = c.windows[w];
        in_window += cw.answers;
        window_q.insert(window_q.end(), cw.q_us.begin(), cw.q_us.end());
        window_batch.insert(window_batch.end(), cw.batch_us.begin(),
                            cw.batch_us.end());
      }
      qps_.push_back(static_cast<double>(in_window) * 1e9 /
                     static_cast<double>(kWindowNs));
      if (!window_q.empty()) q_p50_.push_back(Median(window_q));
      if (!window_batch.empty()) batch_p50_.push_back(Median(window_batch));
    }
    for (const Connection& c : conns_) {
      for (const Window& cw : c.windows) {
        q_us.insert(q_us.end(), cw.q_us.begin(), cw.q_us.end());
        batch_us.insert(batch_us.end(), cw.batch_us.begin(),
                        cw.batch_us.end());
      }
    }
    if (!q_us.empty()) q_p99_.push_back(Percentile(q_us, 0.99));
    if (!batch_us.empty()) batch_p99_.push_back(Percentile(batch_us, 0.99));
  }

  /// serve_qps and the p50 latencies are fast statistics over all windows
  /// of the run, the p99s medians over slices; RELOADs are too few per
  /// slice, so reload_ms is the fast time of all of them.
  void Finish(Metrics* out) const override {
    std::vector<double> reload_ms;
    for (const Connection& c : conns_) {
      reload_ms.insert(reload_ms.end(), c.reload_ms.begin(),
                       c.reload_ms.end());
    }
    out->Set("serve_qps", FastRate(qps_), "queries/s");
    out->Set("q_p50_us", FastTime(q_p50_), "us");
    out->Set("batch_p50_us", FastTime(batch_p50_), "us");
    out->Set("reload_ms", FastTime(reload_ms), "ms");
    out->Set("wire.q_p99_us", Median(q_p99_), "us");
    out->Set("wire.batch_p99_us", Median(batch_p99_), "us");
    out->Set("wire.bytes_per_query",
             answers_ > 0 ? static_cast<double>(bytes_) /
                                static_cast<double>(answers_)
                          : 0,
             "bytes");
    out->Set("server.queries_delta",
             static_cast<double>(served_) - static_cast<double>(answers_),
             "count");
  }

 private:
  const Fixture& fx_;
  Tally* tally_;
  Connection conns_[kConnections];
  std::vector<double> qps_, q_p50_, q_p99_, batch_p50_, batch_p99_;
  uint64_t answers_ = 0, bytes_ = 0, served_ = 0;
};

}  // namespace

std::unique_ptr<StageLoop> MakeServeLoop(const Fixture& fx, Tally* tally) {
  return std::make_unique<ServeLoop>(fx, tally);
}

void ServeLayers(const Fixture& fx, const Options&, const StageRun& run,
                 Tally* tally, Metrics* out) {
  const std::shared_ptr<const reach::ReachabilityIndex> live =
      fx.server->index();
  srv::IndexSlot slot;
  slot.Publish(live);
  srv::ServerStats stats;
  srv::SessionContext context;
  context.index = &slot;
  context.method = "DL";
  context.graph_vertices = fx.p2p.num_vertices();
  context.graph_edges = fx.p2p.num_edges();
  context.stats = &stats;
  srv::Session session(&context);

  const Stream& stream = fx.p2p_stream;
  const size_t n = stream.pairs.size();
  StageRun probe = run;
  probe.budget_s = run.budget_s / 5;
  ScopedSpan stage(run.tracer, "layers.serve", run.parent, StageKind::kServe);
  probe.parent = stage.id();
  const auto check = [&](size_t i, uint8_t got) {
    tally->Check(got == stream.expected[i]);
  };

  // Session::Feed of one Q line over an in-memory buffer.
  std::vector<std::string> lines(kBlock);
  size_t block_begin = 0;
  std::string response;
  out->Set("session.q_ns",
           Median(TimeBlocks(
               n, probe, "session.q_ns", StageKind::kServe,
               [&](size_t begin, size_t end) {
                 block_begin = begin;
                 for (size_t i = begin; i < end; ++i) {
                   const auto [u, v] = stream.pairs[i];
                   lines[i - begin] = "Q " + std::to_string(u) + " " +
                                      std::to_string(v) + "\n";
                 }
               },
               [&](size_t i) -> uint8_t {
                 response.clear();
                 session.Feed(lines[i - block_begin], &response);
                 return response.size() == 2 ? response[0] - '0' : 2;
               },
               check)),
           "ns");

  // Session::Feed of whole BATCH 256 frames.
  std::vector<double> frame_ns;
  {
    ScopedSpan s(run.tracer, "session.batch", stage.id(), StageKind::kServe);
    Budget budget(probe.budget_s);
    std::string frame;
    for (size_t passes = 0; !budget.Done(passes); ++passes) {
      for (size_t begin = 0; begin + kBatchSize <= n; begin += kBatchSize) {
        frame = "BATCH " + std::to_string(kBatchSize) + "\n";
        for (size_t i = begin; i < begin + kBatchSize; ++i) {
          frame += std::to_string(stream.pairs[i].first) + " " +
                   std::to_string(stream.pairs[i].second) + "\n";
        }
        response.clear();
        const int64_t start = NowNs();
        session.Feed(frame, &response);
        frame_ns.push_back(static_cast<double>(NowNs() - start));
        tally->Check(response.size() == 2 * kBatchSize);
        for (size_t k = 0; k < kBatchSize && 2 * k < response.size(); ++k) {
          check(begin + k, static_cast<uint8_t>(response[2 * k] - '0'));
        }
      }
    }
  }
  out->Set("session.batch_ns_per_query",
           Median(frame_ns) / static_cast<double>(kBatchSize), "ns");

  uintptr_t sink = 0;
  out->Set("slot.acquire_ns",
           Median(TimeBlocks(
               n, probe, "slot.acquire_ns", StageKind::kServe, NoPrepare,
               [&](size_t) -> uint8_t {
                 const std::shared_ptr<const reach::ReachabilityIndex> held =
                     slot.Acquire();
                 sink += reinterpret_cast<uintptr_t>(held.get());
                 return held != nullptr ? 1 : 0;
               },
               [&](size_t, uint8_t got) { tally->Check(got == 1); })),
           "ns");
  tally->Check(sink != 0);

  out->Set("index.reachable_ns",
           Median(TimeBlocks(
               n, probe, "index.reachable_ns", StageKind::kServe, NoPrepare,
               [&](size_t i) -> uint8_t {
                 return live->Reachable(stream.pairs[i].first,
                                        stream.pairs[i].second)
                            ? 1
                            : 0;
               },
               check)),
           "ns");

  // The served Q round trip minus the session's share: syscalls, wake-ups.
  const double session_q_ns = out->Get("session.q_ns").value_or(0);
  out->Set("wire.other_us",
           out->Get("q_p50_us").value_or(0) - session_q_ns / 1e3, "us");

  std::vector<double> load_ms;
  {
    ScopedSpan s(run.tracer, "reload.load", stage.id(), StageKind::kServe);
    for (int k = 0; k < kReloadProbes; ++k) {
      const int64_t start = NowNs();
      reach::StatusOr<reach::ReachabilityIndex> loaded =
          srv::LoadIndexSnapshotFile(
              fx.p2p_snapshot, "DL", fx.p2p,
              std::make_unique<reach::DistributionLabelingOracle>());
      load_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
      tally->Check(loaded.ok());
    }
  }
  out->Set("reload.load_ms", Median(load_ms), "ms");
}

}  // namespace perfbench
