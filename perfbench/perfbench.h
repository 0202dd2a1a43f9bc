// Shared declarations of the end-to-end benchmark (reach_perfbench).
//
// One run sets up a fixture (registry graphs, a sealed DL index, seeded
// query streams, a loopback ReachServer), then runs three stages in turns:
// build, query, serve. The workload picks which stage gets half of the
// run's time; the other two split the rest, so that every run reports every
// end-to-end metric (LAYERS.md explains the split). With --trace 1 each
// stage additionally times the public functions of its layers from outside
// and reports the per-layer metrics.

#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/reachability.h"
#include "graph/digraph.h"
#include "query/workload.h"
#include "server/server.h"
#include "util/sync.h"

namespace perfbench {

using reach::Vertex;

enum class StageKind { kBuild = 0, kQuery = 1, kServe = 2 };

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny streams and budgets: every metric still printed, in seconds.
  bool smoke = false;
  /// Flips one expected answer per stage; the run must then report
  /// failures (the checker's self-test).
  bool flip_expected = false;
  /// Scratch directory for snapshots and the span file.
  std::string work_dir;
  /// The host's CPU count: the busy-thread cap, and the thread count of
  /// the traced nproc-thread DL probes.
  int threads = 1;
};

// --- Results ---------------------------------------------------------------

/// Operations attempted and failed (wrong answer, ERR line, error Status).
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Named metrics in insertion order; Set overwrites an existing name.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::optional<double> Get(const std::string& name) const;
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// Median and nearest-rank percentile (q in [0, 1]); 0 for no samples.
double Median(std::vector<double> values);
double Percentile(std::vector<double> values, double q);

/// Share of the samples a "fast" statistic keeps. A slow spell of the host
/// (CPU steal, a late cross-CPU wake-up) only ever adds time, so for
/// metrics that wait on other CPUs the fastest fifth of a run's samples
/// tracks the code and the median tracks the host.
constexpr double kFastShare = 0.2;

/// The value below which kFastShare of the samples lie: a time no more
/// than kFastShare of the samples beat.
inline double FastTime(std::vector<double> values) {
  return Percentile(std::move(values), kFastShare);
}

/// The value that kFastShare of the samples reach or exceed: a rate.
inline double FastRate(std::vector<double> values) {
  return Percentile(std::move(values), 1 - kFastShare);
}

// --- Tracing ---------------------------------------------------------------

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int phase = 0;  // StageKind of the stage that opened it.
};

/// In-memory span recorder. Disabled tracers record nothing and hand out
/// id -1. Thread-safe: serve-stage client threads record concurrently.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  int Open(const char* name, int parent, StageKind phase) EXCLUDES(mu_);
  void Close(int id) EXCLUDES(mu_);
  /// Span list at the end of the run (no span may still be open).
  std::vector<Span> Snapshot() const EXCLUDES(mu_);

 private:
  const bool enabled_;
  mutable reach::Mutex mu_;
  std::vector<Span> spans_ GUARDED_BY(mu_);
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int parent, StageKind phase)
      : tracer_(tracer), id_(tracer->Open(name, parent, phase)) {}
  ~ScopedSpan() { tracer_->Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Writes every span as one JSON line and prints the per-name self time
/// (span minus the union of its children) to stderr.
void WriteTrace(const Tracer& tracer, const std::string& path);

// --- Fixture ---------------------------------------------------------------

/// A seeded query stream with its truth-verified expected answers.
struct Stream {
  std::vector<std::pair<Vertex, Vertex>> pairs;
  std::vector<uint8_t> expected;
};

/// Everything the stages share. Built by SetUpFixture and timed as set-up.
struct Fixture {
  Fixture();
  ~Fixture();
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  reach::Digraph cit;  // cit-Patents stand-in: build and query stages.
  reach::Digraph p2p;  // p2p stand-in: serve stage.
  std::optional<reach::ReachabilityIndex> cit_dl;
  Stream cit_stream;  // QueryMix::kMixed over cit.
  Stream p2p_stream;  // QueryMix::kNegativeHeavy over p2p.
  std::string cit_snapshot;  // Rewritten by every build cycle.
  std::string p2p_snapshot;  // Saved during set-up, RELOADed by serving.
  std::unique_ptr<reach::server::ReachServer> server;
};

/// Generates the graphs and streams, builds the query index, starts the
/// server and saves the serve snapshot. Null on failure (reason on stderr).
std::unique_ptr<Fixture> SetUpFixture(const Options& options);

// --- Stages ----------------------------------------------------------------

/// Where a stage invocation records its spans and, for the layer probes,
/// how long it runs.
struct StageRun {
  Tracer* tracer = nullptr;  // Never null; a disabled tracer when untraced.
  int parent = -1;           // Span that encloses the invocation.
  double budget_s = 0;
};

/// One stage's end-to-end loop. A run interleaves the three stages in
/// rounds and calls Slice once per stage and round, so each metric's
/// samples spread over the whole run and a burst of host contention moves
/// only a few of them.
class StageLoop {
 public:
  virtual ~StageLoop() = default;
  /// Runs at least one repetition, then more until `until_ns`.
  virtual void Slice(int64_t until_ns, const StageRun& run) = 0;
  /// Writes the stage's end-to-end metrics (medians over its samples) and
  /// the per-layer metrics its samples also give.
  virtual void Finish(Metrics* out) const = 0;
};

std::unique_ptr<StageLoop> MakeBuildLoop(const Fixture& fx,
                                         const Options& options,
                                         Tally* tally);
std::unique_ptr<StageLoop> MakeQueryLoop(const Fixture& fx, Tally* tally);
std::unique_ptr<StageLoop> MakeServeLoop(const Fixture& fx, Tally* tally);

/// Layer probes of the traced run: write this stage's per-layer metrics.
/// They run after the end-to-end loops and may read their metrics from
/// `out`.
void BuildLayers(const Fixture& fx, const Options& options,
                 const StageRun& run, Tally* tally, Metrics* out);
void QueryLayers(const Fixture& fx, const Options& options,
                 const StageRun& run, Tally* tally, Metrics* out);
void ServeLayers(const Fixture& fx, const Options& options,
                 const StageRun& run, Tally* tally, Metrics* out);

/// Stage loop condition: done once the budget has elapsed and at least one
/// repetition ran.
class Budget {
 public:
  explicit Budget(double budget_s)
      : deadline_ns_(NowNs() + static_cast<int64_t>(budget_s * 1e9)) {}
  bool Done(size_t reps) const { return reps > 0 && NowNs() >= deadline_ns_; }

 private:
  int64_t deadline_ns_;
};

/// Queries per timed block: two clock reads per block keep the timer's own
/// cost below a nanosecond per query.
constexpr size_t kBlock = 4096;

/// Times `answer(i)` over i in [0, n) in blocks of kBlock, in whole passes
/// until `run`'s budget is spent. `prepare(begin, end)` runs untimed before
/// each block (formatting requests, fetching spans); `check(i, answer)`
/// runs untimed after it. Returns each block's ns per call. One span per
/// pass when tracing.
template <typename Prepare, typename Answer, typename Check>
std::vector<double> TimeBlocks(size_t n, const StageRun& run,
                               const char* span, StageKind phase,
                               Prepare&& prepare, Answer&& answer,
                               Check&& check) {
  std::vector<double> block_ns;
  std::vector<uint8_t> got(kBlock);
  Budget budget(run.budget_s);
  for (size_t passes = 0; n > 0 && !budget.Done(passes); ++passes) {
    ScopedSpan pass(run.tracer, span, run.parent, phase);
    for (size_t begin = 0; begin < n; begin += kBlock) {
      const size_t end = std::min(n, begin + kBlock);
      prepare(begin, end);
      const int64_t start_ns = NowNs();
      for (size_t i = begin; i < end; ++i) got[i - begin] = answer(i);
      const int64_t stop_ns = NowNs();
      block_ns.push_back(static_cast<double>(stop_ns - start_ns) /
                         static_cast<double>(end - begin));
      for (size_t i = begin; i < end; ++i) check(i, got[i - begin]);
    }
  }
  return block_ns;
}

inline void NoPrepare(size_t, size_t) {}

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
