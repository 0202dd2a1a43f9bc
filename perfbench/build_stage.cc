// Build stage: repeated full index builds of cit-Patents, snapshot save and
// mmap reload, gated against BFS on a seeded pair sample.

#include <filesystem>
#include <numeric>

#include "core/distribution_labeling.h"
#include "core/hierarchical_labeling.h"
#include "graph/scc.h"
#include "graph/topology.h"
#include "perfbench.h"
#include "server/snapshot.h"
#include "util/mapped_blob.h"

namespace perfbench {
namespace {

using reach::BuildOptions;
using reach::DistributionLabelingOracle;
using reach::HierarchicalLabelingOracle;
using reach::ReachabilityIndex;

constexpr size_t kVerifyPairs = 4096;
/// The timed builds run on one thread. At nproc threads the DL build of
/// cit-Patents is slower than on one (dl.thread_speedup < 1) and its wall
/// time follows the host: 1.3 s to 3.2 s between consecutive builds on a
/// shared 4-vCPU host, against 0.82 s to 0.95 s on one thread. The
/// nproc-thread DL phases are per-layer metrics (dl.order_ms,
/// dl.distribute_ms, dl.thread_speedup).
constexpr int kBuildThreads = 1;
constexpr int kLoadsPerCycle = 32;

double MillisSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

/// BFS answers for the first kVerifyPairs pairs of the cit stream: the
/// gate's truth, computed once per stage (flipped for the self-test).
std::vector<uint8_t> BfsTruth(const Fixture& fx, const Options& options) {
  const size_t n = std::min(kVerifyPairs, fx.cit_stream.pairs.size());
  std::vector<uint8_t> truth(n);
  for (size_t i = 0; i < n; ++i) {
    const auto [u, v] = fx.cit_stream.pairs[i];
    truth[i] = reach::BfsReachable(fx.cit, u, v) ? 1 : 0;
  }
  if (options.flip_expected && n > 0) truth[0] ^= 1;
  return truth;
}

reach::StatusOr<ReachabilityIndex> LoadCitSnapshot(const Fixture& fx) {
  return reach::server::LoadIndexSnapshotFile(
      fx.cit_snapshot, "DL", fx.cit,
      std::make_unique<DistributionLabelingOracle>());
}

class BuildLoop final : public StageLoop {
 public:
  BuildLoop(const Fixture& fx, const Options& options, Tally* tally)
      : fx_(fx), truth_(BfsTruth(fx, options)), tally_(tally) {
    build_.threads = kBuildThreads;
  }

  void Slice(int64_t until_ns, const StageRun& run) override {
    do {
      Cycle(run);
    } while (NowNs() < until_ns);
  }

  void Finish(Metrics* out) const override {
    out->Set("build_dl_s", FastTime(dl_s_), "s");
    out->Set("build_hl_s", FastTime(hl_s_), "s");
    out->Set("index_mb", index_mb_, "MB");
    // The loads of one cycle all take one of two speeds (about 0.05 or
    // 0.08 ms on a 4-vCPU host), depending on the freshly saved file: loads
    // of a file saved once keep one speed. So a median or percentile over
    // all loads jumps between the two; the mean over cycles of each
    // cycle's median moves smoothly.
    double sum = 0;
    for (const double ms : cycle_load_ms_) sum += ms;
    out->Set("load_ms",
             cycle_load_ms_.empty()
                 ? 0
                 : sum / static_cast<double>(cycle_load_ms_.size()),
             "ms");
  }

 private:
  template <typename Oracle>
  reach::StatusOr<ReachabilityIndex> TimedBuild(const StageRun& run,
                                                const char* span,
                                                std::unique_ptr<Oracle> oracle,
                                                std::vector<double>* seconds) {
    ScopedSpan s(run.tracer, span, run.parent, StageKind::kBuild);
    const int64_t start = NowNs();
    reach::StatusOr<ReachabilityIndex> index =
        ReachabilityIndex::Build(fx_.cit, std::move(oracle), build_);
    seconds->push_back(MillisSince(start) / 1e3);
    tally_->Check(index.ok());
    return index;
  }

  /// One DL and one HL build, a snapshot save of the DL index, mmap loads
  /// of it, and the gate: the DL, HL and mapped indexes must all agree with
  /// BFS.
  void Cycle(const StageRun& run) {
    ScopedSpan cycle(run.tracer, "build.cycle", run.parent, StageKind::kBuild);
    StageRun inner = run;
    inner.parent = cycle.id();
    reach::StatusOr<ReachabilityIndex> dl = TimedBuild(
        inner, "index.build_dl",
        std::make_unique<DistributionLabelingOracle>(), &dl_s_);
    reach::StatusOr<ReachabilityIndex> hl = TimedBuild(
        inner, "index.build_hl",
        std::make_unique<HierarchicalLabelingOracle>(), &hl_s_);
    if (!dl.ok() || !hl.ok()) return;
    index_mb_ = static_cast<double>(dl->oracle().IndexSizeBytes()) / 1e6;

    {
      ScopedSpan s(run.tracer, "snapshot.save", cycle.id(), StageKind::kBuild);
      tally_->Check(reach::server::SaveIndexSnapshot(
                        fx_.cit_snapshot, "DL", fx_.cit.num_vertices(),
                        fx_.cit.num_edges(), dl->oracle())
                        .ok());
    }
    std::optional<ReachabilityIndex> mapped;
    {
      ScopedSpan s(run.tracer, "snapshot.load", cycle.id(), StageKind::kBuild);
      std::vector<double> load_ms;
      for (int k = 0; k < kLoadsPerCycle; ++k) {
        const int64_t start = NowNs();
        reach::StatusOr<ReachabilityIndex> loaded = LoadCitSnapshot(fx_);
        const double ms = MillisSince(start);
        tally_->Check(loaded.ok());
        if (!loaded.ok()) continue;
        load_ms.push_back(ms);
        mapped.emplace(std::move(*loaded));
      }
      if (!load_ms.empty()) cycle_load_ms_.push_back(Median(load_ms));
    }
    ScopedSpan s(run.tracer, "build.verify", cycle.id(), StageKind::kBuild);
    for (size_t i = 0; i < truth_.size(); ++i) {
      const auto [u, v] = fx_.cit_stream.pairs[i];
      const bool want = truth_[i] != 0;
      tally_->Check(dl->Reachable(u, v) == want &&
                    hl->Reachable(u, v) == want && mapped.has_value() &&
                    mapped->Reachable(u, v) == want);
    }
  }

  const Fixture& fx_;
  const std::vector<uint8_t> truth_;
  Tally* tally_;
  BuildOptions build_;
  std::vector<double> dl_s_, hl_s_;
  std::vector<double> cycle_load_ms_;  // Median load time of each cycle.
  double index_mb_ = 0;
};

}  // namespace

std::unique_ptr<StageLoop> MakeBuildLoop(const Fixture& fx,
                                         const Options& options,
                                         Tally* tally) {
  return std::make_unique<BuildLoop>(fx, options, tally);
}

void BuildLayers(const Fixture& fx, const Options& options,
                 const StageRun& run, Tally* tally, Metrics* out) {
  const std::vector<uint8_t> truth = BfsTruth(fx, options);
  const int threads = options.threads;
  std::vector<double> scc_ms, order_ms, dist_ms, dist1_ms, seal_ms, hl_ms,
      save_ms, open_ms;
  double entries = 0, max_len = 0, snapshot_bytes = 0, mismatches = 0;
  Budget budget(run.budget_s);
  for (size_t cycles = 0; !budget.Done(cycles); ++cycles) {
    ScopedSpan cycle(run.tracer, "layers.build", run.parent,
                     StageKind::kBuild);
    // Each call below is timed alone and wrapped in a span of its own name.
    const auto timed = [&](const char* span, std::vector<double>* ms,
                           auto&& fn) {
      ScopedSpan s(run.tracer, span, cycle.id(), StageKind::kBuild);
      const int64_t start = NowNs();
      fn();
      ms->push_back(MillisSince(start));
    };
    reach::Condensation condensation;
    timed("graph.scc", &scc_ms,
          [&] { condensation = reach::CondenseToDag(fx.cit); });
    const reach::Digraph& dag = condensation.dag;
    const size_t n = dag.num_vertices();
    std::vector<Vertex> members(n);
    std::iota(members.begin(), members.end(), Vertex{0});
    std::vector<Vertex> order;
    timed("dl.order", &order_ms, [&] {
      order = reach::ComputeDistributionOrder(dag, members, {}, threads);
    });
    std::vector<uint32_t> key_of(n, 0);
    for (uint32_t i = 0; i < order.size(); ++i) key_of[order[i]] = i;

    reach::LabelStore labels(n);
    timed("dl.distribute", &dist_ms, [&] {
      reach::DistributeLabels(dag, order, key_of, &labels, threads);
    });
    timed("labels.seal", &seal_ms, [&] { labels.Seal(); });
    reach::LabelStore labels_1t(n);
    timed("dl.distribute_1t", &dist1_ms, [&] {
      reach::DistributeLabels(dag, order, key_of, &labels_1t, 1);
    });
    // Thread count must not change the labeling (the determinism contract).
    tally->Check(labels_1t == labels);

    HierarchicalLabelingOracle hl;
    timed("hl.build", &hl_ms, [&] {
      BuildOptions build;
      build.threads = kBuildThreads;
      tally->Check(hl.Build(dag, build).ok());
    });
    entries = static_cast<double>(labels.TotalEntries());
    max_len = static_cast<double>(labels.MaxLabelSize());

    for (size_t i = 0; i < truth.size(); ++i) {
      const auto [u, v] = fx.cit_stream.pairs[i];
      const Vertex cu = condensation.component[u];
      const Vertex cv = condensation.component[v];
      const bool want = truth[i] != 0;
      const bool ok = (cu == cv || labels.Query(cu, cv)) == want &&
                      hl.Reachable(cu, cv) == want;
      tally->Check(ok);
      if (!ok) ++mismatches;
    }

    timed("snapshot.save", &save_ms, [&] {
      tally->Check(reach::server::SaveIndexSnapshot(
                       fx.cit_snapshot, "DL", fx.cit.num_vertices(),
                       fx.cit.num_edges(), fx.cit_dl->oracle())
                       .ok());
    });
    std::error_code ec;
    snapshot_bytes =
        static_cast<double>(std::filesystem::file_size(fx.cit_snapshot, ec));
    for (int k = 0; k < kLoadsPerCycle; ++k) {
      timed("blob.open", &open_ms, [&] {
        tally->Check(reach::MappedBlob::Open(fx.cit_snapshot).ok());
      });
    }
  }
  const double dist = Median(dist_ms);
  out->Set("graph.scc_ms", Median(scc_ms), "ms");
  out->Set("dl.order_ms", Median(order_ms), "ms");
  out->Set("dl.distribute_ms", dist, "ms");
  out->Set("dl.distribute_1t_ms", Median(dist1_ms), "ms");
  out->Set("dl.thread_speedup", dist > 0 ? Median(dist1_ms) / dist : 0,
           "ratio");
  out->Set("labels.seal_ms", Median(seal_ms), "ms");
  out->Set("hl.build_ms", Median(hl_ms), "ms");
  out->Set("labels.entries", entries, "count");
  out->Set("labels.max_len", max_len, "count");
  out->Set("snapshot.save_ms", Median(save_ms), "ms");
  out->Set("snapshot.bytes", snapshot_bytes, "bytes");
  out->Set("blob.open_ms", Median(open_ms), "ms");
  out->Set("verify.mismatches", mismatches, "count");
}

}  // namespace perfbench
