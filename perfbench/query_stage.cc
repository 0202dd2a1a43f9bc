// Query stage: single-thread in-process ReachabilityIndex::Reachable over
// the 1M-pair cit-Patents stream, whose DL index is larger than L2.

#include <memory>
#include <span>

#include "core/distribution_labeling.h"
#include "core/prefilter.h"
#include "perfbench.h"
#include "util/sorted_ops.h"

namespace perfbench {
namespace {

using Pairs = std::vector<std::pair<Vertex, Vertex>>;

class QueryLoop final : public StageLoop {
 public:
  QueryLoop(const Fixture& fx, Tally* tally) : fx_(fx), tally_(tally) {}

  void Slice(int64_t until_ns, const StageRun& run) override {
    const reach::ReachabilityIndex& index = *fx_.cit_dl;
    const Pairs& pairs = fx_.cit_stream.pairs;
    const std::vector<uint8_t>& expected = fx_.cit_stream.expected;
    if (!warmed_) {
      // One untimed, checked pass first: the timed passes then see the
      // steady state of a stream that does not fit in cache, not page-ins.
      ScopedSpan warm(run.tracer, "query.warm", run.parent,
                      StageKind::kQuery);
      for (size_t i = 0; i < pairs.size(); ++i) {
        tally_->Check(index.Reachable(pairs[i].first, pairs[i].second) ==
                      (expected[i] != 0));
      }
      warmed_ = true;
    }
    StageRun passes = run;
    passes.budget_s = static_cast<double>(until_ns - NowNs()) / 1e9;
    const std::vector<double> block_ns = TimeBlocks(
        pairs.size(), passes, "query.pass", StageKind::kQuery, NoPrepare,
        [&](size_t i) {
          return index.Reachable(pairs[i].first, pairs[i].second) ? 1 : 0;
        },
        [&](size_t i, uint8_t got) { tally_->Check(got == expected[i]); });
    const size_t per_pass = (pairs.size() + kBlock - 1) / kBlock;
    for (size_t begin = 0; begin + per_pass <= block_ns.size();
         begin += per_pass) {
      const std::vector<double> pass(block_ns.begin() + begin,
                                     block_ns.begin() + begin + per_pass);
      p50_.push_back(Median(pass));
      p99_.push_back(Percentile(pass, 0.99));
    }
  }

  /// Each pass over the stream gives a median and a 99th percentile of its
  /// block means; each metric is the fast time of its figure over passes.
  void Finish(Metrics* out) const override {
    out->Set("query_ns_p50", FastTime(p50_), "ns");
    out->Set("query_ns_p99", FastTime(p99_), "ns");
  }

 private:
  const Fixture& fx_;
  Tally* tally_;
  bool warmed_ = false;
  std::vector<double> p50_, p99_;  // Per pass, over its block means.
};

}  // namespace

std::unique_ptr<StageLoop> MakeQueryLoop(const Fixture& fx, Tally* tally) {
  return std::make_unique<QueryLoop>(fx, tally);
}

void QueryLayers(const Fixture& fx, const Options& options,
                 const StageRun& run, Tally* tally, Metrics* out) {
  const reach::ReachabilityIndex& index = *fx.cit_dl;
  const reach::ReachabilityOracle& oracle = index.oracle();
  const reach::LabelStore& labels =
      dynamic_cast<const reach::DistributionLabelingOracle&>(oracle)
          .labeling();
  const std::vector<uint8_t>& expected = fx.cit_stream.expected;

  // Component ids, so the oracle-level probes skip the SCC map.
  Pairs comp;
  comp.reserve(fx.cit_stream.pairs.size());
  std::vector<size_t> positives, negatives;
  for (size_t i = 0; i < fx.cit_stream.pairs.size(); ++i) {
    const auto [u, v] = fx.cit_stream.pairs[i];
    comp.emplace_back(index.ComponentOf(u), index.ComponentOf(v));
    (expected[i] != 0 ? positives : negatives).push_back(i);
  }
  const size_t n = comp.size();

  // Each probe gets an equal share of the stage's probe budget.
  StageRun probe = run;
  probe.budget_s = run.budget_s / 6;
  ScopedSpan stage(run.tracer, "layers.query", run.parent, StageKind::kQuery);
  probe.parent = stage.id();
  const auto check = [&](size_t i, uint8_t got) {
    tally->Check(got == expected[i]);
  };
  const auto ns_per_call = [&](const char* name, auto&& answer) {
    out->Set(name,
             Median(TimeBlocks(n, probe, name, StageKind::kQuery, NoPrepare,
                               answer, check)),
             "ns");
  };
  ns_per_call("oracle.reachable_ns", [&](size_t i) {
    return oracle.Reachable(comp[i].first, comp[i].second) ? 1 : 0;
  });
  // Reachable(u, u) never reaches the labels; the streams hold no such pair.
  ns_per_call("labels.query_ns", [&](size_t i) {
    return labels.Query(comp[i].first, comp[i].second) ? 1 : 0;
  });

  std::vector<std::pair<std::span<const uint32_t>, std::span<const uint32_t>>>
      spans(kBlock);
  const auto fetch_spans = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      spans[i - begin] = {labels.Out(comp[i].first), labels.In(comp[i].second)};
    }
  };
  size_t block_begin = 0;
  out->Set("kernel.intersect_ns",
           Median(TimeBlocks(
               n, probe, "kernel.intersect_ns", StageKind::kQuery,
               [&](size_t begin, size_t end) {
                 block_begin = begin;
                 fetch_spans(begin, end);
               },
               [&](size_t i) {
                 const auto& [a, b] = spans[i - block_begin];
                 return reach::SortedIntersects(a, b) ? 1 : 0;
               },
               check)),
           "ns");

  const auto subset_ns = [&](const char* name,
                             const std::vector<size_t>& subset) {
    out->Set(name,
             Median(TimeBlocks(
                 subset.size(), probe, name, StageKind::kQuery, NoPrepare,
                 [&](size_t k) {
                   const auto [u, v] = fx.cit_stream.pairs[subset[k]];
                   return index.Reachable(u, v) ? 1 : 0;
                 },
                 [&](size_t k, uint8_t got) { check(subset[k], got); })),
             "ns");
  };
  subset_ns("query.pos_ns", positives);
  subset_ns("query.neg_ns", negatives);

  // Kernel tier shares, classified with the kernel's own public tests.
  double entries = 0, range_rejects = 0, gallops = 0;
  for (const auto& [cu, cv] : comp) {
    const std::span<const uint32_t> a = labels.Out(cu);
    const std::span<const uint32_t> b = labels.In(cv);
    entries += static_cast<double>(a.size() + b.size());
    if (!reach::SortedRangesOverlap(a, b)) {
      ++range_rejects;
    } else if (std::min(a.size(), b.size()) * reach::kGallopRatio <
               std::max(a.size(), b.size())) {
      ++gallops;
    }
  }
  const double total = n > 0 ? static_cast<double>(n) : 1;
  out->Set("labels.entries_per_query", entries / total, "count");
  out->Set("kernel.range_reject_frac", range_rejects / total, "fraction");
  out->Set("kernel.gallop_frac", gallops / total, "fraction");

  reach::PrefilterOracle prefilter(
      std::make_unique<reach::DistributionLabelingOracle>());
  {
    ScopedSpan s(run.tracer, "prefilter.build", stage.id(), StageKind::kQuery);
    reach::BuildOptions build;
    build.threads = options.threads;
    tally->Check(prefilter.Build(index.dag(), build).ok());
  }
  prefilter.set_counting_enabled(false);
  ns_per_call("prefilter.wrapped_ns", [&](size_t i) {
    return prefilter.Reachable(comp[i].first, comp[i].second) ? 1 : 0;
  });
  prefilter.set_counting_enabled(true);
  prefilter.ResetCounters();
  for (size_t i = 0; i < n; ++i) {
    check(i, prefilter.Reachable(comp[i].first, comp[i].second) ? 1 : 0);
  }
  const reach::PrefilterStageCounters counters = prefilter.counters();
  out->Set("prefilter.hit_rate",
           counters.Total() > 0 ? static_cast<double>(counters.Hits()) /
                                      static_cast<double>(counters.Total())
                                : 0,
           "fraction");
}

}  // namespace perfbench
