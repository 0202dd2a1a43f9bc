// Benchmark set-up: registry graphs, seeded query streams, the query-stage
// index and the loopback server. Everything here counts toward setup_s.

#include <cstdio>
#include <string>

#include "core/distribution_labeling.h"
#include "core/hierarchical_labeling.h"
#include "datasets/registry.h"
#include "graph/topology.h"
#include "perfbench.h"
#include "server/snapshot.h"

namespace perfbench {
namespace {

constexpr size_t kStreamPairs = 1000000;
constexpr size_t kSmokeStreamPairs = 20000;
/// Set-up builds run on one thread, for the reason the build stage's timed
/// builds do (kBuildThreads in build_stage.cc).
constexpr int kSetupThreads = 1;

bool LoadGraph(const char* name, reach::Digraph* out) {
  reach::StatusOr<reach::DatasetSpec> spec = reach::FindDataset(name);
  if (!spec.ok()) {
    std::fprintf(stderr, "set-up: %s\n", spec.status().ToString().c_str());
    return false;
  }
  *out = reach::MakeDataset(*spec);
  // Streams are generated on the graph itself, so their pairs are valid
  // index queries only when the condensation is the identity.
  if (!reach::IsDag(*out)) {
    std::fprintf(stderr, "set-up: %s is not a DAG\n", name);
    return false;
  }
  return true;
}

/// A QueryMix stream over `g`. Negatives are verified against an HL
/// oracle, an algorithm independent of the DL index under test; positives
/// are forward walks and hold by construction.
bool MakeStream(const reach::Digraph& g, reach::QueryMix mix, uint64_t seed,
                const Options& options, Stream* out) {
  reach::HierarchicalLabelingOracle truth;
  reach::BuildOptions build;
  build.threads = kSetupThreads;
  const reach::Status built = truth.Build(g, build);
  if (!built.ok()) {
    std::fprintf(stderr, "set-up: truth build: %s\n",
                 built.ToString().c_str());
    return false;
  }
  reach::WorkloadOptions workload_options;
  workload_options.num_queries =
      options.smoke ? kSmokeStreamPairs : kStreamPairs;
  workload_options.seed = seed;
  const reach::Workload workload =
      reach::MakeMixWorkload(g, truth, workload_options, mix);
  out->pairs.clear();
  out->expected.clear();
  out->pairs.reserve(workload.queries.size());
  out->expected.reserve(workload.queries.size());
  for (const reach::Query& q : workload.queries) {
    out->pairs.emplace_back(q.from, q.to);
    out->expected.push_back(q.reachable ? 1 : 0);
  }
  if (options.flip_expected && !out->expected.empty()) {
    out->expected[0] ^= 1;
  }
  return true;
}

}  // namespace

Fixture::Fixture() = default;

Fixture::~Fixture() {
  if (server != nullptr) server->Stop();
  if (!cit_snapshot.empty()) std::remove(cit_snapshot.c_str());
  if (!p2p_snapshot.empty()) std::remove(p2p_snapshot.c_str());
}

std::unique_ptr<Fixture> SetUpFixture(const Options& options) {
  auto fx = std::make_unique<Fixture>();
  if (!LoadGraph("cit-Patents", &fx->cit) || !LoadGraph("p2p", &fx->p2p)) {
    return nullptr;
  }
  // The seed moves only the query streams; the registry graphs are fixed.
  if (!MakeStream(fx->cit, reach::QueryMix::kMixed, options.seed, options,
                  &fx->cit_stream) ||
      !MakeStream(fx->p2p, reach::QueryMix::kNegativeHeavy,
                  options.seed + 0x9e3779b9ULL, options, &fx->p2p_stream)) {
    return nullptr;
  }

  reach::BuildOptions build;
  build.threads = kSetupThreads;
  reach::StatusOr<reach::ReachabilityIndex> index =
      reach::ReachabilityIndex::Build(
          fx->cit, std::make_unique<reach::DistributionLabelingOracle>(),
          build);
  if (!index.ok()) {
    std::fprintf(stderr, "set-up: cit DL build: %s\n",
                 index.status().ToString().c_str());
    return nullptr;
  }
  fx->cit_dl.emplace(std::move(*index));

  reach::server::ServerOptions server_options;
  server_options.method = "DL";
  server_options.workers = 2;
  server_options.build_threads = kSetupThreads;
  fx->server = std::make_unique<reach::server::ReachServer>();
  const reach::Status started = fx->server->Start(fx->p2p, server_options);
  if (!started.ok()) {
    std::fprintf(stderr, "set-up: server start: %s\n",
                 started.ToString().c_str());
    return nullptr;
  }
  fx->cit_snapshot = options.work_dir + "/cit_dl.snap";
  fx->p2p_snapshot = options.work_dir + "/p2p_dl.snap";
  const reach::Status saved = reach::server::SaveIndexSnapshot(
      fx->p2p_snapshot, "DL", fx->p2p.num_vertices(), fx->p2p.num_edges(),
      fx->server->index()->oracle());
  if (!saved.ok()) {
    std::fprintf(stderr, "set-up: p2p snapshot: %s\n",
                 saved.ToString().c_str());
    return nullptr;
  }
  return fx;
}

}  // namespace perfbench
