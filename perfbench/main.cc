// reach_perfbench: the repository's end-to-end benchmark.
//
//   reach_perfbench --workload build_cit|query_cit|serve_p2p --seed N
//                   --seconds S --trace 0|1 --work-dir DIR
//                   [--smoke] [--flip-expected]
//
// Prints an environment stamp line, a human-readable metric table on
// stderr, and as its last stdout line one JSON object with every metric it
// measured and the failure tallies:
//   {"attempted": ..., "failed": ..., "failed_by_stage": {...},
//    "metrics": {"name": {"value": ..., "unit": "..."}, ...}}
// perfbench/run.py builds this binary, runs it, and turns that line into
// the result for the metrics BENCHMARK.json declares; LAYERS.md maps every
// metric to its layer.

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>

#include "perfbench.h"
#include "util/resource.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

/// The stage a workload spends its run on, and the end-to-end metric whose
/// traced / untraced ratio is the workload's trace_overhead.
struct WorkloadSpec {
  const char* name;
  StageKind focus;
  const char* overhead_metric;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"build_cit", StageKind::kBuild, "build_dl_s"},
    {"query_cit", StageKind::kQuery, "query_ns_p50"},
    {"serve_p2p", StageKind::kServe, "q_p50_us"},
};

/// Share of --seconds the workload's focus stage gets; the other two stages
/// split the rest, which keeps enough samples of their metrics that those
/// still repeat within their bounds. Smoke runs give each stage one
/// repetition (the serve stage a fixed window).
constexpr double kFocusShare = 0.5;
constexpr double kSmokeSeconds[] = {0, 0, 0.3};
/// The stages take turns in this many rounds, each stage running its share
/// of every round.
constexpr int kRounds = 10;

int Usage(const char* why) {
  std::fprintf(stderr,
               "reach_perfbench: %s\n"
               "usage: reach_perfbench --workload build_cit|query_cit|"
               "serve_p2p --seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--smoke] [--flip-expected]\n",
               why);
  return 2;
}

bool ParseUnsigned(const char* text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    return false;
  }
  *out = value;
  return true;
}

/// A run length in (0, 600] seconds, as a decimal.
bool ParseSeconds(const char* text, double* out) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (errno != 0 || end == text || *end != '\0' || !(value > 0) ||
      value > 600) {
    return false;
  }
  *out = value;
  return true;
}

/// Build facts that decide whether timings mean anything. Returns the
/// reason to refuse, or an empty string.
std::string BuildRefusal() {
#ifndef NDEBUG
  return "assertions are enabled (NDEBUG undefined)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
  if (std::string_view(PERFBENCH_BUILD_TYPE) == "Debug") {
    return "Debug build";
  }
  if (std::string_view(PERFBENCH_SANITIZE) != "") {
    return std::string("built with REACH_SANITIZE=") + PERFBENCH_SANITIZE;
  }
  return "";
}

void PrintEnvironment(const Options& options) {
  std::printf(
      "{\"env\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"smoke\": %s, \"nproc\": %d, \"simd_kernel\": \"%s\", "
      "\"simd_enabled\": %s, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"ndebug\": true, \"sanitizers\": \"%s\"}}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, options.smoke ? "true" : "false",
      options.threads, reach::SimdKernelName(),
      reach::SimdEnabled() ? "true" : "false", __VERSION__,
      PERFBENCH_BUILD_TYPE, PERFBENCH_SANITIZE);
}

constexpr const char* kStageNames[] = {"build", "query", "serve"};

/// The run's last stdout line: every metric it measured and the tallies,
/// also per stage ("<stage>" for the end-to-end loop, "<stage>_layers" for
/// the traced probes). run.py picks the metrics BENCHMARK.json declares.
void PrintMeasured(const Tally& total, const Tally (&loops)[3],
                   const Tally (&layers)[3], const Metrics& metrics) {
  std::string stages;
  for (size_t s = 0; s < 3; ++s) {
    for (const bool layer : {false, true}) {
      const Tally& t = layer ? layers[s] : loops[s];
      if (!stages.empty()) stages += ", ";
      stages += "\"" + std::string(kStageNames[s]) +
                (layer ? "_layers" : "") +
                "\": " + std::to_string(t.failed);
    }
  }
  std::string json = "{\"attempted\": " + std::to_string(total.attempted);
  json += ", \"failed\": " + std::to_string(total.failed);
  json += ", \"failed_by_stage\": {" + stages + "}, \"metrics\": {";
  char value[64];
  for (const Metric& m : metrics.items()) {
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (&m != &metrics.items().front()) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

using LayerFn = void (*)(const Fixture&, const Options&, const StageRun&,
                         Tally*, Metrics*);
constexpr LayerFn kLayerFns[] = {BuildLayers, QueryLayers, ServeLayers};
constexpr const char* kStageSpans[] = {"stage.build", "stage.query",
                                       "stage.serve"};

int Run(int argc, char** argv) {
  Options options;
  bool have_trace = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    uint64_t number = 0;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--flip-expected") {
      options.flip_expected = true;
    } else if (!has_value) {
      return Usage("missing value or unknown flag");
    } else if (arg == "--workload") {
      options.workload = argv[++i];
    } else if (arg == "--work-dir") {
      options.work_dir = argv[++i];
    } else if (arg == "--seed" && ParseUnsigned(argv[i + 1], &number)) {
      options.seed = number;
      ++i;
    } else if (arg == "--seconds" && ParseSeconds(argv[i + 1],
                                                  &options.seconds)) {
      have_seconds = true;
      ++i;
    } else if (arg == "--trace" && ParseUnsigned(argv[i + 1], &number) &&
               number <= 1) {
      options.trace = number == 1;
      have_trace = true;
      ++i;
    } else {
      return Usage(("bad argument " + std::string(arg)).c_str());
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (options.workload == w.name) spec = &w;
  }
  if (spec == nullptr) return Usage("unknown --workload");
  if (!have_trace || !have_seconds || options.work_dir.empty()) {
    return Usage("--seconds, --trace and --work-dir are required");
  }
  const std::string refusal = BuildRefusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "reach_perfbench: refusing to time a %s\n",
                 refusal.c_str());
    return 3;
  }
  options.threads = static_cast<int>(reach::HardwareThreads());
  PrintEnvironment(options);
  std::fflush(stdout);

  // Snapshots go to a per-process directory; traces stay for inspection.
  const std::string root = options.work_dir;
  options.work_dir = root + "/run-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "reach_perfbench: cannot create %s\n",
                 options.work_dir.c_str());
    return 1;
  }

  const int64_t setup_start = NowNs();
  std::unique_ptr<Fixture> fx = SetUpFixture(options);
  if (fx == nullptr) return 1;
  Metrics metrics;
  metrics.Set("setup_s", static_cast<double>(NowNs() - setup_start) / 1e9,
              "s");
  Tally loop_tally[3];
  Tally layer_tally[3];
  Tracer tracer(options.trace);
  Tracer untraced(false);

  // One entry per end-to-end loop. In a traced run the focus stage gets two
  // loops sharing its time, one untraced: the ratio of their headline
  // metrics is the tracing overhead.
  struct Scheduled {
    std::unique_ptr<StageLoop> loop;
    size_t stage;
    Tracer* tracer;
    double total_s;
    double spent_s = 0;
    bool ran = false;
  };
  const size_t focus = static_cast<size_t>(spec->focus);
  const double focus_s = options.seconds * kFocusShare;
  const double minor_s = (options.seconds - focus_s) / 2;
  const auto make_loop = [&](size_t s) -> std::unique_ptr<StageLoop> {
    switch (static_cast<StageKind>(s)) {
      case StageKind::kBuild:
        return MakeBuildLoop(*fx, options, &loop_tally[s]);
      case StageKind::kQuery:
        return MakeQueryLoop(*fx, &loop_tally[s]);
      case StageKind::kServe:
        return MakeServeLoop(*fx, &loop_tally[s]);
    }
    return nullptr;
  };
  std::vector<Scheduled> loops;
  for (size_t s = 0; s < 3; ++s) {
    const double total_s = options.smoke ? kSmokeSeconds[s]
                           : s == focus  ? focus_s
                                         : minor_s;
    if (options.trace && s == focus) {
      loops.push_back({make_loop(s), s, &untraced, total_s / 2});
      loops.push_back({make_loop(s), s, &tracer, total_s / 2});
    } else {
      loops.push_back({make_loop(s), s, &tracer, total_s});
    }
  }
  const int rounds = options.smoke ? 1 : kRounds;
  for (int r = 0; r < rounds; ++r) {
    for (Scheduled& l : loops) {
      const double target_s = l.total_s * (r + 1) / rounds;
      if (l.ran && l.spent_s >= target_s) continue;
      ScopedSpan span(l.tracer, kStageSpans[l.stage], -1,
                      static_cast<StageKind>(l.stage));
      StageRun run;
      run.tracer = l.tracer;
      run.parent = span.id();
      const int64_t start = NowNs();
      l.loop->Slice(start + static_cast<int64_t>((target_s - l.spent_s) * 1e9),
                    run);
      l.spent_s += static_cast<double>(NowNs() - start) / 1e9;
      l.ran = true;
    }
  }
  Metrics untraced_metrics;
  for (const Scheduled& l : loops) {
    l.loop->Finish(l.tracer == &untraced ? &untraced_metrics : &metrics);
  }

  if (options.trace) {
    const double off =
        untraced_metrics.Get(spec->overhead_metric).value_or(0);
    const double on = metrics.Get(spec->overhead_metric).value_or(0);
    metrics.Set("trace_overhead", off > 0 ? on / off : 0, "ratio");
    for (size_t s = 0; s < 3; ++s) {
      const StageKind kind = static_cast<StageKind>(s);
      ScopedSpan span(&tracer, kStageSpans[s], -1, kind);
      StageRun run;
      run.tracer = &tracer;
      run.parent = span.id();
      run.budget_s = s == focus && !options.smoke ? focus_s / 2 : 0;
      kLayerFns[s](*fx, options, run, &layer_tally[s], &metrics);
    }
  }
  metrics.Set("peak_rss_mb",
              static_cast<double>(reach::PeakRssKb()) * 1024.0 / 1e6, "MB");

  std::fprintf(stderr, "%-28s %16s %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics.items()) {
    std::fprintf(stderr, "%-28s %16.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  Tally tally;
  for (const Tally* tallies : {loop_tally, layer_tally}) {
    for (size_t s = 0; s < 3; ++s) {
      tally.attempted += tallies[s].attempted;
      tally.failed += tallies[s].failed;
    }
  }
  std::fprintf(stderr, "%-28s %16.6g fraction\n", "error_rate",
               tally.attempted > 0 ? static_cast<double>(tally.failed) /
                                         static_cast<double>(tally.attempted)
                                   : 0);
  if (options.trace) {
    const std::string traces = root + "/traces";
    std::filesystem::create_directories(traces, ec);
    WriteTrace(tracer, traces + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + ".jsonl");
  }
  fx.reset();
  std::filesystem::remove_all(options.work_dir, ec);

  PrintMeasured(tally, loop_tally, layer_tally, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
