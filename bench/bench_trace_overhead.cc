// Tracing-overhead benchmark: the fig6 utilization workload (SNV
// variant calling, S3 ingest) run with execution tracing off vs. on.
//
// Tracing must be free twice over:
//
//   virtual cost  — a tracer only *records*; enabling it must not
//                   change a single scheduling decision, so the
//                   traced run's virtual makespan must equal the
//                   untraced run's EXACTLY (same seed, same events).
//   wall cost     — the recording fast path (one relaxed load when
//                   disabled; a ring append when enabled) is gated at
//                   < 5 % wall-clock overhead: the median, over paired
//                   legs, of the on/off wall ratio (see
//                   docs/observability.md).
//
// One simulation takes ~10 ms, far too short to time against a 5 %
// margin, so each of a pair's two legs (tracing off, tracing on) runs the
// same simulation many times and keeps its fastest run (host interference
// only ever adds time). The legs' runs interleave, alternating which goes
// first, so drift in host speed favours neither, and the gate reads the
// median of the per-pair on/off ratios, which one disturbed pair cannot
// move.
//
// Also reports events recorded, events/sec, ns/event, and — because the
// trace should explain the run — the critical-path breakdown of the
// traced run. `--json` emits one JSON object for CI artifacts,
// `--quick` runs fewer pairs of shorter legs.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/client.h"
#include "src/infra/karamel.h"
#include "src/obs/trace_analyzer.h"
#include "src/obs/tracer.h"

namespace hiway {
namespace {

constexpr double kMaxOverheadFraction = 0.05;

struct RunOutcome {
  double virtual_makespan_s = 0.0;
  double wall_seconds = 0.0;
  uint64_t events_recorded = 0;
  uint64_t events_dropped = 0;
  std::vector<TraceEvent> events;  // traced runs only
};

Result<RunOutcome> RunOnce(int workers, uint64_t seed, bool tracing,
                           bool keep_events) {
  Karamel karamel;
  karamel.SetAttribute("cluster/workers", StrFormat("%d", workers + 2));
  karamel.SetAttribute("cluster/cores", "2");
  karamel.SetAttribute("cluster/memory_mb", "7680");
  karamel.SetAttribute("cluster/disk_mbps", "150");
  karamel.SetAttribute("cluster/nic_mbps", "62");
  karamel.SetAttribute("cluster/switch_mbps", "20000");
  karamel.SetAttribute("cluster/s3_mbps", "20000");
  karamel.SetAttribute("dfs/first_datanode", "2");
  karamel.SetAttribute("snv/chunks", StrFormat("%d", workers * 8));
  karamel.SetAttribute("snv/chunk_mb", "512");
  karamel.SetAttribute("snv/cram", "1");
  karamel.SetAttribute("snv/ingest", "s3");
  karamel.SetAttribute("seed",
                       StrFormat("%llu", (unsigned long long)seed));
  karamel.AddRecipe(HadoopInstallRecipe());
  karamel.AddRecipe(HiWayInstallRecipe());
  karamel.AddRecipe(SnvWorkflowRecipe());
  HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> d, karamel.Converge());
  d->tracer.set_enabled(tracing);

  HiWayClient client(d.get());
  HiWayOptions options;
  options.container_vcores = 2;
  options.container_memory_mb = 7000;
  options.am_node = 1;
  options.am_vcores = 2;
  options.am_memory_mb = 7000;
  options.seed = seed;
  HIWAY_ASSIGN_OR_RETURN(
      ApplicationId blocker,
      d->rm->RegisterApplication("hadoop-masters", nullptr, 2, 7000, 0));
  (void)blocker;

  auto wall_start = std::chrono::steady_clock::now();
  HIWAY_ASSIGN_OR_RETURN(WorkflowReport report,
                         client.Run("snv-calling", "fcfs", options));
  auto wall_end = std::chrono::steady_clock::now();
  HIWAY_RETURN_IF_ERROR(report.status);

  RunOutcome out;
  out.virtual_makespan_s = report.Makespan();
  out.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  TracerStats stats = d->tracer.Stats();
  out.events_recorded = stats.recorded;
  out.events_dropped = stats.dropped;
  if (keep_events) out.events = d->tracer.Drain();
  return out;
}

int Main(int argc, char** argv) {
  bool quick = bench::QuickMode(argc, argv);
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") json = true;
  }
  const int workers = 8;
  const int pairs = quick ? 11 : 15;
  const int runs_per_leg = quick ? 20 : 32;

  // Untimed warm-up: first simulation pays allocator / page-fault
  // costs that would otherwise be charged to the "off" leg.
  (void)RunOnce(workers, 42, /*tracing=*/false, /*keep_events=*/false);

  if (!json) {
    std::printf("bench_trace_overhead: fig6 SNV workload, %d workers, "
                "%d paired legs of %d runs (tracing off vs. on)\n\n",
                workers, pairs, runs_per_leg);
  }

  std::vector<double> wall_off, wall_on, ratios;
  double makespan_off = -1.0, makespan_on = -1.0;
  uint64_t events_recorded = 0, events_dropped = 0;
  double traced_wall_total = 0.0;
  std::vector<TraceEvent> sample_events;
  const uint64_t seed = 42;  // identical seed: paired runs, same schedule
  // One run; folds it into the gates' state and returns its wall time,
  // or a negative value on failure.
  auto run_once = [&](bool tracing, bool keep) -> double {
    auto run = RunOnce(workers, seed, tracing, keep);
    if (!run.ok()) {
      std::fprintf(stderr, "%s run failed: %s\n",
                   tracing ? "traced" : "untraced",
                   run.status().ToString().c_str());
      return -1.0;
    }
    if (tracing) {
      makespan_on = run->virtual_makespan_s;
      events_recorded = run->events_recorded;
      events_dropped = std::max(events_dropped, run->events_dropped);
      traced_wall_total += run->wall_seconds;
      if (keep) sample_events = std::move(run->events);
    } else {
      makespan_off = run->virtual_makespan_s;
    }
    // Gate 1: recording must not perturb the simulation.
    if (makespan_on >= 0.0 && makespan_off >= 0.0 &&
        makespan_off != makespan_on) {
      std::fprintf(stderr,
                   "FAIL: tracing changed the virtual makespan "
                   "(%.6f != %.6f)\n",
                   makespan_off, makespan_on);
      return -1.0;
    }
    return run->wall_seconds;
  };
  for (int p = 0; p < pairs; ++p) {
    // The two legs' runs interleave, alternating which goes first, so
    // both legs see the same phases of host speed.
    double off = std::numeric_limits<double>::infinity();
    double on = std::numeric_limits<double>::infinity();
    for (int i = 0; i < runs_per_leg; ++i) {
      bool on_first = (p + i) % 2 == 1;
      for (bool tracing : {on_first, !on_first}) {
        double wall = run_once(tracing, tracing && p == 0 && i == 0);
        if (wall < 0.0) return 1;
        double& fastest = tracing ? on : off;
        fastest = std::min(fastest, wall);
      }
    }
    wall_off.push_back(off);
    wall_on.push_back(on);
    ratios.push_back(off > 0.0 ? on / off : 1.0);
    if (!json) {
      std::printf("  pair %d: fastest run off=%.4fs on=%.4fs ratio %.4f  "
                  "virtual off=%.1fs on=%.1fs\n",
                  p, off, on, ratios.back(), makespan_off, makespan_on);
    }
  }

  double med_off = bench::Median(wall_off);
  double med_on = bench::Median(wall_on);
  double overhead = bench::Median(ratios) - 1.0;
  double runs_on = static_cast<double>(pairs) * runs_per_leg;
  double events_per_sec =
      traced_wall_total > 0.0
          ? static_cast<double>(events_recorded) * runs_on / traced_wall_total
          : 0.0;
  double ns_per_event =
      events_recorded > 0
          ? (med_on - med_off) * 1e9 / static_cast<double>(events_recorded)
          : 0.0;

  TraceAnalyzer analyzer(std::move(sample_events));
  CriticalPathReport path = analyzer.CriticalPath();

  // Gate 2: < 5 % wall-clock overhead (median per-pair ratio).
  bool pass = overhead < kMaxOverheadFraction && events_dropped == 0;

  if (json) {
    std::printf(
        "{\"bench\": \"trace_overhead\", \"workers\": %d, \"pairs\": %d, "
        "\"runs_per_leg\": %d, "
        "\"wall_median_off_s\": %.6f, \"wall_median_on_s\": %.6f, "
        "\"overhead_fraction\": %.6f, \"overhead_gate\": %.2f, "
        "\"virtual_makespan_s\": %.3f, \"virtual_makespan_identical\": %s, "
        "\"events_recorded\": %llu, \"events_dropped\": %llu, "
        "\"events_per_sec\": %.0f, \"marginal_ns_per_event\": %.1f, "
        "\"critical_path\": {\"total_s\": %.3f, \"wait_s\": %.3f, "
        "\"data_s\": %.3f, \"compute_s\": %.3f, \"steps\": %zu}, "
        "\"pass\": %s}\n",
        workers, pairs, runs_per_leg, med_off, med_on, overhead,
        kMaxOverheadFraction,
        makespan_on, makespan_off == makespan_on ? "true" : "false",
        (unsigned long long)events_recorded,
        (unsigned long long)events_dropped, events_per_sec, ns_per_event,
        path.total_s, path.wait_s, path.data_s, path.compute_s,
        path.steps.size(), pass ? "true" : "false");
  } else {
    std::printf("\n  median fastest run: off=%.4fs on=%.4fs; median on/off "
                "ratio -> overhead %.2f%% (gate < %.0f%%)\n",
                med_off, med_on, overhead * 100.0,
                kMaxOverheadFraction * 100.0);
    std::printf("  events: %llu recorded, %llu dropped (%.0f events/s, "
                "%.1f marginal ns/event)\n",
                (unsigned long long)events_recorded,
                (unsigned long long)events_dropped, events_per_sec,
                ns_per_event);
    std::printf("  %s\n", path.Summary().c_str());
    std::printf("  virtual makespans identical across all paired runs\n");
    std::printf("\n%s\n", pass ? "PASS" : "FAIL");
  }
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace hiway

int main(int argc, char** argv) { return hiway::Main(argc, argv); }
