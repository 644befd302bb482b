// Scale sweep: nodes x concurrent workflows against the RM hot path
// (docs/scaling.md). Each synthetic workflow registers a zero-footprint
// AM (admission never blocks on AM capacity, so admission latency
// measures scheduler backlog, not AM placement), submits a fixed burst
// of 1-core task requests, and releases each container after a fixed
// simulated runtime. Demand exceeds cluster capacity on every grid
// point, so the RM carries a sustained pending backlog — the workload
// the incremental allocation pass exists for.
//
// Every grid point runs under allocation_mode=incremental and again
// under "full-scan" (the pre-refactor O(pending) scan per allocation).
// Three gates:
//   1. schedule-identical: the (app, node, vcores, time) allocation
//      stream fingerprint matches between modes on every point;
//   2. speedup: summed over the grid, full-scan spends >= 5x more host
//      wall-clock inside allocation passes than incremental does
//      (aggregate, so CI timing noise on one point cannot fail it);
//   3. p99 admission-to-first-container (simulated) <= 300 s everywhere.
//
// `--quick` shrinks the grid for CI; `--json` emits one JSON object for
// artifact collection. Exit code 1 when a gate fails.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/metrics.h"
#include "src/sim/cluster.h"
#include "src/sim/engine.h"
#include "src/sim/flow.h"
#include "src/yarn/yarn.h"

namespace hiway {
namespace {

constexpr int kTasksPerWorkflow = 16;
constexpr double kTaskDurationS = 2.0;
constexpr double kAdmissionStaggerS = 0.01;
constexpr int kQueues = 8;
constexpr double kP99BoundS = 300.0;

void Mix(uint64_t* h, uint64_t v) {
  *h ^= v + 0x9e3779b97f4a7c15ULL + (*h << 6) + (*h >> 2);
}

uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// One synthetic workflow: records its first allocation, runs every
/// container for kTaskDurationS, and unregisters once all tasks ran.
class ScaleAm : public AmCallbacks {
 public:
  void OnContainerAllocated(const Container& container,
                            int64_t /*cookie*/) override {
    if (container.is_am) return;
    if (first_alloc_at < 0.0) first_alloc_at = engine->Now();
    Mix(fingerprint, static_cast<uint64_t>(container.app));
    Mix(fingerprint, static_cast<uint64_t>(container.node));
    Mix(fingerprint, static_cast<uint64_t>(container.vcores));
    Mix(fingerprint, DoubleBits(engine->Now()));
    ContainerId id = container.id;
    engine->ScheduleAfter(kTaskDurationS, [this, id] {
      rm->ReleaseContainer(id);
      if (--remaining == 0) rm->UnregisterApplication(app);
    });
  }
  void OnContainerLost(const Container& /*container*/,
                       ContainerLossReason /*reason*/) override {}

  SimEngine* engine = nullptr;
  ResourceManager* rm = nullptr;
  uint64_t* fingerprint = nullptr;
  ApplicationId app = -1;
  double registered_at = 0.0;
  double first_alloc_at = -1.0;
  int remaining = kTasksPerWorkflow;
};

struct PointResult {
  int nodes = 0;
  int workflows = 0;
  std::string mode;
  uint64_t passes = 0;
  double wall_per_pass_us = 0.0;
  double p99_admission_s = 0.0;
  int64_t allocations = 0;
  uint64_t fingerprint = 1469598103934665603ULL;  // FNV-1a offset basis
  double host_wall_s = 0.0;
  bool all_admitted = false;
};

Result<PointResult> RunPoint(int nodes, int workflows,
                             const std::string& mode) {
  PointResult result;
  result.nodes = nodes;
  result.workflows = workflows;
  result.mode = mode;

  SimEngine engine;
  FlowNetwork net(&engine);
  NodeSpec node;
  node.cores = 4;
  node.memory_mb = 8192.0;
  Cluster cluster(&engine, &net, ClusterSpec::Uniform(nodes, node, 1000.0));
  YarnOptions options;
  options.scheduler = "fair";
  options.allocation_mode = mode;
  ResourceManager rm(&cluster, options);
  for (int q = 0; q < kQueues; ++q) {
    RmQueueConfig config;
    config.name = StrFormat("q%d", q);
    config.guaranteed_share = 1.0 / kQueues;
    config.max_share = 1.0;
    rm.ConfigureQueue(config);
  }

  engine.Reserve(static_cast<size_t>(workflows) * kTasksPerWorkflow + 64);
  std::vector<std::unique_ptr<ScaleAm>> ams;
  ams.reserve(static_cast<size_t>(workflows));
  for (int w = 0; w < workflows; ++w) {
    ams.push_back(std::make_unique<ScaleAm>());
    ScaleAm* am = ams.back().get();
    am->engine = &engine;
    am->rm = &rm;
    am->fingerprint = &result.fingerprint;
    std::string queue = StrFormat("q%d", w % kQueues);
    engine.ScheduleAt(w * kAdmissionStaggerS, [am, &rm, w, queue] {
      auto app = rm.RegisterApplication(StrFormat("wf-%04d", w), am, 0, 0.0,
                                        kInvalidNode, queue);
      if (!app.ok()) return;  // surfaces as all_admitted=false below
      am->app = *app;
      am->registered_at = am->engine->Now();
      ContainerRequest request;
      request.vcores = 1;
      request.memory_mb = 512.0;
      for (int t = 0; t < kTasksPerWorkflow; ++t) {
        rm.SubmitRequest(am->app, request);
      }
    });
  }

  auto start = std::chrono::steady_clock::now();
  engine.Run();
  result.host_wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  result.passes = rm.allocation_passes();
  result.wall_per_pass_us =
      result.passes == 0
          ? 0.0
          : rm.allocation_pass_wall_s() / static_cast<double>(result.passes) *
                1e6;
  result.allocations = rm.counters().allocations;
  std::vector<double> admission;
  result.all_admitted = true;
  for (const auto& am : ams) {
    if (am->app < 0 || am->first_alloc_at < 0.0) {
      result.all_admitted = false;
      continue;
    }
    admission.push_back(am->first_alloc_at - am->registered_at);
  }
  result.p99_admission_s = Percentile(admission, 99.0);
  return result;
}

bool JsonMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") return true;
  }
  return false;
}

int Main(int argc, char** argv) {
  bool quick = bench::QuickMode(argc, argv);
  bool json = JsonMode(argc, argv);

  struct GridPoint {
    int nodes;
    int workflows;
  };
  std::vector<GridPoint> grid;
  if (quick) {
    grid = {{50, 100}, {100, 100}, {250, 250}};
  } else {
    grid = {{100, 100}, {500, 500}, {1000, 1000}, {2000, 1000}};
  }

  if (!json) {
    bench::PrintHeader("RM hot-path scale sweep: nodes x workflows");
    std::printf("workload: %d x 1-core tasks per workflow, %.0fs runtime, "
                "fair scheduler, %d queues%s\n\n",
                kTasksPerWorkflow, kTaskDurationS, kQueues,
                quick ? "  [quick]" : "");
    std::printf("%6s %6s %-12s %8s %12s %10s %9s %10s\n", "nodes", "wfs",
                "mode", "passes", "us/pass", "p99-adm", "allocs",
                "host-wall");
    bench::PrintRule(80);
  }

  std::vector<PointResult> results;
  bool schedule_identical = true;
  bool p99_ok = true;
  double incremental_pass_wall_s = 0.0;
  double full_scan_pass_wall_s = 0.0;
  for (const GridPoint& point : grid) {
    // The incremental run's fingerprint (not a pointer into `results`,
    // which the full-scan run's push_back may reallocate).
    std::optional<uint64_t> incremental_fingerprint;
    for (const std::string mode : {"incremental", "full-scan"}) {
      auto r = RunPoint(point.nodes, point.workflows, mode);
      if (!r.ok()) {
        std::fprintf(stderr, "%dx%d %s: %s\n", point.nodes, point.workflows,
                     mode.c_str(), r.status().ToString().c_str());
        return 1;
      }
      if (!r->all_admitted) {
        std::fprintf(stderr, "%dx%d %s: a workflow never got a container\n",
                     point.nodes, point.workflows, mode.c_str());
        return 1;
      }
      if (r->p99_admission_s > kP99BoundS) p99_ok = false;
      results.push_back(*r);
      const PointResult& back = results.back();
      if (!json) {
        std::printf("%6d %6d %-12s %8llu %12.1f %9.2fs %9lld %9.2fs\n",
                    back.nodes, back.workflows, back.mode.c_str(),
                    static_cast<unsigned long long>(back.passes),
                    back.wall_per_pass_us, back.p99_admission_s,
                    static_cast<long long>(back.allocations),
                    back.host_wall_s);
      }
      if (mode == "incremental") {
        incremental_fingerprint = back.fingerprint;
        incremental_pass_wall_s +=
            back.wall_per_pass_us * static_cast<double>(back.passes) * 1e-6;
      } else if (incremental_fingerprint.has_value()) {
        if (back.fingerprint != *incremental_fingerprint) {
          schedule_identical = false;
        }
        full_scan_pass_wall_s +=
            back.wall_per_pass_us * static_cast<double>(back.passes) * 1e-6;
      }
    }
  }

  double speedup = incremental_pass_wall_s > 0.0
                       ? full_scan_pass_wall_s / incremental_pass_wall_s
                       : 0.0;
  bool speedup_ok = speedup >= 5.0;
  bool ok = schedule_identical && speedup_ok && p99_ok;

  if (json) {
    std::printf("{\"bench\":\"scale\",\"quick\":%s,\"grid\":[",
                quick ? "true" : "false");
    for (size_t i = 0; i < results.size(); ++i) {
      const PointResult& r = results[i];
      std::printf("%s{\"nodes\":%d,\"workflows\":%d,\"mode\":\"%s\","
                  "\"passes\":%llu,\"us_per_pass\":%.2f,"
                  "\"p99_admission_s\":%.3f,\"allocations\":%lld,"
                  "\"fingerprint\":\"%016llx\",\"host_wall_s\":%.3f}",
                  i == 0 ? "" : ",", r.nodes, r.workflows, r.mode.c_str(),
                  static_cast<unsigned long long>(r.passes),
                  r.wall_per_pass_us, r.p99_admission_s,
                  static_cast<long long>(r.allocations),
                  static_cast<unsigned long long>(r.fingerprint),
                  r.host_wall_s);
    }
    std::printf("],\"speedup_vs_full_scan\":%.2f,\"gates\":{"
                "\"schedule_identical\":%s,\"speedup_5x\":%s,"
                "\"p99_bound\":%s}}\n",
                speedup, schedule_identical ? "true" : "false",
                speedup_ok ? "true" : "false", p99_ok ? "true" : "false");
  } else {
    std::printf("\ngates:\n");
    std::printf("  schedule identical across modes: %s\n",
                schedule_identical ? "PASS" : "FAIL");
    std::printf("  incremental >= 5x full-scan, pass wall-clock summed over "
                "compared points: %.1fx %s\n",
                speedup, speedup_ok ? "PASS" : "FAIL");
    std::printf("  p99 admission-to-first-container <= %.0fs: %s\n",
                kP99BoundS, p99_ok ? "PASS" : "FAIL");
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace hiway

int main(int argc, char** argv) { return hiway::Main(argc, argv); }
