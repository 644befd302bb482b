// The benchmark's three workloads (README.md says why each exists).
//
//  * snv-cuneiform — SNV calling written in Cuneiform on the Fig. 4
//    cluster, placed by the data-aware scheduler. Stresses the front-end
//    interpreter, which re-sweeps the program on every completion.
//  * snv-static    — the same task graph handed to the same AM as a
//    StaticWorkflowSource. The front-end does no work here.
//  * service-mixed — the multi-tenant WorkflowService under the fair RM:
//    four workflow kinds over two queues, every instance submitted twice
//    in an open loop, result cache and intermediate GC on.
//
// RunOnce builds one deployment from the seed (set-up), runs the workload
// either untraced (the program's own engine loop) or traced (every seam
// probed, see probes.h), and checks the outputs.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/result.h"

namespace perfbench {

struct WorkloadConfig {
  std::string name;
  /// snv-*: 128 MB read chunks, four tasks each.
  int snv_chunks = 0;
  /// service-mixed: instances of each of the four workflow kinds; every
  /// instance is submitted twice.
  int service_instances_per_kind = 0;
};

/// The benchmark's configuration of a named workload; NotFound for an
/// unknown name.
hiway::Result<WorkloadConfig> StandardConfig(const std::string& name);

/// Names of every workload, in the order the README lists them.
std::vector<std::string> WorkloadNames();

struct RunOutcome {
  /// Host seconds: deployment converge, workload generation, input
  /// staging and source parsing; then first submit to last finish.
  double setup_s = 0.0;
  double host_wall_s = 0.0;
  /// Operations (workflow runs; service submissions) and how many failed:
  /// a non-OK report, a rejected or expired submission, or a missing
  /// target output. `failures` says why, one line each.
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  /// Tasks completed, including ones served from the result cache.
  int64_t tasks_completed = 0;
  /// Hash of every task's (run, id, node, start, finish) and of the DFS
  /// listing after the run: equal fingerprints mean equal schedules.
  uint64_t fingerprint = 0;
  /// Virtual results (identical for a seed, traced or not).
  double sim_makespan_s = 0.0;
  double sim_turnaround_p50_s = 0.0;
  double sim_turnaround_p95_s = 0.0;
  double sim_jain_fairness = 0.0;
  uint64_t engine_events = 0;
  /// Per-layer metrics, in report order (traced runs only).
  std::vector<std::pair<std::string, double>> layers;
};

/// Runs `config` once for `seed`. An error means the harness itself
/// could not run (bad configuration); workflow failures are counted in
/// the outcome instead.
hiway::Result<RunOutcome> RunOnce(const WorkloadConfig& config, uint64_t seed,
                                  bool traced);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
