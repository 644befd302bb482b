// Benchmark entry point: runs one workload for a fixed host-time budget and
// prints its metrics, the last line being one JSON object.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// A first repetition warms the heap and caches up and is left out of the
// medians. Then --trace 0 repeats untraced runs of the workload (each one
// sets up its own deployment from the seed) while the budget lasts, and
// reports the end-to-end metrics as medians over the repetitions.
// --trace 1 alternates untraced and traced runs and reports the per-layer
// metrics, medians over the traced repetitions. No repetition starts that
// would, at the pace of the slowest one so far, end past the budget. Every
// repetition's outputs are checked, the warm-up's too, and all repetitions
// of a seed must produce the same schedule fingerprint and the same
// virtual results; a mismatch counts as a failed operation.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/probes.h"
#include "perfbench/workloads.h"
#include "src/core/metrics.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || args->seconds <= 0.0 ||
          args->seconds > 120.0) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Unit of a per-layer metric, from its name.
std::string LayerUnit(const std::string& name) {
  auto ends_with = [&](const char* suffix) {
    std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends_with("wait_p95_s")) return "sim_s";  // virtual time
  if (ends_with("_us_p50") || ends_with("_us_p99")) return "us";
  if (ends_with("_ns_per_event")) return "ns";
  if (ends_with("_mb")) return "MB";
  if (ends_with("_s")) return "s";
  if (ends_with("_ratio") || ends_with("_frac") || ends_with("_growth") ||
      ends_with("_coverage")) {
    return "ratio";
  }
  return "count";
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The virtual results every repetition of a seed must reproduce.
struct SimResult {
  uint64_t fingerprint = 0;
  double makespan = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double jain = 0.0;
  int64_t tasks = 0;
  bool operator==(const SimResult&) const = default;
};

SimResult SimOf(const RunOutcome& o) {
  return {o.fingerprint,          o.sim_makespan_s,    o.sim_turnaround_p50_s,
          o.sim_turnaround_p95_s, o.sim_jain_fairness, o.tasks_completed};
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  auto config = StandardConfig(args.workload);
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return 2;
  }

  // After the warm-up (repetition 0), at least three timed repetitions
  // for a median (two of each kind when tracing, alternating so both
  // kinds see the same machine), then as many as the budget allows.
  const int min_reps = 1 + (args.trace ? 4 : 3);
  const int64_t budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  const int64_t start = NowNs();
  int64_t slowest_rep_ns = 0;
  std::vector<RunOutcome> untraced;
  std::vector<RunOutcome> traced;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  SimResult reference;
  double first_rep_rss_mb = 0.0;
  for (int rep = 0;
       rep < min_reps || NowNs() - start + slowest_rep_ns <= budget_ns;
       ++rep) {
    const bool trace_this = args.trace && rep % 2 == 0 && rep > 0;
    const int64_t rep_start = NowNs();
    auto outcome = RunOnce(*config, args.seed, trace_this);
    slowest_rep_ns = std::max(slowest_rep_ns, NowNs() - rep_start);
    if (!outcome.ok()) {
      std::fprintf(stderr, "harness error: %s\n",
                   outcome.status().ToString().c_str());
      return 1;
    }
    std::printf("run %d%s: setup %.4f s, wall %.4f s, %lld events\n", rep,
                rep == 0 ? " (warm-up)" : trace_this ? " (traced)" : "",
                outcome->setup_s, outcome->host_wall_s,
                static_cast<long long>(outcome->engine_events));
    attempted += outcome->attempted;
    failed += outcome->failed;
    for (const std::string& f : outcome->failures) failures.push_back(f);
    // Determinism and transparency: every repetition of the seed, traced
    // or not, must reproduce the first one's schedule and results.
    SimResult sim = SimOf(*outcome);
    if (rep == 0) {
      reference = sim;
      // Later repetitions reuse (and fragment) the heap the first one
      // grew, so the process peak after one repetition is the workload's.
      first_rep_rss_mb = PeakRssMb();
    } else if (!(sim == reference)) {
      ++failed;
      failures.push_back(
          std::string("repetition ") + std::to_string(rep) +
          (trace_this ? " (traced)" : "") +
          " differs from repetition 0 in its schedule or virtual results");
    }
    if (rep > 0) {
      (trace_this ? traced : untraced).push_back(std::move(*outcome));
    }
  }

  auto median_of = [](const std::vector<RunOutcome>& runs, auto field) {
    std::vector<double> xs;
    for (const RunOutcome& r : runs) xs.push_back(field(r));
    return hiway::Percentile(std::move(xs), 50);  // nearest-rank median
  };
  const double wall = median_of(
      untraced, [](const RunOutcome& r) { return r.host_wall_s; });

  std::vector<Metric> metrics;
  if (!args.trace) {
    const RunOutcome& first = untraced.front();
    metrics = {
        {"host_wall_s", wall, "s"},
        {"tasks_per_host_s",
         median_of(untraced,
                   [](const RunOutcome& r) {
                     return static_cast<double>(r.tasks_completed) /
                            r.host_wall_s;
                   }),
         "1/s"},
        {"setup_s",
         median_of(untraced, [](const RunOutcome& r) { return r.setup_s; }),
         "s"},
        {"peak_rss_mb", first_rep_rss_mb, "MB"},
        {"ok_frac",
         1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
         "ratio"},
        {"sim_makespan_s", first.sim_makespan_s, "sim_s"},
        {"sim_turnaround_p50_s", first.sim_turnaround_p50_s, "sim_s"},
        {"sim_turnaround_p95_s", first.sim_turnaround_p95_s, "sim_s"},
        {"sim_jain_fairness", first.sim_jain_fairness, "ratio"},
    };
  } else {
    // Per-layer: medians over the traced repetitions, in report order.
    for (size_t i = 0; i < traced.front().layers.size(); ++i) {
      const std::string& name = traced.front().layers[i].first;
      metrics.push_back(
          {name,
           median_of(traced,
                     [i](const RunOutcome& r) { return r.layers[i].second; }),
           LayerUnit(name)});
    }
    const double traced_wall = median_of(
        traced, [](const RunOutcome& r) { return r.host_wall_s; });
    metrics.push_back(
        {"obs.trace_overhead_frac", traced_wall / wall - 1.0, "ratio"});
  }

  std::printf("workload %s  seed %llu  %zu untraced + %zu traced runs  "
              "(%lld operations, %lld failed)\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), untraced.size(),
              traced.size(), static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < failures.size() && i < 20; ++i) {
    std::printf("FAILED: %s\n", failures[i].c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
