// The benchmark's own tests, at reduced sizes:
//
//  1. Equal schedule: at equal chunk counts, snv-cuneiform and snv-static
//     simulate the same schedule (same virtual makespan, same number of
//     engine events), so the host-time gap between them is the front-end's.
//  2. Transparency and determinism: an untraced run, a second untraced run
//     and a traced run of one seed agree on the schedule fingerprint and
//     every virtual result; another seed does not.
//  3. Self-time accounting: in a traced run the probed layer spans plus
//     the engine's self time add up to the dispatch time, and dispatch
//     covers nearly all of the traced wall time.
//
// Run with `python3 perfbench/run.py --self-test` or `ctest` in the build
// directory. Prints one line per expectation; exits non-zero if any failed.

#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "perfbench/workloads.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

RunOutcome MustRun(const WorkloadConfig& config, uint64_t seed, bool traced) {
  auto outcome = RunOnce(config, seed, traced);
  if (!outcome.ok()) {
    std::printf("FAIL  %s: %s\n", config.name.c_str(),
                outcome.status().ToString().c_str());
    ++failures;
    return RunOutcome();
  }
  for (const std::string& f : outcome->failures) {
    std::printf("      %s: %s\n", config.name.c_str(), f.c_str());
  }
  return std::move(outcome).value();
}

WorkloadConfig Small(const std::string& name, int snv_chunks) {
  WorkloadConfig c = StandardConfig(name).value();
  if (c.snv_chunks > 0) c.snv_chunks = snv_chunks;
  if (c.service_instances_per_kind > 0) c.service_instances_per_kind = 6;
  return c;
}

bool SameSim(const RunOutcome& a, const RunOutcome& b) {
  return a.fingerprint == b.fingerprint &&
         a.sim_makespan_s == b.sim_makespan_s &&
         a.sim_turnaround_p50_s == b.sim_turnaround_p50_s &&
         a.sim_turnaround_p95_s == b.sim_turnaround_p95_s &&
         a.sim_jain_fairness == b.sim_jain_fairness &&
         a.tasks_completed == b.tasks_completed;
}

void EqualSchedule() {
  for (int chunks : {96, 384}) {
    RunOutcome cf = MustRun(Small("snv-cuneiform", chunks), 7, false);
    RunOutcome st = MustRun(Small("snv-static", chunks), 7, false);
    std::string at = " at " + std::to_string(chunks) + " chunks";
    Expect(cf.failed == 0 && st.failed == 0, "both front-ends succeed" + at);
    Expect(cf.sim_makespan_s == st.sim_makespan_s,
           "equal virtual makespan" + at + " (" +
               std::to_string(cf.sim_makespan_s) + " vs " +
               std::to_string(st.sim_makespan_s) + ")");
    Expect(cf.engine_events == st.engine_events,
           "equal engine events" + at + " (" +
               std::to_string(cf.engine_events) + " vs " +
               std::to_string(st.engine_events) + ")");
  }
}

std::map<std::string, double> Layers(const RunOutcome& r) {
  return {r.layers.begin(), r.layers.end()};
}

void TransparencyAndAccounting() {
  for (const std::string& name : WorkloadNames()) {
    WorkloadConfig config = Small(name, 96);
    RunOutcome a = MustRun(config, 11, false);
    RunOutcome b = MustRun(config, 11, false);
    RunOutcome t = MustRun(config, 11, true);
    RunOutcome other = MustRun(config, 12, false);
    Expect(a.failed == 0 && b.failed == 0 && t.failed == 0,
           name + ": runs succeed and pass their checks");
    Expect(SameSim(a, b), name + ": two same-seed runs agree");
    Expect(SameSim(a, t), name + ": traced run agrees with untraced");
    Expect(a.fingerprint != other.fingerprint,
           name + ": another seed gives another fingerprint");

    std::map<std::string, double> l = Layers(t);
    const double dispatch = l["sim.engine.dispatch_s"];
    const double self = l["sim.engine.self_s"];
    Expect(self >= 0.0 && self <= dispatch,
           name + ": engine self time within dispatch");
    Expect(l["obs.dispatch_coverage"] >= 0.8,
           name + ": events cover the traced wall time");
    if (name != "service-mixed") {
      // No span nests inside another here, so the disjoint layers and
      // the engine's self time must sum to dispatch exactly. (In the
      // service, a front-end's first sweep may run inside Submit.)
      const double sum = l["lang.init_s"] + l["lang.completed_s"] +
                         l["core.sched.select_s"] +
                         l["core.sched.enqueue_s"] + l["yarn.pass_s"] + self;
      Expect(std::fabs(sum - dispatch) <= 1e-9 * std::max(1.0, dispatch),
             name + ": layer spans + self time == dispatch");
    }
  }
}

int Main() {
  EqualSchedule();
  TransparencyAndAccounting();
  std::printf("%s: %d failed expectation(s)\n", failures ? "FAILED" : "PASSED",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main() { return perfbench::Main(); }
