// Host-time probes that wrap the simulator's public seams.
//
// The benchmark measures the program from the outside: it never edits the
// simulator. Each probe decorates one interface the simulator already
// exposes and records host-time spans around the calls that cross it:
//
//  * TimedSource     — a WorkflowSource decorator (the language front-end:
//                      Init and OnTaskCompleted, i.e. the Cuneiform
//                      re-sweep);
//  * TimedScheduler  — a WorkflowScheduler decorator (the AM task
//                      scheduler: SelectTask, EnqueueReady, RequestFor);
//  * RunTraced       — steps SimEngine::RunUntilPredicate with a predicate
//                      (run after every event) that times each event and
//                      samples the flow model's active-flow count.
//
// All spans land in one LayerLedger. The ledger tracks nesting so the
// engine's self time (event time not covered by any probed layer) can be
// derived exactly: a span opened while another is open is not counted
// again at top level.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/scheduler.h"
#include "src/lang/workflow.h"
#include "src/sim/engine.h"
#include "src/sim/flow.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Host time spent in one layer boundary.
struct SpanStats {
  int64_t total_ns = 0;
  int64_t calls = 0;
  /// Per-call durations in microseconds, in call order (kept only for
  /// layers whose distribution is reported).
  std::vector<double> call_us;

  double seconds() const { return static_cast<double>(total_ns) * 1e-9; }
};

/// Every span the probes record during one traced run.
struct LayerLedger {
  SpanStats lang_init;
  SpanStats lang_completed;
  int64_t lang_tasks_discovered = 0;

  SpanStats sched_select;
  SpanStats sched_enqueue;
  int64_t sched_selected = 0;  // SelectTask calls that returned a task
  double sched_queue_len_sum = 0.0;

  SpanStats service_submit;

  /// Open spans right now, and the host time of spans that were opened
  /// with nothing else open (no double counting of nested spans).
  int depth = 0;
  int64_t top_level_ns = 0;
};

/// RAII span: adds its duration to `stats` and, when it is outermost, to
/// the ledger's top-level total.
class ScopedSpan {
 public:
  ScopedSpan(LayerLedger* ledger, SpanStats* stats, bool keep_sample)
      : ledger_(ledger), stats_(stats), keep_sample_(keep_sample) {
    ++ledger_->depth;
    start_ns_ = NowNs();
  }
  ~ScopedSpan() {
    int64_t ns = NowNs() - start_ns_;
    stats_->total_ns += ns;
    ++stats_->calls;
    if (keep_sample_) stats_->call_us.push_back(static_cast<double>(ns) * 1e-3);
    if (--ledger_->depth == 0) ledger_->top_level_ns += ns;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  LayerLedger* ledger_;
  SpanStats* stats_;
  bool keep_sample_;
  int64_t start_ns_ = 0;
};

/// Front-end decorator. Owns the wrapped source.
class TimedSource : public hiway::WorkflowSource {
 public:
  TimedSource(std::unique_ptr<hiway::WorkflowSource> inner,
              LayerLedger* ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}

  std::string name() const override { return inner_->name(); }
  bool IsStatic() const override { return inner_->IsStatic(); }
  hiway::Result<std::vector<hiway::TaskSpec>> Init() override;
  hiway::Result<std::vector<hiway::TaskSpec>> OnTaskCompleted(
      const hiway::TaskResult& result) override;
  bool IsDone() const override { return inner_->IsDone(); }
  std::vector<std::string> Targets() const override {
    return inner_->Targets();
  }

 private:
  std::unique_ptr<hiway::WorkflowSource> inner_;
  LayerLedger* ledger_;
};

/// AM task-scheduler decorator. Owns the wrapped scheduler.
class TimedScheduler : public hiway::WorkflowScheduler {
 public:
  TimedScheduler(std::unique_ptr<hiway::WorkflowScheduler> inner,
                 LayerLedger* ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}

  std::string name() const override { return inner_->name(); }
  bool IsStatic() const override { return inner_->IsStatic(); }
  hiway::Status BuildStaticSchedule(
      const std::vector<hiway::TaskSpec>& tasks,
      const hiway::TaskDependencies& deps,
      const std::vector<hiway::NodeId>& nodes) override {
    return inner_->BuildStaticSchedule(tasks, deps, nodes);
  }
  void EnqueueReady(const hiway::TaskSpec& task) override;
  hiway::ContainerRequest RequestFor(const hiway::TaskSpec& task) override;
  std::optional<hiway::TaskId> SelectTask(hiway::NodeId node) override;
  void RemoveTask(hiway::TaskId id) override { inner_->RemoveTask(id); }
  size_t QueuedCount() const override { return inner_->QueuedCount(); }

 private:
  std::unique_ptr<hiway::WorkflowScheduler> inner_;
  LayerLedger* ledger_;
};

/// Per-event timing and flow sampling while the engine runs.
struct EngineTrace {
  /// Host time spent inside events (the probe's own bookkeeping
  /// excluded; a caller may add work it did outside the engine on the
  /// program's behalf).
  int64_t dispatch_ns = 0;
  std::vector<double> event_us;
  double active_flows_sum = 0.0;
  size_t active_flows_peak = 0;
};

/// Steps `engine` with a timing predicate until `done()` holds (or the
/// event queue empties). Returns whether `done()` was reached.
bool RunTraced(hiway::SimEngine* engine, const hiway::FlowNetwork& net,
               const std::function<bool()>& done, EngineTrace* trace);

/// Mean per-call cost of the last tenth of calls over the first tenth: how
/// much more a call costs as the run progresses. 0 with fewer than ten
/// calls.
double CostGrowth(const std::vector<double>& call_us);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
