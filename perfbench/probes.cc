#include "perfbench/probes.h"

#include <algorithm>

namespace perfbench {

hiway::Result<std::vector<hiway::TaskSpec>> TimedSource::Init() {
  hiway::Result<std::vector<hiway::TaskSpec>> tasks = [&] {
    ScopedSpan span(ledger_, &ledger_->lang_init, /*keep_sample=*/false);
    return inner_->Init();
  }();
  if (tasks.ok()) {
    ledger_->lang_tasks_discovered += static_cast<int64_t>(tasks->size());
  }
  return tasks;
}

hiway::Result<std::vector<hiway::TaskSpec>> TimedSource::OnTaskCompleted(
    const hiway::TaskResult& result) {
  hiway::Result<std::vector<hiway::TaskSpec>> tasks = [&] {
    ScopedSpan span(ledger_, &ledger_->lang_completed, /*keep_sample=*/true);
    return inner_->OnTaskCompleted(result);
  }();
  if (tasks.ok()) {
    ledger_->lang_tasks_discovered += static_cast<int64_t>(tasks->size());
  }
  return tasks;
}

void TimedScheduler::EnqueueReady(const hiway::TaskSpec& task) {
  ScopedSpan span(ledger_, &ledger_->sched_enqueue, /*keep_sample=*/false);
  inner_->EnqueueReady(task);
}

hiway::ContainerRequest TimedScheduler::RequestFor(
    const hiway::TaskSpec& task) {
  ScopedSpan span(ledger_, &ledger_->sched_enqueue, /*keep_sample=*/false);
  return inner_->RequestFor(task);
}

std::optional<hiway::TaskId> TimedScheduler::SelectTask(hiway::NodeId node) {
  ledger_->sched_queue_len_sum += static_cast<double>(inner_->QueuedCount());
  std::optional<hiway::TaskId> picked;
  {
    ScopedSpan span(ledger_, &ledger_->sched_select, /*keep_sample=*/true);
    picked = inner_->SelectTask(node);
  }
  if (picked.has_value()) ++ledger_->sched_selected;
  return picked;
}

bool RunTraced(hiway::SimEngine* engine, const hiway::FlowNetwork& net,
               const std::function<bool()>& done, EngineTrace* trace) {
  const uint64_t events_before = engine->events_executed();
  int64_t event_start = NowNs();
  bool reached = engine->RunUntilPredicate([&] {
    // RunUntilPredicate also asks once before the first event; only a
    // call that follows an executed event closes an event span.
    if (engine->events_executed() != events_before) {
      int64_t ns = NowNs() - event_start;
      trace->dispatch_ns += ns;
      trace->event_us.push_back(static_cast<double>(ns) * 1e-3);
      size_t flows = net.active_flows();
      trace->active_flows_sum += static_cast<double>(flows);
      trace->active_flows_peak = std::max(trace->active_flows_peak, flows);
    }
    bool finished = done();
    event_start = NowNs();
    return finished;
  });
  return reached;
}

double CostGrowth(const std::vector<double>& call_us) {
  size_t tenth = call_us.size() / 10;
  if (tenth == 0) return 0.0;
  double first = 0.0;
  double last = 0.0;
  for (size_t i = 0; i < tenth; ++i) {
    first += call_us[i];
    last += call_us[call_us.size() - tenth + i];
  }
  return first > 0.0 ? last / first : 0.0;
}

}  // namespace perfbench
