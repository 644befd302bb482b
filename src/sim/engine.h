// Discrete-event simulation engine.
//
// All of hiway's "distributed" components (YARN, HDFS, the AM, tasks) run
// inside one SimEngine: they schedule callbacks at virtual timestamps and
// the engine executes them in time order. Ties are broken by insertion
// order, which makes runs fully deterministic.
//
// The pending-event store is an explicit binary heap over a contiguous
// vector (O(log n) push/pop, no per-event allocation beyond the closure),
// sized for millions of pending events. Cancellation is lazy: Cancel()
// only records the id, and a cancelled event is discarded when it
// surfaces at the heap top — except that once cancelled entries make up
// a large fraction of the heap, the engine compacts: it filters them out
// in one O(n) sweep and re-heapifies, so a cancel-heavy workload (e.g.
// thousands of AMs re-arming heartbeat timers) cannot grow the heap
// without bound. docs/scaling.md describes the scale model.
//
// A component can defer work to the end of the current event (Defer):
// the engine runs it before dispatching the next event, so many changes
// made in one event are processed once (the flow network's re-fill).

#ifndef HIWAY_SIM_ENGINE_H_
#define HIWAY_SIM_ENGINE_H_

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "src/common/status.h"

namespace hiway {

/// Virtual time in seconds since simulation start.
using SimTime = double;

/// Handle used to cancel a scheduled event.
using EventId = uint64_t;

/// Work a component defers to the end of the current event so that many
/// changes made in one event are processed once (the flow network's
/// re-fill). The engine runs it before it next dispatches an event.
class DeferredWork {
 public:
  virtual void RunDeferred() = 0;

 protected:
  ~DeferredWork() = default;
};

class SimEngine {
 public:
  SimEngine() = default;
  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  /// Current virtual time.
  SimTime Now() const { return now_; }

  /// Schedules `fn` to run at absolute virtual time `at` (clamped to Now()).
  EventId ScheduleAt(SimTime at, std::function<void()> fn);

  /// Reserves the tie-break position a ScheduleAt call would take now, for
  /// an event whose time is only known later (the flow network schedules
  /// its next completion once per event, after all of the event's
  /// changes). Events scheduled in between still order after it at equal
  /// timestamps.
  uint64_t ReserveSeq() { return next_seq_++; }

  /// Schedules `fn` at `at` (clamped to Now()) in the tie-break position
  /// `seq` previously returned by ReserveSeq().
  EventId ScheduleReserved(SimTime at, uint64_t seq, std::function<void()> fn);

  /// Runs `work->RunDeferred()` once before the engine next dispatches an
  /// event (or finds none due). Call at most once until it has run.
  void Defer(DeferredWork* work) { deferred_.push_back(work); }

  /// Withdraws a Defer() that has not run yet (e.g. its owner is being
  /// destroyed).
  void CancelDeferred(DeferredWork* work);

  /// Schedules `fn` to run `delay` seconds from now.
  EventId ScheduleAfter(SimTime delay, std::function<void()> fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  /// Cancels a pending event. Cancelling an already-fired or unknown event
  /// is a no-op.
  void Cancel(EventId id);

  /// Pre-sizes the heap for `n` pending events (avoids growth reallocs in
  /// large sweeps; purely an optimisation).
  void Reserve(size_t n) { heap_.reserve(n); }

  /// Runs events until the queue is empty.
  void Run();

  /// Runs events with timestamps <= `until`, then sets Now() to `until`.
  void RunUntil(SimTime until);

  /// Runs until `pred()` becomes true (checked after each event) or the
  /// queue empties. Returns true if the predicate was satisfied.
  bool RunUntilPredicate(const std::function<bool()>& pred);

  /// Number of events executed so far (for diagnostics / benchmarks).
  uint64_t events_executed() const { return events_executed_; }

  /// Number of events currently pending (cancelled-but-not-yet-discarded
  /// events excluded).
  size_t pending_events() const {
    size_t dead = cancelled_.size() < heap_.size() ? cancelled_.size()
                                                   : heap_.size();
    return heap_.size() - dead;
  }

  /// Lazy-cancellation compactions performed so far (diagnostics).
  uint64_t compactions() const { return compactions_; }

  /// High-water mark of the pending-event heap (diagnostics).
  size_t peak_pending() const { return peak_pending_; }

 private:
  struct Event {
    SimTime time;
    uint64_t seq;  // tie-break: FIFO within a timestamp
    EventId id;
    std::function<void()> fn;
  };
  /// Max-heap comparator that surfaces the *earliest* (time, seq).
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  bool PopAndRunNext(SimTime limit);

  /// Runs deferred work (which may schedule events) in Defer() order.
  void RunDeferredWork();

  /// Filters cancelled entries out of the heap in one sweep and
  /// re-heapifies. Every cancelled id is either discarded here or was
  /// never pending (already fired), so the cancel set is cleared too.
  void Compact();

  SimTime now_ = 0.0;
  uint64_t next_seq_ = 0;
  uint64_t next_id_ = 1;
  uint64_t events_executed_ = 0;
  uint64_t compactions_ = 0;
  size_t peak_pending_ = 0;
  std::vector<Event> heap_;
  std::unordered_set<EventId> cancelled_;
  std::vector<DeferredWork*> deferred_;
};

}  // namespace hiway

#endif  // HIWAY_SIM_ENGINE_H_
