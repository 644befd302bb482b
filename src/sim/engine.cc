#include "src/sim/engine.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/common/logging.h"

namespace hiway {

namespace {
// Compact only when the cancel set is both large in absolute terms and
// makes up at least half the heap: the sweep is O(heap), so amortising
// it against the cancels keeps total work linear in events scheduled.
constexpr size_t kCompactMinCancelled = 1024;
}  // namespace

EventId SimEngine::ScheduleAt(SimTime at, std::function<void()> fn) {
  return ScheduleReserved(at, ReserveSeq(), std::move(fn));
}

EventId SimEngine::ScheduleReserved(SimTime at, uint64_t seq,
                                    std::function<void()> fn) {
  HIWAY_CHECK(seq < next_seq_);
  if (at < now_) at = now_;
  EventId id = next_id_++;
  heap_.push_back(Event{at, seq, id, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  if (heap_.size() > peak_pending_) peak_pending_ = heap_.size();
  return id;
}

void SimEngine::Cancel(EventId id) {
  if (id == 0 || id >= next_id_) return;
  cancelled_.insert(id);
  if (cancelled_.size() >= kCompactMinCancelled &&
      cancelled_.size() * 2 >= heap_.size()) {
    Compact();
  }
}

void SimEngine::Compact() {
  auto dead = [this](const Event& e) { return cancelled_.count(e.id) > 0; };
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(), dead), heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  // Every live event sits in the heap, so any id still in the cancel set
  // after the sweep referred to an already-fired event; drop them all.
  cancelled_.clear();
  ++compactions_;
}

void SimEngine::CancelDeferred(DeferredWork* work) {
  deferred_.erase(std::remove(deferred_.begin(), deferred_.end(), work),
                  deferred_.end());
}

void SimEngine::RunDeferredWork() {
  while (!deferred_.empty()) {
    DeferredWork* work = deferred_.front();
    deferred_.erase(deferred_.begin());
    work->RunDeferred();
  }
}

bool SimEngine::PopAndRunNext(SimTime limit) {
  if (!deferred_.empty()) RunDeferredWork();
  while (!heap_.empty()) {
    if (heap_.front().time > limit) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    if (!cancelled_.empty() && cancelled_.erase(ev.id) > 0) continue;
    HIWAY_CHECK(ev.time >= now_);
    now_ = ev.time;
    ++events_executed_;
    ev.fn();
    return true;
  }
  return false;
}

void SimEngine::Run() {
  while (PopAndRunNext(std::numeric_limits<SimTime>::infinity())) {
  }
}

void SimEngine::RunUntil(SimTime until) {
  while (PopAndRunNext(until)) {
  }
  if (until > now_) now_ = until;
}

bool SimEngine::RunUntilPredicate(const std::function<bool()>& pred) {
  if (pred()) return true;
  while (PopAndRunNext(std::numeric_limits<SimTime>::infinity())) {
    if (pred()) return true;
  }
  return pred();
}

}  // namespace hiway
