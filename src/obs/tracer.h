// Execution tracing (the observability layer the paper's evaluation
// implies: Figs. 4-9 reason about makespans through container timelines
// and per-task runtimes, but aggregate counters cannot explain *why* a
// number is what it is).
//
// A Tracer records typed span events — workflow → task attempt →
// container lifecycle (requested / allocated / localized / running /
// completed), plus RM scheduling passes, preemption kills, AM failover
// and provenance appends — timestamped with the simulated clock. The
// write path is designed to disappear: each thread appends to its own
// fixed-capacity ring buffer (single producer, no locks, no allocation;
// only a relaxed global sequence counter is shared), and a disabled
// tracer costs one relaxed atomic load per call site. Analysis is
// offline: Drain() merges the rings into global order for the
// TraceAnalyzer (src/obs/trace_analyzer.h) and the exporters
// (src/obs/exporters.h). See docs/observability.md.

#ifndef HIWAY_OBS_TRACER_H_
#define HIWAY_OBS_TRACER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/sim/engine.h"

namespace hiway {

/// What subsystem a span belongs to (the Chrome-trace "cat" field).
enum class SpanCategory : uint8_t {
  kWorkflow,    // one workflow run (AM attempt), submit -> terminal
  kTask,        // task-attempt lifecycle: ready/localize/execute/...
  kContainer,   // RM container lifecycle: requested/allocated/released
  kScheduler,   // RM allocation passes, AM scheduling decisions
  kPreemption,  // guarantee-restoring container kills
  kFailover,    // AM death, node loss, recovery attempts
  kProvenance,  // shard appends
  kCache,       // result-cache hits/seals, staging-cache hits/evictions
  kMembership,  // node join/drain/decommission, autoscaling, spot revokes
};

const char* ToString(SpanCategory category);

/// Span phase. Begin/End pairs (matched by category, name, and the
/// task/container id) form durations; kInstant marks a point in time.
enum class SpanPhase : uint8_t { kBegin, kEnd, kInstant };

/// One trace record. Plain data, fixed size, no heap: a producer writes
/// a slot with ordinary stores, so recording never allocates or locks.
/// `name` MUST point to a string with static storage duration (a
/// literal) — the ring stores the pointer, not the bytes.
struct TraceEvent {
  SpanCategory category = SpanCategory::kWorkflow;
  SpanPhase phase = SpanPhase::kInstant;
  const char* name = "";
  /// Simulated-clock timestamp, seconds.
  double timestamp = 0.0;
  /// Global record order (stamped by the tracer; ties in `timestamp`
  /// resolve by this, keeping drains deterministic).
  uint64_t seq = 0;
  // Identity of the thing the event is about; -1 = not applicable.
  int64_t app = -1;
  int64_t container = -1;
  int64_t task = -1;
  int64_t node = -1;
  /// Numeric payload: a duration in seconds, a count, a byte volume,
  /// or a peer task id — the event name says which.
  double value = 0.0;
  /// Secondary integer payload (bytes, dependency source, attempt no).
  int64_t aux = -1;
};

/// Fixed-capacity single-producer ring. The owning thread appends with
/// plain stores plus one release publish; once writers are quiescent
/// (or for slots safely behind the head) readers see whole events —
/// never torn ones. When more than `capacity` events are pushed the
/// oldest are overwritten and counted in dropped().
class TraceRing {
 public:
  explicit TraceRing(size_t capacity);

  /// Single-producer append (the owning thread only).
  void Push(const TraceEvent& event);

  /// Events still held (the most recent min(pushed, capacity)), oldest
  /// first. Safe concurrently with the producer: a slot being written
  /// while read is skipped via the published head, so no torn reads.
  std::vector<TraceEvent> Snapshot() const;

  /// Forgets all events (producer must be quiescent).
  void Reset() { head_.store(0, std::memory_order_release); }

  size_t capacity() const { return capacity_; }
  uint64_t pushed() const { return head_.load(std::memory_order_acquire); }
  /// Events lost to overwrite (pushed beyond capacity).
  uint64_t dropped() const {
    uint64_t p = pushed();
    return p > capacity_ ? p - capacity_ : 0;
  }

 private:
  const size_t capacity_;
  /// Uninitialised storage for `capacity_` events: a slot (and its page)
  /// is first written when an event lands in it, so creating a ring does
  /// not cost a sweep over its whole capacity.
  std::unique_ptr<std::byte[]> storage_;
  TraceEvent* slots_;
  /// Number of completed pushes; slot i of push n is n % capacity.
  std::atomic<uint64_t> head_{0};
};

struct TracerStats {
  uint64_t recorded = 0;  // events accepted across all rings
  uint64_t dropped = 0;   // events overwritten (ring capacity exceeded)
  int rings = 0;          // per-thread rings created
};

/// The recording front door. One Tracer per Deployment; disabled by
/// default (a disabled tracer's Record is one relaxed load and a
/// branch, so call sites need no guards). Thread-safe: every thread
/// writes to its own ring, created on first use.
class Tracer {
 public:
  static constexpr size_t kDefaultRingCapacity = 1 << 18;

  /// `clock` stamps events that carry no explicit timestamp; nullptr
  /// leaves them at 0 (callers then pass timestamps themselves).
  explicit Tracer(const SimEngine* clock = nullptr,
                  size_t ring_capacity = kDefaultRingCapacity);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  ~Tracer();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Records one event (no-op while disabled). Stamps the sequence
  /// number, and the clock time when `event.timestamp` is unset (0) and
  /// a clock exists. `event.name` must be a static string.
  void Record(TraceEvent event);

  // Convenience builders for the common shapes.
  void Instant(SpanCategory category, const char* name, int64_t app = -1,
               int64_t container = -1, int64_t task = -1, int64_t node = -1,
               double value = 0.0, int64_t aux = -1);
  void Begin(SpanCategory category, const char* name, int64_t app = -1,
             int64_t container = -1, int64_t task = -1, int64_t node = -1);
  void End(SpanCategory category, const char* name, int64_t app = -1,
           int64_t container = -1, int64_t task = -1, int64_t node = -1,
           double value = 0.0);

  /// Merges every ring's surviving events into one list ordered by
  /// (timestamp, seq) — the global record order. Call when producers
  /// are quiescent (between runs); events stay in the rings, so
  /// repeated drains return the same (growing) history.
  std::vector<TraceEvent> Drain() const;

  TracerStats Stats() const;

  /// Forgets all recorded events (new rings start empty; existing
  /// per-thread rings are reset). Producers must be quiescent.
  void Clear();

 private:
  TraceRing* RingForThisThread();

  const SimEngine* clock_;
  const size_t ring_capacity_;
  const uint64_t tracer_id_;  // keys the thread-local ring cache
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> seq_{0};
  mutable std::mutex mu_;  // guards ring creation/list, never Push
  std::vector<std::unique_ptr<TraceRing>> rings_;
};

}  // namespace hiway

#endif  // HIWAY_OBS_TRACER_H_
