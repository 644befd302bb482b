#include "src/obs/tracer.h"

#include <algorithm>
#include <new>

namespace hiway {

const char* ToString(SpanCategory category) {
  switch (category) {
    case SpanCategory::kWorkflow: return "workflow";
    case SpanCategory::kTask: return "task";
    case SpanCategory::kContainer: return "container";
    case SpanCategory::kScheduler: return "scheduler";
    case SpanCategory::kPreemption: return "preemption";
    case SpanCategory::kFailover: return "failover";
    case SpanCategory::kProvenance: return "provenance";
    case SpanCategory::kCache: return "cache";
    case SpanCategory::kMembership: return "membership";
  }
  return "unknown";
}

TraceRing::TraceRing(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 1)),
      storage_(new std::byte[capacity_ * sizeof(TraceEvent)]),
      slots_(reinterpret_cast<TraceEvent*>(storage_.get())) {}

void TraceRing::Push(const TraceEvent& event) {
  uint64_t h = head_.load(std::memory_order_relaxed);
  new (&slots_[static_cast<size_t>(h % capacity_)]) TraceEvent(event);
  // Publish: readers only trust slots strictly behind the head.
  head_.store(h + 1, std::memory_order_release);
}

std::vector<TraceEvent> TraceRing::Snapshot() const {
  uint64_t h = head_.load(std::memory_order_acquire);
  size_t cap = capacity_;
  uint64_t first = h > cap ? h - cap : 0;
  std::vector<TraceEvent> out;
  out.reserve(static_cast<size_t>(h - first));
  for (uint64_t i = first; i < h; ++i) {
    out.push_back(slots_[static_cast<size_t>(i % cap)]);
  }
  return out;
}

namespace {
std::atomic<uint64_t> g_next_tracer_id{1};
}  // namespace

Tracer::Tracer(const SimEngine* clock, size_t ring_capacity)
    : clock_(clock),
      ring_capacity_(ring_capacity),
      tracer_id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)) {}

Tracer::~Tracer() = default;

TraceRing* Tracer::RingForThisThread() {
  // Per-thread cache keyed by the tracer's unique id (never reused, so
  // a stale cache entry of a destroyed tracer can never be returned for
  // a new one that landed at the same address).
  struct CacheEntry {
    uint64_t tracer_id;
    TraceRing* ring;
  };
  thread_local std::vector<CacheEntry> cache;
  // Newest first: entries of destroyed tracers are never removed, so a
  // process that builds many deployments (a benchmark's repetitions)
  // would otherwise scan all of them on every record.
  for (auto it = cache.rbegin(); it != cache.rend(); ++it) {
    if (it->tracer_id == tracer_id_) return it->ring;
  }
  std::lock_guard<std::mutex> lock(mu_);
  rings_.push_back(std::make_unique<TraceRing>(ring_capacity_));
  TraceRing* ring = rings_.back().get();
  cache.push_back(CacheEntry{tracer_id_, ring});
  return ring;
}

void Tracer::Record(TraceEvent event) {
  if (!enabled()) return;
  if (event.timestamp == 0.0 && clock_ != nullptr) {
    event.timestamp = clock_->Now();
  }
  event.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  RingForThisThread()->Push(event);
}

void Tracer::Instant(SpanCategory category, const char* name, int64_t app,
                     int64_t container, int64_t task, int64_t node,
                     double value, int64_t aux) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.category = category;
  ev.phase = SpanPhase::kInstant;
  ev.name = name;
  ev.app = app;
  ev.container = container;
  ev.task = task;
  ev.node = node;
  ev.value = value;
  ev.aux = aux;
  Record(ev);
}

void Tracer::Begin(SpanCategory category, const char* name, int64_t app,
                   int64_t container, int64_t task, int64_t node) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.category = category;
  ev.phase = SpanPhase::kBegin;
  ev.name = name;
  ev.app = app;
  ev.container = container;
  ev.task = task;
  ev.node = node;
  Record(ev);
}

void Tracer::End(SpanCategory category, const char* name, int64_t app,
                 int64_t container, int64_t task, int64_t node, double value) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.category = category;
  ev.phase = SpanPhase::kEnd;
  ev.name = name;
  ev.app = app;
  ev.container = container;
  ev.task = task;
  ev.node = node;
  ev.value = value;
  Record(ev);
}

std::vector<TraceEvent> Tracer::Drain() const {
  std::vector<TraceEvent> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& ring : rings_) {
      std::vector<TraceEvent> part = ring->Snapshot();
      all.insert(all.end(), part.begin(), part.end());
    }
  }
  std::sort(all.begin(), all.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.timestamp != b.timestamp) return a.timestamp < b.timestamp;
              return a.seq < b.seq;
            });
  return all;
}

TracerStats Tracer::Stats() const {
  TracerStats stats;
  std::lock_guard<std::mutex> lock(mu_);
  stats.rings = static_cast<int>(rings_.size());
  for (const auto& ring : rings_) {
    stats.recorded += ring->pushed();
    stats.dropped += ring->dropped();
  }
  return stats;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  // Reset every ring in place: thread-local caches keep their ring
  // pointers, so the rings themselves must survive.
  for (auto& ring : rings_) {
    ring->Reset();
  }
  seq_.store(0, std::memory_order_relaxed);
}

}  // namespace hiway
