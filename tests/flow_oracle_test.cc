// Oracle property test for the incremental flow-network re-fill.
//
// GlobalFlowNetwork below is the reference rate model: on every flow
// start, cancel, capacity change and completion it re-solves the weighted
// max-min fill over *all* active flows from scratch. FlowNetwork re-fills
// only the flows connected to what a change touched, and re-fills all the
// changes made during one event once, before the next event runs. The two
// are driven side by side over seeded random cluster-shaped
// networks (per-node cpu/disk/nic, a switch, optional EBS volume and S3
// uplink; rate caps, weights, infinite-demand stress flows, zero-demand
// flows) through random starts, cancels, SetCapacity calls, both in bursts
// from outside the network and from completion callbacks that start and
// cancel more flows at the same instant.
//
// Two observation modes:
//  * every-change: every live flow's rate and remaining demand and every
//    resource's Stats() are read after every change, in the middle of an
//    event too (so the deferred re-fill must happen on read). Every value,
//    peak_rate included, must match the oracle bit for bit.
//  * batched: the same reads only once an external event's burst is
//    done, so FlowNetwork really coalesces. Every value must still match
//    bit for bit, except that peak_rate may be lower: a coalesced batch
//    never materialises the zero-duration states between its changes.
// In both modes completion callbacks and same-instant marker events must
// fire in the same order at bit-identical times.
//
// The one case where the two fills may legitimately differ is a
// cross-component near tie (CrossComponentNearTieIsBoundedByRateEpsilon);
// none of the seeded scenarios below hits one, so they demand exact
// equality.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/sim/engine.h"
#include "src/sim/flow.h"

namespace hiway {
namespace {

// ---------------------------------------------------- global reference --
//
// The flow network as it was before the re-fill became incremental, kept
// unchanged apart from its class name: one global Rebalance() per change.

// Demand below this is considered delivered (guards float drift).
constexpr double kDemandEpsilon = 1e-7;
// Rates below this are treated as starvation (no completion scheduled).
constexpr double kRateEpsilon = 1e-12;

class GlobalFlowNetwork {
 public:
  explicit GlobalFlowNetwork(SimEngine* engine) : engine_(engine) {}
  GlobalFlowNetwork(const GlobalFlowNetwork&) = delete;
  GlobalFlowNetwork& operator=(const GlobalFlowNetwork&) = delete;

  /// Registers a resource with the given capacity (units/second).
  ResourceId AddResource(std::string name, double capacity);

  /// Adjusts capacity at the current virtual time (e.g. node slowdown).
  void SetCapacity(ResourceId id, double capacity);

  double Capacity(ResourceId id) const;
  const std::string& ResourceName(ResourceId id) const;

  /// Starts a flow; rates of all flows are re-balanced immediately.
  FlowId StartFlow(FlowSpec spec);

  /// Cancels an in-flight flow without invoking its completion callback.
  /// Unknown / already-completed ids are ignored.
  void CancelFlow(FlowId id);

  /// True if the flow is still in flight.
  bool IsActive(FlowId id) const;

  /// Remaining demand of an active flow (infinity for permanent flows).
  double RemainingDemand(FlowId id) const;

  /// Current assigned rate of an active flow.
  double CurrentRate(FlowId id) const;

  /// Number of flows currently in flight.
  size_t active_flows() const { return flows_.size(); }

  /// Usage statistics since the last ResetStats (or construction).
  ResourceStats Stats(ResourceId id) const;

  /// Clears accumulated statistics for all resources; the observation
  /// window restarts at the current virtual time.
  void ResetStats();

 private:
  struct Resource {
    std::string name;
    double capacity = 0.0;
    // Accounting.
    double rate_integral = 0.0;   // sum of rate * dt
    double busy_integral = 0.0;   // sum of (any flow active) * dt
    double peak_rate = 0.0;
    double current_rate = 0.0;    // sum of flow rates at `last_update`
    int active_count = 0;         // flows crossing this resource
  };

  struct Flow {
    std::vector<ResourceId> resources;
    double remaining = 0.0;
    double rate_cap = kNoRateCap;
    double weight = 1.0;
    double rate = 0.0;
    std::function<void()> on_complete;
  };

  /// Advances all flow progress / statistics to engine_->Now().
  void Settle();

  /// Recomputes max-min fair rates and (re)schedules the next completion.
  void Rebalance();

  /// Event handler: completes every flow whose demand has been delivered.
  void OnCompletionEvent();

  SimEngine* engine_;
  std::vector<Resource> resources_;
  std::map<FlowId, Flow> flows_;
  FlowId next_flow_id_ = 1;
  SimTime last_update_ = 0.0;
  SimTime stats_start_ = 0.0;
  EventId pending_event_ = 0;
  bool has_pending_event_ = false;
};

ResourceId GlobalFlowNetwork::AddResource(std::string name, double capacity) {
  HIWAY_CHECK(capacity >= 0.0);
  Resource r;
  r.name = std::move(name);
  r.capacity = capacity;
  resources_.push_back(std::move(r));
  return static_cast<ResourceId>(resources_.size() - 1);
}

void GlobalFlowNetwork::SetCapacity(ResourceId id, double capacity) {
  HIWAY_CHECK(id >= 0 && static_cast<size_t>(id) < resources_.size());
  Settle();
  resources_[static_cast<size_t>(id)].capacity = capacity;
  Rebalance();
}

double GlobalFlowNetwork::Capacity(ResourceId id) const {
  HIWAY_CHECK(id >= 0 && static_cast<size_t>(id) < resources_.size());
  return resources_[static_cast<size_t>(id)].capacity;
}

const std::string& GlobalFlowNetwork::ResourceName(ResourceId id) const {
  HIWAY_CHECK(id >= 0 && static_cast<size_t>(id) < resources_.size());
  return resources_[static_cast<size_t>(id)].name;
}

FlowId GlobalFlowNetwork::StartFlow(FlowSpec spec) {
  HIWAY_CHECK(!spec.resources.empty());
  HIWAY_CHECK(spec.demand >= 0.0);
  Settle();
  HIWAY_CHECK(spec.weight > 0.0);
  FlowId id = next_flow_id_++;
  Flow flow;
  flow.resources = std::move(spec.resources);
  for (ResourceId r : flow.resources) {
    HIWAY_CHECK(r >= 0 && static_cast<size_t>(r) < resources_.size());
  }
  flow.remaining = spec.demand;
  flow.rate_cap = spec.rate_cap;
  flow.weight = spec.weight;
  flow.on_complete = std::move(spec.on_complete);
  flows_.emplace(id, std::move(flow));
  Rebalance();
  return id;
}

void GlobalFlowNetwork::CancelFlow(FlowId id) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return;
  Settle();
  flows_.erase(it);
  Rebalance();
}

bool GlobalFlowNetwork::IsActive(FlowId id) const {
  return flows_.find(id) != flows_.end();
}

double GlobalFlowNetwork::RemainingDemand(FlowId id) const {
  auto it = flows_.find(id);
  if (it == flows_.end()) return 0.0;
  // Account for progress since the last settle without mutating state.
  double dt = engine_->Now() - last_update_;
  double progressed = it->second.remaining - it->second.rate * dt;
  return std::max(progressed, 0.0);
}

double GlobalFlowNetwork::CurrentRate(FlowId id) const {
  auto it = flows_.find(id);
  return it == flows_.end() ? 0.0 : it->second.rate;
}

void GlobalFlowNetwork::Settle() {
  SimTime now = engine_->Now();
  double dt = now - last_update_;
  if (dt < 0.0) dt = 0.0;
  if (dt > 0.0) {
    for (auto& [id, flow] : flows_) {
      if (std::isfinite(flow.remaining)) {
        flow.remaining = std::max(0.0, flow.remaining - flow.rate * dt);
      }
    }
    for (auto& res : resources_) {
      res.rate_integral += res.current_rate * dt;
      if (res.active_count > 0) res.busy_integral += dt;
    }
  }
  last_update_ = now;
}

void GlobalFlowNetwork::Rebalance() {
  // --- Weighted progressive-filling max-min fairness with rate caps. ---
  // All unfrozen flows rise together at rate `level * weight` until either
  // (a) some resource saturates — its flows freeze at the current level —
  // or (b) a flow reaches its cap (normalised level cap/weight) and
  // freezes there. Repeats until every flow is frozen.
  struct ResState {
    double remaining_capacity;
    double unfrozen_weight;
    int unfrozen_count;
  };
  std::vector<ResState> rs(resources_.size());
  for (size_t i = 0; i < resources_.size(); ++i) {
    rs[i] = {resources_[i].capacity, 0.0, 0};
  }
  std::vector<Flow*> unfrozen;
  unfrozen.reserve(flows_.size());
  for (auto& [id, flow] : flows_) {
    flow.rate = 0.0;
    unfrozen.push_back(&flow);
    for (ResourceId r : flow.resources) {
      rs[static_cast<size_t>(r)].unfrozen_weight += flow.weight;
      ++rs[static_cast<size_t>(r)].unfrozen_count;
    }
  }

  while (!unfrozen.empty()) {
    // Normalised level at which the tightest resource saturates.
    double min_res_level = std::numeric_limits<double>::infinity();
    for (const auto& r : rs) {
      if (r.unfrozen_count > 0) {
        min_res_level =
            std::min(min_res_level,
                     std::max(0.0, r.remaining_capacity) / r.unfrozen_weight);
      }
    }
    // Normalised level at which the most constrained flow caps out.
    double min_cap_level = std::numeric_limits<double>::infinity();
    for (const Flow* f : unfrozen) {
      min_cap_level = std::min(min_cap_level, f->rate_cap / f->weight);
    }
    double level = std::min(min_res_level, min_cap_level);
    if (!std::isfinite(level)) level = 0.0;

    std::vector<size_t> to_freeze;
    for (size_t i = 0; i < unfrozen.size(); ++i) {
      Flow* f = unfrozen[i];
      bool freeze = f->rate_cap / f->weight <= level + kRateEpsilon;
      if (!freeze) {
        for (ResourceId r : f->resources) {
          const auto& st = rs[static_cast<size_t>(r)];
          double res_level =
              std::max(0.0, st.remaining_capacity) / st.unfrozen_weight;
          if (res_level <= level + kRateEpsilon) {
            freeze = true;
            break;
          }
        }
      }
      if (freeze) to_freeze.push_back(i);
    }
    if (to_freeze.empty()) {
      // Numerical corner: force progress by freezing everything at level.
      for (size_t i = 0; i < unfrozen.size(); ++i) to_freeze.push_back(i);
    }

    // Apply freezes (reverse order keeps indices valid on erase).
    for (auto it = to_freeze.rbegin(); it != to_freeze.rend(); ++it) {
      Flow* f = unfrozen[*it];
      double rate = std::min(level * f->weight, f->rate_cap);
      f->rate = rate;
      for (ResourceId r : f->resources) {
        auto& st = rs[static_cast<size_t>(r)];
        st.remaining_capacity -= rate;
        st.unfrozen_weight -= f->weight;
        --st.unfrozen_count;
      }
      unfrozen.erase(unfrozen.begin() + static_cast<ptrdiff_t>(*it));
    }
  }

  // Refresh per-resource instantaneous accounting.
  for (auto& res : resources_) {
    res.current_rate = 0.0;
    res.active_count = 0;
  }
  for (const auto& [id, flow] : flows_) {
    for (ResourceId r : flow.resources) {
      auto& res = resources_[static_cast<size_t>(r)];
      res.current_rate += flow.rate;
      ++res.active_count;
    }
  }
  for (auto& res : resources_) {
    res.peak_rate = std::max(res.peak_rate, res.current_rate);
  }

  // (Re)schedule the next completion event.
  if (has_pending_event_) {
    engine_->Cancel(pending_event_);
    has_pending_event_ = false;
  }
  double next_dt = std::numeric_limits<double>::infinity();
  for (const auto& [id, flow] : flows_) {
    if (!std::isfinite(flow.remaining)) continue;
    if (flow.remaining <= kDemandEpsilon) {
      next_dt = 0.0;
      break;
    }
    if (flow.rate > kRateEpsilon) {
      next_dt = std::min(next_dt, flow.remaining / flow.rate);
    }
  }
  if (std::isfinite(next_dt)) {
    pending_event_ =
        engine_->ScheduleAfter(next_dt, [this] { OnCompletionEvent(); });
    has_pending_event_ = true;
  }
}

void GlobalFlowNetwork::OnCompletionEvent() {
  has_pending_event_ = false;
  Settle();
  // Collect finished flows first so that callbacks observe a consistent
  // network (they frequently start follow-up flows).
  std::vector<std::function<void()>> callbacks;
  for (auto it = flows_.begin(); it != flows_.end();) {
    if (std::isfinite(it->second.remaining) &&
        it->second.remaining <= kDemandEpsilon) {
      if (it->second.on_complete) {
        callbacks.push_back(std::move(it->second.on_complete));
      }
      it = flows_.erase(it);
    } else {
      ++it;
    }
  }
  Rebalance();
  for (auto& cb : callbacks) cb();
}

ResourceStats GlobalFlowNetwork::Stats(ResourceId id) const {
  HIWAY_CHECK(id >= 0 && static_cast<size_t>(id) < resources_.size());
  const Resource& res = resources_[static_cast<size_t>(id)];
  ResourceStats out;
  out.capacity = res.capacity;
  out.peak_rate = res.peak_rate;
  double window = engine_->Now() - stats_start_;
  // Include un-settled progress since last_update_.
  double extra = engine_->Now() - last_update_;
  double rate_integral = res.rate_integral + res.current_rate * extra;
  double busy_integral =
      res.busy_integral + (res.active_count > 0 ? extra : 0.0);
  if (window > 0.0) {
    out.mean_rate = rate_integral / window;
    out.busy_fraction = busy_integral / window;
  }
  return out;
}

void GlobalFlowNetwork::ResetStats() {
  Settle();
  stats_start_ = engine_->Now();
  for (auto& res : resources_) {
    res.rate_integral = 0.0;
    res.busy_integral = 0.0;
    res.peak_rate = res.current_rate;
  }
}


// ------------------------------------------------------------ scenarios --

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// A cluster-shaped network: per-node cpu, disk and nic, one switch, and
/// optionally an EBS volume and an S3 uplink.
struct Topology {
  int nodes = 0;
  ResourceId sw = -1;
  ResourceId ebs = -1;
  ResourceId s3 = -1;
  std::vector<double> capacity;  // indexed by ResourceId

  ResourceId cpu(int n) const { return 3 * n; }
  ResourceId disk(int n) const { return 3 * n + 1; }
  ResourceId nic(int n) const { return 3 * n + 2; }
};

enum class Observe { kEveryChange, kBatched };

struct ScenarioOptions {
  uint64_t seed = 1;
  // Round capacities, caps and demands (cores, 125 MB/s NICs, ...)
  // instead of arbitrary reals: exact cross-component ties are common.
  bool round_values = false;
  int external_events = 60;
  size_t max_live = 40;
};

Topology MakeTopology(const ScenarioOptions& o) {
  Rng rng(o.seed * 7919 + 17);
  Topology t;
  t.nodes = 2 + static_cast<int>(rng.UniformInt(7));
  auto value = [&](double lo, double hi, double round_to) {
    double v = rng.Uniform(lo, hi);
    return o.round_values ? std::max(round_to, std::round(v / round_to) *
                                                   round_to)
                          : v;
  };
  for (int n = 0; n < t.nodes; ++n) {
    t.capacity.push_back(value(1.0, 16.0, 1.0));     // cpu cores
    t.capacity.push_back(value(50.0, 400.0, 50.0));  // disk MB/s
    t.capacity.push_back(value(60.0, 250.0, 62.5));  // nic MB/s
  }
  t.sw = static_cast<ResourceId>(t.capacity.size());
  t.capacity.push_back(value(100.0, 1000.0, 250.0));
  if (rng.NextDouble() < 0.5) {
    t.ebs = static_cast<ResourceId>(t.capacity.size());
    t.capacity.push_back(value(40.0, 200.0, 40.0));
  }
  if (rng.NextDouble() < 0.5) {
    t.s3 = static_cast<ResourceId>(t.capacity.size());
    t.capacity.push_back(value(50.0, 300.0, 100.0));
  }
  return t;
}

/// One observed value: its bits, where it was read (an index into
/// `contexts`) and what it is (see Describe()).
struct Entry {
  uint64_t bits;
  uint32_t context;
  int32_t item;
  bool operator==(const Entry& o) const {
    return bits == o.bits && context == o.context && item == o.item;
  }
};
struct Trace {
  std::vector<std::string> contexts;
  std::vector<Entry> entries;
  std::vector<double> peaks;  // peak_rate reads, in read order

  std::string Describe(const Entry& e) const {
    std::string what = contexts[e.context];
    if (e.item > 0) {
      static const char* kFields[] = {"active", "rate", "remaining"};
      what += " flow " + std::to_string((e.item - 1) / 3) + " " +
              kFields[(e.item - 1) % 3];
    } else if (e.item < 0) {
      static const char* kFields[] = {"capacity", "mean_rate",
                                      "busy_fraction"};
      what += " resource " + std::to_string((-e.item - 1) / 3) + " " +
              kFields[(-e.item - 1) % 3];
    }
    double v;
    std::memcpy(&v, &e.bits, sizeof v);
    char value[32];
    std::snprintf(value, sizeof value, "%.17g", v);
    return what + " = " + value;
  }
};

/// Runs one scenario against one network implementation and records
/// everything observable into a trace. Every decision comes from an Rng
/// consumed in event order, so two implementations that behave the same
/// produce identical traces.
template <typename Net>
class World {
 public:
  World(const ScenarioOptions& options, Observe observe)
      : options_(options),
        observe_(observe),
        topology_(MakeTopology(options)),
        net_(&engine_),
        rng_(options.seed) {
    for (size_t r = 0; r < topology_.capacity.size(); ++r) {
      std::string name = "r" + std::to_string(r);
      ResourceId id = net_.AddResource(name, topology_.capacity[r]);
      EXPECT_EQ(net_.ResourceName(id), name);
    }
  }

  Trace Run() {
    for (int e = 0; e < options_.external_events; ++e) {
      // Integral times make external events tie with each other and with
      // completions of round-valued flows.
      double at = options_.round_values
                      ? static_cast<double>(rng_.UniformInt(40))
                      : rng_.Uniform(0.0, 40.0);
      engine_.ScheduleAt(at, [this] { External(); });
    }
    engine_.ScheduleAt(41.0, [this] { CancelAllPermanent(); });
    engine_.Run();
    Event("end", engine_.Now());
    ObserveAll();
    return std::move(trace_);
  }

 private:
  /// Opens a new context (an event or a change) with one value.
  void Event(std::string what, double v) {
    trace_.contexts.push_back(std::move(what));
    Record(0, v);
  }

  void Record(int32_t item, double v) {
    trace_.entries.push_back(
        {Bits(v), static_cast<uint32_t>(trace_.contexts.size() - 1), item});
  }

  /// Reads every live flow's rate and remaining demand and every
  /// resource's statistics.
  void ObserveAll() {
    Record(0, static_cast<double>(net_.active_flows()));
    for (const auto& [flow, id] : live_) {
      Record(1 + 3 * flow, net_.IsActive(id) ? 1.0 : 0.0);
      Record(2 + 3 * flow, net_.CurrentRate(id));
      Record(3 + 3 * flow, net_.RemainingDemand(id));
    }
    for (size_t r = 0; r < topology_.capacity.size(); ++r) {
      ResourceStats s = net_.Stats(static_cast<ResourceId>(r));
      EXPECT_EQ(Bits(s.capacity),
                Bits(net_.Capacity(static_cast<ResourceId>(r))));
      const auto item = static_cast<int32_t>(3 * r);
      Record(-1 - item, s.capacity);
      Record(-2 - item, s.mean_rate);
      Record(-3 - item, s.busy_fraction);
      trace_.peaks.push_back(s.peak_rate);
    }
  }

  /// Observation point after a change made in the middle of an event.
  void AfterChange() {
    if (observe_ == Observe::kEveryChange) ObserveAll();
  }

  FlowSpec RandomSpec() {
    const Topology& t = topology_;
    auto node = [&] { return static_cast<int>(rng_.UniformInt(
                          static_cast<uint64_t>(t.nodes))); };
    auto round = [&](double v, double to) {
      return options_.round_values ? std::max(0.0, std::round(v / to) * to)
                                   : v;
    };
    FlowSpec spec;
    int a = node();
    int b = node();
    switch (rng_.UniformInt(7)) {
      case 0:  // compute, rate-capped by threads
      case 1:
        spec.resources = {t.cpu(a)};
        if (rng_.NextDouble() < 0.7) {
          spec.rate_cap = options_.round_values
                              ? 1.0 + static_cast<double>(rng_.UniformInt(8))
                              : rng_.Uniform(0.5, 8.0);
        }
        break;
      case 2:  // local scratch
        spec.resources = {t.disk(a)};
        break;
      case 3:  // remote read
        spec.resources = {t.disk(a), t.nic(a), t.sw, t.nic(b)};
        break;
      case 4: {  // replicated write: crosses the switch twice
        int c = node();
        spec.resources = {t.nic(a), t.sw, t.nic(b), t.disk(b),
                          t.sw,     t.nic(c), t.disk(c)};
        break;
      }
      case 5:  // EBS volume, or a local read if there is none
        spec.resources = t.ebs >= 0 ? std::vector<ResourceId>{t.nic(a), t.ebs}
                                    : std::vector<ResourceId>{t.disk(a)};
        break;
      default:  // S3 download, or a plain transfer
        spec.resources = t.s3 >= 0
                             ? std::vector<ResourceId>{t.s3, t.nic(a), t.disk(a)}
                             : std::vector<ResourceId>{t.nic(a), t.sw, t.nic(b)};
        break;
    }
    double roll = rng_.NextDouble();
    if (roll < 0.08) {
      spec.demand = 0.0;  // completes at once: a same-instant completion
    } else if (roll < 0.12) {
      spec.demand = 1e-9;
    } else {
      spec.demand = round(rng_.Uniform(1.0, 400.0), 25.0);
    }
    if (rng_.NextDouble() < 0.15) {
      spec.weight = options_.round_values
                        ? 1.0 + static_cast<double>(rng_.UniformInt(4))
                        : rng_.Uniform(0.25, 4.0);
    }
    return spec;
  }

  void Start() {
    if (live_.size() >= options_.max_live) return;
    FlowSpec spec;
    if (rng_.NextDouble() < 0.06) {
      // `stress --cpu N`: a permanent weighted hog on one node's cores.
      spec.resources = {topology_.cpu(static_cast<int>(rng_.UniformInt(
          static_cast<uint64_t>(topology_.nodes))))};
      spec.demand = kInfiniteDemand;
      spec.weight = 1.0 + static_cast<double>(rng_.UniformInt(6));
    } else {
      spec = RandomSpec();
    }
    const int flow = next_flow_++;
    const bool permanent = std::isinf(spec.demand);
    spec.on_complete = [this, flow] { Completed(flow); };
    FlowId id = net_.StartFlow(std::move(spec));
    live_[flow] = id;
    if (permanent) permanent_.push_back(flow);
    Event("start " + std::to_string(flow), engine_.Now());
  }

  void Cancel() {
    if (live_.empty() || rng_.NextDouble() < 0.1) {
      // Unknown and already-finished ids are ignored.
      FlowId id = finished_.empty() || rng_.NextDouble() < 0.3
                      ? 0
                      : finished_[rng_.UniformInt(finished_.size())];
      Event("cancel-finished", static_cast<double>(id));
      net_.CancelFlow(id);
      return;
    }
    auto it = live_.begin();
    std::advance(it, static_cast<ptrdiff_t>(rng_.UniformInt(live_.size())));
    Event("cancel " + std::to_string(it->first), engine_.Now());
    net_.CancelFlow(it->second);
    finished_.push_back(it->second);
    live_.erase(it);
  }

  void SetCapacity() {
    auto r = static_cast<ResourceId>(
        rng_.UniformInt(topology_.capacity.size()));
    double roll = rng_.NextDouble();
    double capacity = topology_.capacity[static_cast<size_t>(r)];
    if (roll < 0.1) {
      capacity = 0.0;  // a dead device starves its flows
    } else if (roll < 0.6) {
      capacity *= options_.round_values ? 0.5 : rng_.Uniform(0.2, 1.5);
    }
    Event("capacity " + std::to_string(r), capacity);
    net_.SetCapacity(r, capacity);
  }

  /// A same-instant (or exactly-timed) event scheduled among flow
  /// changes: its order against the next completion event must not move.
  void Marker() {
    double delay = rng_.NextDouble() < 0.6 ? 0.0 : 0.5 * static_cast<double>(
                                                         rng_.UniformInt(4));
    const int marker = next_marker_++;
    engine_.ScheduleAfter(delay, [this, marker] {
      Event("marker " + std::to_string(marker), engine_.Now());
    });
  }

  void External() {
    Event("external", engine_.Now());
    // Same-instant bursts from outside the flow network (e.g. an AM
    // launching several containers in one heartbeat).
    int actions = 1 + static_cast<int>(rng_.UniformInt(4));
    for (int i = 0; i < actions; ++i) {
      double roll = rng_.NextDouble();
      if (roll < 0.6) {
        Start();
      } else if (roll < 0.8) {
        Cancel();
      } else if (roll < 0.9) {
        SetCapacity();
      } else if (roll < 0.95) {
        Marker();
      } else {
        Event("reset-stats", engine_.Now());
        net_.ResetStats();
      }
      AfterChange();
    }
    ObserveAll();
  }

  void Completed(int flow) {
    Event("completion " + std::to_string(flow), engine_.Now());
    // A flow that finished in the same event as an earlier callback that
    // cancelled it still completes: the cancel came after its completion.
    auto it = live_.find(flow);
    if (it != live_.end()) {
      finished_.push_back(it->second);
      live_.erase(it);
    }
    AfterChange();
    // Follow-up work at the same instant: the next stage of a task, a
    // cancelled sibling, a capacity change, an event among them.
    int actions = static_cast<int>(rng_.UniformInt(4));
    for (int i = 0; i < actions; ++i) {
      double roll = rng_.NextDouble();
      if (roll < 0.6) {
        Start();
      } else if (roll < 0.75) {
        Cancel();
      } else if (roll < 0.85) {
        SetCapacity();
      } else {
        Marker();
      }
      AfterChange();
    }
  }

  void CancelAllPermanent() {
    for (int flow : permanent_) {
      auto it = live_.find(flow);
      if (it == live_.end()) continue;
      net_.CancelFlow(it->second);
      live_.erase(it);
      AfterChange();
    }
    // Restore starved devices so every finite flow can finish.
    for (size_t r = 0; r < topology_.capacity.size(); ++r) {
      net_.SetCapacity(static_cast<ResourceId>(r), topology_.capacity[r]);
      AfterChange();
    }
    Event("drain", engine_.Now());
    ObserveAll();
  }

  const ScenarioOptions options_;
  const Observe observe_;
  const Topology topology_;
  SimEngine engine_;
  Net net_;
  Rng rng_;
  Trace trace_;
  std::map<int, FlowId> live_;  // logical flow -> id, started and unfinished
  std::vector<int> permanent_;
  std::vector<FlowId> finished_;  // completed or cancelled
  int next_flow_ = 0;
  int next_marker_ = 0;
};

/// Runs `options` on both networks and compares the traces.
void ExpectMatchesOracle(const ScenarioOptions& options, Observe observe) {
  auto oracle = World<GlobalFlowNetwork>(options, observe).Run();
  auto incremental = World<FlowNetwork>(options, observe).Run();
  size_t n = std::min(oracle.entries.size(), incremental.entries.size());
  for (size_t i = 0; i < n; ++i) {
    if (!(oracle.entries[i] == incremental.entries[i]) ||
        oracle.contexts[oracle.entries[i].context] !=
            incremental.contexts[incremental.entries[i].context]) {
      FAIL() << "seed " << options.seed << ": first difference at #" << i
             << ": oracle " << oracle.Describe(oracle.entries[i])
             << ", incremental "
             << incremental.Describe(incremental.entries[i]);
    }
  }
  ASSERT_EQ(oracle.entries.size(), incremental.entries.size())
      << "seed " << options.seed;
  ASSERT_EQ(oracle.peaks.size(), incremental.peaks.size());
  for (size_t i = 0; i < oracle.peaks.size(); ++i) {
    if (observe == Observe::kEveryChange) {
      ASSERT_EQ(Bits(oracle.peaks[i]), Bits(incremental.peaks[i]))
          << "seed " << options.seed << " peak read #" << i;
    } else {
      ASSERT_LE(incremental.peaks[i], oracle.peaks[i])
          << "seed " << options.seed << " peak read #" << i;
    }
  }
}

// ---------------------------------------------------------------- tests --

TEST(FlowOracleTest, ArbitraryValuesEveryChange) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    ScenarioOptions o;
    o.seed = seed;
    ExpectMatchesOracle(o, Observe::kEveryChange);
    if (HasFatalFailure()) return;
  }
}

TEST(FlowOracleTest, ArbitraryValuesBatched) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    ScenarioOptions o;
    o.seed = seed;
    ExpectMatchesOracle(o, Observe::kBatched);
    if (HasFatalFailure()) return;
  }
}

TEST(FlowOracleTest, RoundValuesEveryChange) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    ScenarioOptions o;
    o.seed = seed;
    o.round_values = true;
    ExpectMatchesOracle(o, Observe::kEveryChange);
    if (HasFatalFailure()) return;
  }
}

TEST(FlowOracleTest, RoundValuesBatched) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    ScenarioOptions o;
    o.seed = seed;
    o.round_values = true;
    ExpectMatchesOracle(o, Observe::kBatched);
    if (HasFatalFailure()) return;
  }
}

// The one case where the fills may differ. A global fill raises every
// flow to one common level, and a flow whose own bottleneck sits within
// kRateEpsilon above that level freezes at it too (the tolerance absorbs
// float drift inside one component). A component-local fill never sees the
// other component's level, so the flow gets its own bottleneck's share.
// Each such freeze moves a rate by at most kRateEpsilon * weight, which is
// at most 1e-12 relative at levels >= 1 (cores, MB/s).
TEST(FlowOracleTest, CrossComponentNearTieIsBoundedByRateEpsilon) {
  const double delta = std::ldexp(1.0, -41);  // ~4.5e-13 < kRateEpsilon
  SimEngine oracle_engine;
  GlobalFlowNetwork oracle(&oracle_engine);
  SimEngine engine;
  FlowNetwork net(&engine);
  for (ResourceId r : {oracle.AddResource("a", 1.0),
                       oracle.AddResource("b", 1.0 + delta)}) {
    oracle.StartFlow({{r}, 100.0, kNoRateCap, 1.0, {}});
  }
  for (ResourceId r :
       {net.AddResource("a", 1.0), net.AddResource("b", 1.0 + delta)}) {
    FlowId id = net.StartFlow({{r}, 100.0, kNoRateCap, 1.0, {}});
    net.CurrentRate(id);  // re-fill each start on its own
  }
  // Flow 1 is alone on "a": both fills give it the full 1.0.
  EXPECT_EQ(oracle.CurrentRate(1), 1.0);
  EXPECT_EQ(net.CurrentRate(1), 1.0);
  // Flow 2 is alone on "b" (a separate component): the global fill
  // freezes it at "a"'s level, the local fill gives it all of "b".
  EXPECT_EQ(oracle.CurrentRate(2), 1.0);
  EXPECT_EQ(net.CurrentRate(2), 1.0 + delta);
  EXPECT_LE(std::abs(net.CurrentRate(2) - oracle.CurrentRate(2)) /
                oracle.CurrentRate(2),
            1e-12);
}

// Long churn: hundreds of flows pass through the network, so dead slots
// are compacted away many times while flows stay live across compactions.
TEST(FlowOracleTest, LongChurnAcrossCompactions) {
  for (uint64_t seed = 100; seed < 104; ++seed) {
    ScenarioOptions o;
    o.seed = seed;
    o.external_events = 400;
    o.max_live = 120;
    ExpectMatchesOracle(o, Observe::kBatched);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace hiway
