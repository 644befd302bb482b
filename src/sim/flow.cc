#include "src/sim/flow.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace hiway {

namespace {
// Demand below this is considered delivered (guards float drift).
constexpr double kDemandEpsilon = 1e-7;
// Rates below this are treated as starvation (no completion scheduled).
constexpr double kRateEpsilon = 1e-12;
// Dead slots are compacted away once they outnumber live ones and there
// are at least this many (keeps the dense scans proportional to the
// live flows without compacting on every completion).
constexpr size_t kCompactMinDead = 64;
}  // namespace

ResourceId FlowNetwork::AddResource(std::string name, double capacity) {
  HIWAY_CHECK(capacity >= 0.0);
  Resource r;
  r.name = std::move(name);
  r.capacity = capacity;
  resources_.push_back(std::move(r));
  resource_mark_.push_back(0);
  fill_.push_back({});
  return static_cast<ResourceId>(resources_.size() - 1);
}

void FlowNetwork::SetCapacity(ResourceId id, double capacity) {
  HIWAY_CHECK(id >= 0 && static_cast<size_t>(id) < resources_.size());
  Settle();
  resources_[static_cast<size_t>(id)].capacity = capacity;
  Touch(id);
  Changed();
}

double FlowNetwork::Capacity(ResourceId id) const {
  HIWAY_CHECK(id >= 0 && static_cast<size_t>(id) < resources_.size());
  return resources_[static_cast<size_t>(id)].capacity;
}

const std::string& FlowNetwork::ResourceName(ResourceId id) const {
  HIWAY_CHECK(id >= 0 && static_cast<size_t>(id) < resources_.size());
  return resources_[static_cast<size_t>(id)].name;
}

FlowId FlowNetwork::StartFlow(FlowSpec spec) {
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
  flow.rate_cap = spec.rate_cap;
  flow.weight = spec.weight;
  flow.cap_level = spec.rate_cap / spec.weight;
  flow.on_complete = std::move(spec.on_complete);
  flow.live = true;
  auto slot = static_cast<int32_t>(flows_.size());
  for (ResourceId r : flow.resources) {
    resources_[static_cast<size_t>(r)].users.push_back(slot);
    Touch(r);
  }
  ids_.push_back(id);
  remaining_.push_back(spec.demand);
  rate_.push_back(0.0);
  flows_.push_back(std::move(flow));
  flow_mark_.push_back(0);
  ++live_flows_;
  Changed();
  return id;
}

void FlowNetwork::CancelFlow(FlowId id) {
  int32_t slot = SlotOf(id);
  if (slot < 0) return;
  Settle();
  Release(slot);
  MaybeCompact();
  Changed();
}

bool FlowNetwork::IsActive(FlowId id) const { return SlotOf(id) >= 0; }

double FlowNetwork::RemainingDemand(FlowId id) const {
  int32_t slot = SlotOf(id);
  if (slot < 0) return 0.0;
  RefillForRead();
  // Account for progress since the last settle without mutating state.
  double dt = engine_->Now() - last_update_;
  double progressed = remaining_[static_cast<size_t>(slot)] -
                      rate_[static_cast<size_t>(slot)] * dt;
  return std::max(progressed, 0.0);
}

double FlowNetwork::CurrentRate(FlowId id) const {
  int32_t slot = SlotOf(id);
  if (slot < 0) return 0.0;
  RefillForRead();
  return rate_[static_cast<size_t>(slot)];
}

int32_t FlowNetwork::SlotOf(FlowId id) const {
  auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (it == ids_.end() || *it != id) return -1;
  auto slot = static_cast<int32_t>(it - ids_.begin());
  return flows_[static_cast<size_t>(slot)].live ? slot : -1;
}

void FlowNetwork::Settle() {
  SimTime now = engine_->Now();
  double dt = now - last_update_;
  if (dt < 0.0) dt = 0.0;
  if (dt > 0.0) {
    // Dead slots hold remaining = inf and are skipped like permanent flows.
    const size_t n = remaining_.size();
    double* remaining = remaining_.data();
    const double* rate = rate_.data();
    for (size_t i = 0; i < n; ++i) {
      if (std::isfinite(remaining[i])) {
        remaining[i] = std::max(0.0, remaining[i] - rate[i] * dt);
      }
    }
    for (auto& res : resources_) {
      res.rate_integral += res.current_rate * dt;
      if (res.active_count > 0) res.busy_integral += dt;
    }
  }
  last_update_ = now;
}

void FlowNetwork::Touch(ResourceId r) {
  Resource& res = resources_[static_cast<size_t>(r)];
  if (!res.touched) {
    res.touched = true;
    touched_.push_back(r);
  }
}

void FlowNetwork::Release(int32_t slot) {
  Flow& flow = flows_[static_cast<size_t>(slot)];
  for (ResourceId r : flow.resources) {
    std::vector<int32_t>& users = resources_[static_cast<size_t>(r)].users;
    users.erase(std::lower_bound(users.begin(), users.end(), slot));
    Touch(r);
  }
  flow.resources.clear();
  flow.on_complete = nullptr;
  flow.live = false;
  remaining_[static_cast<size_t>(slot)] = kInfiniteDemand;
  rate_[static_cast<size_t>(slot)] = 0.0;
  --live_flows_;
}

void FlowNetwork::MaybeCompact() {
  const size_t dead = flows_.size() - live_flows_;
  if (dead < kCompactMinDead || dead <= live_flows_) return;
  // Slots keep FlowId order, so the old -> new map is monotone and every
  // resource's user list stays sorted.
  std::vector<int32_t> new_slot(flows_.size(), -1);
  size_t out = 0;
  for (size_t i = 0; i < flows_.size(); ++i) {
    if (!flows_[i].live) continue;
    new_slot[i] = static_cast<int32_t>(out);
    if (out != i) {
      ids_[out] = ids_[i];
      remaining_[out] = remaining_[i];
      rate_[out] = rate_[i];
      flows_[out] = std::move(flows_[i]);
    }
    ++out;
  }
  ids_.resize(out);
  remaining_.resize(out);
  rate_.resize(out);
  flows_.resize(out);
  flow_mark_.assign(out, 0);
  mark_epoch_ = 0;
  std::fill(resource_mark_.begin(), resource_mark_.end(), 0);
  for (auto& res : resources_) {
    for (int32_t& s : res.users) s = new_slot[static_cast<size_t>(s)];
  }
}

FlowNetwork::~FlowNetwork() {
  if (deferred_) engine_->CancelDeferred(this);
  if (has_pending_event_) engine_->Cancel(pending_event_);
}

void FlowNetwork::Changed() {
  reserved_seq_ = engine_->ReserveSeq();
  if (!deferred_) {
    deferred_ = true;
    engine_->Defer(this);
  }
}

void FlowNetwork::Refill() {
  if (touched_.empty()) return;
  // Collect the connected component(s) of the touched resources: every
  // flow whose rate the change can move, and every resource they cross.
  if (++mark_epoch_ == 0) {
    std::fill(resource_mark_.begin(), resource_mark_.end(), 0);
    std::fill(flow_mark_.begin(), flow_mark_.end(), 0);
    mark_epoch_ = 1;
  }
  const uint32_t epoch = mark_epoch_;
  comp_resources_.clear();
  comp_flows_.clear();
  for (ResourceId r : touched_) {
    resources_[static_cast<size_t>(r)].touched = false;
    if (resource_mark_[static_cast<size_t>(r)] == epoch) continue;
    resource_mark_[static_cast<size_t>(r)] = epoch;
    comp_resources_.push_back(r);
  }
  touched_.clear();
  for (size_t i = 0; i < comp_resources_.size(); ++i) {
    const Resource& res = resources_[static_cast<size_t>(comp_resources_[i])];
    for (int32_t slot : res.users) {
      if (flow_mark_[static_cast<size_t>(slot)] == epoch) continue;
      flow_mark_[static_cast<size_t>(slot)] = epoch;
      comp_flows_.push_back(slot);
      for (ResourceId r : flows_[static_cast<size_t>(slot)].resources) {
        if (resource_mark_[static_cast<size_t>(r)] == epoch) continue;
        resource_mark_[static_cast<size_t>(r)] = epoch;
        comp_resources_.push_back(r);
      }
    }
  }
  // The fill and the accounting visit flows in FlowId order, exactly as a
  // global fill would, so every sum is formed in the same order.
  if (!std::is_sorted(comp_flows_.begin(), comp_flows_.end())) {
    std::sort(comp_flows_.begin(), comp_flows_.end());
  }
  Fill();

  // Refresh the component's instantaneous accounting.
  for (ResourceId r : comp_resources_) {
    Resource& res = resources_[static_cast<size_t>(r)];
    res.current_rate = 0.0;
    res.active_count = 0;
  }
  for (int32_t slot : comp_flows_) {
    const double rate = rate_[static_cast<size_t>(slot)];
    for (ResourceId r : flows_[static_cast<size_t>(slot)].resources) {
      Resource& res = resources_[static_cast<size_t>(r)];
      res.current_rate += rate;
      ++res.active_count;
    }
  }
  for (ResourceId r : comp_resources_) {
    Resource& res = resources_[static_cast<size_t>(r)];
    res.peak_rate = std::max(res.peak_rate, res.current_rate);
  }
}

void FlowNetwork::Fill() {
  // --- Weighted progressive-filling max-min fairness with rate caps. ---
  // All unfrozen flows rise together at rate `level * weight` until either
  // (a) some resource saturates — its flows freeze at the current level —
  // or (b) a flow reaches its cap (normalised level cap/weight) and
  // freezes there. Repeats until every flow is frozen. Flows outside the
  // component cross none of its resources, so they cannot change its
  // rates.
  //
  // Each round freezes exactly the flows a scan of every unfrozen flow
  // would, and applies them in the same (reverse FlowId) order, but finds
  // them from the saturated resources' user lists and a cap-sorted list:
  // a resource saturates at most once per fill, so a fill costs one pass
  // over the component's resources per round plus one over its flows.
  for (ResourceId r : comp_resources_) {
    FillState& st = fill_[static_cast<size_t>(r)];
    st.remaining_capacity = resources_[static_cast<size_t>(r)].capacity;
    st.unfrozen_weight = 0.0;
    st.unfrozen_count = 0;
  }
  capped_.clear();
  for (int32_t slot : comp_flows_) {
    Flow& flow = flows_[static_cast<size_t>(slot)];
    rate_[static_cast<size_t>(slot)] = 0.0;
    flow.frozen = false;
    for (ResourceId r : flow.resources) {
      fill_[static_cast<size_t>(r)].unfrozen_weight += flow.weight;
      ++fill_[static_cast<size_t>(r)].unfrozen_count;
    }
    if (std::isfinite(flow.cap_level)) capped_.push_back(slot);
  }
  std::sort(capped_.begin(), capped_.end(), [this](int32_t a, int32_t b) {
    return flows_[static_cast<size_t>(a)].cap_level <
           flows_[static_cast<size_t>(b)].cap_level;
  });
  size_t next_capped = 0;
  size_t unfrozen = comp_flows_.size();

  auto freeze = [&](int32_t slot) {
    Flow& f = flows_[static_cast<size_t>(slot)];
    if (f.frozen) return;
    f.frozen = true;
    to_freeze_.push_back(slot);
  };
  while (unfrozen > 0) {
    // Normalised level at which the tightest resource saturates.
    double min_res_level = std::numeric_limits<double>::infinity();
    for (ResourceId r : comp_resources_) {
      FillState& st = fill_[static_cast<size_t>(r)];
      if (st.unfrozen_count > 0) {
        st.level = std::max(0.0, st.remaining_capacity) / st.unfrozen_weight;
        min_res_level = std::min(min_res_level, st.level);
      }
    }
    // Normalised level at which the most constrained flow caps out.
    while (next_capped < capped_.size() &&
           flows_[static_cast<size_t>(capped_[next_capped])].frozen) {
      ++next_capped;
    }
    double min_cap_level =
        next_capped < capped_.size()
            ? flows_[static_cast<size_t>(capped_[next_capped])].cap_level
            : std::numeric_limits<double>::infinity();
    double level = std::min(min_res_level, min_cap_level);
    if (!std::isfinite(level)) level = 0.0;

    // A flow freezes at its cap or on any saturated resource.
    to_freeze_.clear();
    for (size_t k = next_capped; k < capped_.size(); ++k) {
      int32_t slot = capped_[k];
      if (flows_[static_cast<size_t>(slot)].cap_level > level + kRateEpsilon) {
        break;
      }
      freeze(slot);
    }
    for (ResourceId r : comp_resources_) {
      const FillState& st = fill_[static_cast<size_t>(r)];
      if (st.unfrozen_count > 0 && st.level <= level + kRateEpsilon) {
        for (int32_t slot : resources_[static_cast<size_t>(r)].users) {
          freeze(slot);
        }
      }
    }
    if (to_freeze_.empty()) {
      // Numerical corner: force progress by freezing everything at level.
      for (int32_t slot : comp_flows_) freeze(slot);
    } else {
      std::sort(to_freeze_.begin(), to_freeze_.end());
    }

    // Apply freezes in reverse FlowId order, the order the capacity
    // subtractions have always been made in.
    for (auto it = to_freeze_.rbegin(); it != to_freeze_.rend(); ++it) {
      const Flow& f = flows_[static_cast<size_t>(*it)];
      double rate = std::min(level * f.weight, f.rate_cap);
      rate_[static_cast<size_t>(*it)] = rate;
      for (ResourceId r : f.resources) {
        FillState& st = fill_[static_cast<size_t>(r)];
        st.remaining_capacity -= rate;
        st.unfrozen_weight -= f.weight;
        --st.unfrozen_count;
      }
    }
    unfrozen -= to_freeze_.size();
  }
}

void FlowNetwork::RunDeferred() {
  deferred_ = false;
  Refill();
  // (Re)schedule the next completion event in the tie-break position of
  // the last change, where an immediate reschedule would have put it.
  if (has_pending_event_) {
    engine_->Cancel(pending_event_);
    has_pending_event_ = false;
  }
  double next_dt = std::numeric_limits<double>::infinity();
  const size_t n = remaining_.size();
  const double* remaining = remaining_.data();
  const double* rate = rate_.data();
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite(remaining[i])) continue;
    if (remaining[i] <= kDemandEpsilon) {
      next_dt = 0.0;
      break;
    }
    if (rate[i] > kRateEpsilon) {
      next_dt = std::min(next_dt, remaining[i] / rate[i]);
    }
  }
  if (std::isfinite(next_dt)) {
    pending_event_ = engine_->ScheduleReserved(
        engine_->Now() + next_dt, reserved_seq_, [this] { OnCompletionEvent(); });
    has_pending_event_ = true;
  }
}

void FlowNetwork::OnCompletionEvent() {
  has_pending_event_ = false;
  Settle();
  // Collect finished flows first so that callbacks observe a consistent
  // network (they frequently start follow-up flows).
  // Dead slots hold remaining = inf, so the dense scan skips them.
  std::vector<std::function<void()>> callbacks;
  for (size_t i = 0; i < remaining_.size(); ++i) {
    if (std::isfinite(remaining_[i]) && remaining_[i] <= kDemandEpsilon) {
      if (flows_[i].on_complete) {
        callbacks.push_back(std::move(flows_[i].on_complete));
      }
      Release(static_cast<int32_t>(i));
    }
  }
  MaybeCompact();
  // The callbacks' starts and cancels at this same instant join the same
  // re-fill, which runs once the event is over.
  Changed();
  for (auto& cb : callbacks) cb();
}

ResourceStats FlowNetwork::Stats(ResourceId id) const {
  HIWAY_CHECK(id >= 0 && static_cast<size_t>(id) < resources_.size());
  RefillForRead();
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

void FlowNetwork::ResetStats() {
  Settle();
  Refill();
  stats_start_ = engine_->Now();
  for (auto& res : resources_) {
    res.rate_integral = 0.0;
    res.busy_integral = 0.0;
    res.peak_rate = res.current_rate;
  }
}

}  // namespace hiway
