// Max-min fair flow network: the performance model of the simulator.
//
// Every concurrent activity (a CPU burst, a disk read, a network transfer)
// is a *flow* that must cross one or more *shared resources* (a node's CPU
// cores, its disk bandwidth, its NIC, the cluster switch, an EBS volume, an
// S3 uplink). At any instant, rates are assigned by progressive-filling
// max-min fairness with optional per-flow rate caps (e.g. a task that can
// only use 8 threads). A flow completes once its total demand has been
// delivered; completions are discrete events on the SimEngine.
//
// This model reproduces the contention phenomena the Hi-WAY paper's
// evaluation rests on: a saturated 1 GbE switch (Fig. 4), a shared EBS
// volume (Fig. 8), and stress-process interference (Fig. 9).
//
// Rates are re-solved incrementally: a change re-fills only the flows
// connected (through shared resources) to the resources it touched, and
// all the changes made during one engine event are re-filled once.
// The fill keeps the order of a from-scratch global fill, so the rates
// are bit-identical to it (docs/simulator-model.md, "Rate assignment").

#ifndef HIWAY_SIM_FLOW_H_
#define HIWAY_SIM_FLOW_H_

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/sim/engine.h"

namespace hiway {

using ResourceId = int32_t;
using FlowId = int64_t;

constexpr double kInfiniteDemand = std::numeric_limits<double>::infinity();
constexpr double kNoRateCap = std::numeric_limits<double>::infinity();

/// Time-averaged usage statistics for one resource.
struct ResourceStats {
  double capacity = 0.0;
  /// Mean allocated rate over the observation window (same unit as
  /// capacity, e.g. cores or MB/s). Comparable to Linux load average for
  /// CPU resources.
  double mean_rate = 0.0;
  /// Fraction of the window during which at least one flow was active
  /// (i.e. `iostat`-style device utilisation).
  double busy_fraction = 0.0;
  /// Peak instantaneous allocated rate observed.
  double peak_rate = 0.0;
};

/// Parameters for starting a flow.
struct FlowSpec {
  /// Resources the flow crosses; its rate is bounded by its fair share on
  /// each. Must be non-empty.
  std::vector<ResourceId> resources;
  /// Total units (e.g. MB, core-seconds) to deliver. kInfiniteDemand makes
  /// a permanent background flow (never completes; cancel explicitly).
  double demand = 0.0;
  /// Upper bound on the instantaneous rate (e.g. thread count for a CPU
  /// flow). kNoRateCap disables the bound.
  double rate_cap = kNoRateCap;
  /// Fair-share weight: a flow of weight w receives w times the share of a
  /// weight-1 flow on contended resources. Lets N identical background
  /// processes (`stress --cpu N`) be modelled as one flow of weight N.
  double weight = 1.0;
  /// Invoked (via the engine, at completion time) once the demand has been
  /// fully delivered.
  std::function<void()> on_complete;
};

class FlowNetwork : private DeferredWork {
 public:
  explicit FlowNetwork(SimEngine* engine) : engine_(engine) {}
  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;
  ~FlowNetwork();

  /// Registers a resource with the given capacity (units/second).
  ResourceId AddResource(std::string name, double capacity);

  /// Adjusts capacity at the current virtual time (e.g. node slowdown).
  void SetCapacity(ResourceId id, double capacity);

  double Capacity(ResourceId id) const;
  const std::string& ResourceName(ResourceId id) const;

  /// Starts a flow. Rates are re-balanced once per event, before the next
  /// event runs or a rate is read.
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
  size_t active_flows() const { return live_flows_; }

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
    // Slots of the live flows crossing this resource, ascending (a flow
    // that lists the resource twice appears twice).
    std::vector<int32_t> users;
    bool touched = false;         // changed since the last re-fill
  };

  // The cold part of a flow slot; its remaining demand and rate live in
  // the dense `remaining_` / `rate_` arrays that every event scans.
  struct Flow {
    std::vector<ResourceId> resources;
    double rate_cap = kNoRateCap;
    double weight = 1.0;
    double cap_level = kNoRateCap;  // rate_cap / weight
    std::function<void()> on_complete;
    bool live = false;
    bool frozen = false;  // Fill() scratch
  };

  // Progressive-fill state of one resource.
  struct FillState {
    double remaining_capacity = 0.0;
    double unfrozen_weight = 0.0;
    int unfrozen_count = 0;
    double level = 0.0;  // this round's normalised saturation level
  };

  /// Slot of a live flow, or -1.
  int32_t SlotOf(FlowId id) const;

  /// Advances all flow progress / statistics to engine_->Now().
  void Settle();

  /// Records that resource `r` needs a re-fill.
  void Touch(ResourceId r);

  /// Frees a slot (completed or cancelled flow) and touches its resources.
  void Release(int32_t slot);

  /// Drops dead slots once they outnumber live ones.
  void MaybeCompact();

  /// Ends a change: reserves the next completion event's tie-break
  /// position and defers the re-fill and reschedule to the event's end.
  void Changed();

  /// Re-solves max-min fair rates for the flows connected to touched
  /// resources and refreshes those resources' accounting.
  void Refill();

  /// Weighted progressive fill over one set of connected flows.
  void Fill();

  /// Re-fills, then (re)schedules the next completion event. Runs once
  /// before the engine dispatches its next event.
  void RunDeferred() override;

  /// Re-fill on read: rate readers must see every change made so far.
  void RefillForRead() const {
    if (!touched_.empty()) const_cast<FlowNetwork*>(this)->Refill();
  }

  /// Event handler: completes every flow whose demand has been delivered.
  void OnCompletionEvent();

  SimEngine* engine_;
  std::vector<Resource> resources_;
  // Flow slots in FlowId order. A finished flow leaves a dead slot (id
  // kept for the binary search, remaining = inf, rate = 0) until the next
  // compaction.
  std::vector<FlowId> ids_;
  std::vector<double> remaining_;
  std::vector<double> rate_;
  std::vector<Flow> flows_;
  size_t live_flows_ = 0;
  FlowId next_flow_id_ = 1;
  SimTime last_update_ = 0.0;
  SimTime stats_start_ = 0.0;
  EventId pending_event_ = 0;
  bool has_pending_event_ = false;
  // Batching: every change made during one event is re-filled once, just
  // before the engine dispatches the next event.
  bool deferred_ = false;
  uint64_t reserved_seq_ = 0;
  // Re-fill scratch, reused across calls.
  std::vector<ResourceId> touched_;
  std::vector<ResourceId> comp_resources_;
  std::vector<int32_t> comp_flows_;
  std::vector<uint32_t> resource_mark_;
  std::vector<uint32_t> flow_mark_;
  uint32_t mark_epoch_ = 0;
  std::vector<FillState> fill_;
  std::vector<int32_t> capped_;     // rate-capped flows, by cap level
  std::vector<int32_t> to_freeze_;
};

}  // namespace hiway

#endif  // HIWAY_SIM_FLOW_H_
