#include "perfbench/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string_view>

#include "perfbench/probes.h"
#include "src/common/random.h"
#include "src/common/strings.h"
#include "src/core/client.h"
#include "src/core/metrics.h"
#include "src/infra/karamel.h"
#include "src/lang/cuneiform.h"
#include "src/lang/dax_source.h"
#include "src/lang/galaxy_source.h"
#include "src/service/workflow_service.h"
#include "src/workloads/workloads.h"

namespace perfbench {
namespace {

using hiway::Deployment;
using hiway::Result;
using hiway::Status;
using hiway::StrFormat;

constexpr char kSnvCuneiform[] = "snv-cuneiform";
constexpr char kSnvStatic[] = "snv-static";
constexpr char kServiceMixed[] = "service-mixed";

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// FNV-1a over the bytes of every value added.
class Fingerprint {
 public:
  void Add(std::string_view s) {
    Bytes(s.data(), s.size());
    Bytes("\0", 1);
  }
  void Add(int64_t v) { Bytes(&v, sizeof(v)); }
  void Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Bytes(&bits, sizeof(bits));
  }
  uint64_t value() const { return hash_; }

 private:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Every task outcome the provenance store recorded, then the DFS listing.
uint64_t ScheduleFingerprint(const Deployment& d) {
  Fingerprint fp;
  for (const hiway::ProvenanceEvent& e : d.provenance->Events()) {
    if (e.type != hiway::ProvenanceEventType::kTaskEnd &&
        e.type != hiway::ProvenanceEventType::kTaskCacheHit) {
      continue;
    }
    fp.Add(e.run_id);
    fp.Add(static_cast<int64_t>(e.type));
    fp.Add(static_cast<int64_t>(e.task_id));
    fp.Add(static_cast<int64_t>(e.node));
    fp.Add(static_cast<int64_t>(e.success));
    fp.Add(e.timestamp - e.duration);
    fp.Add(e.timestamp);
  }
  for (const std::string& path : d.dfs->ListFiles()) {
    auto info = d.dfs->Stat(path);
    fp.Add(path);
    fp.Add(info.ok() ? info->size_bytes : int64_t{-1});
  }
  return fp.value();
}

void CheckTargets(const Deployment& d, const std::string& who,
                  const std::vector<std::string>& targets, bool* ok,
                  RunOutcome* out) {
  if (targets.empty()) {
    out->failures.push_back(who + ": no target outputs");
    *ok = false;
  }
  for (const std::string& path : targets) {
    if (!d.dfs->Exists(path)) {
      out->failures.push_back(who + ": missing target " + path);
      *ok = false;
      return;
    }
  }
}

/// Passes everything through and keeps the wrapped source's targets when
/// it is destroyed, so they can be checked after the service let go of
/// it. Used on the untraced and traced service runs alike.
class TargetCapture : public hiway::WorkflowSource {
 public:
  TargetCapture(std::unique_ptr<hiway::WorkflowSource> inner,
                std::vector<std::string>* targets)
      : inner_(std::move(inner)), targets_(targets) {}
  ~TargetCapture() override { *targets_ = inner_->Targets(); }
  TargetCapture(const TargetCapture&) = delete;
  TargetCapture& operator=(const TargetCapture&) = delete;

  std::string name() const override { return inner_->name(); }
  bool IsStatic() const override { return inner_->IsStatic(); }
  Result<std::vector<hiway::TaskSpec>> Init() override {
    return inner_->Init();
  }
  Result<std::vector<hiway::TaskSpec>> OnTaskCompleted(
      const hiway::TaskResult& result) override {
    return inner_->OnTaskCompleted(result);
  }
  bool IsDone() const override { return inner_->IsDone(); }
  std::vector<std::string> Targets() const override {
    return inner_->Targets();
  }

 private:
  std::unique_ptr<hiway::WorkflowSource> inner_;
  std::vector<std::string>* targets_;
};

/// What a traced run adds to the outcome: spans and counters read at
/// the loop's boundaries.
struct TraceState {
  LayerLedger ledger;
  EngineTrace engine;
  hiway::DfsCounters dfs_before;
  int64_t top_level_before_ns = 0;
  double yarn_pass_before_s = 0.0;
  uint64_t events_before = 0;
  /// Service only.
  std::vector<double> queue_waits_s;
  int64_t rejected = 0;
};

void BeginLoop(const Deployment& d, TraceState* t) {
  t->dfs_before = d.dfs->counters();
  t->top_level_before_ns = t->ledger.top_level_ns;
  t->yarn_pass_before_s = d.rm->allocation_pass_wall_s();
  t->events_before = d.engine.events_executed();
}

/// Fills `out->layers` and runs the self-time accounting check.
void AppendLayers(const Deployment& d, const TraceState& t,
                  const std::vector<std::string>& queues, RunOutcome* out) {
  auto add = [&](const char* name, double v) {
    out->layers.emplace_back(name, v);
  };
  const LayerLedger& l = t.ledger;
  add("lang.init_s", l.lang_init.seconds());
  add("lang.completed_s", l.lang_completed.seconds());
  add("lang.completed_calls", static_cast<double>(l.lang_completed.calls));
  add("lang.completed_us_p50", hiway::Percentile(l.lang_completed.call_us, 50));
  add("lang.completed_us_p99", hiway::Percentile(l.lang_completed.call_us, 99));
  add("lang.cost_growth", CostGrowth(l.lang_completed.call_us));
  add("lang.tasks_discovered", static_cast<double>(l.lang_tasks_discovered));

  const int64_t selects = l.sched_select.calls;
  add("core.sched.select_s", l.sched_select.seconds());
  add("core.sched.select_calls", static_cast<double>(selects));
  add("core.sched.select_us_p50", hiway::Percentile(l.sched_select.call_us, 50));
  add("core.sched.select_us_p99", hiway::Percentile(l.sched_select.call_us, 99));
  add("core.sched.accept_ratio",
      selects > 0 ? static_cast<double>(l.sched_selected) / selects : 0.0);
  add("core.sched.queue_len_mean",
      selects > 0 ? l.sched_queue_len_sum / static_cast<double>(selects)
                  : 0.0);
  add("core.sched.enqueue_s", l.sched_enqueue.seconds());

  const hiway::ResourceManager& rm = *d.rm;
  const double yarn_pass_s = rm.allocation_pass_wall_s();
  std::vector<double> container_waits;
  for (const std::string& q : queues) {
    if (const hiway::TenantStats* s = rm.queue_stats(q)) {
      container_waits.insert(container_waits.end(), s->wait_times_s.begin(),
                             s->wait_times_s.end());
    }
  }
  add("yarn.pass_s", yarn_pass_s);
  add("yarn.passes", static_cast<double>(rm.allocation_passes()));
  add("yarn.requests", static_cast<double>(rm.counters().requests));
  add("yarn.allocations", static_cast<double>(rm.counters().allocations));
  add("yarn.container_wait_p95_s", hiway::Percentile(container_waits, 95));

  // Self time: event time no probed layer accounts for. Every probed span
  // and every allocation pass inside the loop runs within one event.
  const double dispatch_s = Seconds(t.engine.dispatch_ns);
  const double spans_in_loop_s =
      Seconds(l.top_level_ns - t.top_level_before_ns) +
      (yarn_pass_s - t.yarn_pass_before_s);
  const double self_s = dispatch_s - spans_in_loop_s;
  const uint64_t events = d.engine.events_executed() - t.events_before;
  add("sim.engine.events", static_cast<double>(events));
  add("sim.engine.event_us_p50", hiway::Percentile(t.engine.event_us, 50));
  add("sim.engine.event_us_p99", hiway::Percentile(t.engine.event_us, 99));
  add("sim.engine.dispatch_s", dispatch_s);
  add("sim.engine.self_s", self_s);
  add("sim.engine.peak_pending", static_cast<double>(d.engine.peak_pending()));
  add("sim.engine.compactions", static_cast<double>(d.engine.compactions()));
  add("sim.engine.host_ns_per_event",
      events > 0 ? dispatch_s * 1e9 / static_cast<double>(events) : 0.0);
  add("sim.flow.active_mean",
      t.engine.event_us.empty()
          ? 0.0
          : t.engine.active_flows_sum /
                static_cast<double>(t.engine.event_us.size()));
  add("sim.flow.active_peak", static_cast<double>(t.engine.active_flows_peak));

  const hiway::DfsCounters& c = d.dfs->counters();
  const double local = static_cast<double>(c.bytes_read_local -
                                           t.dfs_before.bytes_read_local);
  const double remote = static_cast<double>(c.bytes_read_remote -
                                            t.dfs_before.bytes_read_remote);
  add("hdfs.metadata_ops",
      static_cast<double>(c.metadata_ops - t.dfs_before.metadata_ops));
  add("hdfs.local_read_frac",
      local + remote > 0.0 ? local / (local + remote) : 0.0);
  add("hdfs.bytes_written_mb",
      static_cast<double>(c.bytes_written - t.dfs_before.bytes_written) /
          (1024.0 * 1024.0));

  hiway::ResultCacheStats cache;
  if (d.result_cache != nullptr) cache = d.result_cache->stats();
  hiway::GcStats gc;
  if (d.gc != nullptr) gc = d.gc->stats();
  const int64_t lookups = cache.hits + cache.misses;
  add("cache.hits", static_cast<double>(cache.hits));
  add("cache.misses", static_cast<double>(cache.misses));
  add("cache.hit_ratio",
      lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0.0);
  add("cache.seals", static_cast<double>(cache.seals));
  add("cache.capacity_evictions",
      static_cast<double>(cache.capacity_evictions));
  add("gc.files_collected", static_cast<double>(gc.files_collected));
  add("gc.cache_deferrals", static_cast<double>(gc.cache_deferrals));
  add("provenance.events", static_cast<double>(d.provenance->size()));

  add("service.submit_s", l.service_submit.seconds());
  add("service.queue_wait_p95_s", hiway::Percentile(t.queue_waits_s, 95));
  add("service.rejected", static_cast<double>(t.rejected));

  // The accounting check: nested spans were counted once (self time is
  // not negative) and the stepped events cover the traced wall time.
  const double coverage =
      out->host_wall_s > 0.0 ? dispatch_s / out->host_wall_s : 0.0;
  add("obs.dispatch_coverage", coverage);
  if (self_s < -1e-6) {
    out->failures.push_back(StrFormat(
        "accounting: layer spans (%.6f s) exceed dispatch (%.6f s)",
        spans_in_loop_s, dispatch_s));
    ++out->failed;
  }
  if (coverage < 0.8) {
    out->failures.push_back(StrFormat(
        "accounting: events cover only %.3f of the traced wall", coverage));
    ++out->failed;
  }
}

// ----------------------------------------------------------------- SNV --

Result<std::unique_ptr<Deployment>> ConvergeFig4(const WorkloadConfig& config,
                                                 uint64_t seed) {
  // The Fig. 4 cluster at 288 containers: 24 nodes x 12 one-core
  // containers behind one oversubscribed gigabit switch.
  constexpr int kNodes = 24;
  constexpr int kCoresPerNode = 12;
  hiway::Karamel karamel;
  karamel.SetAttribute("cluster/workers", StrFormat("%d", kNodes));
  karamel.SetAttribute("cluster/cores", StrFormat("%d", kCoresPerNode));
  karamel.SetAttribute("cluster/memory_mb",
                       StrFormat("%d", kCoresPerNode * 1024 + 1024));
  karamel.SetAttribute("cluster/disk_mbps", "300");
  karamel.SetAttribute("cluster/nic_mbps", "125");
  karamel.SetAttribute("cluster/switch_mbps", "250");
  karamel.SetAttribute("dfs/replication", "2");
  karamel.SetAttribute("snv/chunks", StrFormat("%d", config.snv_chunks));
  karamel.SetAttribute("snv/chunk_mb", "128");
  karamel.SetAttribute("seed", StrFormat("%llu", static_cast<unsigned long long>(
                                                     seed)));
  karamel.AddRecipe(hiway::HadoopInstallRecipe());
  karamel.AddRecipe(hiway::HiWayInstallRecipe());
  karamel.AddRecipe(hiway::SnvWorkflowRecipe());
  return karamel.Converge();
}

hiway::TaskSpec SnvTask(hiway::TaskId id, const char* signature,
                        const char* tool, const std::string& input,
                        const std::string& output) {
  hiway::TaskSpec t;
  t.id = id;
  t.signature = signature;
  t.tool = tool;
  t.command = std::string(signature) + "(" + input + ")";
  t.input_files = {input};
  t.outputs.push_back(hiway::OutputSpec{"out", output, {}, false});
  return t;
}

/// The SNV task graph as a hand-built static DAG, the way the Fig. 4
/// bench builds its Tez equivalent, with the Cuneiform document's tools
/// and properties so both front-ends yield the same tasks.
std::unique_ptr<hiway::StaticWorkflowSource> BuildStaticSnv(
    const hiway::StagedWorkflow& staged) {
  std::vector<hiway::TaskSpec> tasks;
  std::vector<std::string> targets;
  hiway::TaskId next = 1;
  for (const auto& [chunk, size] : staged.inputs) {
    (void)size;
    std::string stem = StrFormat("/static/snv/%lld",
                                 static_cast<long long>(next));
    tasks.push_back(SnvTask(next++, "align", "bowtie2", chunk, stem + ".sam"));
    hiway::TaskSpec sort =
        SnvTask(next++, "sort", "samtools-sort", stem + ".sam", stem + ".bam");
    sort.params["output_ratio"] = "0.35";
    tasks.push_back(std::move(sort));
    tasks.push_back(
        SnvTask(next++, "call", "varscan", stem + ".bam", stem + ".vcf"));
    tasks.push_back(
        SnvTask(next++, "annotate", "annovar", stem + ".vcf", stem + ".csv"));
    targets.push_back(stem + ".csv");
  }
  return std::make_unique<hiway::StaticWorkflowSource>(
      "snv-static", std::move(tasks), std::move(targets));
}

/// An snv deployment and the source and scheduler that will run on it.
struct SnvSetUp {
  std::unique_ptr<Deployment> d;
  std::unique_ptr<hiway::WorkflowSource> source;
  std::unique_ptr<hiway::WorkflowScheduler> scheduler;
};

Result<SnvSetUp> SetUpSnv(const WorkloadConfig& config, uint64_t seed) {
  SnvSetUp s;
  HIWAY_ASSIGN_OR_RETURN(s.d, ConvergeFig4(config, seed));
  const hiway::StagedWorkflow& staged = s.d->workflows.at("snv-calling");
  if (config.name == kSnvStatic) {
    s.source = BuildStaticSnv(staged);
  } else {
    HIWAY_ASSIGN_OR_RETURN(s.source,
                           hiway::HiWayClient(s.d.get()).MakeSource(staged));
  }
  HIWAY_ASSIGN_OR_RETURN(
      s.scheduler,
      hiway::MakeScheduler("data-aware", s.d->dfs.get(), &s.d->estimator,
                           s.d->staging_cache.get()));
  return s;
}

/// An snv set-up takes a few milliseconds, so one sample is mostly timer
/// and cache noise. It is repeated until this much host time is spent,
/// and the median is reported.
constexpr double kMinSetUpS = 0.05;

Result<RunOutcome> RunSnv(const WorkloadConfig& config, uint64_t seed,
                          bool traced) {
  RunOutcome out;
  TraceState trace;
  std::optional<SnvSetUp> s;
  std::vector<double> setups;
  for (double spent = 0.0; spent < kMinSetUpS;) {
    s.reset();  // the previous set-up's teardown is not timed
    const int64_t start = NowNs();
    HIWAY_ASSIGN_OR_RETURN(SnvSetUp next, SetUpSnv(config, seed));
    setups.push_back(Seconds(NowNs() - start));
    spent += setups.back();
    s.emplace(std::move(next));
  }
  out.setup_s = hiway::Percentile(setups, 50);
  Deployment* d = s->d.get();
  std::unique_ptr<hiway::WorkflowSource> source = std::move(s->source);
  std::unique_ptr<hiway::WorkflowScheduler> scheduler =
      std::move(s->scheduler);
  if (traced) {
    source = std::make_unique<TimedSource>(std::move(source), &trace.ledger);
    scheduler = std::make_unique<TimedScheduler>(std::move(scheduler),
                                                 &trace.ledger);
  }
  hiway::HiWayOptions options;
  options.container_vcores = 1;
  options.container_memory_mb = 1024;
  options.am_vcores = 0;  // co-located AM, as in the Fig. 4 bench
  options.am_memory_mb = 1024;
  options.seed = seed;
  hiway::HiWayAm am(d->cluster.get(), d->rm.get(), d->dfs.get(), &d->tools,
                    d->provenance.get(), &d->estimator, options);
  am.SetTracer(&d->tracer);

  if (traced) BeginLoop(*d, &trace);
  const int64_t wall_start = NowNs();
  Status submitted = am.Submit(source.get(), scheduler.get());
  // Submit runs the front-end's first sweep and queues the first tasks,
  // outside any engine event; it counts as dispatch like the events do.
  trace.engine.dispatch_ns += NowNs() - wall_start;
  bool reached = false;
  if (submitted.ok()) {
    if (traced) {
      reached = RunTraced(&d->engine, d->net, [&] { return am.finished(); },
                          &trace.engine);
    } else {
      reached = am.RunToCompletion().ok();
    }
  }
  out.host_wall_s = Seconds(NowNs() - wall_start);

  out.attempted = 1;
  const hiway::WorkflowReport& report = am.report();
  bool ok = submitted.ok() && reached && report.status.ok();
  if (!ok) {
    out.failures.push_back(
        "workflow: " + (submitted.ok() ? report.status : submitted).ToString());
  }
  const int64_t expected_tasks = 4LL * config.snv_chunks;
  if (report.tasks_completed != expected_tasks) {
    out.failures.push_back(StrFormat("workflow: %d of %lld tasks completed",
                                     report.tasks_completed,
                                     static_cast<long long>(expected_tasks)));
    ok = false;
  }
  CheckTargets(*d, "workflow", source->Targets(), &ok, &out);
  out.failed = ok ? 0 : 1;
  out.tasks_completed = report.tasks_completed;
  out.fingerprint = ScheduleFingerprint(*d);
  out.sim_makespan_s = report.Makespan();
  out.sim_turnaround_p50_s = report.Makespan();  // one submission
  out.sim_turnaround_p95_s = report.Makespan();
  out.sim_jain_fairness = d->rm->TimeAveragedFairness();
  out.engine_events = d->engine.events_executed();
  if (traced) AppendLayers(*d, trace, {"default"}, &out);
  return out;
}

// ------------------------------------------------------- service-mixed --

constexpr char kGenomics[] = "genomics";
constexpr char kAnalytics[] = "analytics";
/// Open-loop arrival rate of service-mixed, submissions per virtual
/// second over both queues. The per-queue AM caps saturate near 0.12/s
/// (queue-wait p95 ~360 s there, ~0 s at 0.06/s); README.md has the sweep.
constexpr double kArrivalRatePerS = 0.08;

/// One workflow instance of the service mix, parsed per submission.
struct Instance {
  std::string name;
  std::string queue;
  std::string language;
  std::string document;
  std::string dax_prefix;
  std::string galaxy_output_dir;
  std::map<std::string, std::string> galaxy_inputs;
};

Result<std::unique_ptr<hiway::WorkflowSource>> ParseInstance(
    const Instance& inst) {
  if (inst.language == "dax") {
    HIWAY_ASSIGN_OR_RETURN(
        std::unique_ptr<hiway::DaxSource> s,
        hiway::DaxSource::Parse(inst.document, inst.dax_prefix));
    return std::unique_ptr<hiway::WorkflowSource>(std::move(s));
  }
  if (inst.language == "galaxy") {
    HIWAY_ASSIGN_OR_RETURN(
        std::unique_ptr<hiway::GalaxySource> s,
        hiway::GalaxySource::Parse(inst.document, inst.galaxy_inputs,
                                   inst.galaxy_output_dir));
    return std::unique_ptr<hiway::WorkflowSource>(std::move(s));
  }
  HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<hiway::CuneiformSource> s,
                         hiway::CuneiformSource::Parse(inst.document));
  return std::unique_ptr<hiway::WorkflowSource>(std::move(s));
}

/// Generates instance `k` of each of the four kinds and stages its inputs.
Status AddInstances(int k, Deployment* d, std::vector<Instance>* out) {
  auto stage = [&](const std::vector<std::pair<std::string, int64_t>>& in,
                   const std::string& from, const std::string& to) -> Status {
    for (const auto& [path, size] : in) {
      std::string p = path;
      if (!from.empty() && p.compare(0, from.size(), from) == 0) {
        p = to + p.substr(from.size());
      }
      HIWAY_RETURN_IF_ERROR(d->dfs->IngestFile(p, size));
    }
    return Status::OK();
  };
  {
    hiway::SnvWorkloadOptions o;
    o.num_chunks = 4;
    o.chunk_bytes = 64LL << 20;
    o.input_dir = StrFormat("/in/snv/%d", k);
    o.output_dir = StrFormat("/out/snv/%d", k);
    hiway::GeneratedWorkload w = hiway::MakeSnvCallingWorkflow(o);
    HIWAY_RETURN_IF_ERROR(stage(w.inputs, "", ""));
    out->push_back({StrFormat("snv-%d", k), kGenomics, "cuneiform",
                    std::move(w.document), "", "", {}});
  }
  {
    hiway::RnaSeqWorkloadOptions o;
    o.replicates_per_condition = 2;
    o.sample_bytes = 48LL << 20;
    o.input_dir = StrFormat("/in/geo/%d", k);
    hiway::GeneratedWorkload w = hiway::MakeTraplineWorkflow(o);
    HIWAY_RETURN_IF_ERROR(stage(w.inputs, "", ""));
    Instance inst{StrFormat("trapline-%d", k), kGenomics, "galaxy",
                  std::move(w.document), "", StrFormat("/galaxy/%d", k), {}};
    for (const auto& [name, path] : hiway::TraplineInputBindings(o)) {
      inst.galaxy_inputs[name] = path;
    }
    out->push_back(std::move(inst));
  }
  {
    hiway::MontageWorkloadOptions o;
    o.num_images = 6;
    o.image_bytes = 4LL << 20;
    hiway::GeneratedWorkload w = hiway::MakeMontageWorkflow(o);
    // DAX names files bare; each instance gets its own directory.
    std::string prefix = StrFormat("/dax/%d/", k);
    HIWAY_RETURN_IF_ERROR(stage(w.inputs, "/dax/", prefix));
    out->push_back({StrFormat("montage-%d", k), kAnalytics, "dax",
                    std::move(w.document), prefix, "", {}});
  }
  {
    hiway::KmeansWorkloadOptions o;
    o.points_bytes = 32LL << 20;
    o.converge_after = 3;
    o.input_path = StrFormat("/in/kmeans/%d/points.csv", k);
    hiway::GeneratedWorkload w = hiway::MakeKmeansWorkflow(o);
    HIWAY_RETURN_IF_ERROR(stage(w.inputs, "", ""));
    out->push_back({StrFormat("kmeans-%d", k), kAnalytics, "cuneiform",
                    std::move(w.document), "", "", {}});
  }
  return Status::OK();
}

Result<RunOutcome> RunService(const WorkloadConfig& config, uint64_t seed,
                              bool traced) {
  RunOutcome out;
  TraceState trace;
  const int64_t setup_start = NowNs();
  hiway::Karamel karamel;
  karamel.SetAttribute("cluster/workers", "128");
  karamel.SetAttribute("cluster/cores", "8");
  karamel.SetAttribute("cluster/memory_mb", StrFormat("%d", 9 * 1024));
  karamel.SetAttribute("hiway/cache_results", "on");
  karamel.SetAttribute("hiway/gc", "on");
  karamel.SetAttribute("seed", StrFormat("%llu", static_cast<unsigned long long>(
                                                     seed)));
  karamel.AddRecipe(hiway::HadoopInstallRecipe());
  karamel.AddRecipe(hiway::HiWayInstallRecipe());
  HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> d, karamel.Converge());

  std::vector<Instance> instances;
  for (int k = 0; k < config.service_instances_per_kind; ++k) {
    HIWAY_RETURN_IF_ERROR(AddInstances(k, d.get(), &instances));
  }
  // Open loop: a seeded shuffle of the instances, then the same order
  // again, so every instance is re-submitted exactly one batch later
  // (the daily re-run the result cache is for).
  hiway::Rng rng(seed ^ 0x5eedf00dULL);
  std::vector<size_t> order(instances.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.UniformInt(i)]);
  }
  order.insert(order.end(), order.begin(), order.end());

  struct Arrival {
    double at = 0.0;
    const Instance* instance = nullptr;
    // Declared before `source`, which writes it when destroyed.
    std::vector<std::string> targets;
    std::unique_ptr<hiway::WorkflowSource> source;
    hiway::SubmissionId id = -1;
  };
  std::vector<Arrival> arrivals(order.size());
  double at = 0.0;
  for (size_t i = 0; i < order.size(); ++i) {
    Arrival& a = arrivals[i];
    at += -std::log(1.0 - rng.NextDouble()) / kArrivalRatePerS;
    a.at = at;
    a.instance = &instances[order[i]];
    HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<hiway::WorkflowSource> parsed,
                           ParseInstance(*a.instance));
    if (traced) {
      parsed = std::make_unique<TimedSource>(std::move(parsed), &trace.ledger);
    }
    a.source = std::make_unique<TargetCapture>(std::move(parsed), &a.targets);
  }

  hiway::WorkflowServiceOptions so;
  so.rm_scheduler = "fair";
  so.base_seed = seed;
  for (const char* q : {kGenomics, kAnalytics}) {
    hiway::ServiceQueueOptions queue;
    queue.rm.name = q;
    queue.rm.guaranteed_share = 0.5;
    queue.max_concurrent_ams = 32;
    queue.max_backlog = static_cast<int>(arrivals.size());
    so.queues.push_back(queue);
  }
  HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<hiway::WorkflowService> service,
                         hiway::WorkflowService::Create(d.get(), so));
  size_t arrived = 0;
  std::vector<std::string> submit_errors;
  for (Arrival& a : arrivals) {
    d->engine.ScheduleAt(a.at, [&, ap = &a] {
      ++arrived;
      hiway::SubmissionOptions sub;
      sub.queue = ap->instance->queue;
      Result<hiway::SubmissionId> id = [&] {
        if (!traced) {
          return service->Submit(ap->instance->name, std::move(ap->source),
                                 std::move(sub));
        }
        ScopedSpan span(&trace.ledger, &trace.ledger.service_submit,
                        /*keep_sample=*/false);
        return service->Submit(ap->instance->name, std::move(ap->source),
                               std::move(sub));
      }();
      if (id.ok()) {
        ap->id = *id;
      } else {
        submit_errors.push_back(ap->instance->name + ": " +
                                id.status().ToString());
      }
    });
  }
  out.setup_s = Seconds(NowNs() - setup_start);

  auto done = [&] { return arrived == arrivals.size() && service->Idle(); };
  const int64_t wall_start = NowNs();
  bool reached;
  if (traced) {
    BeginLoop(*d, &trace);
    reached = RunTraced(&d->engine, d->net, done, &trace.engine);
  } else {
    reached = d->engine.RunUntilPredicate(done);
  }
  out.host_wall_s = Seconds(NowNs() - wall_start);

  // Results, read per submission (record(id) does not copy the table).
  out.attempted = static_cast<int64_t>(arrivals.size());
  // Turnaround percentiles are over first submissions: a re-submission
  // is served from the result cache in ~0 virtual seconds, so a sample
  // mixing both is bimodal and its median jumps between the modes.
  std::vector<double> turnaround;
  double first_arrival = arrivals.empty() ? 0.0 : arrivals.front().at;
  double last_finish = first_arrival;
  std::vector<bool> succeeded(arrivals.size(), false);
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    const hiway::SubmissionRecord* rec =
        a.id >= 0 ? service->record(a.id) : nullptr;
    if (rec == nullptr) continue;  // rejected: reported in submit_errors
    trace.queue_waits_s.push_back(rec->QueueWait());
    succeeded[i] = reached &&
                   rec->state == hiway::SubmissionState::kSucceeded &&
                   rec->report.status.ok();
    if (!succeeded[i]) {
      out.failures.push_back(StrFormat(
          "%s (arrival %zu): %s %s", a.instance->name.c_str(), i,
          hiway::ToString(rec->state), rec->report.status.ToString().c_str()));
      continue;
    }
    if (i < instances.size()) {
      turnaround.push_back(rec->finished_at - rec->submitted_at);
    }
    last_finish = std::max(last_finish, rec->finished_at);
    out.tasks_completed += rec->report.tasks_completed;
  }
  for (const char* q : {kGenomics, kAnalytics}) {
    if (const hiway::ServiceQueueCounters* c = service->queue_counters(q)) {
      trace.rejected += c->rejected;
    }
  }
  const double jain = d->rm->TimeAveragedFairness();
  // Destroying the service releases the sources, whose targets the
  // captures then hold.
  service.reset();
  for (size_t i = 0; i < arrivals.size(); ++i) {
    bool ok = succeeded[i];
    if (ok) CheckTargets(*d, arrivals[i].instance->name, arrivals[i].targets,
                         &ok, &out);
    if (!ok) ++out.failed;
  }
  for (const std::string& e : submit_errors) out.failures.push_back(e);

  out.fingerprint = ScheduleFingerprint(*d);
  out.sim_makespan_s = last_finish - first_arrival;
  out.sim_turnaround_p50_s = hiway::Percentile(turnaround, 50);
  out.sim_turnaround_p95_s = hiway::Percentile(turnaround, 95);
  out.sim_jain_fairness = jain;
  out.engine_events = d->engine.events_executed();
  if (traced) AppendLayers(*d, trace, {kGenomics, kAnalytics}, &out);
  return out;
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {kSnvCuneiform, kSnvStatic, kServiceMixed};
}

Result<WorkloadConfig> StandardConfig(const std::string& name) {
  WorkloadConfig c;
  c.name = name;
  if (name == kSnvCuneiform) {
    c.snv_chunks = 512;
  } else if (name == kSnvStatic) {
    c.snv_chunks = 1152;
  } else if (name == kServiceMixed) {
    c.service_instances_per_kind = 128;
  } else {
    return Status::NotFound("unknown workload '" + name + "'");
  }
  return c;
}

Result<RunOutcome> RunOnce(const WorkloadConfig& config, uint64_t seed,
                           bool traced) {
  if (config.name == kServiceMixed) return RunService(config, seed, traced);
  if (config.name == kSnvCuneiform || config.name == kSnvStatic) {
    return RunSnv(config, seed, traced);
  }
  return Status::NotFound("unknown workload '" + config.name + "'");
}

}  // namespace perfbench
