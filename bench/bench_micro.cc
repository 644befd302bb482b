// Micro-benchmarks (google-benchmark) for the hot paths of the simulator
// and the AM: event-queue throughput, fair-share re-fills, JSON
// parsing, HDFS locality queries, scheduler decisions, and the Cuneiform
// interpreter (Init alone, and driven to completion).

#include <benchmark/benchmark.h>

#include <deque>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/common/strings.h"
#include "src/core/scheduler.h"
#include "src/hdfs/dfs.h"
#include "src/lang/cuneiform.h"
#include "src/sim/cluster.h"
#include "src/sim/engine.h"
#include "src/sim/flow.h"
#include "src/workloads/workloads.h"

namespace hiway {
namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const int64_t events = state.range(0);
  for (auto _ : state) {
    SimEngine engine;
    int64_t fired = 0;
    for (int64_t i = 0; i < events; ++i) {
      engine.ScheduleAt(static_cast<double>(i % 97), [&fired] { ++fired; });
    }
    engine.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(10000);

void BM_FlowRebalance(benchmark::State& state) {
  const int64_t flows = state.range(0);
  SimEngine engine;
  FlowNetwork net(&engine);
  std::vector<ResourceId> resources;
  for (int i = 0; i < 50; ++i) {
    resources.push_back(net.AddResource("r", 100.0));
  }
  for (int64_t i = 0; i < flows; ++i) {
    FlowSpec spec;
    spec.resources = {resources[static_cast<size_t>(i) % resources.size()],
                      resources[(static_cast<size_t>(i) + 7) %
                                resources.size()]};
    spec.demand = kInfiniteDemand;
    net.StartFlow(std::move(spec));
  }
  ResourceId churn = net.AddResource("churn", 10.0);
  for (auto _ : state) {
    // Each change is its own event: RunUntil(Now()) runs the re-fill the
    // network defers to the end of the event. The churn flow is alone on
    // its resource, so that re-fill covers only that one flow; what
    // remains is the per-change bookkeeping (next-completion scan) over
    // all active flows.
    FlowId id = net.StartFlow({{churn}, kInfiniteDemand, kNoRateCap, 1.0, {}});
    engine.RunUntil(engine.Now());
    net.CancelFlow(id);
    engine.RunUntil(engine.Now());
  }
  state.SetItemsProcessed(state.iterations() * 2);  // two changes each
}
BENCHMARK(BM_FlowRebalance)->Arg(100)->Arg(600);

// Per-change cost on a Fig. 4-shaped network: 24 nodes x 12 cores, 1 GbE
// NICs, a 250 MB/s switch. Two thirds of the background flows are
// one-core task CPU flows spread over the nodes; the rest are replicated
// writes across the switch (disk, NIC, switch, NIC, disk), which join into
// one switch-wide component. Arg 1 picks the churned change: 0 starts and
// cancels a node-local CPU flow (re-fills one node's CPU flows), 1 a
// switch-crossing transfer (re-fills every transfer).
void BM_FlowRebalanceCluster(benchmark::State& state) {
  const int64_t flows = state.range(0);
  const bool crossing = state.range(1) != 0;
  constexpr int kNodes = 24;
  SimEngine engine;
  FlowNetwork net(&engine);
  NodeSpec node;
  node.cores = 12;
  node.nic_bw_mbps = 125.0;
  Cluster cluster(&engine, &net, ClusterSpec::Uniform(kNodes, node, 250.0));
  for (int64_t i = 0; i < flows; ++i) {
    auto n = static_cast<NodeId>(i % kNodes);
    if (i % 3 != 2) {
      net.StartFlow({{cluster.cpu(n)}, kInfiniteDemand, 1.0, 1.0, {}});
    } else {
      NodeId dst = (n + 1 + static_cast<NodeId>(i % 7)) % kNodes;
      net.StartFlow({cluster.RemoteTransferPath(n, dst), kInfiniteDemand,
                     kNoRateCap, 1.0, {}});
    }
  }
  FlowSpec churn;
  churn.resources = crossing ? cluster.RemoteTransferPath(0, 1)
                             : std::vector<ResourceId>{cluster.cpu(0)};
  churn.demand = kInfiniteDemand;
  churn.rate_cap = crossing ? kNoRateCap : 1.0;
  for (auto _ : state) {
    // As above: each change is its own event, re-filled at its end.
    FlowId id = net.StartFlow(churn);
    engine.RunUntil(engine.Now());
    net.CancelFlow(id);
    engine.RunUntil(engine.Now());
  }
  state.SetLabel(crossing ? "switch-crossing" : "node-local cpu");
  state.SetItemsProcessed(state.iterations() * 2);  // two changes each
}
BENCHMARK(BM_FlowRebalanceCluster)
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({600, 0})
    ->Args({600, 1});

void BM_JsonParseTrapline(benchmark::State& state) {
  GeneratedWorkload workload = MakeTraplineWorkflow(RnaSeqWorkloadOptions{});
  for (auto _ : state) {
    auto doc = Json::Parse(workload.document);
    benchmark::DoNotOptimize(doc);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(workload.document.size()));
}
BENCHMARK(BM_JsonParseTrapline);

void BM_DfsLocalityQuery(benchmark::State& state) {
  SimEngine engine;
  FlowNetwork net(&engine);
  NodeSpec node;
  Cluster cluster(&engine, &net, ClusterSpec::Uniform(24, node, 1000.0));
  Dfs dfs(&cluster, DfsOptions{});
  std::vector<std::string> paths;
  for (int i = 0; i < 512; ++i) {
    std::string path = StrFormat("/f%04d", i);
    (void)dfs.IngestFile(path, 128 << 20);
    paths.push_back(std::move(path));
  }
  size_t i = 0;
  for (auto _ : state) {
    int64_t local = dfs.LocalBytes(paths[i % paths.size()],
                                   static_cast<NodeId>(i % 24));
    benchmark::DoNotOptimize(local);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DfsLocalityQuery);

// Steady-state data-aware selection: a warm queue of N tasks; each
// iteration picks one for a container on the next node and re-enqueues
// it (as the AM's next ready task), so the queue stays at N. This times
// the per-container scan, not the one-time locality resolution of a
// freshly filled queue.
void BM_DataAwareSelect(benchmark::State& state) {
  const int64_t queued = state.range(0);
  SimEngine engine;
  FlowNetwork net(&engine);
  Cluster cluster(&engine, &net, ClusterSpec::Uniform(24, NodeSpec{}, 1000.0));
  Dfs dfs(&cluster, DfsOptions{});
  std::vector<TaskSpec> tasks;
  DataAwareScheduler scheduler(&dfs);
  for (int64_t i = 0; i < queued; ++i) {
    std::string path = StrFormat("/in%04lld", static_cast<long long>(i));
    (void)dfs.IngestFile(path, 64 << 20);
    TaskSpec t;
    t.id = i + 1;
    t.signature = "t";
    t.input_files = {path};
    scheduler.EnqueueReady(t);
    tasks.push_back(std::move(t));
  }
  NodeId node = 0;
  for (auto _ : state) {
    auto picked = scheduler.SelectTask(node);
    scheduler.EnqueueReady(tasks[static_cast<size_t>(*picked - 1)]);
    node = (node + 1) % 24;
    benchmark::DoNotOptimize(picked);
  }
  state.SetItemsProcessed(state.iterations() * queued);
}
BENCHMARK(BM_DataAwareSelect)->Arg(64)->Arg(512);

void BM_CuneiformSweep(benchmark::State& state) {
  SnvWorkloadOptions options;
  options.num_chunks = static_cast<int>(state.range(0));
  GeneratedWorkload workload = MakeSnvCallingWorkflow(options);
  for (auto _ : state) {
    auto source = CuneiformSource::Parse(workload.document);
    auto tasks = (*source)->Init();
    benchmark::DoNotOptimize(tasks);
  }
  state.SetItemsProcessed(state.iterations() * options.num_chunks);
}
BENCHMARK(BM_CuneiformSweep)->Arg(64)->Arg(512);

// Init, then instant FIFO completions until the workflow is done. The
// `per_completion` counter is the host time of one OnTaskCompleted; it
// must stay flat as the chunk count grows (BM_CuneiformSweep only times
// Init, so it cannot see a per-completion cost that grows with N).
void BM_CuneiformDrive(benchmark::State& state) {
  SnvWorkloadOptions options;
  options.num_chunks = static_cast<int>(state.range(0));
  GeneratedWorkload workload = MakeSnvCallingWorkflow(options);
  int64_t completions = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto source = CuneiformSource::Parse(workload.document);
    auto tasks = (*source)->Init();
    std::deque<TaskSpec> pending(tasks->begin(), tasks->end());
    state.ResumeTiming();
    while (!pending.empty()) {
      TaskResult result;
      result.id = pending.front().id;
      result.signature = pending.front().signature;
      pending.pop_front();
      auto more = (*source)->OnTaskCompleted(result);
      pending.insert(pending.end(), more->begin(), more->end());
      ++completions;
    }
    benchmark::DoNotOptimize((*source)->IsDone());
    state.PauseTiming();
    source->reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(completions);
  state.counters["per_completion"] = benchmark::Counter(
      static_cast<double>(completions),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_CuneiformDrive)->Arg(64)->Arg(256)->Arg(1152);

void BM_HeftScheduleBuild(benchmark::State& state) {
  const int tasks_n = static_cast<int>(state.range(0));
  RuntimeEstimator estimator;
  for (int n = 0; n < 24; ++n) estimator.Observe("t", n, 10.0 + n);
  std::vector<TaskSpec> tasks;
  TaskDependencies deps;
  for (TaskId id = 1; id <= tasks_n; ++id) {
    TaskSpec t;
    t.id = id;
    t.signature = "t";
    tasks.push_back(std::move(t));
    if (id > 1) deps[id] = {id / 2};  // binary-tree DAG
  }
  std::vector<NodeId> nodes;
  for (NodeId n = 0; n < 24; ++n) nodes.push_back(n);
  for (auto _ : state) {
    HeftScheduler scheduler(&estimator);
    Status st = scheduler.BuildStaticSchedule(tasks, deps, nodes);
    benchmark::DoNotOptimize(st);
  }
  state.SetItemsProcessed(state.iterations() * tasks_n);
}
BENCHMARK(BM_HeftScheduleBuild)->Arg(100)->Arg(1000);

}  // namespace
}  // namespace hiway

// Custom main: tolerate the harness-wide "--quick" flag (google-benchmark
// rejects flags it does not know).
int main(int argc, char** argv) {
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") continue;
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
