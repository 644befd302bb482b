// Oracle property test for the data-aware scheduler's locality index.
//
// ScanDataAwareScheduler below is the reference policy: on every
// selection it Stat()s every input of every queued task (one NameNode
// metadata op each) and probes Dfs::LocalBytes per input, and RequestFor
// probes every node. DataAwareScheduler resolves each queued task's
// locality once at enqueue and resolves it again only when
// Dfs::layout_epoch moved or one of its inputs was missing.
//
// Both are driven side by side over one DFS and one staging cache
// through seeded random sequences of EnqueueReady + RequestFor,
// SelectTask on a random node (the picked task is sometimes re-enqueued),
// RemoveTask and repeated RequestFor calls, interleaved with every DFS
// call that changes an existing file's blocks (KillNode,
// DecommissionNode, ReReplicate, Delete), late IngestFile of inputs that
// were missing, nodes joining, and staging-cache inserts, LRU evictions,
// migrations and InvalidateNode. After every call both must return the
// same task, the same preferred node, and charge the same number of
// metadata ops.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/cache/staging_cache.h"
#include "src/common/random.h"
#include "src/common/strings.h"
#include "src/core/scheduler.h"
#include "src/hdfs/dfs.h"
#include "src/sim/cluster.h"
#include "src/sim/engine.h"
#include "src/sim/flow.h"

namespace hiway {
namespace {

// ---------------------------------------------------- scan reference --
//
// The data-aware policy as it was before the locality index, kept
// unchanged apart from its class name: a DFS lookup per queued task per
// input on every selection.

class ScanDataAwareScheduler : public WorkflowScheduler {
 public:
  explicit ScanDataAwareScheduler(Dfs* dfs,
                                  const StagingCache* staging = nullptr)
      : dfs_(dfs), staging_(staging) {}
  std::string name() const override { return "data-aware-scan"; }
  void EnqueueReady(const TaskSpec& task) override;
  ContainerRequest RequestFor(const TaskSpec& task) override;
  std::optional<TaskId> SelectTask(NodeId node) override;
  void RemoveTask(TaskId id) override;
  size_t QueuedCount() const override { return queue_.size(); }

 private:
  int64_t EffectiveLocalBytes(const std::string& path, NodeId node) const;

  Dfs* dfs_;
  const StagingCache* staging_;
  std::deque<TaskSpec> queue_;
};

void ScanDataAwareScheduler::EnqueueReady(const TaskSpec& task) {
  queue_.push_back(task);
}

int64_t ScanDataAwareScheduler::EffectiveLocalBytes(const std::string& path,
                                                    NodeId node) const {
  int64_t local = dfs_->LocalBytes(path, node);
  if (staging_ != nullptr) {
    local = std::max(
        local, staging_->CachedBytes(path, dfs_->ContentId(path), node));
  }
  return local;
}

ContainerRequest ScanDataAwareScheduler::RequestFor(const TaskSpec& task) {
  ContainerRequest r;
  r.vcores = task.vcores;
  r.memory_mb = task.memory_mb;
  int64_t best_bytes = -1;
  NodeId best_node = kInvalidNode;
  for (NodeId n = 0; n < dfs_->cluster()->num_nodes(); ++n) {
    int64_t local = 0;
    for (const std::string& path : task.input_files) {
      local += EffectiveLocalBytes(path, n);
    }
    if (local > best_bytes) {
      best_bytes = local;
      best_node = n;
    }
  }
  if (best_bytes > 0) r.preferred_node = best_node;
  return r;
}

std::optional<TaskId> ScanDataAwareScheduler::SelectTask(NodeId node) {
  if (queue_.empty()) return std::nullopt;
  double best_fraction = -1.0;
  size_t best_index = 0;
  for (size_t i = 0; i < queue_.size(); ++i) {
    const TaskSpec& task = queue_[i];
    int64_t total = 0;
    int64_t local = 0;
    for (const std::string& path : task.input_files) {
      auto info = dfs_->Stat(path);
      if (info.ok()) total += info->size_bytes;
      local += EffectiveLocalBytes(path, node);
    }
    double fraction =
        total > 0 ? static_cast<double>(local) / static_cast<double>(total)
                  : 0.0;
    if (fraction > best_fraction + 1e-12) {
      best_fraction = fraction;
      best_index = i;
    }
  }
  TaskId id = queue_[best_index].id;
  queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(best_index));
  return id;
}

void ScanDataAwareScheduler::RemoveTask(TaskId id) {
  queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                              [id](const TaskSpec& t) { return t.id == id; }),
               queue_.end());
}

// ----------------------------------------------------------- scenarios --

constexpr int kPaths = 20;
constexpr int64_t kMb = 1024 * 1024;

std::string PathName(int i) { return StrFormat("/data/f%02d", i); }

struct Counts {
  int selects = 0;
  int picks_with_locality = 0;
  int preferred = 0;
  int layout_changes = 0;
  int late_ingests = 0;
  int joins = 0;
  int staging_changes = 0;
};

class Scenario {
 public:
  Scenario(uint64_t seed, bool with_staging)
      : rng_(seed), with_staging_(with_staging) {
    ClusterSpec spec = ClusterSpec::Uniform(
        4 + static_cast<int>(rng_.UniformInt(5)), NodeSpec{}, 1000.0);
    spec.s3_bw_mbps = 100.0;
    cluster_ = std::make_unique<Cluster>(&engine_, &net_, spec);
    DfsOptions options;
    options.replication = 1 + static_cast<int>(rng_.UniformInt(3));
    options.block_size_bytes =
        (8 + static_cast<int64_t>(rng_.UniformInt(25))) * kMb;
    options.seed = rng_.NextUint64();
    dfs_ = std::make_unique<Dfs>(cluster_.get(), options);
    if (with_staging_) {
      StagingCacheOptions staging_options;
      staging_options.node_budget_bytes = 96 * kMb;
      staging_ = std::make_unique<StagingCache>(staging_options);
    }
    indexed_ =
        std::make_unique<DataAwareScheduler>(dfs_.get(), staging_.get());
    scan_ = std::make_unique<ScanDataAwareScheduler>(dfs_.get(),
                                                     staging_.get());
    for (int i = 0; i < kPaths; ++i) {
      if (i == kPaths - 1) {
        // One S3-hosted input: counted in totals, local nowhere in HDFS.
        EXPECT_TRUE(dfs_->RegisterExternalFile(PathName(i), 40 * kMb).ok());
      } else if (rng_.UniformInt(10) < 6) {
        Ingest(i);
      }
    }
  }

  void Run(int steps) {
    for (int step = 0; step < steps && !HasFatalFailure(); ++step) {
      SCOPED_TRACE(StrFormat("step %d", step));
      Step();
      ASSERT_EQ(indexed_->QueuedCount(), scan_->QueuedCount());
    }
    // Drain: every remaining task leaves in the same order.
    NodeId node = 0;
    while (scan_->QueuedCount() > 0 && !HasFatalFailure()) {
      CompareSelect(node);
      node = (node + 1) % cluster_->num_nodes();
    }
  }

  const Counts& counts() const { return counts_; }

 private:
  static bool HasFatalFailure() { return ::testing::Test::HasFatalFailure(); }

  void Ingest(int i) {
    int64_t size = static_cast<int64_t>(rng_.UniformInt(80)) * kMb;
    if (rng_.UniformInt(8) == 0) size = 0;
    std::optional<NodeId> favored;
    if (rng_.UniformInt(2) == 0) favored = RandomNode();
    ASSERT_TRUE(dfs_->IngestFile(PathName(i), size, favored).ok());
  }

  NodeId RandomNode() {
    return static_cast<NodeId>(
        rng_.UniformInt(static_cast<uint64_t>(cluster_->num_nodes())));
  }

  int AliveNodes() const {
    return cluster_->num_nodes() - static_cast<int>(dead_.size());
  }

  /// Runs `call` and returns the metadata ops it charged.
  template <typename Fn>
  int64_t OpsOf(Fn call) {
    int64_t before = dfs_->counters().metadata_ops;
    call();
    return dfs_->counters().metadata_ops - before;
  }

  void CompareRequest(const TaskSpec& task) {
    ContainerRequest want;
    ContainerRequest got;
    int64_t want_ops = OpsOf([&] { want = scan_->RequestFor(task); });
    int64_t got_ops = OpsOf([&] { got = indexed_->RequestFor(task); });
    ASSERT_EQ(got.preferred_node, want.preferred_node)
        << "RequestFor task " << task.id;
    ASSERT_EQ(got_ops, want_ops) << "RequestFor task " << task.id;
    ASSERT_EQ(got.vcores, want.vcores);
    ASSERT_EQ(got.memory_mb, want.memory_mb);
    if (want.preferred_node != kInvalidNode) ++counts_.preferred;
  }

  void Enqueue(const TaskSpec& task) {
    int64_t want_ops = OpsOf([&] { scan_->EnqueueReady(task); });
    int64_t got_ops = OpsOf([&] { indexed_->EnqueueReady(task); });
    ASSERT_EQ(got_ops, want_ops) << "EnqueueReady task " << task.id;
    queued_.push_back(task);
    CompareRequest(task);
  }

  void CompareSelect(NodeId node) {
    std::optional<TaskId> want;
    std::optional<TaskId> got;
    int64_t want_ops = OpsOf([&] { want = scan_->SelectTask(node); });
    int64_t got_ops = OpsOf([&] { got = indexed_->SelectTask(node); });
    ASSERT_EQ(got, want) << "SelectTask on node " << node;
    ASSERT_EQ(got_ops, want_ops) << "SelectTask on node " << node;
    ++counts_.selects;
    if (!want.has_value()) return;
    auto it = std::find_if(queued_.begin(), queued_.end(),
                           [&](const TaskSpec& t) { return t.id == *want; });
    ASSERT_TRUE(it != queued_.end());
    TaskSpec picked = *it;
    queued_.erase(it);
    for (const std::string& path : picked.input_files) {
      if (dfs_->LocalBytes(path, node) > 0) {
        ++counts_.picks_with_locality;
        break;
      }
    }
    // A declined or failed attempt goes back to the end of the queue.
    if (rng_.UniformInt(3) == 0) Enqueue(picked);
  }

  TaskSpec NewTask() {
    TaskSpec t;
    t.id = next_id_++;
    t.signature = "t";
    t.vcores = 1 + static_cast<int>(rng_.UniformInt(2));
    t.memory_mb = 512;
    int inputs = static_cast<int>(rng_.UniformInt(4));
    for (int k = 0; k < inputs; ++k) {
      t.input_files.push_back(
          PathName(static_cast<int>(rng_.UniformInt(kPaths))));
    }
    return t;
  }

  void Step() {
    uint64_t roll = rng_.UniformInt(100);
    if (roll < 28) {
      Enqueue(NewTask());
    } else if (roll < 56) {
      CompareSelect(RandomNode());
    } else if (roll < 60) {
      // Abort a queued task (or an unknown id).
      TaskId id = queued_.empty() || rng_.UniformInt(5) == 0
                      ? next_id_ + 1000
                      : queued_[rng_.UniformInt(queued_.size())].id;
      scan_->RemoveTask(id);
      indexed_->RemoveTask(id);
      queued_.erase(std::remove_if(queued_.begin(), queued_.end(),
                                   [id](const TaskSpec& t) {
                                     return t.id == id;
                                   }),
                    queued_.end());
    } else if (roll < 66) {
      // Ask again for the newest queued task, then for any queued one.
      if (!queued_.empty()) {
        CompareRequest(queued_.back());
        CompareRequest(queued_[rng_.UniformInt(queued_.size())]);
      }
    } else if (roll < 70) {
      if (AliveNodes() > 2) {
        NodeId n = RandomNode();
        if (dead_.insert(n).second) {
          dfs_->KillNode(n);
          if (staging_ != nullptr) staging_->InvalidateNode(n);
          ++counts_.layout_changes;
        }
      }
    } else if (roll < 74) {
      if (AliveNodes() > 2) {
        NodeId n = RandomNode();
        if (dead_.insert(n).second) {
          dfs_->DecommissionNode(n);
          ++counts_.layout_changes;
        }
      }
    } else if (roll < 78) {
      dfs_->ReReplicate();
      ++counts_.layout_changes;
    } else if (roll < 82) {
      std::string path = PathName(static_cast<int>(rng_.UniformInt(kPaths)));
      if (dfs_->Delete(path).ok()) ++counts_.layout_changes;
    } else if (roll < 88) {
      int i = static_cast<int>(rng_.UniformInt(kPaths));
      if (!dfs_->Exists(PathName(i))) {
        Ingest(i);
        ++counts_.late_ingests;
      }
    } else if (roll < 90) {
      if (cluster_->num_nodes() < 12) {
        cluster_->AddNode(NodeSpec{});
        ++counts_.joins;
      }
    } else if (staging_ != nullptr) {
      StagingStep(roll);
    }
  }

  void StagingStep(uint64_t roll) {
    ++counts_.staging_changes;
    NodeId n = RandomNode();
    if (roll < 97) {
      // A stage-in: usually the current content, sometimes a stale copy;
      // released at once so later inserts can evict it (96 MB budget).
      std::string path = PathName(static_cast<int>(rng_.UniformInt(kPaths)));
      uint64_t content = dfs_->ContentId(path);
      if (content == 0 || rng_.UniformInt(6) == 0) {
        content = rng_.NextUint64();
      }
      int64_t bytes = static_cast<int64_t>(1 + rng_.UniformInt(60)) * kMb;
      staging_->InsertPinned(n, path, content, bytes);
      if (rng_.UniformInt(4) != 0) staging_->Unpin(n, path);
    } else if (roll < 99) {
      staging_->InvalidateNode(n);
    } else {
      std::vector<NodeId> targets;
      for (NodeId t = 0; t < cluster_->num_nodes(); ++t) {
        if (t != n && dead_.count(t) == 0) targets.push_back(t);
      }
      staging_->MigrateNode(n, targets);
    }
  }

  SimEngine engine_;
  FlowNetwork net_{&engine_};
  Rng rng_;
  bool with_staging_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Dfs> dfs_;
  std::unique_ptr<StagingCache> staging_;
  std::unique_ptr<DataAwareScheduler> indexed_;
  std::unique_ptr<ScanDataAwareScheduler> scan_;
  std::vector<TaskSpec> queued_;
  std::set<NodeId> dead_;
  TaskId next_id_ = 1;
  Counts counts_;
};

Counts RunSeeds(bool with_staging, int seeds, int steps) {
  Counts total;
  for (int seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE(
        StrFormat("seed %d%s", seed, with_staging ? " staging" : ""));
    Scenario scenario(static_cast<uint64_t>(seed) * 7919 +
                          (with_staging ? 1 : 0),
                      with_staging);
    if (::testing::Test::HasFatalFailure()) break;
    scenario.Run(steps);
    if (::testing::Test::HasFatalFailure()) break;
    const Counts& c = scenario.counts();
    total.selects += c.selects;
    total.picks_with_locality += c.picks_with_locality;
    total.preferred += c.preferred;
    total.layout_changes += c.layout_changes;
    total.late_ingests += c.late_ingests;
    total.joins += c.joins;
    total.staging_changes += c.staging_changes;
  }
  return total;
}

TEST(SchedulerOracleTest, IndexMatchesScanUnderDfsChurn) {
  Counts c = RunSeeds(/*with_staging=*/false, /*seeds=*/150, /*steps=*/400);
  // The scenarios must exercise what they claim to.
  EXPECT_GT(c.picks_with_locality, 1000);
  EXPECT_GT(c.preferred, 1000);
  EXPECT_GT(c.layout_changes, 1000);
  EXPECT_GT(c.late_ingests, 300);
  EXPECT_GT(c.joins, 100);
}

TEST(SchedulerOracleTest, IndexMatchesScanWithStagingCache) {
  Counts c = RunSeeds(/*with_staging=*/true, /*seeds=*/150, /*steps=*/400);
  EXPECT_GT(c.picks_with_locality, 1000);
  EXPECT_GT(c.layout_changes, 1000);
  EXPECT_GT(c.staging_changes, 3000);
}

}  // namespace
}  // namespace hiway
