// Unit tests for the cluster module: slot accounting, task lifecycle,
// block-placement policies, Job bookkeeping, T_rem estimation.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cluster/block_placement.h"
#include "cluster/cluster.h"
#include "cluster/job.h"
#include "cluster/task.h"
#include "cluster/trem_estimator.h"
#include "common/check.h"
#include "common/rng.h"

namespace cosched {
namespace {

HybridTopology tiny_topo() {
  HybridTopology t;
  t.num_racks = 4;
  t.servers_per_rack = 2;
  t.slots_per_server = 3;
  return t;
}

// -------------------------------------------------------------- cluster ---

TEST(Cluster, InitialCapacity) {
  Cluster c(tiny_topo());
  EXPECT_EQ(c.num_racks(), 4);
  EXPECT_EQ(c.slots_per_rack(), 6);
  EXPECT_EQ(c.total_free_slots(), 24);
  EXPECT_EQ(c.free_slots(RackId{0}), 6);
  EXPECT_EQ(c.used_slots(RackId{0}), 0);
}

TEST(Cluster, AllocateReleaseRoundTrip) {
  Cluster c(tiny_topo());
  const NodeId n = c.allocate_slot(RackId{1});
  EXPECT_EQ(c.free_slots(RackId{1}), 5);
  EXPECT_EQ(c.total_free_slots(), 23);
  c.release_slot(RackId{1}, n);
  EXPECT_EQ(c.free_slots(RackId{1}), 6);
  EXPECT_EQ(c.total_free_slots(), 24);
}

TEST(Cluster, BalancesAcrossServers) {
  Cluster c(tiny_topo());
  const NodeId a = c.allocate_slot(RackId{0});
  const NodeId b = c.allocate_slot(RackId{0});
  EXPECT_NE(a, b);  // second allocation goes to the other (emptier) server
}

TEST(Cluster, ExhaustionThrows) {
  Cluster c(tiny_topo());
  for (int i = 0; i < 6; ++i) (void)c.allocate_slot(RackId{2});
  EXPECT_EQ(c.free_slots(RackId{2}), 0);
  EXPECT_THROW((void)c.allocate_slot(RackId{2}), CheckFailure);
}

TEST(Cluster, DoubleReleaseThrows) {
  Cluster c(tiny_topo());
  const NodeId n = c.allocate_slot(RackId{0});
  c.release_slot(RackId{0}, n);
  EXPECT_THROW(c.release_slot(RackId{0}, n), CheckFailure);
}

TEST(Cluster, ReleaseOnWrongRackThrows) {
  Cluster c(tiny_topo());
  const NodeId n = c.allocate_slot(RackId{0});
  EXPECT_THROW(c.release_slot(RackId{3}, n), CheckFailure);
}

// ----------------------------------------------------------------- task ---

TEST(Task, MapLifecycle) {
  Task t(TaskId{0}, JobId{0}, TaskKind::kMap, 0, Duration::seconds(10));
  EXPECT_EQ(t.state(), TaskState::kPending);
  t.place(RackId{1}, NodeId{3}, SimTime::seconds(5));
  EXPECT_EQ(t.state(), TaskState::kRunning);
  EXPECT_TRUE(t.compute_started());
  EXPECT_NEAR(t.true_remaining(SimTime::seconds(9)).sec(), 6.0, 1e-12);
  t.complete(SimTime::seconds(15));
  EXPECT_EQ(t.state(), TaskState::kCompleted);
}

TEST(Task, ReduceWaitsForShuffleBeforeComputing) {
  Task t(TaskId{0}, JobId{0}, TaskKind::kReduce, 0, Duration::seconds(20));
  t.place(RackId{0}, NodeId{0}, SimTime::seconds(0));
  EXPECT_FALSE(t.compute_started());
  t.begin_compute(SimTime::seconds(30));
  EXPECT_TRUE(t.compute_started());
  EXPECT_NEAR(t.true_remaining(SimTime::seconds(35)).sec(), 15.0, 1e-12);
  t.complete(SimTime::seconds(50));
}

TEST(Task, ReadPenaltyExtendsRun) {
  Task t(TaskId{0}, JobId{0}, TaskKind::kMap, 0, Duration::seconds(10));
  t.set_read_penalty(Duration::seconds(2));
  EXPECT_NEAR(t.run_duration().sec(), 12.0, 1e-12);
}

TEST(Task, CompleteBeforeComputeThrows) {
  Task t(TaskId{0}, JobId{0}, TaskKind::kReduce, 0, Duration::seconds(1));
  t.place(RackId{0}, NodeId{0}, SimTime::zero());
  EXPECT_THROW(t.complete(SimTime::seconds(1)), CheckFailure);
}

// ------------------------------------------------------------ placement ---

TEST(BlockPlacement, RandomReplicasAreDistinctRacks) {
  Rng rng(1);
  const auto blocks = place_blocks_random(50, 10, 3, rng);
  ASSERT_EQ(blocks.size(), 50u);
  for (const auto& b : blocks) {
    ASSERT_EQ(b.racks.size(), 3u);
    std::set<RackId> uniq(b.racks.begin(), b.racks.end());
    EXPECT_EQ(uniq.size(), 3u);
    for (RackId r : b.racks) EXPECT_LT(r.value(), 10);
  }
}

TEST(BlockPlacement, RandomClampsReplicationToRackCount) {
  Rng rng(1);
  const auto blocks = place_blocks_random(5, 2, 3, rng);
  for (const auto& b : blocks) EXPECT_EQ(b.racks.size(), 2u);
}

TEST(BlockPlacement, ClusteredSetsAreDisjointAndEven) {
  Rng rng(2);
  std::vector<std::vector<RackId>> sets;
  const auto blocks = place_blocks_clustered(40, 30, 3, 4, rng, &sets);
  ASSERT_EQ(sets.size(), 3u);
  std::set<RackId> all;
  for (const auto& set : sets) {
    EXPECT_EQ(set.size(), 4u);
    all.insert(set.begin(), set.end());
  }
  EXPECT_EQ(all.size(), 12u) << "replica sets must be disjoint";

  // Replica k of every block lands in set k, spread evenly.
  for (std::size_t k = 0; k < 3; ++k) {
    std::map<RackId, int> counts;
    for (const auto& b : blocks) ++counts[b.racks[k]];
    for (const auto& [rack, n] : counts) {
      EXPECT_EQ(n, 10);  // 40 blocks over 4 racks
      EXPECT_NE(std::find(sets[k].begin(), sets[k].end(), rack),
                sets[k].end());
    }
  }
}

TEST(BlockPlacement, ClusteredClampsWhenSetsDoNotFit) {
  Rng rng(3);
  std::vector<std::vector<RackId>> sets;
  // r_data=10 with 9 racks and replication 3 -> clamp to 3 per set.
  const auto blocks = place_blocks_clustered(10, 9, 3, 10, rng, &sets);
  EXPECT_EQ(sets.size(), 3u);
  for (const auto& set : sets) EXPECT_EQ(set.size(), 3u);
  EXPECT_EQ(blocks.size(), 10u);
}

TEST(BlockPlacement, OnRacksConfinesReplicas) {
  Rng rng(4);
  const std::vector<RackId> racks{RackId{2}, RackId{5}, RackId{7}};
  const auto blocks = place_blocks_on_racks(20, racks, 3, rng);
  for (const auto& b : blocks) {
    for (RackId r : b.racks) {
      EXPECT_NE(std::find(racks.begin(), racks.end(), r), racks.end());
    }
  }
}

// ------------------------------------------------------------------ job ---

JobSpec simple_spec(std::int32_t maps, std::int32_t reduces) {
  JobSpec s;
  s.id = JobId{7};
  s.user = UserId{1};
  s.num_maps = maps;
  s.num_reduces = reduces;
  s.input_size = DataSize::gigabytes(maps);  // 1 GB blocks
  s.sir = 2.0;
  s.map_durations.assign(static_cast<std::size_t>(maps),
                         Duration::seconds(10));
  s.reduce_durations.assign(static_cast<std::size_t>(reduces),
                            Duration::seconds(20));
  return s;
}

TEST(Job, ConstructionBuildsTasks) {
  IdAllocator<TaskId> ids;
  Job job(simple_spec(4, 2), DataSize::gigabytes(1.125), ids, CoflowId{7});
  EXPECT_EQ(job.maps().size(), 4u);
  EXPECT_EQ(job.reduces().size(), 2u);
  EXPECT_TRUE(job.shuffle_heavy());  // 4 GB * 2.0 = 8 GB >= 1.125 GB
  EXPECT_FALSE(job.all_maps_done());
  EXPECT_FALSE(job.has_block_placement());
}

TEST(Job, LocalityIndexFindsPendingMaps) {
  IdAllocator<TaskId> ids;
  Job job(simple_spec(3, 0), DataSize::gigabytes(100), ids, CoflowId{7});
  std::vector<BlockReplicas> blocks(3);
  blocks[0].racks = {RackId{0}, RackId{1}};
  blocks[1].racks = {RackId{1}, RackId{2}};
  blocks[2].racks = {RackId{2}, RackId{0}};
  job.set_block_placement(blocks);

  EXPECT_TRUE(job.map_local_on(0, RackId{1}));
  EXPECT_FALSE(job.map_local_on(0, RackId{2}));

  Task* t = job.next_pending_map_local(RackId{1});
  ASSERT_NE(t, nullptr);
  EXPECT_TRUE(job.map_local_on(t->index(), RackId{1}));

  // Placing it removes it from all rack queues (lazily).
  t->place(RackId{1}, NodeId{0}, SimTime::zero());
  Task* t2 = job.next_pending_map_local(RackId{1});
  ASSERT_NE(t2, nullptr);
  EXPECT_NE(t2->index(), t->index());
}

/// The per-rack pending-map queues as Job kept them in a std::map: each
/// rack's LIFO of map indices, pruned lazily by task state, and the rack's
/// entry erased once its queue runs dry.
class MapQueueReference {
 public:
  explicit MapQueueReference(const Job& job) : job_(job) {
    for (std::int32_t i = 0; i < job.spec().num_maps; ++i) requeue(i);
  }

  /// Index of the next pending map local to `rack`, or -1.
  std::int32_t next(RackId rack) {
    auto it = queues_.find(rack);
    if (it == queues_.end()) return -1;
    std::vector<std::int32_t>& queue = it->second;
    while (!queue.empty()) {
      if (job_.maps()[static_cast<std::size_t>(queue.back())].state() ==
          TaskState::kPending) {
        return queue.back();
      }
      queue.pop_back();
    }
    queues_.erase(it);
    return -1;
  }

  void requeue(std::int32_t index) {
    for (RackId r : job_.block(index).racks) queues_[r].push_back(index);
  }

  [[nodiscard]] std::vector<RackId> racks() const {
    std::vector<RackId> out;
    for (const auto& [rack, queue] : queues_) {
      if (!queue.empty()) out.push_back(rack);
    }
    return out;
  }

 private:
  const Job& job_;
  std::map<RackId, std::vector<std::int32_t>> queues_;
};

TEST(Job, PendingMapQueuesMatchTheMapReferenceUnderGrantsAndRequeues) {
  std::int64_t grants = 0;
  std::int64_t requeues = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const auto maps = static_cast<std::int32_t>(rng.uniform_int(1, 40));
    const auto racks = static_cast<std::int32_t>(rng.uniform_int(1, 12));
    const auto replication =
        static_cast<std::int32_t>(rng.uniform_int(1, std::min(3, racks)));
    IdAllocator<TaskId> ids;
    Job job(simple_spec(maps, 0), DataSize::gigabytes(100), ids, CoflowId{7});
    job.set_block_placement(
        place_blocks_random(maps, racks, replication, rng));
    MapQueueReference ref(job);
    std::vector<std::int32_t> running;
    for (int op = 0; op < 300; ++op) {
      // One rack past the cluster: no replica there, ever.
      const RackId rack{rng.uniform_int(0, racks)};
      const std::int64_t what = rng.uniform_int(0, 9);
      if (what < 6) {
        Task* t = job.next_pending_map_local(rack);
        ASSERT_EQ(t == nullptr ? -1 : t->index(), ref.next(rack))
            << "op " << op << ", rack " << rack;
        if (t != nullptr && what < 4) {
          t->place(rack, NodeId{0}, SimTime::zero());
          job.note_map_placed(rack);
          running.push_back(t->index());
          ++grants;
        }
      } else if (what < 8) {
        // A non-local grant leaves stale entries in the replica racks.
        if (Task* t = job.next_pending_map_any()) {
          t->place(rack, NodeId{0}, SimTime::zero());
          job.note_map_placed(rack);
          running.push_back(t->index());
          ++grants;
        }
      } else if (!running.empty()) {
        const auto k = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(running.size()) - 1));
        const std::int32_t index = running[k];
        running.erase(running.begin() + static_cast<std::ptrdiff_t>(k));
        job.maps()[static_cast<std::size_t>(index)].reset_for_retry();
        job.requeue_map(index);
        ref.requeue(index);
        ++requeues;
      }
      ASSERT_EQ(job.racks_with_pending_local_maps(), ref.racks())
          << "op " << op;
    }
  }
  // Vacuity guard: the scripts grant and requeue.
  EXPECT_GT(grants, 1000);
  EXPECT_GT(requeues, 100);
}

TEST(Job, NextPendingMapAnyWalksAllMaps) {
  IdAllocator<TaskId> ids;
  Job job(simple_spec(3, 0), DataSize::gigabytes(100), ids, CoflowId{7});
  Rng rng(1);
  job.set_block_placement(place_blocks_random(3, 4, 2, rng));
  std::set<std::int32_t> seen;
  while (Task* t = job.next_pending_map_any()) {
    seen.insert(t->index());
    t->place(RackId{0}, NodeId{0}, SimTime::zero());
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Job, ReducePlanAccounting) {
  IdAllocator<TaskId> ids;
  Job job(simple_spec(2, 4), DataSize::gigabytes(1.125), ids, CoflowId{7});
  job.set_reduce_plan({{RackId{0}, 3}, {RackId{1}, 1}}, Duration::seconds(5));
  EXPECT_TRUE(job.has_reduce_plan());
  EXPECT_EQ(job.reduce_plan_remaining(RackId{0}), 3);
  EXPECT_EQ(job.reduce_plan_remaining(RackId{2}), 0);
  job.note_reduce_placed(RackId{0});
  EXPECT_EQ(job.reduce_plan_remaining(RackId{0}), 2);
  job.clear_reduce_plan();
  EXPECT_FALSE(job.has_reduce_plan());
}

TEST(Job, MapCompletionBookkeeping) {
  IdAllocator<TaskId> ids;
  Job job(simple_spec(2, 1), DataSize::gigabytes(1.125), ids, CoflowId{7});
  job.note_map_placed(RackId{3});
  job.note_map_completed(RackId{3}, DataSize::gigabytes(2));
  job.note_map_placed(RackId{3});
  job.note_map_completed(RackId{3}, DataSize::gigabytes(2));
  EXPECT_TRUE(job.all_maps_done());
  EXPECT_EQ(job.map_racks_used().size(), 1u);
  EXPECT_NEAR(job.map_output_by_rack().at(RackId{3}).in_gigabytes(), 4.0,
              1e-9);
}

TEST(Job, PreferredRacksDefaultAllowsEverything) {
  IdAllocator<TaskId> ids;
  Job job(simple_spec(1, 0), DataSize::gigabytes(1), ids, CoflowId{7});
  EXPECT_TRUE(job.rack_preferred(RackId{9}));
  job.set_preferred_racks({RackId{1}});
  EXPECT_TRUE(job.rack_preferred(RackId{1}));
  EXPECT_FALSE(job.rack_preferred(RackId{9}));
}

// ------------------------------------------------------------------ trem ---

TEST(Trem, ZeroErrorIsExact) {
  const TremEstimator est(1, 0.0);
  Task t(TaskId{5}, JobId{0}, TaskKind::kMap, 0, Duration::seconds(100));
  t.place(RackId{0}, NodeId{0}, SimTime::zero());
  EXPECT_NEAR(est.estimate(t, SimTime::seconds(40)).sec(), 60.0, 1e-12);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(est.factor_for(TaskId{i}, 1 + i % 3), 1.0);
  }
}

TEST(Trem, ErrorFactorIsStablePerTask) {
  const TremEstimator est(1, 0.5);
  Task t(TaskId{5}, JobId{0}, TaskKind::kMap, 0, Duration::seconds(100));
  t.place(RackId{0}, NodeId{0}, SimTime::zero());
  const double f = est.factor_for(t.id(), t.attempt());
  EXPECT_GE(f, 0.5);
  EXPECT_LE(f, 1.5);
  EXPECT_DOUBLE_EQ(est.factor_for(t.id(), t.attempt()), f);
  EXPECT_NEAR(est.estimate(t, SimTime::seconds(40)).sec(), 60.0 * f, 1e-9);
}

TEST(Trem, FactorsBoundedByErrorRate) {
  const TremEstimator est(2, 0.3);
  for (int i = 0; i < 100; ++i) {
    const double f = est.factor_for(TaskId{i}, 1);
    EXPECT_GE(f, 0.7);
    EXPECT_LE(f, 1.3);
  }
}

TEST(Trem, FactorsDoNotDependOnQueryOrder) {
  // Two estimators of one run seed: one asked about tasks 0..99 in
  // order, the other in reverse. Each task's factor must agree, and the
  // factors must not all be one value.
  const TremEstimator forward(3, 0.5);
  const TremEstimator backward(3, 0.5);
  std::vector<double> a(100);
  std::vector<double> b(100);
  for (int i = 0; i < 100; ++i) a[i] = forward.factor_for(TaskId{i}, 1);
  for (int i = 99; i >= 0; --i) b[i] = backward.factor_for(TaskId{i}, 1);
  EXPECT_EQ(a, b);
  EXPECT_NE(*std::min_element(a.begin(), a.end()),
            *std::max_element(a.begin(), a.end()));
  // A different run seed draws different factors.
  EXPECT_NE(TremEstimator(4, 0.5).factor_for(TaskId{0}, 1), a[0]);
}

TEST(Trem, NewAttemptGetsItsOwnFactor) {
  const TremEstimator est(3, 0.5);
  Task t(TaskId{1}, JobId{0}, TaskKind::kMap, 0, Duration::seconds(100));
  t.place(RackId{0}, NodeId{0}, SimTime::zero());
  const double first = est.factor_for(t.id(), t.attempt());
  t.reset_for_retry();  // a container kill: attempt 2
  t.place(RackId{1}, NodeId{2}, SimTime::seconds(10));
  const double second = est.factor_for(t.id(), t.attempt());
  EXPECT_NE(first, second);
  EXPECT_NEAR(est.estimate(t, SimTime::seconds(50)).sec(), 60.0 * second,
              1e-9);
  // The first attempt's factor is still what it was.
  EXPECT_EQ(est.factor_for(t.id(), 1), first);
}

}  // namespace
}  // namespace cosched
