// Unit tests for the scheduler module: fairness ordering and the PSRT
// possible-schedule computation. Whole-scheduler behavior is exercised
// end-to-end in test_sim.cpp.
#include <gtest/gtest.h>

#include "cluster/job.h"
#include "common/rng.h"
#include "ocs1_bound.h"
#include "sched/coscheduler.h"
#include "sched/fairness.h"

namespace cosched {
namespace {

JobSpec spec_for_user(std::int64_t job_id, std::int64_t user,
                      std::int32_t maps, std::int32_t reduces) {
  JobSpec s;
  s.id = JobId{job_id};
  s.user = UserId{user};
  s.num_maps = maps;
  s.num_reduces = reduces;
  s.input_size = DataSize::gigabytes(1);
  s.sir = 1.0;
  s.map_durations.assign(static_cast<std::size_t>(maps),
                         Duration::seconds(10));
  s.reduce_durations.assign(static_cast<std::size_t>(reduces),
                            Duration::seconds(10));
  return s;
}

// ------------------------------------------------------------- fairness ---

TEST(Fairness, OrdersByRunningTasksAscending) {
  IdAllocator<TaskId> ids;
  Job a(spec_for_user(0, 0, 4, 0), DataSize::gigabytes(99), ids, CoflowId{0});
  Job b(spec_for_user(1, 1, 4, 0), DataSize::gigabytes(99), ids, CoflowId{1});
  // User 0 has 2 running tasks, user 1 has none.
  a.note_map_placed(RackId{0});
  a.note_map_placed(RackId{1});
  std::vector<Job*> jobs{&a, &b};
  const auto order = fair_user_order(jobs);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], UserId{1});
  EXPECT_EQ(order[1], UserId{0});
}

TEST(Fairness, CompletedTasksDoNotCount) {
  IdAllocator<TaskId> ids;
  Job a(spec_for_user(0, 0, 4, 0), DataSize::gigabytes(99), ids, CoflowId{0});
  Job b(spec_for_user(1, 1, 4, 0), DataSize::gigabytes(99), ids, CoflowId{1});
  a.note_map_placed(RackId{0});
  a.note_map_completed(RackId{0}, DataSize::zero());
  b.note_map_placed(RackId{0});
  std::vector<Job*> jobs{&a, &b};
  const auto order = fair_user_order(jobs);
  EXPECT_EQ(order[0], UserId{0});  // 0 running beats 1 running
}

TEST(Fairness, TieBreaksByUserId) {
  IdAllocator<TaskId> ids;
  Job a(spec_for_user(0, 5, 1, 0), DataSize::gigabytes(99), ids, CoflowId{0});
  Job b(spec_for_user(1, 2, 1, 0), DataSize::gigabytes(99), ids, CoflowId{1});
  std::vector<Job*> jobs{&a, &b};
  const auto order = fair_user_order(jobs);
  EXPECT_EQ(order[0], UserId{2});
  EXPECT_EQ(order[1], UserId{5});
}

TEST(Fairness, JobsOfUserPreservesArrivalOrder) {
  IdAllocator<TaskId> ids;
  Job a(spec_for_user(0, 1, 1, 0), DataSize::gigabytes(99), ids, CoflowId{0});
  Job b(spec_for_user(1, 2, 1, 0), DataSize::gigabytes(99), ids, CoflowId{1});
  Job c(spec_for_user(2, 1, 1, 0), DataSize::gigabytes(99), ids, CoflowId{2});
  std::vector<Job*> jobs{&a, &b, &c};
  const auto mine = jobs_of_user(jobs, UserId{1});
  ASSERT_EQ(mine.size(), 2u);
  EXPECT_EQ(mine[0]->id(), JobId{0});
  EXPECT_EQ(mine[1]->id(), JobId{2});
}

// ----------------------------------------------------------------- PSRT ---

constexpr auto kTe = DataSize::gigabytes(1.125);
const Bandwidth kBw = Bandwidth::gbps(100);
const Duration kDelta = Duration::milliseconds(10);
const CctBoundFn kBound = ocs1_bound(kBw, kDelta);

TEST(Psrt, EmptyInputsYieldNoSchedules) {
  EXPECT_TRUE(
      possible_reduce_schedules({}, 10, kTe, kBound, 60).empty());
  EXPECT_TRUE(possible_reduce_schedules({DataSize::gigabytes(10)}, 0, kTe,
                                        kBound, 60)
                  .empty());
}

TEST(Psrt, RRedRangeFollowsEquation7) {
  // SM_min = 5 GB, T_e = 1.125 GB -> floor(5/1.125) = 4 possible R_red.
  const std::vector<DataSize> sm{DataSize::gigabytes(5),
                                 DataSize::gigabytes(9)};
  const auto schedules =
      possible_reduce_schedules(sm, 100, kTe, kBound, 60);
  ASSERT_EQ(schedules.size(), 4u);
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    EXPECT_EQ(schedules[i].d.size(), i + 1);
  }
}

TEST(Psrt, DistributionSumsToReduceCountAndMeetsFloor) {
  const std::vector<DataSize> sm{DataSize::gigabytes(5),
                                 DataSize::gigabytes(9)};
  const std::int32_t reduces = 100;
  for (const auto& ps :
       possible_reduce_schedules(sm, reduces, kTe, kBound, 60)) {
    std::int32_t total = 0;
    for (std::int32_t d : ps.d) {
      total += d;
      // Aggregation floor: SM_min * d / reduces >= T_e.
      EXPECT_GE(DataSize::gigabytes(5) *
                    (static_cast<double>(d) / reduces),
                kTe);
    }
    EXPECT_EQ(total, reduces);
  }
}

TEST(Psrt, DistributionIsBalanced) {
  const std::vector<DataSize> sm{DataSize::gigabytes(12)};
  for (const auto& ps :
       possible_reduce_schedules(sm, 50, kTe, kBound, 60)) {
    const auto [lo, hi] = std::minmax_element(ps.d.begin(), ps.d.end());
    EXPECT_LE(*hi - *lo, 1) << "remaining tasks must go to least-loaded";
  }
}

TEST(Psrt, CctIsMinimizedAtRredEqualRmap) {
  // Equation 2: a map rack's outbound work (40 GB) is fixed regardless of
  // R_red, but gains one reconfiguration per reduce rack; a reduce rack's
  // inbound shrinks as 80/R_red GB. The bound is minimized where the two
  // cross — at R_red = R_map, exactly the paper's Section IV-C analysis.
  const std::vector<DataSize> sm{DataSize::gigabytes(40),
                                 DataSize::gigabytes(40)};
  const auto schedules =
      possible_reduce_schedules(sm, 64, kTe, kBound, 60);
  ASSERT_GT(schedules.size(), 2u);
  std::size_t best = 0;
  for (std::size_t i = 1; i < schedules.size(); ++i) {
    if (schedules[i].cct < schedules[best].cct) best = i;
  }
  EXPECT_EQ(schedules[best].d.size(), 2u);  // R_red == R_map == 2
  // At the optimum: row = col = 40 GB at 100 Gb/s + 2 reconfigurations.
  EXPECT_NEAR(schedules[best].cct.sec(), 3.2 + 0.02, 1e-9);
}

TEST(Psrt, CctMatchesManualBoundForSingleRack) {
  // One map rack (10 GB), one reduce rack: a single flow.
  const std::vector<DataSize> sm{DataSize::gigabytes(10)};
  const auto schedules =
      possible_reduce_schedules(sm, 4, kTe, kBound, 60);
  ASSERT_FALSE(schedules.empty());
  const auto& one = schedules.front();
  ASSERT_EQ(one.d.size(), 1u);
  EXPECT_EQ(one.d[0], 4);
  EXPECT_NEAR(one.cct.sec(),
              transfer_time(DataSize::gigabytes(10), kBw).sec() +
                  kDelta.sec(),
              1e-9);
}

TEST(Psrt, RespectsMaxRacksCap) {
  const std::vector<DataSize> sm{DataSize::gigabytes(100)};
  const auto schedules =
      possible_reduce_schedules(sm, 100, kTe, kBound, 3);
  EXPECT_LE(schedules.size(), 3u);
}

TEST(Psrt, CapsAtReduceCount) {
  const std::vector<DataSize> sm{DataSize::gigabytes(100)};
  const auto schedules =
      possible_reduce_schedules(sm, 2, kTe, kBound, 60);
  EXPECT_LE(schedules.size(), 2u);
}

TEST(Psrt, SkipsInfeasibleAggregation) {
  // SM_min barely above T_e: d_min ~= reduces, so only R_red = 1 fits.
  const std::vector<DataSize> sm{DataSize::gigabytes(1.2)};
  const auto schedules =
      possible_reduce_schedules(sm, 10, kTe, kBound, 60);
  ASSERT_EQ(schedules.size(), 1u);
  EXPECT_EQ(schedules[0].d.size(), 1u);
}

// Property sweep: random map-output distributions, all PSRT invariants.
class PsrtProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PsrtProperty, InvariantsHoldForRandomDistributions) {
  Rng rng(GetParam());
  const int n_racks = 1 + static_cast<int>(rng.uniform_int(0, 11));
  std::vector<DataSize> sm;
  for (int i = 0; i < n_racks; ++i) {
    // >= T_e by construction (pre-filtered input contract).
    sm.push_back(DataSize::gigabytes(1.125 + rng.uniform(0.0, 80.0)));
  }
  const auto reduces = static_cast<std::int32_t>(rng.uniform_int(1, 150));
  const auto schedules =
      possible_reduce_schedules(sm, reduces, kTe, kBound, 60);

  DataSize sm_min = sm.front();
  for (const DataSize& s : sm) sm_min = std::min(sm_min, s);
  const auto expected_max = std::min<std::int64_t>(
      {sm_min.in_bytes() / kTe.in_bytes(), reduces, 60});

  std::size_t prev_racks = 0;
  for (const auto& ps : schedules) {
    // R_red values are distinct, increasing, within Equation 7's range.
    EXPECT_GT(ps.d.size(), prev_racks);
    prev_racks = ps.d.size();
    EXPECT_LE(static_cast<std::int64_t>(ps.d.size()), expected_max);

    std::int32_t total = 0;
    for (std::int32_t d : ps.d) {
      total += d;
      // Every rack aggregates past the threshold from the smallest
      // map rack (the paper's aggregation floor).
      EXPECT_GE(sm_min * (static_cast<double>(d) / reduces) +
                    DataSize::bytes(8),  // rounding slack
                kTe);
    }
    EXPECT_EQ(total, reduces);
    // Balance: remaining tasks go to the least-loaded rack.
    const auto [lo, hi] = std::minmax_element(ps.d.begin(), ps.d.end());
    EXPECT_LE(*hi - *lo, 1);
    EXPECT_GT(ps.cct, Duration::zero());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDistributions, PsrtProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(Psrt, RejectsUnfilteredInput) {
  const std::vector<DataSize> sm{DataSize::megabytes(100)};
  EXPECT_THROW(
      (void)possible_reduce_schedules(sm, 10, kTe, kBound, 60),
      CheckFailure);
}

}  // namespace
}  // namespace cosched
