// Unit tests for the metrics module: run-level derivations, aggregation,
// percentile digests, fairness index, and the run summary.
#include <gtest/gtest.h>

#include <sstream>

#include "common/check.h"
#include "metrics/metrics.h"
#include "metrics/report.h"

namespace cosched {
namespace {

JobRecord make_job(std::int64_t id, std::int64_t user, bool heavy,
                   double jct_sec, double cct_sec) {
  JobRecord j;
  j.id = JobId{id};
  j.user = UserId{user};
  j.shuffle_heavy = heavy;
  j.has_shuffle = cct_sec > 0;
  j.arrival = SimTime::zero();
  j.completion = SimTime::seconds(jct_sec);
  j.jct = Duration::seconds(jct_sec);
  j.cct = Duration::seconds(cct_sec);
  j.shuffle_bytes = DataSize::gigabytes(heavy ? 10 : 0.5);
  return j;
}

RunMetrics sample_run() {
  RunMetrics m;
  m.scheduler = "test";
  m.makespan = Duration::seconds(100);
  m.jobs.push_back(make_job(0, 0, true, 50, 20));
  m.jobs.push_back(make_job(1, 0, false, 10, 2));
  m.jobs.push_back(make_job(2, 1, false, 20, 0));  // no shuffle
  m.jobs.push_back(make_job(3, 1, true, 40, 10));
  m.ocs_bytes = DataSize::gigabytes(15);
  m.eps_bytes = DataSize::gigabytes(5);
  m.local_bytes = DataSize::gigabytes(1);
  return m;
}

TEST(Metrics, Averages) {
  const RunMetrics m = sample_run();
  EXPECT_DOUBLE_EQ(m.avg_jct_sec(), 30.0);
  EXPECT_NEAR(m.avg_cct_sec(), (20.0 + 2.0 + 10.0) / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(m.avg_jct_sec(true), 45.0);
  EXPECT_DOUBLE_EQ(m.avg_jct_sec(false), 15.0);
  EXPECT_DOUBLE_EQ(m.avg_cct_sec(true), 15.0);
  EXPECT_DOUBLE_EQ(m.avg_cct_sec(false), 2.0);
}

TEST(Metrics, OcsFractionExcludesLocal) {
  const RunMetrics m = sample_run();
  EXPECT_NEAR(m.ocs_traffic_fraction(), 15.0 / 20.0, 1e-12);
}

TEST(Metrics, OcsFractionZeroWhenNoTraffic) {
  RunMetrics m;
  EXPECT_DOUBLE_EQ(m.ocs_traffic_fraction(), 0.0);
}

TEST(Metrics, AggregateAccumulates) {
  AggregateMetrics agg;
  agg.add(sample_run());
  agg.add(sample_run());
  EXPECT_EQ(agg.repetitions, 2u);
  EXPECT_EQ(agg.scheduler, "test");
  EXPECT_DOUBLE_EQ(agg.makespan_sec.mean(), 100.0);
  EXPECT_DOUBLE_EQ(agg.avg_jct_sec.mean(), 30.0);
}

TEST(Metrics, AggregateRejectsMixedSchedulers) {
  AggregateMetrics agg;
  agg.add(sample_run());
  RunMetrics other = sample_run();
  other.scheduler = "other";
  EXPECT_THROW(agg.add(other), CheckFailure);
}

TEST(Metrics, ImprovementOverMatchesEquation10) {
  EXPECT_NEAR(improvement_over(100.0, 48.8), 0.512, 1e-12);
  EXPECT_NEAR(improvement_over(10.0, 15.0), -0.5, 1e-12);  // a regression
  EXPECT_THROW((void)improvement_over(0.0, 1.0), CheckFailure);
}

TEST(Report, PercentileDigests) {
  const RunMetrics m = sample_run();
  const PercentileDigest jct = jct_percentiles(m);
  EXPECT_DOUBLE_EQ(jct.max, 50.0);
  EXPECT_DOUBLE_EQ(jct.p50, 30.0);
  const PercentileDigest cct = cct_percentiles(m);
  EXPECT_DOUBLE_EQ(cct.max, 20.0);
}

TEST(Report, JainIndexPerfectlyFairIsOne) {
  RunMetrics m;
  m.scheduler = "t";
  m.jobs.push_back(make_job(0, 0, false, 10, 0));
  m.jobs.push_back(make_job(1, 1, false, 10, 0));
  m.jobs.push_back(make_job(2, 2, false, 10, 0));
  EXPECT_NEAR(jain_fairness_index(m), 1.0, 1e-12);
}

TEST(Report, JainIndexDetectsSkew) {
  RunMetrics m;
  m.scheduler = "t";
  m.jobs.push_back(make_job(0, 0, false, 10, 0));
  m.jobs.push_back(make_job(1, 1, false, 90, 0));
  // Jain for (10, 90): (100)^2 / (2 * (100 + 8100)) = 0.6097...
  EXPECT_NEAR(jain_fairness_index(m), 10000.0 / (2 * 8200.0), 1e-9);
}

TEST(Report, PercentileDigestsEmptyRunAreZero) {
  RunMetrics m;
  m.scheduler = "t";
  const PercentileDigest jct = jct_percentiles(m);
  EXPECT_DOUBLE_EQ(jct.p50, 0.0);
  EXPECT_DOUBLE_EQ(jct.p90, 0.0);
  EXPECT_DOUBLE_EQ(jct.p99, 0.0);
  EXPECT_DOUBLE_EQ(jct.max, 0.0);
  // A run whose jobs all lack shuffles has an empty CCT digest too.
  m.jobs.push_back(make_job(0, 0, false, 10, 0));
  const PercentileDigest cct = cct_percentiles(m);
  EXPECT_DOUBLE_EQ(cct.max, 0.0);
}

TEST(Report, PercentileDigestsSingleJobCollapse) {
  RunMetrics m;
  m.scheduler = "t";
  m.jobs.push_back(make_job(0, 0, true, 42, 7));
  const PercentileDigest jct = jct_percentiles(m);
  EXPECT_DOUBLE_EQ(jct.p50, 42.0);
  EXPECT_DOUBLE_EQ(jct.p90, 42.0);
  EXPECT_DOUBLE_EQ(jct.p99, 42.0);
  EXPECT_DOUBLE_EQ(jct.max, 42.0);
  const PercentileDigest cct = cct_percentiles(m);
  EXPECT_DOUBLE_EQ(cct.p50, 7.0);
  EXPECT_DOUBLE_EQ(cct.max, 7.0);
}

TEST(Report, PercentileDigestsDuplicateValues) {
  RunMetrics m;
  m.scheduler = "t";
  for (int i = 0; i < 5; ++i) m.jobs.push_back(make_job(i, 0, false, 10, 0));
  const PercentileDigest jct = jct_percentiles(m);
  EXPECT_DOUBLE_EQ(jct.p50, 10.0);
  EXPECT_DOUBLE_EQ(jct.p90, 10.0);
  EXPECT_DOUBLE_EQ(jct.p99, 10.0);
  EXPECT_DOUBLE_EQ(jct.max, 10.0);
}

TEST(Report, JainIndexSingleUserIsOne) {
  RunMetrics m;
  m.scheduler = "t";
  m.jobs.push_back(make_job(0, 7, false, 10, 0));
  m.jobs.push_back(make_job(1, 7, false, 90, 0));
  EXPECT_DOUBLE_EQ(jain_fairness_index(m), 1.0);
}

TEST(Report, JainIndexAllZeroJctIsOne) {
  RunMetrics m;
  m.scheduler = "t";
  m.jobs.push_back(make_job(0, 0, false, 0, 0));
  m.jobs.push_back(make_job(1, 1, false, 0, 0));
  EXPECT_DOUBLE_EQ(jain_fairness_index(m), 1.0);  // 0/0 guarded, not NaN
}

TEST(Report, JainIndexEmptyRunIsOne) {
  RunMetrics m;
  m.scheduler = "t";
  EXPECT_DOUBLE_EQ(jain_fairness_index(m), 1.0);
}

TEST(Report, SummaryMentionsKeyQuantities) {
  const RunMetrics m = sample_run();
  std::ostringstream os;
  print_summary(os, m);
  const std::string out = os.str();
  EXPECT_NE(out.find("makespan"), std::string::npos);
  EXPECT_NE(out.find("OCS share"), std::string::npos);
  EXPECT_NE(out.find("fairness"), std::string::npos);
}

}  // namespace
}  // namespace cosched
