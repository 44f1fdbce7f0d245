// Fabric::cct_lower_bound (ctest -L fabric): hand-derived bound values per
// fabric — ocs:1 bit-identical to the paper's T(C) free function, ocs:K
// dividing port work across planes (with the single-flow and ceil(deg/K)
// setup terms), rotor slot quantization at the exactly-one-period edge,
// and mesh's zero-delta max-entry bound — plus the PSRT
// reference/incremental surrogate equivalence under
// every fabric bound (docs/FABRICS.md, "The bound contract"), and
// port_loads() and the one-pass bounds over it pinned bit for bit against
// the per-port scan formulas they replaced (reference_port_loads and
// reference_port_bound below), and the Co-scheduler's planner charging the
// bound of the fabric its context carries.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/job.h"
#include "coflow/cct_bound.h"
#include "coflow/coflow.h"
#include "coflow/traffic_matrix.h"
#include "common/ids.h"
#include "common/rng.h"
#include "fabric/fabric_factory.h"
#include "fabric/mesh_fabric.h"
#include "fabric/ocs_fabric.h"
#include "fabric/rotor_fabric.h"
#include "net/topology.h"
#include "sched/coscheduler.h"
#include "simcore/simulator.h"

namespace cosched {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// 8 racks, 8 Gb/s OCS (= 1 GB/s, so a 1 GB transfer is exactly 1 s),
/// delta = 10 ms, T_e = 1 GB: every hand-derived value below is exact.
HybridTopology test_topo() {
  HybridTopology topo;
  topo.num_racks = 8;
  topo.ocs_link = Bandwidth::gbps(8);
  topo.ocs_reconfig_delay = Duration::milliseconds(10);
  topo.elephant_threshold = DataSize::gigabytes(1);
  return topo;
}

constexpr double kDelta = 0.01;

// ---- Reference: the per-port scan bounds (O(entries) per port). ---------
//
// These are the formulas the fabric bounds evaluated before port_loads():
// every port's sum and degree recomputed by a full scan of the entries.
// Quadratic, but obviously right; the one-pass bounds must match them bit
// for bit.

DataSize scan_row_sum(const TrafficMatrix& m, RackId src) {
  DataSize t = DataSize::zero();
  for (const auto& [key, size] : m.entries()) {
    if (key.first == src) t += size;
  }
  return t;
}

DataSize scan_col_sum(const TrafficMatrix& m, RackId dst) {
  DataSize t = DataSize::zero();
  for (const auto& [key, size] : m.entries()) {
    if (key.second == dst) t += size;
  }
  return t;
}

std::size_t scan_row_degree(const TrafficMatrix& m, RackId src) {
  std::size_t n = 0;
  for (const auto& [key, size] : m.entries()) {
    if (key.first == src) ++n;
  }
  return n;
}

std::size_t scan_col_degree(const TrafficMatrix& m, RackId dst) {
  std::size_t n = 0;
  for (const auto& [key, size] : m.entries()) {
    if (key.second == dst) ++n;
  }
  return n;
}

/// port_loads() with each port's load found by scanning the whole matrix.
TrafficMatrix::PortLoads reference_port_loads(const TrafficMatrix& m) {
  std::set<RackId> srcs;
  std::set<RackId> dsts;
  for (const auto& [key, size] : m.entries()) {
    srcs.insert(key.first);
    dsts.insert(key.second);
  }
  TrafficMatrix::PortLoads loads;
  for (RackId src : srcs) {
    loads.sources.push_back(
        {src, scan_row_sum(m, src), scan_row_degree(m, src)});
  }
  for (RackId dst : dsts) {
    loads.destinations.push_back(
        {dst, scan_col_sum(m, dst), scan_col_degree(m, dst)});
  }
  return loads;
}

/// max over every row and column of port(sum, degree), from the scans.
template <typename PortFn>
Duration reference_port_bound(const TrafficMatrix& m, PortFn port) {
  const TrafficMatrix::PortLoads loads = reference_port_loads(m);
  Duration bound = Duration::zero();
  for (const auto* side : {&loads.sources, &loads.destinations}) {
    for (const TrafficMatrix::PortLoad& p : *side) {
      bound = std::max(bound, port(p.sum, p.degree));
    }
  }
  return bound;
}

/// The legacy / ocs:1 T(C).
Duration reference_legacy_bound(const TrafficMatrix& m, Bandwidth bw,
                                Duration delta) {
  return reference_port_bound(m, [&](DataSize sum, std::size_t degree) {
    return transfer_time(sum, bw) + delta * static_cast<double>(degree);
  });
}

/// OcsFabric's K-plane bound (K = 1 is the legacy bound).
Duration reference_ocs_bound(const TrafficMatrix& m, Bandwidth bw,
                             Duration delta, std::int32_t planes) {
  if (planes == 1) return reference_legacy_bound(m, bw, delta);
  const auto k = static_cast<double>(planes);
  Duration bound =
      reference_port_bound(m, [&](DataSize sum, std::size_t degree) {
        const Duration busy =
            (transfer_time(sum, bw) + delta * static_cast<double>(degree)) /
            k;
        const Duration setups =
            delta * std::ceil(static_cast<double>(degree) / k);
        return std::max(busy, setups);
      });
  for (const auto& entry : m.entries()) {
    bound = std::max(bound, ocs_flow_time(entry.second, bw, delta));
  }
  return bound;
}

/// RotorFabric's slot-quantized bound for period `period`.
Duration reference_rotor_bound(const TrafficMatrix& m, Bandwidth bw,
                               Duration delta, Duration period) {
  const double cap_bits = (period - delta).sec() * bw.in_bits_per_sec();
  return reference_port_bound(m, [&](DataSize sum, std::size_t degree) {
    if (sum.is_zero()) return Duration::zero();
    const Duration drain = transfer_time(sum, bw);
    const double bits = static_cast<double>(sum.in_bytes()) * 8.0;
    const double slots = std::max(static_cast<double>(degree),
                                  std::ceil(bits / cap_bits));
    if (slots <= 1.0) return drain;
    const double residual = std::max(0.0, bits - (slots - 1.0) * cap_bits);
    const Duration tail =
        period * (slots - 2.0) + delta +
        Duration::seconds(residual / bw.in_bits_per_sec());
    return std::max(drain, tail);
  });
}

TrafficMatrix asymmetric_matrix() {
  // Row 0 is wide (two flows), column 1 is tall (4 GB single flow): the
  // binding line differs between the legacy bound (column 1: 6 s + 2
  // setups) and the per-entry term (the 4 GB flow).
  TrafficMatrix m;
  m.add(RackId{0}, RackId{1}, DataSize::gigabytes(2));
  m.add(RackId{0}, RackId{2}, DataSize::gigabytes(1));
  m.add(RackId{3}, RackId{1}, DataSize::gigabytes(4));
  return m;
}

TEST(CctBoundFabric, Ocs1IsBitIdenticalToTheLegacyFreeFunction) {
  Simulator sim;
  const HybridTopology topo = test_topo();
  const OcsFabric ocs1(sim, topo, 1);
  const TrafficMatrix m = asymmetric_matrix();
  const Duration legacy =
      cct_lower_bound(m, topo.ocs_link, topo.ocs_reconfig_delay);
  EXPECT_EQ(bits(ocs1.cct_lower_bound(m).sec()), bits(legacy.sec()));
  // Hand value: col 1 binds at t(6 GB) + 2 * delta.
  EXPECT_DOUBLE_EQ(legacy.sec(), 6.0 + 2.0 * kDelta);
  EXPECT_EQ(bits(ocs1.cct_lower_bound(TrafficMatrix{}).sec()), bits(0.0));
}

TEST(CctBoundFabric, Ocs4SingleFlowTermBindsOnTheAsymmetricMatrix) {
  Simulator sim;
  const OcsFabric ocs4(sim, test_topo(), 4);
  // Port terms shrink by 4: col 1 becomes (6 + 2 delta)/4 = 1.505 s. But
  // the 4 GB flow still rides one circuit on one plane: 4 s + delta binds.
  EXPECT_DOUBLE_EQ(ocs4.cct_lower_bound(asymmetric_matrix()).sec(),
                   4.0 + kDelta);
}

TEST(CctBoundFabric, Ocs4DividesPortWorkAcrossPlanes) {
  Simulator sim;
  const OcsFabric ocs1(sim, test_topo(), 1);
  const OcsFabric ocs4(sim, test_topo(), 4);
  // One source fanning 1 GB to all 8 destinations: pure port-bound shape.
  TrafficMatrix m;
  for (int j = 1; j < 8; ++j) {
    m.add(RackId{0}, RackId{j}, DataSize::gigabytes(1));
  }
  m.add(RackId{0}, RackId{100}, DataSize::gigabytes(1));
  // ocs:1 charges the full serialized row: 8 s + 8 setups.
  EXPECT_DOUBLE_EQ(ocs1.cct_lower_bound(m).sec(), 8.0 + kDelta * 8.0);
  // ocs:4 spreads it over 4 transceivers; the single-flow term (1 s +
  // delta) and ceil(8/4) setups are both smaller.
  EXPECT_DOUBLE_EQ(ocs4.cct_lower_bound(m).sec(), (8.0 + kDelta * 8.0) / 4.0);
}

TEST(CctBoundFabric, OcsKCeilSetupTermBindsForTinyFlows) {
  Simulator sim;
  const OcsFabric ocs4(sim, test_topo(), 4);
  // 5 flows of 4 MB from one source: transfer is 0.02 s total, so the
  // averaged busy term is (0.02 + 5 delta)/4 = 0.0175 s — but 5 setups
  // cannot pack onto 4 planes without some plane doing 2 in sequence.
  TrafficMatrix m;
  for (int j = 1; j <= 5; ++j) {
    m.add(RackId{0}, RackId{j}, DataSize::megabytes(4));
  }
  EXPECT_DOUBLE_EQ(ocs4.cct_lower_bound(m).sec(),
                   kDelta * std::ceil(5.0 / 4.0));
}

TEST(CctBoundFabric, RotorSlotEdgeAtExactlyOnePeriodOfCapacity) {
  Simulator sim;
  const RotorFabric rotor(sim, test_topo(), Duration::milliseconds(100));
  // One slot's usable capacity is (P - delta) * bw = 90 ms at 1 GB/s =
  // 90 MB. A flow of exactly that size fits one slot: the bound is its
  // pure transfer time, not a period.
  TrafficMatrix exact;
  exact.add(RackId{0}, RackId{1}, DataSize::bytes(90'000'000));
  EXPECT_DOUBLE_EQ(rotor.cct_lower_bound(exact).sec(), 0.09);
  // One byte more needs a second slot; the straddle-aware tail
  // ((n-2) P + delta + residual) stays below the drain term, which still
  // binds — the bound grows continuously across the slot edge.
  TrafficMatrix over;
  over.add(RackId{0}, RackId{1}, DataSize::bytes(90'000'001));
  EXPECT_DOUBLE_EQ(rotor.cct_lower_bound(over).sec(),
                   transfer_time(DataSize::bytes(90'000'001),
                                 Bandwidth::gbps(8))
                       .sec());
}

TEST(CctBoundFabric, RotorDegreeForcesDistinctSlots) {
  Simulator sim;
  const RotorFabric rotor(sim, test_topo(), Duration::milliseconds(100));
  // Three tiny flows to three destinations: the bits fit one slot, but
  // each slot wires the source to exactly one peer, so three distinct
  // slots are needed — the third's boundary lies > release + P, plus its
  // delta. Slot quantization dominates the 12 ms of transfer.
  TrafficMatrix m;
  for (int j = 1; j <= 3; ++j) {
    m.add(RackId{0}, RackId{j}, DataSize::megabytes(4));
  }
  EXPECT_DOUBLE_EQ(rotor.cct_lower_bound(m).sec(), 0.1 + kDelta);
}

TEST(CctBoundFabric, MeshChargesOnlyTheLargestEntryAndZeroDelta) {
  Simulator sim;
  const MeshFabric mesh(sim, test_topo());
  const TrafficMatrix m = asymmetric_matrix();
  // Every pair drains concurrently: 4 s for the largest flow, no delta —
  // strictly below the legacy bound's 6.02 s column serialization.
  EXPECT_DOUBLE_EQ(mesh.cct_lower_bound(m).sec(), 4.0);
  EXPECT_LT(mesh.cct_lower_bound(m).sec(),
            cct_lower_bound(m, test_topo().ocs_link,
                            test_topo().ocs_reconfig_delay)
                .sec());
}

// The incremental PSRT evaluates the fabric bound on a surrogate matrix of
// just the binding row and column (coscheduler.h); that collapse must be
// bit-exact under every fabric's formula, not only the legacy one.
TEST(CctBoundFabric, PsrtIncrementalSurrogateMatchesReferencePerFabric) {
  Simulator sim;
  const HybridTopology topo = test_topo();
  const OcsFabric ocs1(sim, topo, 1);
  const OcsFabric ocs4(sim, topo, 4);
  const RotorFabric rotor(sim, topo, Duration::milliseconds(100));
  const MeshFabric mesh(sim, topo);
  const std::vector<const Fabric*> fabrics = {&ocs1, &ocs4, &rotor, &mesh};
  const std::vector<DataSize> sm = {DataSize::gigabytes(3),
                                    DataSize::gigabytes(2),
                                    DataSize::gigabytes(5)};
  for (const Fabric* fabric : fabrics) {
    const CctBoundFn bound = [fabric](const TrafficMatrix& matrix) {
      return fabric->cct_lower_bound(matrix);
    };
    const auto reference = possible_reduce_schedules(
        sm, 7, topo.elephant_threshold, bound, topo.num_racks);
    const auto incremental = possible_reduce_schedules_incremental(
        sm, 7, topo.elephant_threshold, bound, topo.num_racks);
    ASSERT_EQ(reference.size(), incremental.size()) << fabric->name();
    ASSERT_FALSE(reference.empty()) << fabric->name();
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(reference[i].d, incremental[i].d) << fabric->name();
      EXPECT_EQ(bits(reference[i].cct.sec()), bits(incremental[i].cct.sec()))
          << fabric->name() << " candidate " << i;
    }
  }
}

/// A random byte size spanning single bytes to multi-hundred-GB elephants,
/// with small exact values common enough to produce ties.
DataSize random_size(Rng& rng) {
  switch (rng.uniform_int(0, 3)) {
    case 0:
      return DataSize::bytes(rng.uniform_int(1, 1000));
    case 1:
      return DataSize::megabytes(static_cast<double>(rng.uniform_int(1, 8)));
    default:
      return DataSize::bytes(rng.uniform_int(1, 500'000'000'000));
  }
}

/// One random matrix of shape `trial % 6`: general sparse, PSRT-style
/// (sources 0..m-1, destinations 1000000 + j), a single row, one to three
/// tall columns, few keys hit by many repeated add() calls, or
/// destinations that differ in one of three bytes and agree in the others.
TrafficMatrix random_bound_matrix(Rng& rng, int trial) {
  TrafficMatrix m;
  switch (trial % 6) {
    case 0: {
      const std::int64_t n = rng.uniform_int(1, 40);
      const double density = rng.uniform(0.05, 1.0);
      for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
          if (i != j && rng.bernoulli(density)) {
            m.add(RackId{i}, RackId{j}, random_size(rng));
          }
        }
      }
      break;
    }
    case 1: {
      const std::int64_t rows = rng.uniform_int(1, 30);
      const std::int64_t cols = rng.uniform_int(1, 30);
      for (std::int64_t i = 0; i < rows; ++i) {
        for (std::int64_t j = 0; j < cols; ++j) {
          m.add(RackId{i}, RackId{1000000 + j}, random_size(rng));
        }
      }
      break;
    }
    case 2: {
      const RackId src{rng.uniform_int(0, 300)};
      const std::int64_t cols = rng.uniform_int(1, 60);
      for (std::int64_t j = 0; j < cols; ++j) {
        m.add(src, RackId{rng.uniform_int(0, 2000000)}, random_size(rng));
      }
      break;
    }
    case 3: {
      // One to three tall columns: a single column, or columns scattered
      // far apart, whose ids differ in three bytes.
      std::vector<RackId> dsts;
      const std::int64_t cols = rng.uniform_int(1, 3);
      for (std::int64_t j = 0; j < cols; ++j) {
        dsts.emplace_back(rng.uniform_int(0, 2000000));
      }
      const std::int64_t rows = rng.uniform_int(1, 60);
      for (std::int64_t i = 0; i < rows; ++i) {
        for (RackId dst : dsts) {
          if (rng.bernoulli(0.7)) {
            m.add(RackId{rng.uniform_int(0, 300)}, dst, random_size(rng));
          }
        }
      }
      break;
    }
    case 4: {
      // Each destination id is 0-3 in each of bytes 0, 1 and 2, so ids
      // collide in every single byte; rows pick a few of them.
      const std::int64_t rows = rng.uniform_int(1, 20);
      for (std::int64_t i = 0; i < rows; ++i) {
        const std::int64_t cols = rng.uniform_int(1, 8);
        for (std::int64_t j = 0; j < cols; ++j) {
          const std::int64_t dst = (rng.uniform_int(0, 3) << 16) |
                                   (rng.uniform_int(0, 3) << 8) |
                                   rng.uniform_int(0, 3);
          m.add(RackId{i}, RackId{dst}, random_size(rng));
        }
      }
      break;
    }
    default: {
      const std::int64_t keys = rng.uniform_int(1, 6);
      const std::int64_t adds = rng.uniform_int(1, 50);
      for (std::int64_t a = 0; a < adds; ++a) {
        m.add(RackId{rng.uniform_int(0, keys)},
              RackId{rng.uniform_int(0, keys)}, random_size(rng));
      }
      break;
    }
  }
  return m;
}

TEST(CctBoundFabric, OnePassBoundsBitEqualToPerPortScanReference) {
  Simulator sim;
  const HybridTopology topo = test_topo();
  const Bandwidth bw = topo.ocs_link;
  const Duration delta = topo.ocs_reconfig_delay;
  const Duration period = Duration::milliseconds(100);
  const OcsFabric ocs1(sim, topo, 1);
  const OcsFabric ocs2(sim, topo, 2);
  const OcsFabric ocs4(sim, topo, 4);
  const RotorFabric rotor(sim, topo, period);
  const auto check = [&](const TrafficMatrix& m, const std::string& where) {
    const TrafficMatrix::PortLoads loads = m.port_loads();
    const TrafficMatrix::PortLoads expected = reference_port_loads(m);
    EXPECT_EQ(loads.sources, expected.sources) << where;
    EXPECT_EQ(loads.destinations, expected.destinations) << where;
    EXPECT_EQ(bits(cct_lower_bound(m, bw, delta).sec()),
              bits(reference_legacy_bound(m, bw, delta).sec()))
        << where << " legacy";
    EXPECT_EQ(bits(ocs1.cct_lower_bound(m).sec()),
              bits(reference_ocs_bound(m, bw, delta, 1).sec()))
        << where << " ocs:1";
    EXPECT_EQ(bits(ocs2.cct_lower_bound(m).sec()),
              bits(reference_ocs_bound(m, bw, delta, 2).sec()))
        << where << " ocs:2";
    EXPECT_EQ(bits(ocs4.cct_lower_bound(m).sec()),
              bits(reference_ocs_bound(m, bw, delta, 4).sec()))
        << where << " ocs:4";
    EXPECT_EQ(bits(rotor.cct_lower_bound(m).sec()),
              bits(reference_rotor_bound(m, bw, delta, period).sec()))
        << where << " rotor";
  };
  check(TrafficMatrix{}, "empty");
  Rng rng(0xB0D);
  for (int trial = 0; trial < 500; ++trial) {
    check(random_bound_matrix(rng, trial), "trial " + std::to_string(trial));
  }
}

// The surrogate collapse on random map distributions, per fabric: up to
// 256 map racks, R_red past the 60-rack cluster size, every candidate's
// CCT bit-equal between the full-matrix reference and the surrogate.
TEST(CctBoundFabric, PsrtSurrogateMatchesReferencePerFabricOnRandomInputs) {
  Simulator sim;
  HybridTopology topo = test_topo();
  topo.num_racks = 256;
  const OcsFabric ocs1(sim, topo, 1);
  const OcsFabric ocs4(sim, topo, 4);
  const RotorFabric rotor(sim, topo, Duration::milliseconds(100));
  const MeshFabric mesh(sim, topo);
  const DataSize te = topo.elephant_threshold;
  const std::vector<const Fabric*> fabrics = {&ocs1, &ocs4, &rotor, &mesh};
  for (std::size_t f = 0; f < fabrics.size(); ++f) {
    const Fabric* fabric = fabrics[f];
    const CctBoundFn bound = [fabric](const TrafficMatrix& matrix) {
      return fabric->cct_lower_bound(matrix);
    };
    Rng rng(0x5A1 + f);
    std::size_t widest_sm = 0;          // most map racks in any trial
    std::size_t most_reduce_racks = 0;  // largest R_red enumerated
    for (int trial = 0; trial < 200; ++trial) {
      // The full-matrix reference costs about m * R_red^2 / 2 map inserts,
      // so m is log-uniform in [1, 256] and the reduce count is capped to
      // keep that near 10k: one map rack gets up to 141 reduces, 256 get 8.
      const auto m = static_cast<std::size_t>(
          std::exp(rng.uniform(0.0, std::log(257.0))));
      const auto reduces = static_cast<std::int32_t>(rng.uniform_int(
          1, static_cast<std::int64_t>(
                 std::sqrt(20000.0 / static_cast<double>(m)))));
      // Every output clears floor * T_e, so up to `floor` reduce racks
      // stay above the threshold; exact-floor ties are common.
      const double floor = static_cast<double>(rng.uniform_int(1, 300));
      std::vector<DataSize> sm(m);
      for (auto& s : sm) {
        s = te * floor;
        if (rng.uniform_int(0, 4) != 0) {
          s += DataSize::megabytes(
              static_cast<double>(rng.uniform_int(0, 300'000)));
        }
      }
      const std::int32_t max_racks = trial % 2 == 0 ? 60 : 256;
      const std::string where = fabric->name() + " trial " +
                                std::to_string(trial);
      const auto reference =
          possible_reduce_schedules(sm, reduces, te, bound, max_racks);
      const auto incremental = possible_reduce_schedules_incremental(
          sm, reduces, te, bound, max_racks);
      ASSERT_EQ(reference.size(), incremental.size()) << where;
      for (std::size_t i = 0; i < reference.size(); ++i) {
        ASSERT_EQ(reference[i].d, incremental[i].d) << where;
        ASSERT_EQ(bits(reference[i].cct.sec()),
                  bits(incremental[i].cct.sec()))
            << where << " candidate " << i;
        most_reduce_racks = std::max(most_reduce_racks, reference[i].d.size());
      }
      widest_sm = std::max(widest_sm, m);
    }
    // The draw reached both ends: wide map sets, and R_red past the
    // 60-rack cap that only max_racks = 256 admits.
    EXPECT_GE(widest_sm, 128u) << fabric->name();
    EXPECT_GT(most_reduce_racks, 60u) << fabric->name();
  }
}

// ---- Idle fabric: a lone coflow finishes near its own bound. -------------

/// One random shuffle-shaped coflow run alone on a fresh `spec` fabric from
/// t = 0: 1-8 distinct map racks send to 1-8 distinct reduce racks (a pair
/// on one rack carries nothing), each pair log-uniform in [10 MB, 2 GB] so
/// the setup and the transfer terms of the bound each bind somewhere in the
/// draw. Returns achieved CCT over the fabric's bound for the coflow's
/// matrix.
double idle_cct_over_bound(const std::string& spec, const HybridTopology& topo,
                           Rng& rng) {
  std::string error;
  const std::optional<FabricSpec> fabric_spec = FabricSpec::parse(spec, &error);
  EXPECT_TRUE(fabric_spec.has_value()) << spec << ": " << error;
  Simulator sim;
  const std::unique_ptr<Fabric> fabric =
      make_fabric(sim, topo, fabric_spec.value_or(FabricSpec{}));
  Coflow coflow(CoflowId{0}, JobId{0});
  IdAllocator<FlowId> ids;
  while (coflow.flows().empty()) {
    const std::vector<std::int64_t> maps =
        rng.sample_without_replacement(topo.num_racks, rng.uniform_int(1, 8));
    const std::vector<std::int64_t> reduces =
        rng.sample_without_replacement(topo.num_racks, rng.uniform_int(1, 8));
    for (const std::int64_t src : maps) {
      for (const std::int64_t dst : reduces) {
        if (src == dst) continue;
        const double bytes =
            std::exp(rng.uniform(std::log(1e7), std::log(2e9)));
        coflow.add_demand(ids, RackId{src}, RackId{dst},
                          DataSize::bytes(static_cast<std::int64_t>(bytes)));
      }
    }
  }
  coflow.mark_released(sim.now());
  for (const auto& f : coflow.flows()) {
    f->set_path(FlowPath::kOcs);
    fabric->submit(coflow, *f);
  }
  sim.run();
  SimTime last = SimTime::zero();
  for (const auto& f : coflow.flows()) {
    EXPECT_TRUE(f->completed()) << spec;
    last = std::max(last, f->completion_time());
  }
  const Duration bound = fabric->cct_lower_bound(coflow.cross_rack_matrix());
  const Duration achieved = last - coflow.release_time();
  // The bound's own side: no fabric beats it.
  EXPECT_GE(achieved.sec(), bound.sec() - 1e-6) << spec;
  return achieved.sec() / bound.sec();
}

// The other side of the bound contract (ROADMAP item 11): on an idle
// fabric a lone coflow finishes within c times its fabric's bound, so a
// schedule that slows down, or a bound that loosens, fails here even
// though achieved >= bound still holds. Each c sits just above the
// largest ratio this draw measures (300 coflows on 20 racks, the same
// coflows on every fabric), which is recorded beside it. The rotor's c is
// the bound's known R-1 looseness (item 4): its bound lets a port use
// every slot, but a rack pair is wired once per R-1 slots, so tightening
// the rotor bound should lower this constant. A lone coflow has no rival,
// so a change to the priority order between coflows cannot move these
// ratios; the schedule within the coflow can.
TEST(CctBoundFabric, LoneCoflowOnAnIdleFabricFinishesNearItsBound) {
  HybridTopology topo = test_topo();
  topo.num_racks = 20;
  struct Case {
    const char* spec;
    double c;  // measured maximum in the trailing comment
  };
  for (const Case& k : {Case{"ocs:1", 1.3},          // 1.261
                        Case{"ocs:4", 1.55},         // 1.511
                        Case{"mesh", 1.0 + 1e-9},    // 1.000
                        Case{"rotor:100ms", 65.0}}) {  // 63.57
    Rng rng(0x1D1E);
    for (int trial = 0; trial < 300; ++trial) {
      EXPECT_LE(idle_cct_over_bound(k.spec, topo, rng), k.c)
          << k.spec << " trial " << trial;
    }
  }
}

/// Every rack has its containers free now.
class NoWait final : public AvailabilityOracle {
 public:
  Duration estimate_availability(RackId rack, std::int64_t count) override {
    (void)rack, (void)count;
    return Duration::zero();
  }
};

/// How many racks the Co-scheduler plans a job's reduces onto when its
/// context carries `fabric`: one 8 GB map on rack 0, then 8 reduces.
std::int32_t planned_reduce_racks(const Fabric& fabric,
                                  const HybridTopology& topo) {
  JobSpec spec;
  spec.id = JobId{0};
  spec.user = UserId{0};
  spec.num_maps = 1;
  spec.num_reduces = 8;
  spec.input_size = DataSize::gigabytes(8);
  spec.sir = 1.0;
  spec.map_durations = {Duration::seconds(5)};
  spec.reduce_durations.assign(8, Duration::seconds(5));
  IdAllocator<TaskId> task_ids;
  Job job(spec, topo.elephant_threshold, task_ids, CoflowId{0});
  Cluster cluster(topo);
  std::vector<Job*> active = {&job};
  NoWait availability;
  Rng rng(1);
  SchedContext ctx{.now = SimTime::zero(),
                   .topo = topo,
                   .cluster = cluster,
                   .active_jobs = active,
                   .availability = availability,
                   .rng = rng,
                   .fabric = fabric};
  CoScheduler planner;
  planner.on_job_submitted(job, ctx);
  Task& map = job.maps()[0];
  const NodeId node = cluster.allocate_slot(RackId{0});
  map.place(RackId{0}, node, ctx.now);
  job.note_map_placed(RackId{0});
  map.complete(ctx.now);
  cluster.release_slot(RackId{0}, node);
  job.note_map_completed(RackId{0}, spec.map_output_size());
  planner.on_maps_completed(job, ctx);
  return static_cast<std::int32_t>(job.reduce_plan().size());
}

// The planner minimizes the bound of the fabric in its SchedContext, not
// the paper's ocs:1 formula. One map rack with 8 GB of output and 8
// reduces gives PSRT the candidates R_red = 1..8 (one reduce per rack at
// R_red = 8). On ocs:1 the map rack's row, t(8 GB) + delta * R_red, binds
// on every candidate, so concentrating on one rack is cheapest. On the
// mesh the bound is the largest entry, t(8 GB / R_red), so spreading over
// all eight racks is. With every rack free at once, SBS's score is the
// bound alone.
TEST(CctBoundFabric, PlannerChargesTheContextFabricBound) {
  Simulator sim;
  const HybridTopology topo = test_topo();
  const OcsFabric ocs1(sim, topo, 1);
  const MeshFabric mesh(sim, topo);
  EXPECT_EQ(planned_reduce_racks(ocs1, topo), 1);
  EXPECT_EQ(planned_reduce_racks(mesh, topo), 8);
}

}  // namespace
}  // namespace cosched
