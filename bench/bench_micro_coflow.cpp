// Microbenchmarks for the coflow algorithms: the CCT lower bounds (ocs:1,
// ocs:K, rotor) and PSRT's enumeration over them, maximum bipartite
// matching, and the Birkhoff–von-Neumann clearance decomposition.
//
// The bound benches take N racks at 30 % density, so a bound linear in the
// entries fits BigO N^2; the pre-port_loads() per-port scans fit N^3.
#include <benchmark/benchmark.h>

#include <vector>

#include "bvn_clearance.h"
#include "coflow/cct_bound.h"
#include "coflow/matching.h"
#include "common/rng.h"
#include "fabric/ocs_fabric.h"
#include "fabric/rotor_fabric.h"
#include "net/topology.h"
#include "sched/coscheduler.h"
#include "simcore/simulator.h"

namespace cosched {
namespace {

TrafficMatrix random_matrix(std::int64_t racks, double density,
                            std::uint64_t seed) {
  Rng rng(seed);
  TrafficMatrix m;
  for (std::int64_t i = 0; i < racks; ++i) {
    for (std::int64_t j = 0; j < racks; ++j) {
      if (i != j && rng.bernoulli(density)) {
        m.add(RackId{i}, RackId{j},
              DataSize::megabytes(
                  static_cast<double>(rng.uniform_int(100, 5000))));
      }
    }
  }
  return m;
}

void BM_CctLowerBound(benchmark::State& state) {
  const TrafficMatrix m = random_matrix(state.range(0), 0.3, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cct_lower_bound(m, Bandwidth::gbps(100),
                                             Duration::milliseconds(10)));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CctLowerBound)->Range(4, 256)->Complexity();

/// The paper's defaults (100 Gb/s OCS, 10 ms delta) on 256 racks.
HybridTopology bench_topo() {
  HybridTopology topo;
  topo.num_racks = 256;
  return topo;
}

void BM_OcsKBound(benchmark::State& state) {
  const TrafficMatrix m = random_matrix(state.range(0), 0.3, 11);
  Simulator sim;
  const OcsFabric ocs4(sim, bench_topo(), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ocs4.cct_lower_bound(m));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_OcsKBound)->Range(4, 256)->Complexity();

void BM_RotorBound(benchmark::State& state) {
  const TrafficMatrix m = random_matrix(state.range(0), 0.3, 11);
  Simulator sim;
  const RotorFabric rotor(sim, bench_topo(), Duration::milliseconds(100));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rotor.cct_lower_bound(m));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RotorBound)->Range(4, 256)->Complexity();

/// One PSRT enumeration on the incremental path with the ocs:1 fabric
/// bound: 16 map racks of 300-600 GB and 512 reduces, so every R_red up to
/// min(max_racks, 256) is a candidate (max_racks = the argument).
void BM_PsrtEnumerate(benchmark::State& state) {
  const HybridTopology topo = bench_topo();
  Simulator sim;
  const OcsFabric ocs1(sim, topo, 1);
  const CctBoundFn bound = [&ocs1](const TrafficMatrix& matrix) {
    return ocs1.cct_lower_bound(matrix);
  };
  Rng rng(5);
  std::vector<DataSize> sm;
  for (int i = 0; i < 16; ++i) {
    sm.push_back(DataSize::gigabytes(rng.uniform(300.0, 600.0)));
  }
  const auto max_racks = static_cast<std::int32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(possible_reduce_schedules_incremental(
        sm, 512, topo.elephant_threshold, bound, max_racks));
  }
}
BENCHMARK(BM_PsrtEnumerate)->Arg(60)->Arg(256);

void BM_HopcroftKarp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  BipartiteGraph g(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.bernoulli(0.3)) g.add_edge(i, j);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(maximum_bipartite_matching(g).size);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_HopcroftKarp)->Range(8, 256)->Complexity();

void BM_BvnClearance(benchmark::State& state) {
  const TrafficMatrix m = random_matrix(state.range(0), 0.4, 23);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bvn_clearance(m, Bandwidth::gbps(100)).slots.size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BvnClearance)->Range(4, 48)->Complexity();

}  // namespace
}  // namespace cosched

BENCHMARK_MAIN();
