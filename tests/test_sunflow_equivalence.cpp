// OcsFabric's incremental Sunflow pass against the full-pass reference
// (tests/reference_sunflow.h), bit for bit.
//
// Each case draws a seeded random stream of operations — coflows arriving
// with bursts of flows, demand growth on queued, in-flight and drained
// flows, whole-fabric evictions, and plane outages that begin and end — and
// replays it on a production fabric and on the reference, each in its own
// simulator. The circuit decisions (every kCircuitSetup event: time, job,
// flow, rack pair, bytes, coflow priority), the completions, the
// eviction lists and the bytes in flight must be equal, on ocs:1, ocs:2
// and ocs:4. The production
// fabric's self_check (which includes "no queued flow could start while
// no pass is scheduled") must hold before every operation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "coflow/coflow.h"
#include "common/ids.h"
#include "common/rng.h"
#include "fabric/ocs_fabric.h"
#include "obs/observability.h"
#include "reference_sunflow.h"

namespace cosched {
namespace {

struct Demand {
  int src;
  int dst;
  double gb;
};

enum class OpKind { kDemand, kEvictAll, kPlaneDown, kPlaneUp };

struct Op {
  double at = 0.0;
  OpKind kind = OpKind::kDemand;
  int coflow = 0;
  std::vector<Demand> demands;
  int plane = 0;
};

struct Stream {
  int racks;
  std::vector<Op> ops;
};

/// A random operation stream. Sizes come from a short list so that equal
/// CCT bounds (priority ties broken by coflow id) occur; a few racks keep
/// ports contended, so reservations and queueing matter.
Stream draw_stream(std::uint64_t seed, int planes) {
  Rng rng(seed);
  Stream s;
  s.racks = static_cast<int>(rng.uniform_int(4, 9));
  const double sizes[] = {0.05, 0.1, 0.1, 0.2, 0.4, 0.8};
  const auto demand = [&] {
    Demand d;
    d.src = static_cast<int>(rng.uniform_int(0, s.racks - 1));
    d.dst = static_cast<int>(rng.uniform_int(0, s.racks - 2));
    if (d.dst >= d.src) ++d.dst;
    d.gb = sizes[rng.uniform_int(0, 5)];
    return d;
  };
  int coflows = 0;
  double t = 0.0;
  for (int i = 0; i < 240; ++i) {
    t += rng.exponential(0.03);
    Op op;
    op.at = t;
    const double u = rng.uniform01();
    if (u < 0.02) {
      op.kind = OpKind::kEvictAll;
    } else if (u < 0.10) {
      op.kind = rng.bernoulli(0.5) ? OpKind::kPlaneDown : OpKind::kPlaneUp;
      op.plane = static_cast<int>(rng.uniform_int(0, planes - 1));
    } else {
      // A new coflow, or more demand for a recent one.
      op.coflow = coflows == 0 || rng.bernoulli(0.45)
                      ? coflows++
                      : static_cast<int>(rng.uniform_int(
                            std::max(0, coflows - 6), coflows - 1));
      const auto n = rng.uniform_int(1, 10);
      for (std::int64_t k = 0; k < n; ++k) op.demands.push_back(demand());
    }
    s.ops.push_back(std::move(op));
  }
  return s;
}

/// One fabric in its own simulator, with everything it decided.
struct World {
  Simulator sim;
  std::unique_ptr<Fabric> fabric;
  Observability obs;
  IdAllocator<FlowId> ids;
  std::vector<std::unique_ptr<Coflow>> coflows;
  std::vector<std::int32_t> down;
  std::vector<std::pair<FlowId, SimTime>> completions;
  std::vector<std::vector<FlowId>> evictions;
  /// bytes_in_flight() before each operation.
  std::vector<std::int64_t> in_flight;
  std::vector<std::string> self_check_failures;

  World(bool reference, const HybridTopology& topo, int planes)
      : down(static_cast<std::size_t>(planes), 0) {
    if (reference) {
      fabric = std::make_unique<oracle::ReferenceOcsFabric>(sim, topo, planes);
    } else {
      fabric = std::make_unique<OcsFabric>(sim, topo, planes);
    }
    fabric->set_observability(&obs);
    fabric->set_on_flow_complete(
        [this](Flow& f) { completions.emplace_back(f.id(), sim.now()); });
  }

  void reroute(const std::vector<Flow*>& evicted) {
    std::vector<FlowId> list;
    for (Flow* f : evicted) {
      f->set_path(FlowPath::kEps);  // finishes elsewhere, for good
      list.push_back(f->id());
    }
    evictions.push_back(std::move(list));
  }

  void apply(const Op& op) {
    if (const std::string err = fabric->self_check(); !err.empty()) {
      self_check_failures.push_back(err);
    }
    in_flight.push_back(fabric->bytes_in_flight().in_bytes());
    switch (op.kind) {
      case OpKind::kDemand: {
        while (static_cast<int>(coflows.size()) <= op.coflow) {
          const auto id = static_cast<std::int64_t>(coflows.size());
          coflows.push_back(
              std::make_unique<Coflow>(CoflowId{id}, JobId{id}));
        }
        Coflow& c = *coflows[static_cast<std::size_t>(op.coflow)];
        c.mark_released(sim.now());
        for (const Demand& d : op.demands) {
          auto [flow, change] =
              c.add_demand(ids, RackId{d.src}, RackId{d.dst},
                           DataSize::gigabytes(d.gb));
          if (change == Coflow::DemandChange::kCreated) {
            flow->set_path(FlowPath::kOcs);
            fabric->submit(c, *flow);
          } else if (flow->path() != FlowPath::kOcs) {
            // An evicted flow grows on the EPS.
          } else if (change == Coflow::DemandChange::kGrew) {
            fabric->demand_added(*flow);
          } else {
            fabric->submit(c, *flow);  // reopened after draining
          }
        }
        break;
      }
      case OpKind::kEvictAll:
        reroute(fabric->evict_all());
        break;
      case OpKind::kPlaneDown:
        ++down[static_cast<std::size_t>(op.plane)];
        reroute(fabric->begin_plane_outage(op.plane));
        break;
      case OpKind::kPlaneUp:
        if (down[static_cast<std::size_t>(op.plane)] > 0) {
          --down[static_cast<std::size_t>(op.plane)];
          fabric->end_plane_outage(op.plane);
        }
        break;
    }
  }

  void run(const Stream& stream) {
    for (const Op& op : stream.ops) {
      sim.schedule_at(SimTime::seconds(op.at), [this, &op] { apply(op); });
    }
    // Heal every plane at the end so that all queued demand drains.
    const double end = stream.ops.back().at + 0.001;
    sim.schedule_at(SimTime::seconds(end), [this] {
      for (std::size_t p = 0; p < down.size(); ++p) {
        for (; down[p] > 0; --down[p]) {
          fabric->end_plane_outage(static_cast<std::int32_t>(p));
        }
      }
    });
    sim.run();
  }

  [[nodiscard]] std::vector<TraceEvent> setups() const {
    std::vector<TraceEvent> out;
    for (const TraceEvent& ev : obs.trace.events()) {
      if (ev.kind == TraceEventKind::kCircuitSetup) out.push_back(ev);
    }
    return out;
  }
};

HybridTopology topology(int racks) {
  HybridTopology t;
  t.num_racks = racks;
  t.ocs_link = Bandwidth::gbps(10);
  t.ocs_reconfig_delay = Duration::milliseconds(10);
  return t;
}

std::string describe(const TraceEvent& ev) {
  return "t=" + std::to_string(ev.at.sec()) + " job " +
         std::to_string(ev.job.value()) + " flow " +
         std::to_string(ev.flow.value()) + " " +
         std::to_string(ev.src.value()) + "->" +
         std::to_string(ev.dst.value()) + " bytes " + std::to_string(ev.a) +
         " priority bits " +
         std::to_string(std::bit_cast<std::uint64_t>(ev.b));
}

void expect_equivalent(int planes, std::uint64_t seed,
                       std::size_t* setups_seen) {
  SCOPED_TRACE("ocs:" + std::to_string(planes) + " seed " +
               std::to_string(seed));
  const Stream stream = draw_stream(seed, planes);
  World prod(false, topology(stream.racks), planes);
  World ref(true, topology(stream.racks), planes);
  prod.run(stream);
  ref.run(stream);

  EXPECT_TRUE(prod.self_check_failures.empty())
      << prod.self_check_failures.front();
  const std::vector<TraceEvent> got = prod.setups();
  const std::vector<TraceEvent> want = ref.setups();
  *setups_seen += want.size();
  const std::size_t n = std::min(got.size(), want.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!(got[i] == want[i])) {
      ADD_FAILURE() << "circuit setup " << i << " differs: production "
                    << describe(got[i]) << ", reference "
                    << describe(want[i]);
      return;
    }
  }
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(prod.completions, ref.completions);
  EXPECT_EQ(prod.evictions, ref.evictions);
  EXPECT_EQ(prod.in_flight, ref.in_flight);
  EXPECT_EQ(prod.fabric->pending_flows(), ref.fabric->pending_flows());
  EXPECT_EQ(prod.fabric->active_transfers(), 0u);
}

class SunflowEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(SunflowEquivalence, CircuitSetupsMatchTheFullPassBitForBit) {
  std::size_t setups = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    expect_equivalent(GetParam(), seed, &setups);
    if (HasFailure()) return;
  }
  // The streams must actually drive the scheduler.
  EXPECT_GT(setups, 2000u);
}

INSTANTIATE_TEST_SUITE_P(Planes, SunflowEquivalence, ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<int>& p) {
                           return "ocs" + std::to_string(p.param);
                         });

}  // namespace
}  // namespace cosched
