#include "coflow/coflow.h"

#include "common/check.h"

namespace cosched {

std::pair<Flow*, Coflow::DemandChange> Coflow::add_demand(
    IdAllocator<FlowId>& ids, RackId src, RackId dst, DataSize size) {
  COSCHED_CHECK(size >= DataSize::zero());
  auto it = by_pair_.find({src, dst});
  if (it != by_pair_.end()) {
    Flow* flow = it->second;
    const bool drained = flow->completed();
    flow->add_demand(size);
    return {flow, drained ? DemandChange::kReopened : DemandChange::kGrew};
  }
  flows_.push_back(
      std::make_unique<Flow>(ids.next(), id_, job_, src, dst, size));
  Flow* flow = flows_.back().get();
  by_pair_[{src, dst}] = flow;
  return {flow, DemandChange::kCreated};
}

Flow* Coflow::find_flow(RackId src, RackId dst) {
  auto it = by_pair_.find({src, dst});
  return it == by_pair_.end() ? nullptr : it->second;
}

TrafficMatrix Coflow::cross_rack_matrix() const {
  TrafficMatrix m;
  for (const auto& f : flows_) {
    if (f->src() != f->dst()) m.add(f->src(), f->dst(), f->size());
  }
  return m;
}

bool Coflow::all_flows_complete() const {
  for (const auto& f : flows_) {
    if (!f->completed()) return false;
  }
  return true;
}

bool Coflow::rode_circuits_only() const {
  bool any_cross_rack = false;
  for (const auto& f : flows_) {
    if (f->path() == FlowPath::kLocal) continue;
    if (f->path() != FlowPath::kOcs) return false;
    any_cross_rack = true;
  }
  return any_cross_rack;
}

DataSize Coflow::total_demand() const {
  DataSize t = DataSize::zero();
  for (const auto& f : flows_) t += f->size();
  return t;
}

}  // namespace cosched
