#include "cluster/job.h"

#include <algorithm>

#include "common/check.h"

namespace cosched {

Job::Job(const JobSpec& spec, DataSize elephant_threshold,
         IdAllocator<TaskId>& task_ids, CoflowId coflow_id)
    : spec_(spec), shuffle_heavy_(spec.shuffle_heavy(elephant_threshold)) {
  spec_.validate();
  maps_.reserve(static_cast<std::size_t>(spec_.num_maps));
  for (std::int32_t i = 0; i < spec_.num_maps; ++i) {
    maps_.emplace_back(task_ids.next(), spec_.id, TaskKind::kMap, i,
                       spec_.map_durations[static_cast<std::size_t>(i)]);
  }
  reduces_.reserve(static_cast<std::size_t>(spec_.num_reduces));
  for (std::int32_t i = 0; i < spec_.num_reduces; ++i) {
    reduces_.emplace_back(task_ids.next(), spec_.id, TaskKind::kReduce, i,
                          spec_.reduce_durations[static_cast<std::size_t>(i)]);
  }
  coflow_ = std::make_unique<Coflow>(coflow_id, spec_.id);
}

void Job::set_block_placement(std::vector<BlockReplicas> blocks) {
  COSCHED_CHECK_MSG(blocks.size() == static_cast<std::size_t>(spec_.num_maps),
                    "job " << id() << ": expected one block per map task");
  blocks_ = std::move(blocks);
  // Count the replicas per rack so each queue is allocated once.
  std::vector<std::int32_t> replicas;
  for (const BlockReplicas& b : blocks_) {
    for (RackId r : b.racks) {
      COSCHED_CHECK(r.valid());
      const auto ri = static_cast<std::size_t>(r.value());
      if (ri >= replicas.size()) replicas.resize(ri + 1, 0);
      ++replicas[ri];
    }
  }
  pending_maps_by_rack_.clear();
  pending_maps_by_rack_.resize(replicas.size());
  for (std::size_t ri = 0; ri < replicas.size(); ++ri) {
    pending_maps_by_rack_[ri].reserve(static_cast<std::size_t>(replicas[ri]));
  }
  for (std::int32_t i = 0; i < spec_.num_maps; ++i) {
    for (RackId r : blocks_[static_cast<std::size_t>(i)].racks) {
      pending_maps_by_rack_[static_cast<std::size_t>(r.value())].push_back(i);
    }
  }
}

Task* Job::next_pending_reduce() {
  while (reduce_cursor_ < spec_.num_reduces &&
         reduces_[static_cast<std::size_t>(reduce_cursor_)].state() !=
             TaskState::kPending) {
    ++reduce_cursor_;
  }
  if (reduce_cursor_ >= spec_.num_reduces) return nullptr;
  return &reduces_[static_cast<std::size_t>(reduce_cursor_)];
}

Task* Job::next_pending_map_local(RackId rack) {
  const auto ri = static_cast<std::size_t>(rack.value());
  if (ri >= pending_maps_by_rack_.size()) return nullptr;
  std::vector<std::int32_t>& queue = pending_maps_by_rack_[ri];
  while (!queue.empty()) {
    Task& t = maps_[static_cast<std::size_t>(queue.back())];
    if (t.state() == TaskState::kPending) return &t;
    queue.pop_back();  // placed elsewhere; prune lazily
  }
  return nullptr;
}

Task* Job::next_pending_map_any() {
  while (map_cursor_ < spec_.num_maps &&
         maps_[static_cast<std::size_t>(map_cursor_)].state() !=
             TaskState::kPending) {
    ++map_cursor_;
  }
  if (map_cursor_ >= spec_.num_maps) return nullptr;
  return &maps_[static_cast<std::size_t>(map_cursor_)];
}

std::vector<RackId> Job::racks_with_pending_local_maps() const {
  std::vector<RackId> out;
  for (std::size_t ri = 0; ri < pending_maps_by_rack_.size(); ++ri) {
    if (!pending_maps_by_rack_[ri].empty()) {
      out.push_back(RackId{static_cast<RackId::value_type>(ri)});
    }
  }
  return out;
}

bool Job::in_map_guideline(RackId rack) const {
  return std::find(guideline_map_racks_.begin(), guideline_map_racks_.end(),
                   rack) != guideline_map_racks_.end();
}

bool Job::rack_preferred(RackId rack) const {
  if (preferred_racks_.empty()) return true;
  return std::find(preferred_racks_.begin(), preferred_racks_.end(), rack) !=
         preferred_racks_.end();
}

const BlockReplicas& Job::block(std::int32_t map_index) const {
  COSCHED_CHECK(map_index >= 0 &&
                map_index < static_cast<std::int32_t>(blocks_.size()));
  return blocks_[static_cast<std::size_t>(map_index)];
}

bool Job::map_local_on(std::int32_t map_index, RackId rack) const {
  const BlockReplicas& b = block(map_index);
  return std::find(b.racks.begin(), b.racks.end(), rack) != b.racks.end();
}

void Job::requeue_map(std::int32_t index) {
  COSCHED_CHECK(index >= 0 && index < spec_.num_maps);
  COSCHED_CHECK(maps_[static_cast<std::size_t>(index)].state() ==
                TaskState::kPending);
  --maps_placed_;
  // The monotonic cursor may already be past this task; pull it back so
  // next_pending_map_any can find it again. Stale per-rack queue entries
  // are harmless (pruned by state), so pushing unconditionally is safe.
  map_cursor_ = std::min(map_cursor_, index);
  if (!blocks_.empty()) {
    for (RackId r : blocks_[static_cast<std::size_t>(index)].racks) {
      pending_maps_by_rack_[static_cast<std::size_t>(r.value())].push_back(
          index);
    }
  }
  // map_racks_used_ keeps the killed attempt's rack: the attempt did run
  // there, and the set only feeds placement heuristics.
}

void Job::requeue_reduce(std::int32_t index, RackId rack) {
  COSCHED_CHECK(index >= 0 && index < spec_.num_reduces);
  COSCHED_CHECK(reduces_[static_cast<std::size_t>(index)].state() ==
                TaskState::kPending);
  --reduces_placed_;
  auto it = reduce_placed_by_rack_.find(rack);
  COSCHED_CHECK(it != reduce_placed_by_rack_.end() && it->second > 0);
  --it->second;
  reduce_cursor_ = std::min(reduce_cursor_, index);
}

std::int32_t Job::reduce_plan_remaining(RackId rack) const {
  auto it = reduce_plan_.find(rack);
  if (it == reduce_plan_.end()) return 0;
  auto placed_it = reduce_placed_by_rack_.find(rack);
  const std::int32_t placed =
      placed_it == reduce_placed_by_rack_.end() ? 0 : placed_it->second;
  return std::max(0, it->second - placed);
}

}  // namespace cosched
