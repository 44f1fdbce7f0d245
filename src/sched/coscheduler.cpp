#include "sched/coscheduler.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/log.h"
#include "net/fabric.h"
#include "obs/decision_log.h"
#include "obs/observability.h"
#include "obs/perf_monitor.h"
#include "sched/best_rack_heap.h"

namespace cosched {

std::vector<PossibleSchedule> possible_reduce_schedules(
    const std::vector<DataSize>& sm, std::int32_t num_reduces,
    DataSize elephant_threshold, const CctBoundFn& bound,
    std::int32_t max_racks) {
  std::vector<PossibleSchedule> out;
  if (sm.empty() || num_reduces <= 0) return out;
  std::vector<DataSize> sorted = sm;
  std::sort(sorted.begin(), sorted.end());
  const DataSize sm_min = sorted.front();
  COSCHED_CHECK_MSG(sm_min >= elephant_threshold,
                    "PSRT input must be pre-filtered to >= T_e");

  // Upper bound on R_red: floor(SM_1 / T_e) keeps every flow from the
  // smallest map rack above the threshold (Equation 7), further capped by
  // the number of reduce tasks and racks available.
  const auto r_red_max = static_cast<std::int32_t>(std::min<std::int64_t>(
      {sm_min.in_bytes() / elephant_threshold.in_bytes(),
       static_cast<std::int64_t>(num_reduces),
       static_cast<std::int64_t>(max_racks)}));

  for (std::int32_t r_red = 1; r_red <= r_red_max; ++r_red) {
    // Aggregation floor: rack j needs d_j reduces so that
    // SM_1 * d_j / num_reduces >= T_e.
    const auto d_min = static_cast<std::int32_t>(std::ceil(
        static_cast<double>(elephant_threshold.in_bytes()) *
        static_cast<double>(num_reduces) /
        static_cast<double>(sm_min.in_bytes())));
    if (static_cast<std::int64_t>(d_min) * r_red > num_reduces) {
      continue;  // cannot aggregate every rack past the threshold
    }

    // Start every rack at the floor, then feed the remaining tasks to the
    // currently least-loaded rack (received data is proportional to d_j, so
    // least-loaded = smallest d_j). This minimizes max_j col-sum and hence
    // the lower bound.
    std::vector<std::int32_t> d(static_cast<std::size_t>(r_red), d_min);
    std::int32_t rem = num_reduces - d_min * r_red;
    std::size_t next = 0;
    while (rem > 0) {
      d[next] += 1;
      next = (next + 1) % d.size();
      --rem;
    }

    // CCT lower bound for this placement, with reduce racks abstracted as
    // fresh ids (rack identities are chosen later by SBS).
    TrafficMatrix matrix;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      for (std::size_t j = 0; j < d.size(); ++j) {
        const DataSize c =
            sorted[i] * (static_cast<double>(d[j]) /
                         static_cast<double>(num_reduces));
        matrix.add(RackId{static_cast<std::int64_t>(i)},
                   RackId{static_cast<std::int64_t>(1000000 + j)}, c);
      }
    }
    PossibleSchedule ps;
    ps.d = std::move(d);
    ps.cct = bound(matrix);
    out.push_back(std::move(ps));
  }
  return out;
}

std::vector<PossibleSchedule> possible_reduce_schedules_incremental(
    const std::vector<DataSize>& sm, std::int32_t num_reduces,
    DataSize elephant_threshold, const CctBoundFn& bound,
    std::int32_t max_racks) {
  std::vector<PossibleSchedule> out;
  if (sm.empty() || num_reduces <= 0) return out;
  std::vector<DataSize> sorted = sm;
  std::sort(sorted.begin(), sorted.end());
  const DataSize sm_min = sorted.front();
  COSCHED_CHECK_MSG(sm_min >= elephant_threshold,
                    "PSRT input must be pre-filtered to >= T_e");

  const auto r_red_max = static_cast<std::int32_t>(std::min<std::int64_t>(
      {sm_min.in_bytes() / elephant_threshold.in_bytes(),
       static_cast<std::int64_t>(num_reduces),
       static_cast<std::int64_t>(max_racks)}));

  for (std::int32_t r_red = 1; r_red <= r_red_max; ++r_red) {
    const auto d_min = static_cast<std::int32_t>(std::ceil(
        static_cast<double>(elephant_threshold.in_bytes()) *
        static_cast<double>(num_reduces) /
        static_cast<double>(sm_min.in_bytes())));
    if (static_cast<std::int64_t>(d_min) * r_red > num_reduces) {
      continue;
    }

    std::vector<std::int32_t> d(static_cast<std::size_t>(r_red), d_min);
    std::int32_t rem = num_reduces - d_min * r_red;
    std::size_t next = 0;
    while (rem > 0) {
      d[next] += 1;
      next = (next + 1) % d.size();
      --rem;
    }

    // The reference builds the full m x r_red matrix with entries
    //   c_ij = sorted[i] * (d[j] / num_reduces)    (exact int64, llround)
    // and takes `bound` over it. Every fabric bound is, per row/column, a
    // weakly monotone function of (sum, degree) — and weakly monotone in
    // each entry for its per-entry terms — while every row of the full
    // matrix shares degree r_red and every column degree m, with the
    // per-entry multiply weakly monotone in both factors. So the binding
    // row is the largest map rack's (sorted.back()) and the binding column
    // is one receiving d_max tasks (the round-robin fill leaves the
    // maximum at d[0]). Materializing exactly those two lines — with the
    // verbatim per-entry expressions, the shared corner entry added once —
    // yields a surrogate whose extra lines (degree 1, dominated sums)
    // never bind, so `bound` over it reproduces the full-matrix value bit
    // for bit in O(m + R_red) entries per candidate.
    TrafficMatrix surrogate;
    const auto m = static_cast<std::int64_t>(sorted.size());
    for (std::size_t j = 0; j < d.size(); ++j) {
      surrogate.add(RackId{m - 1}, RackId{static_cast<std::int64_t>(1000000 + j)},
                    sorted.back() * (static_cast<double>(d[j]) /
                                     static_cast<double>(num_reduces)));
    }
    const double d_max_share = static_cast<double>(d[0]) /
                               static_cast<double>(num_reduces);
    for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
      surrogate.add(RackId{static_cast<std::int64_t>(i)}, RackId{1000000},
                    sorted[i] * d_max_share);
    }

    PossibleSchedule ps;
    ps.d = std::move(d);
    ps.cct = bound(surrogate);
    out.push_back(std::move(ps));
  }
  return out;
}

std::int32_t mts_map_rack_guideline(DataSize input, double sir,
                                    DataSize elephant_threshold) {
  COSCHED_CHECK(elephant_threshold.in_bytes() > 0);
  const double ratio = (input * std::max(sir, 0.0)) / elephant_threshold;
  const auto r_map = static_cast<std::int32_t>(std::floor(std::sqrt(ratio)));
  return std::max(r_map, 1);
}

std::vector<ExploredSchedule> explore_schedules(
    const std::vector<PossibleSchedule>& schedules, std::int32_t num_racks,
    AvailabilityOracle& availability) {
  std::vector<ExploredSchedule> out;
  for (const PossibleSchedule& ps : schedules) {
    // ExploreSchedule (Algorithm 1): descending D, each d_i to the
    // earliest-available unselected rack.
    ExploredSchedule ex;
    ex.d = ps.d;
    std::sort(ex.d.begin(), ex.d.end(), std::greater<>());
    ex.cct = ps.cct;

    bool feasible = true;
    for (std::int32_t di : ex.d) {
      Duration best_t = Duration::infinity();
      RackId best_rack = RackId::invalid();
      for (std::int32_t r = 0; r < num_racks; ++r) {
        const RackId rack{r};
        if (ex.plan.count(rack) > 0) continue;  // selected racks are spent
        const Duration t = availability.estimate_availability(rack, di);
        if (t < best_t) {
          best_t = t;
          best_rack = rack;
        }
      }
      if (!best_rack.valid() || !best_t.is_finite()) {
        feasible = false;
        break;
      }
      ex.plan[best_rack] = di;
      ex.t_max = std::max(ex.t_max, best_t);
    }
    if (feasible) out.push_back(std::move(ex));
  }
  return out;
}

std::vector<ExploredSchedule> explore_schedules_incremental(
    const std::vector<PossibleSchedule>& schedules, std::int32_t num_racks,
    AvailabilityOracle& availability) {
  std::vector<ExploredSchedule> out;
  if (schedules.empty()) return out;

  // Estimates are pure in (rack, count, sim state), so query order is
  // free: per distinct count, estimate every rack once and materialize a
  // (availability, rack-id) rank order through the lazily-repaired heap.
  // Each candidate then takes the first unselected rack in rank order —
  // exactly the reference scan's strict minimum with its lowest-rack
  // tie-break.
  std::map<std::int32_t, std::vector<std::pair<double, RackId>>> ranks;
  const auto rank_for = [&](std::int32_t count)
      -> const std::vector<std::pair<double, RackId>>& {
    auto it = ranks.find(count);
    if (it == ranks.end()) {
      BestRackHeap heap(num_racks);
      for (std::int32_t r = 0; r < num_racks; ++r) {
        const RackId rack{r};
        heap.update(rack, availability.estimate_availability(rack, count).sec());
      }
      std::vector<std::pair<double, RackId>> order;
      order.reserve(static_cast<std::size_t>(num_racks));
      while (!heap.empty()) {
        const double key = heap.best_key();
        order.emplace_back(key, heap.pop_best());
      }
      it = ranks.emplace(count, std::move(order)).first;
    }
    return it->second;
  };

  // Racks spent by the current candidate: selected[r] == stamp. A fresh
  // stamp per candidate clears the set in O(1). d is sorted descending, so
  // equal counts form one run; within a run every rack before the cursor
  // is already selected (selections only grow), so the cursor never moves
  // back and each candidate walks its rank orders in O(R_red) total.
  std::vector<std::uint32_t> selected(static_cast<std::size_t>(num_racks), 0);
  std::uint32_t stamp = 0;
  for (const PossibleSchedule& ps : schedules) {
    ExploredSchedule ex;
    ex.d = ps.d;
    std::sort(ex.d.begin(), ex.d.end(), std::greater<>());
    ex.cct = ps.cct;
    ++stamp;
    const std::vector<std::pair<double, RackId>>* order = nullptr;
    std::size_t cursor = 0;
    bool feasible = true;
    for (std::size_t k = 0; k < ex.d.size(); ++k) {
      const std::int32_t di = ex.d[k];
      if (k == 0 || di != ex.d[k - 1]) {
        order = &rank_for(di);
        cursor = 0;
      }
      while (cursor < order->size() &&
             selected[static_cast<std::size_t>(
                 (*order)[cursor].second.value())] == stamp) {
        ++cursor;
      }
      if (cursor == order->size() || std::isinf((*order)[cursor].first)) {
        feasible = false;
        break;
      }
      const auto& [best_sec, best_rack] = (*order)[cursor];
      selected[static_cast<std::size_t>(best_rack.value())] = stamp;
      ex.plan[best_rack] = di;
      ex.t_max = std::max(ex.t_max, Duration::seconds(best_sec));
    }
    if (feasible) out.push_back(std::move(ex));
  }
  return out;
}

std::optional<std::size_t> best_schedule_index(
    const std::vector<ExploredSchedule>& explored) {
  if (explored.empty()) return std::nullopt;
  std::size_t best = 0;
  for (std::size_t i = 1; i < explored.size(); ++i) {
    if (explored[i].score_sec() < explored[best].score_sec()) best = i;
  }
  return best;
}

std::string CoScheduler::name() const {
  if (opts_.enable_mts && opts_.enable_reduce_planning) return "coscheduler";
  if (opts_.enable_mts) return "mts+ocas";
  return "ocas";
}

void CoScheduler::on_job_submitted(Job& job, SchedContext& ctx) {
  const JobSpec& spec = job.spec();
  invalidate_no_grant_cache();
  const std::int64_t s = next_seq_++;
  seq_.emplace(job.id(), s);
  UserState& u = users_[spec.user];
  ++u.active;
  // Every job has at least one map (JobSpec::validate); reduce-candidate
  // membership begins at on_maps_completed, matching reduces_eligible.
  u.map_candidates.emplace(s, &job);

  // The paper's recurring-job assumption: the SIR is known at submission.
  const bool heavy = spec.num_reduces > 0 && spec.input_size * spec.sir >=
                                                 ctx.topo.elephant_threshold;

  if (!opts_.enable_mts || !heavy) {
    job.set_block_placement(place_blocks_random(
        spec.num_maps, ctx.topo.num_racks, kHdfsReplication, ctx.rng));
    return;
  }

  // MTS guideline: R_map = floor(sqrt(Input*SIR / T_e)), clamped so the
  // replication-many disjoint rack sets fit and so the job's own task
  // counts can populate the racks.
  auto r_map = mts_map_rack_guideline(spec.input_size, spec.sir,
                                      ctx.topo.elephant_threshold);
  r_map = std::min(r_map, std::max(1, ctx.topo.num_racks /
                                          kHdfsReplication));
  r_map = std::min(r_map, spec.num_maps);
  r_map = std::min(r_map, std::max(spec.num_reduces, 1));

  std::vector<std::vector<RackId>> sets;
  job.set_block_placement(place_blocks_clustered(spec.num_maps,
                                                 ctx.topo.num_racks,
                                                 kHdfsReplication, r_map,
                                                 ctx.rng, &sets));
  // Concrete guideline racks: rack p of set k holds blocks congruent to
  // p mod r_data, so picking, for every residue p, the least-loaded rack
  // among {set_k[p]} yields R_map racks that jointly hold a full replica
  // ("any R_map racks selected from the three disjoint sets", IV-C).
  const auto r_data = static_cast<std::int32_t>(sets.front().size());
  std::vector<RackId> guideline;
  guideline.reserve(static_cast<std::size_t>(r_data));
  for (std::int32_t p = 0; p < r_data; ++p) {
    RackId best = sets.front()[static_cast<std::size_t>(p)];
    for (const auto& set : sets) {
      const RackId cand = set[static_cast<std::size_t>(p)];
      if (ctx.cluster.used_slots(cand) < ctx.cluster.used_slots(best)) {
        best = cand;
      }
    }
    guideline.push_back(best);
  }
  job.set_r_map_guideline(r_data);
  job.set_guideline_map_racks(std::move(guideline));
}

void CoScheduler::on_maps_completed(Job& job, SchedContext& ctx) {
  // Membership must begin before any of the planning early-returns below:
  // reduces become eligible at all_maps_done whether or not the job gets a
  // reduce plan.
  invalidate_no_grant_cache();
  if (job.spec().num_reduces > 0) {
    users_[job.spec().user].reduce_candidates.emplace(seq_.at(job.id()),
                                                      &job);
  }
  if (!opts_.enable_reduce_planning) return;
  if (!job.shuffle_heavy() || job.spec().num_reduces == 0) return;

  // PSRT operates on the *actual* per-rack map output, disregarding racks
  // whose output is below T_e (they cannot use the OCS regardless).
  std::vector<DataSize> sm;
  for (const auto& [rack, size] : job.map_output_by_rack()) {
    if (size >= ctx.topo.elephant_threshold) sm.push_back(size);
  }
  if (sm.empty()) return;  // cannot exploit the OCS; reduces spread freely

  PerfScope perf(PerfPhase::kPsrtEnumerate);
  perf.set_size(sm.size());
  const std::vector<PossibleSchedule> schedules = enumerate_schedules(
      sm, job.spec().num_reduces,
      [&fabric = ctx.fabric](const TrafficMatrix& matrix) {
        return fabric.cct_lower_bound(matrix);
      },
      ctx);
  if (schedules.empty()) return;

  select_best_schedule(job, schedules, ctx);
}

std::vector<PossibleSchedule> CoScheduler::enumerate_schedules(
    const std::vector<DataSize>& sm, std::int32_t num_reduces,
    const CctBoundFn& bound, const SchedContext& ctx) const {
  return possible_reduce_schedules_incremental(
      sm, num_reduces, ctx.topo.elephant_threshold, bound, ctx.topo.num_racks);
}

std::vector<ExploredSchedule> CoScheduler::explore(
    const std::vector<PossibleSchedule>& schedules, SchedContext& ctx) const {
  return explore_schedules_incremental(schedules, ctx.topo.num_racks,
                                       ctx.availability);
}

void CoScheduler::select_best_schedule(
    Job& job, const std::vector<PossibleSchedule>& schedules,
    SchedContext& ctx) {
  PerfScope perf(PerfPhase::kSbsExplore);
  perf.set_size(schedules.size() *
                static_cast<std::uint64_t>(ctx.topo.num_racks));
  const std::vector<ExploredSchedule> explored = explore(schedules, ctx);
  const std::optional<std::size_t> best_index = best_schedule_index(explored);
  if (!best_index.has_value()) return;
  ExploredSchedule best = explored[*best_index];

  if (ctx.obs != nullptr) {
    PlacementDecision dec;
    dec.at = ctx.now;
    dec.job = job.id();
    dec.r_map = job.r_map_guideline();
    dec.r_red = static_cast<std::int32_t>(best.plan.size());
    dec.d = best.d;
    dec.plan.assign(best.plan.begin(), best.plan.end());
    dec.planned_cct = best.cct;
    dec.t_max = best.t_max;
    dec.score_sec = best.score_sec();
    dec.candidates = static_cast<std::int64_t>(schedules.size());
    ctx.obs->decisions.record(std::move(dec));
  }
  job.set_reduce_plan(std::move(best.plan), best.cct);
}

namespace {

/// Class-6 gate: a guided shuffle-heavy job may run maps off-guideline only
/// when no guideline-conforming placement is possible right now — i.e., no
/// guideline rack has both a free container and a pending local map.
bool map_overflow_allowed(Job& job, const SchedContext& ctx) {
  if (!job.shuffle_heavy() || job.r_map_guideline() <= 0) return true;
  for (RackId r : job.guideline_map_racks()) {
    if (ctx.cluster.free_slots(r) > 0 &&
        job.next_pending_map_local(r) != nullptr) {
      return false;  // a conforming placement exists; no overflow yet
    }
  }
  return true;
}

}  // namespace

std::optional<TaskChoice> CoScheduler::pick_task(RackId rack,
                                                 SchedContext& ctx) {
  PerfScope perf(PerfPhase::kOcasGrant);
  perf.set_size(ctx.active_jobs.size());
  const auto num_racks = static_cast<std::size_t>(ctx.topo.num_racks);
  if (no_grant_epoch_.size() < num_racks) no_grant_epoch_.resize(num_racks, 0);
  // placed_ only fills while a recorded decline is current (any bump
  // empties it), so there is something to revive whenever it is non-empty.
  if (!placed_.empty()) {
    if (placement_opened_gate(ctx)) invalidate_no_grant_cache();
    placed_.clear();
  }
  const auto ri = static_cast<std::size_t>(rack.value());
  last_decline_global_ = false;
  if (no_grant_epoch_[ri] == epoch_) {
    last_decline_global_ = global_epoch_ == epoch_;
    return std::nullopt;
  }

  // Fair user order over the tracked users. fair_user_order stable-sorts a
  // uid-ascending (user, running) list by (running, uid); iterating the
  // uid-ascending users_ map and stable-sorting by running alone is the
  // same total order. Users without candidates cannot match any class and
  // are filtered up front — (running, uid) is a strict total order, so
  // filtering commutes with sorting. A stable insertion sort in a reused
  // buffer gives that order without allocating.
  order_.clear();
  for (auto& [user, state] : users_) {
    if (state.map_candidates.empty() && state.reduce_candidates.empty()) {
      continue;
    }
    const std::pair<std::int64_t, UserState*> entry{state.running, &state};
    std::size_t i = order_.size();
    order_.push_back(entry);
    for (; i > 0 && order_[i - 1].first > entry.first; --i) {
      order_[i] = order_[i - 1];
    }
    order_[i] = entry;
  }

  bool any_candidate = false;
  for (auto& [running, state] : order_) {
    if (auto choice = scan_user(*state, rack, ctx)) return choice;
    // A declining scan visits every entry, so what survives its pruning is
    // exactly the set of jobs with a pending map or eligible reduce.
    any_candidate = any_candidate || !state->map_candidates.empty() ||
                    !state->reduce_candidates.empty();
  }
  no_grant_epoch_[ri] = epoch_;
  recorded_epoch_ = epoch_;
  // No candidate left means no pending map or eligible reduce anywhere — a
  // condition that never mentioned the offered rack, so this nullopt holds
  // for every rack until the next epoch bump (placements need a candidate,
  // and releases add none). This is the common steady-state shape (all
  // placed tasks are running, nothing is releasable), and it lets the
  // driver end the wave after this single pick.
  if (!any_candidate) {
    global_epoch_ = epoch_;
    last_decline_global_ = true;
  }
  return std::nullopt;
}

bool CoScheduler::placement_opened_gate(const SchedContext& ctx) {
  // A placement removes a pending task and fills a slot; classes 1-5 only
  // lose candidates by that, so a recorded decline can turn into a grant
  // only through class 6's overflow gate. The gate of job K reads, per
  // guideline rack g, "g has a free slot and K a pending map local to g";
  // it opens when the last such g loses either half. K's local maps go
  // only with K's own placements; a slot goes only with a placement on g.
  for (const auto& [job, rack] : placed_) {
    if (job->next_pending_map_any() != nullptr &&
        map_overflow_allowed(*job, ctx)) {
      return true;
    }
    if (ctx.cluster.free_slots(rack) > 0) continue;
    for (auto& [user, u] : users_) {
      for (auto& [s, other] : u.map_candidates) {
        if (other->shuffle_heavy() && other->r_map_guideline() > 0 &&
            other->in_map_guideline(rack) &&
            other->next_pending_map_any() != nullptr &&
            map_overflow_allowed(*other, ctx)) {
          return true;
        }
      }
    }
  }
  return false;
}

bool CoScheduler::no_grant_recorded(RackId rack) const {
  const auto ri = static_cast<std::size_t>(rack.value());
  return ri < no_grant_epoch_.size() && no_grant_epoch_[ri] == epoch_;
}

void CoScheduler::invalidate_no_grant_cache() {
  ++epoch_;
  placed_.clear();
}

std::optional<TaskChoice> CoScheduler::scan_user(UserState& u, RackId rack,
                                                 SchedContext& ctx) {
  // The six OCAS classes of Algorithm 2, with each "for job in the user's
  // active jobs" scan narrowed to the candidate list whose
  // membership is a superset of the class's match condition:
  //   * reduce_candidates members satisfy all_maps_done && num_reduces > 0,
  //     i.e. reduces_eligible, so classes 1/3/5 need no eligibility check;
  //   * map_candidates members (possibly) have pending maps — a non-null
  //     next_pending_map_local implies a non-null next_pending_map_any, so
  //     pruning on the latter never hides a local match.
  // Both lists iterate in arrival-sequence order, reproducing Algorithm 2's
  // arrival-order scan; exhausted entries are pruned in place
  // (the requeue hook re-inserts them if a kill re-opens work).

  // 1. Planned shuffle-heavy reduce with plan capacity on this rack.
  for (auto it = u.reduce_candidates.begin();
       it != u.reduce_candidates.end();) {
    Job* job = it->second;
    Task* t = job->next_pending_reduce();
    if (t == nullptr) {
      it = u.reduce_candidates.erase(it);
      continue;
    }
    if (job->shuffle_heavy() && job->has_reduce_plan() &&
        job->reduce_plan_remaining(rack) > 0) {
      return TaskChoice{job, t, 1};
    }
    ++it;
  }
  // 2. Guideline-conforming shuffle-heavy map.
  for (auto it = u.map_candidates.begin(); it != u.map_candidates.end();) {
    Job* job = it->second;
    if (job->next_pending_map_any() == nullptr) {
      it = u.map_candidates.erase(it);
      continue;
    }
    if (job->shuffle_heavy() && job->r_map_guideline() > 0 &&
        job->in_map_guideline(rack)) {
      if (Task* t = job->next_pending_map_local(rack)) {
        return TaskChoice{job, t, 2};
      }
    }
    ++it;
  }
  // 3. Reduce from a non-shuffle-heavy job.
  for (auto it = u.reduce_candidates.begin();
       it != u.reduce_candidates.end();) {
    Job* job = it->second;
    Task* t = job->next_pending_reduce();
    if (t == nullptr) {
      it = u.reduce_candidates.erase(it);
      continue;
    }
    if (!job->shuffle_heavy()) return TaskChoice{job, t, 3};
    ++it;
  }
  // 4. Any map from a non-shuffle-heavy job (local first).
  for (auto it = u.map_candidates.begin(); it != u.map_candidates.end();) {
    Job* job = it->second;
    if (job->next_pending_map_any() == nullptr) {
      it = u.map_candidates.erase(it);
      continue;
    }
    if (!job->shuffle_heavy()) {
      if (Task* t = job->next_pending_map_local(rack)) {
        return TaskChoice{job, t, 4};
      }
    }
    ++it;
  }
  for (auto it = u.map_candidates.begin(); it != u.map_candidates.end();) {
    Job* job = it->second;
    Task* t = job->next_pending_map_any();
    if (t == nullptr) {
      it = u.map_candidates.erase(it);
      continue;
    }
    if (!job->shuffle_heavy()) return TaskChoice{job, t, 4};
    ++it;
  }
  // 5. Reduce from a shuffle-heavy job with no plan.
  for (auto it = u.reduce_candidates.begin();
       it != u.reduce_candidates.end();) {
    Job* job = it->second;
    Task* t = job->next_pending_reduce();
    if (t == nullptr) {
      it = u.reduce_candidates.erase(it);
      continue;
    }
    if (job->shuffle_heavy() && !job->has_reduce_plan()) {
      return TaskChoice{job, t, 5};
    }
    ++it;
  }
  // 6. Overflow map (local first), gated by map_overflow_allowed.
  for (auto it = u.map_candidates.begin(); it != u.map_candidates.end();) {
    Job* job = it->second;
    if (job->next_pending_map_any() == nullptr) {
      it = u.map_candidates.erase(it);
      continue;
    }
    if (map_overflow_allowed(*job, ctx)) {
      if (Task* t = job->next_pending_map_local(rack)) {
        return TaskChoice{job, t, 6};
      }
    }
    ++it;
  }
  for (auto it = u.map_candidates.begin(); it != u.map_candidates.end();) {
    Job* job = it->second;
    Task* t = job->next_pending_map_any();
    if (t == nullptr) {
      it = u.map_candidates.erase(it);
      continue;
    }
    if (map_overflow_allowed(*job, ctx)) return TaskChoice{job, t, 6};
    ++it;
  }
  return std::nullopt;
}

void CoScheduler::on_task_placed(Job& job, Task& task, RackId rack) {
  (void)task;
  ++users_[job.spec().user].running;
  // The gates read the cluster, which the next pick_task's context has.
  if (recorded_epoch_ == epoch_) placed_.emplace_back(&job, rack);
}

void CoScheduler::on_task_completed(Job& job, Task& task, RackId rack) {
  (void)task;
  --users_[job.spec().user].running;
  // A freed slot can only close overflow gates, and running counts only
  // reorder users, so no decline can turn into a grant. The rack's own
  // record is dropped all the same: it was taken at another occupancy.
  const auto ri = static_cast<std::size_t>(rack.value());
  if (ri < no_grant_epoch_.size()) no_grant_epoch_[ri] = 0;
}

void CoScheduler::on_task_requeued(Job& job, Task& task, RackId rack) {
  (void)rack;
  invalidate_no_grant_cache();
  UserState& u = users_[job.spec().user];
  --u.running;
  const std::int64_t s = seq_.at(job.id());
  if (task.kind() == TaskKind::kMap) {
    u.map_candidates.emplace(s, &job);
  } else {
    u.reduce_candidates.emplace(s, &job);
  }
}

void CoScheduler::on_job_completed(Job& job) {
  invalidate_no_grant_cache();
  const auto it = seq_.find(job.id());
  COSCHED_CHECK_MSG(it != seq_.end(),
                    "untracked job " << job.id() << " completed");
  const auto uit = users_.find(job.spec().user);
  COSCHED_CHECK(uit != users_.end());
  uit->second.map_candidates.erase(it->second);
  uit->second.reduce_candidates.erase(it->second);
  if (--uit->second.active == 0) users_.erase(uit);
  seq_.erase(it);
}

void CoScheduler::on_reduce_plan_cleared(Job& job) {
  (void)job;
  // A cleared plan re-opens class-5 grants for the job; its
  // reduce-candidate membership never lapsed (pruning only happens when
  // every reduce is placed, and the breaker targets jobs with unplaced
  // reduces), so only the no-grant memo needs invalidating.
  invalidate_no_grant_cache();
}

std::string CoScheduler::audit_invariants(
    const std::vector<Job*>& active_jobs) const {
  const auto describe = [](const Job& job, const char* what) {
    std::ostringstream os;
    os << "incremental scheduler state incoherent: job " << job.id()
       << " (user " << job.spec().user << "): " << what;
    return os.str();
  };

  // Recompute what the caches must contain from the active set alone.
  std::map<UserId, std::int64_t> running;
  std::map<UserId, std::int64_t> active;
  for (const Job* job : active_jobs) {
    const UserId user = job->spec().user;
    running[user] += (job->maps_placed() - job->maps_completed()) +
                     (job->reduces_placed() - job->reduces_completed());
    ++active[user];

    const auto sit = seq_.find(job->id());
    if (sit == seq_.end()) return describe(*job, "active but not tracked");
    const auto uit = users_.find(user);
    if (uit == users_.end()) return describe(*job, "user state missing");
    const UserState& u = uit->second;
    if (job->maps_placed() < job->spec().num_maps &&
        u.map_candidates.count(sit->second) == 0) {
      return describe(*job, "has pending maps but is not a map candidate");
    }
    if (job->all_maps_done() && job->spec().num_reduces > 0 &&
        job->reduces_placed() < job->spec().num_reduces &&
        u.reduce_candidates.count(sit->second) == 0) {
      return describe(*job,
                      "has eligible pending reduces but is not a reduce "
                      "candidate");
    }
  }

  // Retired jobs' state must actually be freed: nothing tracked beyond the
  // active set, no user state outliving its last active job.
  if (seq_.size() != active_jobs.size()) {
    std::ostringstream os;
    os << "incremental scheduler tracks " << seq_.size() << " jobs but "
       << active_jobs.size() << " are active (retired state not freed)";
    return os.str();
  }
  for (const auto& [user, state] : users_) {
    const auto ait = active.find(user);
    if (ait == active.end()) {
      std::ostringstream os;
      os << "user " << user << " has scheduler state but no active jobs";
      return os.str();
    }
    if (state.active != ait->second || state.running != running.at(user)) {
      std::ostringstream os;
      os << "user " << user << " counters diverge: tracked active="
         << state.active << " running=" << state.running << ", recomputed "
         << "active=" << ait->second << " running=" << running.at(user);
      return os.str();
    }
    for (const auto& [s, job] : state.map_candidates) {
      const auto sit = seq_.find(job->id());
      if (sit == seq_.end() || sit->second != s) {
        return describe(*job, "stale map candidate");
      }
    }
    for (const auto& [s, job] : state.reduce_candidates) {
      const auto sit = seq_.find(job->id());
      if (sit == seq_.end() || sit->second != s) {
        return describe(*job, "stale reduce candidate");
      }
    }
  }

  // No-grant memo soundness, the part that needs no cluster state: a
  // current record is a declining scan, and a class-3/4/5 candidate (or a
  // pending map behind an always-open gate) is a grant on every rack, so
  // none may exist while any record is current. Placements and releases,
  // which keep records, never create one.
  if (std::find(no_grant_epoch_.begin(), no_grant_epoch_.end(), epoch_) !=
      no_grant_epoch_.end()) {
    for (const Job* job : active_jobs) {
      const bool pending_map = job->maps_placed() < job->spec().num_maps;
      const bool pending_reduce =
          job->all_maps_done() &&
          job->reduces_placed() < job->spec().num_reduces;
      const bool grantable_anywhere =
          job->shuffle_heavy()
              ? (pending_reduce && !job->has_reduce_plan()) ||
                    (pending_map && job->r_map_guideline() <= 0)
              : pending_map || pending_reduce;
      if (grantable_anywhere) {
        return describe(*job,
                        "grantable on every rack while a recorded no-grant "
                        "decline is current");
      }
    }
  }
  return {};
}

}  // namespace cosched
