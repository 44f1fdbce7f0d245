#include "sim/driver.h"

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "common/check.h"
#include "common/log.h"
#include "fabric/fabric_factory.h"
#include "obs/observability.h"
#include "obs/perf_monitor.h"

namespace cosched {

SimulationDriver::SimulationDriver(SimConfig cfg, std::vector<JobSpec> workload,
                                   std::unique_ptr<JobScheduler> scheduler)
    : cfg_(cfg),
      workload_(std::move(workload)),
      scheduler_(std::move(scheduler)),
      eps_(sim_, cfg_.topo),
      fabric_(make_fabric(sim_, cfg_.topo, cfg_.fabric)),
      cluster_(cfg_.topo),
      rng_(cfg_.seed),
      trem_(cfg_.seed, cfg_.faults.trem_noise_rate()),
      faults_(cfg_.faults, cfg_.seed),
      running_by_rack_(static_cast<std::size_t>(cfg_.topo.num_racks)) {
  COSCHED_CHECK(scheduler_ != nullptr);
  cfg_.topo.validate();
  if (cfg_.audit) {
    audit_ = std::make_unique<InvariantAuditor>(sim_, eps_, cluster_, *fabric_,
                                                cfg_.topo);
    // The cct-lower-bound check holds whenever the fabric's per-setup
    // delay is what the bound formula assumes. Reconfiguration jitter
    // draws delta * U[1-pct, 1+pct] per setup — possibly *below* the base
    // delta — so the bound is no longer a guarantee under that fault.
    audit_->set_cct_bound_check(!faults_.has_reconfig_jitter());
    audit_->watch_jobs([this] { return jobs_.size(); }, active_jobs_);
    audit_->watch_fetches(
        [this](JobId job, RackId rack) {
          return undrained_fetches(job, rack);
        },
        [this](JobId job) { return undrained_fetches(job); });
  }
  eps_.set_on_flow_complete([this](Flow& f) { on_flow_complete(f); });
  fabric_->set_on_flow_complete([this](Flow& f) { on_flow_complete(f); });
  if (faults_.has_reconfig_jitter()) {
    fabric_->set_reconfig_delay_provider([this] {
      return faults_.jittered_reconfig_delay(cfg_.topo.ocs_reconfig_delay);
    });
  }
  if (cfg_.obs != nullptr) {
    fabric_->set_observability(cfg_.obs);
    register_counters();
  }
}

void SimulationDriver::register_counters() {
  CounterRegistry& c = cfg_.obs->counters;
  c.add_gauge("sim.events_live",
              [this] { return static_cast<double>(sim_.events_pending()); });
  c.add_gauge("sim.events_raw", [this] {
    return static_cast<double>(sim_.events_pending_raw());
  });
  c.add_gauge("jobs.active",
              [this] { return static_cast<double>(active_jobs_.size()); });
  c.add_gauge("tasks.pending",
              [this] { return static_cast<double>(pending_tasks_); });
  const double total_slots = static_cast<double>(
      cfg_.topo.num_racks * cfg_.topo.slots_per_rack());
  c.add_gauge("cluster.containers_used", [this, total_slots] {
    return total_slots - static_cast<double>(cluster_.total_free_slots());
  });
  for (std::int32_t r = 0; r < cfg_.topo.num_racks; ++r) {
    c.add_gauge("cluster.rack_used." + std::to_string(r), [this, r] {
      return static_cast<double>(cluster_.used_slots(RackId{r}));
    });
  }
  c.add_gauge("ocs.circuits_active", [this] {
    return static_cast<double>(fabric_->active_circuits());
  });
  c.add_gauge("ocs.utilization", [this] {
    return static_cast<double>(fabric_->active_circuits()) /
           static_cast<double>(cfg_.topo.num_racks);
  });
  c.add_gauge("ocs.transfers_active", [this] {
    return static_cast<double>(fabric_->active_transfers());
  });
  c.add_gauge("ocs.gb_in_flight", [this] {
    return fabric_->bytes_in_flight().in_gigabytes();
  });
  c.add_gauge("coflows.active", [this] {
    return static_cast<double>(fabric_->active_coflows());
  });
  c.add_gauge("eps.flows_active", [this] {
    return static_cast<double>(eps_.active_flows());
  });
  c.add_gauge("eps.gb_in_flight",
              [this] { return eps_.bytes_in_flight().in_gigabytes(); });
  c.add_gauge("eps.replans", [this] {
    return static_cast<double>(eps_.replans());
  });
  c.add_gauge("eps.groups_active", [this] {
    return static_cast<double>(eps_.active_groups());
  });
  c.add_gauge("sim.queue_compactions", [this] {
    return static_cast<double>(sim_.queue_compactions());
  });
}

SchedContext SimulationDriver::make_context() {
  return SchedContext{sim_.now(),   cfg_.topo, cluster_, active_jobs_,
                      *this,        rng_,      *fabric_, cfg_.obs};
}

RunMetrics SimulationDriver::run() {
  // Per-run wall-clock capture: an attached obs bundle brackets this run
  // with the PerfMonitor's thread-local capture, which is what monitors
  // this thread for the run. obs->perf then covers exactly this run — no
  // conflation across repetitions or with parallel workers. The guard
  // closes the capture even if the run throws.
  struct CaptureGuard {
    bool open;
    ~CaptureGuard() {
      if (open) PerfMonitor::end_capture();
    }
  } capture{cfg_.obs != nullptr};
  if (capture.open) PerfMonitor::begin_capture(&cfg_.obs->perf);

  if (cfg_.heartbeat_sec > 0.0) {
    wall_start_ = std::chrono::steady_clock::now();
    next_beat_ = wall_start_ + std::chrono::duration_cast<
                                   std::chrono::steady_clock::duration>(
                                   std::chrono::duration<double>(
                                       cfg_.heartbeat_sec));
  }

  for (std::size_t i = 0; i < workload_.size(); ++i) {
    sim_.schedule_at(workload_[i].arrival, [this, i] { on_job_arrival(i); });
  }
  for (const OcsOutageFault& o : faults_.plan().ocs_outages) {
    sim_.schedule_at(o.at, [this, o] { begin_ocs_outage(o); });
    sim_.schedule_at(o.at + o.dur, [this, o] { end_ocs_outage(o); });
  }
  while (true) {
    // (Re-)arm the counter sampler: it disarms itself whenever the queue
    // would otherwise drain, so each recovery round needs a fresh arm.
    if (cfg_.obs != nullptr) cfg_.obs->counters.arm(sim_);
    run_event_loop();
    if (jobs_completed_ == static_cast<std::int64_t>(workload_.size())) break;
    // No event is left and the breaker found nothing to release: every
    // scheduler decline is final, so the run fails instead of waiting.
    // Every arrival has fired by now, so the active jobs are the
    // incomplete ones.
    COSCHED_CHECK_MSG(break_deadlock(),
                      "simulation drained with " << active_jobs_.size()
                          << " jobs incomplete (oldest: job "
                          << active_jobs_.front()->id()
                          << ") and no recovery possible");
  }
  if (audit_) audit_->final_check();
  if (cfg_.heartbeat_sec > 0.0) emit_heartbeat();  // final summary beat

  RunMetrics m;
  m.scheduler = scheduler_->name();
  m.seed = cfg_.seed;
  m.makespan = last_completion_ - SimTime::zero();
  m.ocs_bytes = fabric_->bytes_transferred();
  m.eps_bytes = eps_.eps_bytes_transferred();
  m.local_bytes = eps_.local_bytes_transferred();
  m.events_executed = sim_.events_executed();
  m.dispatch_waves = dispatch_waves_;
  m.deadlock_breaks = deadlock_breaks_;
  m.faults = faults_.stats();
  // Every container must be back: killed tasks release their slots and
  // every retry ran to completion.
  COSCHED_CHECK_MSG(cluster_.total_free_slots() ==
                        cfg_.topo.num_racks * cfg_.topo.slots_per_rack(),
                    "containers leaked at end of run");
  m.jobs = std::move(records_);
  return m;
}

JobRecord SimulationDriver::make_record(const Job& job) const {
  JobRecord rec;
  rec.id = job.id();
  rec.user = job.spec().user;
  rec.shuffle_heavy = job.shuffle_heavy();
  rec.has_shuffle = job.has_shuffle();
  rec.arrival = job.spec().arrival;
  rec.completion = job.completion_time();
  rec.jct = job.completion_time() - job.spec().arrival;
  if (rec.has_shuffle) {
    COSCHED_CHECK(job.coflow().completed());
    rec.cct = job.coflow().cct();
    rec.shuffle_bytes = job.coflow().total_demand();
    // The *fabric's* bound: on mesh or rotor the ocs_link/reconfig_delay
    // formula would report a bound for a fabric the run never used
    // (docs/FABRICS.md, "The bound contract").
    rec.cct_lower_bound =
        fabric_->cct_lower_bound(job.coflow().cross_rack_matrix());
    rec.all_flows_ocs = job.coflow().rode_circuits_only();
  }
  for (const auto& [rack, output] : job.map_output_by_rack()) {
    rec.map_output_bytes += output;
  }
  for (const Task& t : job.maps()) {
    rec.last_map_completion =
        std::max(rec.last_map_completion, t.completed_at());
  }
  for (const Task& t : job.reduces()) {
    rec.first_reduce_placement =
        std::min(rec.first_reduce_placement, t.placed_at());
  }
  return rec;
}

void SimulationDriver::run_event_loop() {
  // Every step, the last one that finds the queue empty included, is one
  // sim.event_dispatch invocation sized by the live events pending.
  const auto step = [this] {
    PerfScope perf(PerfPhase::kEventDispatch);
    if (perf.active()) perf.set_size(sim_.events_pending());
    return sim_.step();
  };
  const bool beating = cfg_.heartbeat_sec > 0.0;
  // The wall clock is consulted once per kBeatCheckStride events, not per
  // event, so heartbeating costs ~nothing even at 100k-job scale.
  constexpr std::uint64_t kBeatCheckStride = 1024;
  std::uint64_t until_check = kBeatCheckStride;
  while (step()) {
    if (beating && --until_check == 0) {
      until_check = kBeatCheckStride;
      if (std::chrono::steady_clock::now() >= next_beat_) emit_heartbeat();
    }
  }
}

void SimulationDriver::emit_heartbeat() {
  const auto now = std::chrono::steady_clock::now();
  const double wall_sec =
      std::chrono::duration<double>(now - wall_start_).count();
  const std::uint64_t events = sim_.events_executed();
  const double window_sec = wall_sec - last_beat_wall_sec_;
  const double ev_per_sec =
      window_sec > 0.0
          ? static_cast<double>(events - last_beat_events_) / window_sec
          : 0.0;
  // One formatted write so concurrent repetitions interleave per line, not
  // per token.
  std::ostringstream line;
  line << "[heartbeat] wall=" << std::fixed << std::setprecision(1)
       << wall_sec << "s sim=" << sim_.now().sec() << "s events=" << events
       << " ev/s=" << std::setprecision(0) << ev_per_sec
       << " jobs=" << jobs_completed_ << "/" << workload_.size()
       << " rss_hwm_mb=" << rss_high_water_bytes() / (1024 * 1024) << "\n";
  std::ostream& os =
      cfg_.heartbeat_out != nullptr ? *cfg_.heartbeat_out : std::cerr;
  os << line.str() << std::flush;
  last_beat_events_ = events;
  last_beat_wall_sec_ = wall_sec;
  next_beat_ =
      now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(cfg_.heartbeat_sec));
}

void SimulationDriver::on_job_arrival(std::size_t workload_index) {
  const JobSpec& spec = workload_[workload_index];
  auto [it, inserted] = jobs_.emplace(
      spec.id, LiveJob{std::make_unique<Job>(spec, cfg_.topo.elephant_threshold,
                                             task_ids_,
                                             CoflowId{spec.id.value()}),
                       records_.size()});
  COSCHED_CHECK_MSG(inserted, "duplicate job id " << spec.id);
  records_.emplace_back();
  Job* job = it->second.job.get();
  active_jobs_.push_back(job);
  pending_tasks_ += spec.num_maps + spec.num_reduces;

  if (cfg_.obs != nullptr) {
    cfg_.obs->trace.record({.kind = TraceEventKind::kJobArrival,
                            .at = sim_.now(),
                            .job = job->id()});
  }
  SchedContext ctx = make_context();
  scheduler_->on_job_submitted(*job, ctx);
  COSCHED_CHECK_MSG(job->has_block_placement(),
                    "scheduler failed to place input of job " << job->id());
  request_dispatch();
}

void SimulationDriver::request_dispatch() {
  if (dispatch_scheduled_) return;
  if (pending_tasks_ == 0 || cluster_.total_free_slots() == 0) return;
  dispatch_scheduled_ = true;
  sim_.schedule_after(Duration::zero(), [this] {
    dispatch_scheduled_ = false;
    dispatch();
  });
}

void SimulationDriver::dispatch() {
  PerfScope perf(PerfPhase::kDriverDispatch);
  perf.set_size(static_cast<std::uint64_t>(cfg_.topo.num_racks));
  if (pending_tasks_ == 0) return;
  ++dispatch_waves_;
  SchedContext ctx = make_context();
  // One container per rack per pass, racks visited round-robin from a
  // rotating start: this models YARN granting containers as NodeManagers
  // across the cluster heartbeat, rather than draining one rack at a time
  // (which would artificially clump a job's tasks onto the first rack).
  const std::int32_t start = dispatch_rotation_++ % cfg_.topo.num_racks;
  // Only racks with a free container are offered (the Cluster's free-rack
  // walk). A pass repeats while the previous one granted something.
  const bool stable = scheduler_->declines_are_stable();
  bool progress = true;
  bool global_decline = false;
  while (progress && pending_tasks_ > 0 && !global_decline) {
    progress = false;
    cluster_.for_each_free_rack_from(start, [&](RackId rack) {
      if (pending_tasks_ == 0) return false;
      auto choice = scheduler_->pick_task(rack, ctx);
      if (!choice.has_value()) {
        // A stable rack-independent decline settles the remaining racks:
        // each would be the identical side-effect-free nullopt, and a
        // decline changes no state, so the conclusion holds for the rest
        // of the wave.
        if (stable && scheduler_->last_decline_was_global()) {
          global_decline = true;
          return false;
        }
        return true;
      }
      start_task(*choice->job, *choice->task, rack, choice->priority_class);
      progress = true;
      return true;
    });
  }
  // Audit sync point. Nothing re-offers a declined rack on a timer: the
  // next wave follows a state change (DESIGN.md §11).
  if (audit_) {
    audit_->check_light();
    audit_->check_scheduler(*scheduler_, active_jobs_);
  }
}

void SimulationDriver::start_task(Job& job, Task& task, RackId rack,
                                  std::int32_t grant_class) {
  const NodeId node = cluster_.allocate_slot(rack);
  task.place(rack, node, sim_.now());
  running_by_rack_[static_cast<std::size_t>(rack.value())].push_back(&task);
  --pending_tasks_;

  const bool is_map = task.kind() == TaskKind::kMap;
  if (cfg_.obs != nullptr) {
    cfg_.obs->trace.record({.kind = TraceEventKind::kContainerGrant,
                            .at = sim_.now(),
                            .job = job.id(),
                            .task = task.id(),
                            .src = rack,
                            .a = grant_class});
    cfg_.obs->trace.record({.kind = TraceEventKind::kTaskStart,
                            .at = sim_.now(),
                            .job = job.id(),
                            .task = task.id(),
                            .src = rack,
                            .a = is_map ? 0 : 1});
  }
  // Audit before note_map_placed/note_reduce_placed advance the job's
  // per-rack counters, so the class-1 check still sees the pre-grant plan
  // capacity this grant was admitted against.
  if (audit_) audit_->on_container_grant(job, task, rack, grant_class);

  if (task.kind() == TaskKind::kMap) {
    job.note_map_placed(rack);
    scheduler_->on_task_placed(job, task, rack);
    if (!job.map_local_on(task.index(), rack)) {
      // Remote read: fetching the block over the network, modeled as a
      // deterministic NIC-limited delay (small flows are not worth pushing
      // through the fluid fabric; all schedulers pay the same price).
      task.set_read_penalty(
          transfer_time(job.spec().block_size(), cfg_.topo.server_nic));
    }
    apply_attempt_faults(job, task);
    Job* jp = &job;
    Task* tp = &task;
    EventHandle done = sim_.schedule_after(
        task.run_duration(), [this, jp, tp] { on_map_complete(*jp, *tp); });
    if (faults_.has_container_kill()) {
      completion_events_[task.id()] = std::move(done);
    }
    return;
  }

  // Reduce task: occupies the container; shuffle demand materializes per
  // the scheduler's reduce semantics.
  job.note_reduce_placed(rack);
  scheduler_->on_task_placed(job, task, rack);
  apply_attempt_faults(job, task);
  if (scheduler_->defers_reduces()) {
    COSCHED_CHECK_MSG(job.all_maps_done(),
                      "deferred scheduler placed a reduce before maps done");
    // Release the coflow as one unit once every reduce container is
    // granted (Section IV-A). A job whose shuffle was already partially
    // released by the deadlock breaker keeps streaming incrementally.
    if (job.all_reduces_placed() || job.shuffle_released()) {
      sync_reduce_demand(job);
    }
  } else if (job.all_maps_done()) {
    sync_reduce_demand(job);
  }
  // A retried reduce can land on a rack whose fetches already drained;
  // sync_reduce_demand then has no new demand to materialize for the rack
  // and will not poke it, so check for an immediately-startable compute
  // here. Idempotent and guard-gated: a no-op on every non-retry placement.
  if (job.shuffle_released()) try_start_reduce_computes(job, rack);
}

void SimulationDriver::release_container(Job& job, Task& task) {
  const RackId rack = task.rack();
  auto& v = running_by_rack_[static_cast<std::size_t>(rack.value())];
  auto it = std::find(v.begin(), v.end(), &task);
  COSCHED_CHECK(it != v.end());
  v.erase(it);
  cluster_.release_slot(rack, task.node());
  if (audit_) audit_->on_container_release(job, task, rack);
  if (faults_.has_container_kill()) completion_events_.erase(task.id());
}

void SimulationDriver::on_map_complete(Job& job, Task& task) {
  task.complete(sim_.now());
  if (cfg_.obs != nullptr) {
    cfg_.obs->trace.record({.kind = TraceEventKind::kTaskFinish,
                            .at = sim_.now(),
                            .job = job.id(),
                            .task = task.id(),
                            .src = task.rack(),
                            .a = 0});
  }
  release_container(job, task);
  job.note_map_completed(task.rack(), job.spec().map_output_size());
  scheduler_->on_task_completed(job, task, task.rack());

  if (job.all_maps_done()) {
    SchedContext ctx = make_context();
    scheduler_->on_maps_completed(job, ctx);
    if (audit_) audit_->on_reduce_plan(job);
    if (job.spec().num_reduces == 0) {
      finish_job(job);
    } else if (!scheduler_->defers_reduces()) {
      sync_reduce_demand(job);
    }
  }
  request_dispatch();
}

void SimulationDriver::sync_reduce_demand(Job& job) {
  COSCHED_CHECK(job.all_maps_done());
  LiveJob& live = jobs_.at(job.id());
  std::vector<std::int32_t>& demanded = live.demanded;
  if (demanded.empty()) {
    demanded.resize(static_cast<std::size_t>(cfg_.topo.num_racks), 0);
    live.undrained.resize(demanded.size(), 0);
  }
  const bool first_release = !job.shuffle_released();
  job.mark_shuffle_released();
  job.coflow().mark_released(sim_.now());
  std::vector<RackId> touched;
  for (const auto& [rack, placed] : job.reduce_placed_by_rack()) {
    const auto ri = static_cast<std::size_t>(rack.value());
    const std::int32_t missing = placed - demanded[ri];
    if (missing <= 0) continue;
    demanded[ri] = placed;
    touched.push_back(rack);
    const double share = static_cast<double>(missing) /
                         static_cast<double>(job.spec().num_reduces);
    for (const auto& [src, output] : job.map_output_by_rack()) {
      const DataSize demand = output * share;
      if (demand.is_zero()) continue;
      auto [flow, change] =
          job.coflow().add_demand(flow_ids_, src, rack, demand);
      route_flow(live, *flow, change);
    }
  }
  if (first_release && cfg_.obs != nullptr) {
    cfg_.obs->trace.record(
        {.kind = TraceEventKind::kCoflowRelease,
         .at = sim_.now(),
         .job = job.id(),
         .a = static_cast<std::int64_t>(job.coflow().flows().size()),
         .b = job.coflow().total_demand().in_gigabytes()});
  }
  for (RackId rack : touched) try_start_reduce_computes(job, rack);
}

void SimulationDriver::route_flow(LiveJob& live, Flow& flow,
                                  Coflow::DemandChange change) {
  Job& job = *live.job;
  if (change == Coflow::DemandChange::kCreated) {
    // Local if intra-rack; the circuit fabric if it admits the flow (the
    // c-Through elephant rule) and is not inside a whole-fabric outage.
    const bool circuit = ocs_down_depth_ == 0 && fabric_->admits(flow);
    flow.set_path(flow.src() == flow.dst() ? FlowPath::kLocal
                  : circuit                ? FlowPath::kOcs
                                           : FlowPath::kEps);
    COSCHED_DEBUG() << "job " << job.id() << " flow " << flow.src() << "->"
                    << flow.dst() << " " << flow.size() << " via "
                    << to_string(flow.path());
    if (cfg_.obs != nullptr) {
      cfg_.obs->trace.record({.kind = TraceEventKind::kFlowRouted,
                              .at = sim_.now(),
                              .job = flow.job(),
                              .flow = flow.id(),
                              .src = flow.src(),
                              .dst = flow.dst(),
                              .a = static_cast<std::int64_t>(flow.path()),
                              .b = flow.size().in_gigabytes()});
    }
  } else if (change == Coflow::DemandChange::kGrew) {
    // Demand grew while in flight; the path sticks (a flow that started
    // small on the EPS does not get promoted — exactly the aggregation
    // failure of overlapping schedulers the paper describes).
    if (audit_) audit_->on_flow_routed(job, flow);
    if (flow.path() == FlowPath::kOcs) {
      fabric_->demand_added(flow);
    } else {
      eps_.demand_added(flow);
    }
    return;
  } else if (flow.path() == FlowPath::kOcs && ocs_down_depth_ > 0) {
    // Reopened (the flow had drained, and a late reduce added more
    // demand) while the OCS it rode before is down: degrade the re-fetch
    // onto the EPS rather than queueing behind the outage.
    flow.set_path(FlowPath::kEps);
  }
  // New, or reopened after draining.
  ++live.undrained[static_cast<std::size_t>(flow.dst().value())];
  ++live.undrained_total;
  if (audit_) audit_->on_flow_routed(job, flow);
  if (flow.path() == FlowPath::kOcs) {
    fabric_->submit(job.coflow(), flow);
  } else {
    eps_.start_flow(flow);
  }
}

void SimulationDriver::on_flow_complete(Flow& flow) {
  if (audit_) audit_->on_flow_completed(flow);
  if (cfg_.obs != nullptr) {
    cfg_.obs->trace.record({.kind = TraceEventKind::kFlowComplete,
                            .at = sim_.now(),
                            .job = flow.job(),
                            .flow = flow.id(),
                            .src = flow.src(),
                            .dst = flow.dst(),
                            .a = static_cast<std::int64_t>(flow.path())});
  }
  LiveJob& live = jobs_.at(flow.job());
  --live.undrained[static_cast<std::size_t>(flow.dst().value())];
  --live.undrained_total;
  Job* job = live.job.get();
  if (job->all_maps_done() && job->all_reduces_placed() &&
      live.undrained_total == 0 && !job->coflow().completed()) {
    job->coflow().mark_completed(sim_.now());
  }
  try_start_reduce_computes(*job, flow.dst());
  // A killed reduce's fetches can outlive the job's last reduce (its rerun
  // fetched elsewhere); such a job finishes when the orphans drain.
  if (job->work_done() && !job->completed() && live.undrained_total == 0) {
    finish_job(*job);
  }
}

void SimulationDriver::try_start_reduce_computes(Job& job, RackId rack) {
  if (!job.all_maps_done() || !job.shuffle_released()) return;
  if (undrained_fetches(job.id(), rack) != 0) return;
  for (Task& t : job.reduces()) {
    if (t.state() != TaskState::kRunning || t.compute_started()) continue;
    if (t.rack() != rack) continue;
    t.begin_compute(sim_.now());
    if (cfg_.obs != nullptr) {
      cfg_.obs->trace.record({.kind = TraceEventKind::kReduceComputeStart,
                              .at = sim_.now(),
                              .job = job.id(),
                              .task = t.id(),
                              .src = rack});
    }
    Job* jp = &job;
    Task* tp = &t;
    EventHandle done = sim_.schedule_after(
        t.run_duration(), [this, jp, tp] { on_reduce_complete(*jp, *tp); });
    if (faults_.has_container_kill()) {
      completion_events_[t.id()] = std::move(done);
    }
  }
}

void SimulationDriver::apply_attempt_faults(Job& job, Task& task) {
  if (faults_.has_straggler()) {
    const double multiplier = faults_.draw_straggler_multiplier();
    if (multiplier != 1.0) {
      task.set_straggle_factor(multiplier);
      if (cfg_.obs != nullptr) {
        cfg_.obs->trace.record({.kind = TraceEventKind::kTaskStraggle,
                                .at = sim_.now(),
                                .job = job.id(),
                                .task = task.id(),
                                .src = task.rack(),
                                .b = multiplier});
      }
    }
  }
  // A zero-length attempt completes at its own placement instant; there is
  // no interior point to kill it at, so it never draws.
  if (faults_.has_container_kill() &&
      task.run_duration() > Duration::zero()) {
    if (const std::optional<double> frac = faults_.draw_kill_point()) {
      Job* jp = &job;
      Task* tp = &task;
      // frac < 1 puts the kill strictly before this attempt's completion
      // (a reduce computes no earlier than its placement), so a killed
      // attempt can never also complete.
      sim_.schedule_after(task.run_duration() * *frac,
                          [this, jp, tp] { on_task_killed(*jp, *tp); });
    }
  }
}

void SimulationDriver::on_task_killed(Job& job, Task& task) {
  COSCHED_CHECK(task.state() == TaskState::kRunning);
  const bool is_map = task.kind() == TaskKind::kMap;
  const RackId rack = task.rack();
  if (auto it = completion_events_.find(task.id());
      it != completion_events_.end()) {
    it->second.cancel();
  }
  release_container(job, task);
  if (cfg_.obs != nullptr) {
    // Only attempts with a positive run duration draw a kill point.
    cfg_.obs->trace.record({.kind = TraceEventKind::kTaskKilled,
                            .at = sim_.now(),
                            .job = job.id(),
                            .task = task.id(),
                            .src = rack,
                            .a = is_map ? 0 : 1,
                            .b = (sim_.now() - task.placed_at()) /
                                 task.run_duration()});
  }
  task.reset_for_retry();
  if (is_map) {
    job.requeue_map(task.index());
    ++faults_.stats().maps_killed;
  } else {
    job.requeue_reduce(task.index(), rack);
    ++faults_.stats().reduces_killed;
  }
  scheduler_->on_task_requeued(job, task, rack);
  ++pending_tasks_;
  request_dispatch();
}

void SimulationDriver::reroute_evicted(const std::vector<Flow*>& evicted) {
  // Degrade gracefully: everything the outage evicted — queued or
  // mid-transfer — finishes its remaining bytes over the EPS.
  for (Flow* flow : evicted) {
    ++faults_.stats().flows_evicted;
    if (cfg_.obs != nullptr) {
      cfg_.obs->trace.record({.kind = TraceEventKind::kFlowEvicted,
                              .at = sim_.now(),
                              .job = flow->job(),
                              .flow = flow->id(),
                              .src = flow->src(),
                              .dst = flow->dst(),
                              .b = flow->remaining_bits()});
    }
    flow->set_path(FlowPath::kEps);
    eps_.start_flow(*flow);
  }
}

void SimulationDriver::begin_ocs_outage(const OcsOutageFault& outage) {
  ++faults_.stats().ocs_outages;
  faults_.stats().ocs_downtime_sec += outage.dur.sec();
  if (cfg_.obs != nullptr) {
    cfg_.obs->trace.record({.kind = TraceEventKind::kOcsOutage,
                            .at = sim_.now(),
                            .a = 1,
                            .b = outage.dur.sec()});
  }
  if (outage.plane >= 0 && outage.plane < fabric_->num_planes()) {
    // Plane-targeted: only that plane's in-flight transfers are evicted;
    // queued demand stays (the surviving planes serve it), classification
    // is unchanged, and allocation skips the plane until it heals. A plane
    // index the fabric doesn't have (plane=3 on ocs:2, any plane= on
    // rotor or mesh) degrades to a whole-fabric outage below, so fault
    // plans stay composable with every --fabric choice.
    reroute_evicted(fabric_->begin_plane_outage(outage.plane));
    if (audit_) audit_->check_light();
    return;
  }
  ++ocs_down_depth_;
  reroute_evicted(fabric_->evict_all());
  if (audit_) audit_->on_outage_begin();
}

void SimulationDriver::end_ocs_outage(const OcsOutageFault& outage) {
  if (outage.plane >= 0 && outage.plane < fabric_->num_planes()) {
    fabric_->end_plane_outage(outage.plane);
    if (audit_) audit_->check_light();
  } else {
    COSCHED_CHECK(ocs_down_depth_ > 0);
    --ocs_down_depth_;
    if (audit_) audit_->on_outage_end();
  }
  if (cfg_.obs != nullptr) {
    cfg_.obs->trace.record({.kind = TraceEventKind::kOcsOutage,
                            .at = sim_.now(),
                            .a = 0,
                            .b = outage.dur.sec()});
  }
}

void SimulationDriver::on_reduce_complete(Job& job, Task& task) {
  task.complete(sim_.now());
  if (cfg_.obs != nullptr) {
    cfg_.obs->trace.record({.kind = TraceEventKind::kTaskFinish,
                            .at = sim_.now(),
                            .job = job.id(),
                            .task = task.id(),
                            .src = task.rack(),
                            .a = 1});
  }
  release_container(job, task);
  job.note_reduce_completed();
  scheduler_->on_task_completed(job, task, task.rack());
  // Flows still in a fabric here belong to a killed attempt whose rerun
  // fetched on another rack; on_flow_complete finishes the job once the
  // last of them drains.
  if (job.work_done() && jobs_.at(job.id()).undrained_total == 0) {
    finish_job(job);
  }
  request_dispatch();
}

void SimulationDriver::finish_job(Job& job) {
  COSCHED_CHECK(!job.completed());
  job.mark_completed(sim_.now());
  if (audit_) audit_->on_job_finished(job);
  if (cfg_.obs != nullptr) {
    cfg_.obs->trace.record({.kind = TraceEventKind::kJobComplete,
                            .at = sim_.now(),
                            .job = job.id()});
  }
  last_completion_ = std::max(last_completion_, sim_.now());
  ++jobs_completed_;
  auto it = std::find(active_jobs_.begin(), active_jobs_.end(), &job);
  COSCHED_CHECK(it != active_jobs_.end());
  active_jobs_.erase(it);
  scheduler_->on_job_completed(job);

  // Retire: build the record, then free the job with its tasks, coflow and
  // flows. A killed reduce's re-fetch can reopen a drained flow, but only
  // while the job still has a reduce to run, and a job whose last reduce
  // finished with a killed attempt's fetches still in flight waits for
  // them (on_flow_complete), so none may be in flight now.
  COSCHED_CHECK_MSG(job.coflow().all_flows_complete(),
                    "job " << job.id() << " freed with a flow in a fabric");
  records_[jobs_.at(job.id()).record_slot] = make_record(job);
  jobs_.erase(job.id());
}

bool SimulationDriver::break_deadlock() {
  // The event queue drained with jobs incomplete: deferred jobs are holding
  // containers with waiting reduces while their remaining reduces cannot be
  // placed (plans pointing at saturated racks, or mutual container waits).
  // Recovery: abandon plans and partially release placed reduces so they
  // fetch, compute, and free their containers.
  bool changed = false;
  for (Job* job : active_jobs_) {
    if (!job->all_maps_done() || job->spec().num_reduces == 0) continue;
    if (job->all_reduces_placed()) continue;
    if (job->has_reduce_plan()) {
      job->clear_reduce_plan();
      scheduler_->on_reduce_plan_cleared(*job);
      changed = true;
    }
    if (job->reduces_placed() > 0 && !job->shuffle_released()) {
      sync_reduce_demand(*job);
      changed = true;
    }
  }
  if (changed) {
    ++deadlock_breaks_;
    if (cfg_.obs != nullptr) {
      cfg_.obs->trace.record({.kind = TraceEventKind::kDeadlockBreak,
                              .at = sim_.now(),
                              .a = deadlock_breaks_});
    }
    COSCHED_WARN() << "deadlock breaker engaged (" << deadlock_breaks_
                   << " total)";
    request_dispatch();
  }
  return changed;
}

Duration SimulationDriver::estimate_availability(RackId rack,
                                                 std::int64_t count) {
  PerfScope perf(PerfPhase::kDriverEstimateAvailability);
  perf.set_size(static_cast<std::uint64_t>(count));
  COSCHED_CHECK(count > 0);
  if (count > cfg_.topo.slots_per_rack()) return Duration::infinity();
  const std::int64_t free = cluster_.free_slots(rack);
  if (free >= count) return Duration::zero();
  const std::int64_t need = count - free;

  std::vector<double> remaining_sec;
  const auto& running = running_by_rack_[static_cast<std::size_t>(rack.value())];
  remaining_sec.reserve(running.size());
  for (Task* t : running) {
    double est;
    if (t->compute_started()) {
      est = trem_.estimate(*t, sim_.now()).sec();
    } else {
      // A reduce still fetching: remaining = slowest incoming flow at an
      // optimistic rate plus the compute phase, all through the same
      // error model.
      const Job* job = jobs_.at(t->job()).job.get();
      double fetch_sec = 0.0;
      for (const auto& f : job->coflow().flows()) {
        if (f->dst() != rack || f->completed()) continue;
        const Bandwidth rate = eps_.rate(*f);
        const Bandwidth hint =
            rate.in_bits_per_sec() > 0.0
                ? rate
                : (f->path() == FlowPath::kOcs ? cfg_.topo.ocs_link
                                               : cfg_.topo.eps_rack_link());
        fetch_sec = std::max(fetch_sec, eps_.remaining_bits(*f) /
                                            hint.in_bits_per_sec());
      }
      est = (t->compute_duration().sec() + fetch_sec) *
            trem_.factor_for(t->id(), t->attempt());
    }
    remaining_sec.push_back(std::max(est, 0.0));
  }
  if (static_cast<std::int64_t>(remaining_sec.size()) < need) {
    // Should not happen (free + running == slots), but stay safe.
    return Duration::infinity();
  }
  std::nth_element(remaining_sec.begin(),
                   remaining_sec.begin() + (need - 1), remaining_sec.end());
  return Duration::seconds(remaining_sec[static_cast<std::size_t>(need - 1)]);
}

}  // namespace cosched
