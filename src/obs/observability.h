// The observability bundle: everything a run can record about itself.
//
// Attach one to a SimConfig (`cfg.obs = &obs`) and the driver wires it
// through the whole stack: the TraceRecorder sees task/container/coflow/
// flow/circuit/fault events, the CounterRegistry samples queue depths,
// container occupancy, circuit utilization and bytes in flight on a
// sim-time cadence, and the DecisionLog keeps every PSRT/SBS plan. The
// bundle owns no simulation state and can outlive the driver, so artifacts
// are exported after run() returns.
//
// Attaching the bundle is the one switch: a run without one records
// nothing. Attaching it also monitors the run's wall clock: the driver
// captures the PerfMonitor's per-phase statistics for this run into `perf`.
#pragma once

#include "obs/counters.h"
#include "obs/decision_log.h"
#include "obs/perf_monitor.h"
#include "obs/trace_recorder.h"

namespace cosched {

struct Observability {
  TraceRecorder trace;
  CounterRegistry counters;
  DecisionLog decisions;

  // Per-run PerfMonitor statistics: the driver brackets the run with the
  // thread-local capture, so parallel workers stay separate.
  PerfSnapshot perf;
};

}  // namespace cosched
