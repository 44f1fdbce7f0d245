// The observability bundle: everything a run can record about itself.
//
// Attach one to a SimConfig (`cfg.obs = &obs`) and the driver wires it
// through the whole stack: the TraceRecorder sees task/container/coflow/
// flow/circuit events, the CounterRegistry samples queue depths, container
// occupancy, circuit utilization and bytes in flight on a sim-time cadence,
// and the DecisionLog captures every PSRT/SBS plan, OCAS container grant,
// and Sunflow circuit choice. The bundle owns no simulation state and can
// outlive the driver, so artifacts are exported after run() returns.
//
// Constructing the bundle enables trace + decisions (attaching one is the
// opt-in); individual components can be re-disabled for targeted runs.
// Attaching it also monitors the run's wall clock: the driver captures the
// PerfMonitor's per-phase statistics for this run into `perf`.
#pragma once

#include "obs/counters.h"
#include "obs/decision_log.h"
#include "obs/perf_monitor.h"
#include "obs/trace_recorder.h"

namespace cosched {

struct Observability {
  Observability() {
    trace.enable();
    decisions.enable();
  }

  TraceRecorder trace;
  CounterRegistry counters;
  DecisionLog decisions;

  // Per-run PerfMonitor statistics. Unlike the global registry these never
  // conflate repetitions: the driver brackets the run with the thread-local
  // capture, so parallel workers stay separate.
  PerfSnapshot perf;
};

}  // namespace cosched
