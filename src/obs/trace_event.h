// Typed simulation-time trace events.
//
// A TraceEvent is a fixed-size, trivially-copyable record of one thing the
// simulation did: a task starting, a container being granted (with its OCAS
// priority class), a coflow being released, a flow being routed to a
// fabric, Sunflow choosing a circuit (with its flow and coflow priority)
// and the circuit coming up and down, a fault firing, the deadlock breaker
// engaging. The trace is the run's one record of these: grants, circuits
// and faults are logged nowhere else. Events carry ids and at most two
// scalar payloads — no strings and no heap — so recording one is a bounds
// check and a struct copy. Human-readable names appear only at export
// time.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/ids.h"
#include "common/units.h"

namespace cosched {

enum class TraceEventKind : std::uint8_t {
  kJobArrival,         // job
  kJobComplete,        // job
  kTaskStart,          // job, task, src=rack; a: 0=map 1=reduce
  kTaskFinish,         // job, task, src=rack; a: 0=map 1=reduce
  kContainerGrant,     // job, task, src=rack; a: OCAS class (1..6, -1 n/a)
  kReduceComputeStart, // job, task, src=rack
  kCoflowRelease,      // job; a: flows released so far; b: demand (GB)
  kFlowRouted,         // job, flow, src, dst; a: FlowPath; b: size (GB)
  kFlowComplete,       // job, flow, src, dst; a: FlowPath
  kCircuitSetup,       // job, flow, src, dst (reconfiguration begins);
                       //   a: flow bytes; b: coflow priority (s)
  kCircuitUp,          // src, dst (circuit carries traffic)
  kCircuitTeardown,    // src, dst
  kDeadlockBreak,      // a: total breaks so far
  kTaskStraggle,       // job, task, src=rack; b: service multiplier
  kTaskKilled,         // job, task, src=rack; a: 0=map 1=reduce;
                       //   b: kill point (fraction of the attempt)
  kOcsOutage,          // a: 1=begin 0=end; b: window duration (s)
  kFlowEvicted,        // job, flow, src, dst; b: bits still to drain
};
inline constexpr std::size_t kTraceEventKindCount = 17;
static_assert(static_cast<std::size_t>(TraceEventKind::kFlowEvicted) + 1 ==
              kTraceEventKindCount);

/// Export-time names; indexable by static_cast<size_t>(kind).
[[nodiscard]] constexpr const char* to_string(TraceEventKind k) {
  switch (k) {
    case TraceEventKind::kJobArrival:
      return "job_arrival";
    case TraceEventKind::kJobComplete:
      return "job_complete";
    case TraceEventKind::kTaskStart:
      return "task_start";
    case TraceEventKind::kTaskFinish:
      return "task_finish";
    case TraceEventKind::kContainerGrant:
      return "container_grant";
    case TraceEventKind::kReduceComputeStart:
      return "reduce_compute_start";
    case TraceEventKind::kCoflowRelease:
      return "coflow_release";
    case TraceEventKind::kFlowRouted:
      return "flow_routed";
    case TraceEventKind::kFlowComplete:
      return "flow_complete";
    case TraceEventKind::kCircuitSetup:
      return "circuit_setup";
    case TraceEventKind::kCircuitUp:
      return "circuit_up";
    case TraceEventKind::kCircuitTeardown:
      return "circuit_teardown";
    case TraceEventKind::kDeadlockBreak:
      return "deadlock_break";
    case TraceEventKind::kTaskStraggle:
      return "task_straggle";
    case TraceEventKind::kTaskKilled:
      return "task_killed";
    case TraceEventKind::kOcsOutage:
      return "ocs_outage";
    case TraceEventKind::kFlowEvicted:
      return "flow_evicted";
  }
  return "?";
}

struct TraceEvent {
  TraceEventKind kind{};
  SimTime at;
  JobId job = JobId::invalid();
  TaskId task = TaskId::invalid();
  FlowId flow = FlowId::invalid();
  RackId src = RackId::invalid();
  RackId dst = RackId::invalid();
  std::int64_t a = 0;
  double b = 0.0;

  friend bool operator==(const TraceEvent& x, const TraceEvent& y) {
    return x.kind == y.kind && x.at == y.at && x.job == y.job &&
           x.task == y.task && x.flow == y.flow && x.src == y.src &&
           x.dst == y.dst && x.a == y.a && x.b == y.b;
  }
};

}  // namespace cosched
