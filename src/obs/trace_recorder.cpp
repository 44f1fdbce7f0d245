#include "obs/trace_recorder.h"

#include <ostream>
#include <set>
#include <string>

#include "common/check.h"
#include "net/flow.h"
#include "obs/counters.h"

namespace cosched {

namespace {

// Chrome trace "process" layout: one synthetic pid per actor so Perfetto
// groups related rows. Jobs get their own pid each (task spans nest under
// them, one "thread" row per task); the network and the driver share fixed
// pids.
constexpr std::int64_t kNetworkPid = 1;
constexpr std::int64_t kDriverPid = 2;
constexpr std::int64_t kJobPidBase = 1000;

std::int64_t job_pid(JobId job) { return kJobPidBase + job.value(); }

double micros(SimTime t) { return t.sec() * 1e6; }

const char* flow_event_name(std::int64_t path) {
  switch (static_cast<FlowPath>(path)) {
    case FlowPath::kEps:
      return "flow_eps";
    case FlowPath::kOcs:
      return "flow_ocs";
    case FlowPath::kLocal:
      return "flow_local";
    case FlowPath::kPending:
      break;
  }
  return "flow";
}

/// One JSON trace-event object. `args_json` is the inner object body
/// ("\"k\":1") or empty.
void emit(std::ostream& os, bool& first, const std::string& name,
          const char* cat, const char* ph, double ts, std::int64_t pid,
          std::int64_t tid, const std::string& args_json) {
  if (!first) os << ",\n";
  first = false;
  os << R"({"name":")" << name << R"(","cat":")" << cat << R"(","ph":")"
     << ph << R"(","ts":)" << ts << R"(,"pid":)" << pid << R"(,"tid":)"
     << tid;
  if (!args_json.empty()) os << R"(,"args":{)" << args_json << "}";
  os << "}";
}

void emit_process_name(std::ostream& os, bool& first, std::int64_t pid,
                       const std::string& name) {
  if (!first) os << ",\n";
  first = false;
  os << R"({"name":"process_name","ph":"M","pid":)" << pid
     << R"(,"tid":0,"args":{"name":")" << name << R"("}})";
}

}  // namespace

std::int64_t TraceRecorder::count(TraceEventKind kind) const {
  std::int64_t n = 0;
  for (const TraceEvent& ev : events_) {
    if (ev.kind == kind) ++n;
  }
  return n;
}

void TraceRecorder::write_chrome_trace(std::ostream& os,
                                       const CounterRegistry* counters) const {
  os << "{\"traceEvents\":[\n";
  bool first = true;

  emit_process_name(os, first, kNetworkPid, "network (OCS circuits + flows)");
  emit_process_name(os, first, kDriverPid, "driver/scheduler");
  std::set<JobId> jobs_seen;
  for (const TraceEvent& ev : events_) {
    if (ev.job.valid() && jobs_seen.insert(ev.job).second) {
      emit_process_name(os, first, job_pid(ev.job),
                        "job " + std::to_string(ev.job.value()));
    }
  }

  for (const TraceEvent& ev : events_) {
    const double ts = micros(ev.at);
    switch (ev.kind) {
      case TraceEventKind::kJobArrival:
        emit(os, first, "job_arrival", "job", "i", ts, job_pid(ev.job), 0,
             "\"scope\":1");
        break;
      case TraceEventKind::kJobComplete:
        emit(os, first, "job_complete", "job", "i", ts, job_pid(ev.job), 0,
             "");
        break;
      case TraceEventKind::kTaskStart:
        emit(os, first, ev.a == 0 ? "map" : "reduce", "task", "B", ts,
             job_pid(ev.job), ev.task.value(),
             "\"rack\":" + std::to_string(ev.src.value()));
        break;
      case TraceEventKind::kTaskFinish:
        emit(os, first, ev.a == 0 ? "map" : "reduce", "task", "E", ts,
             job_pid(ev.job), ev.task.value(), "");
        break;
      case TraceEventKind::kContainerGrant:
        emit(os, first, "container_grant", "sched", "i", ts, job_pid(ev.job),
             ev.task.value(),
             "\"ocas_class\":" + std::to_string(ev.a) +
                 ",\"rack\":" + std::to_string(ev.src.value()));
        break;
      case TraceEventKind::kReduceComputeStart:
        emit(os, first, "reduce_compute_start", "task", "i", ts,
             job_pid(ev.job), ev.task.value(), "");
        break;
      case TraceEventKind::kCoflowRelease:
        emit(os, first, "coflow_release", "coflow", "i", ts, job_pid(ev.job),
             0,
             "\"flows\":" + std::to_string(ev.a) +
                 ",\"gb\":" + std::to_string(ev.b));
        break;
      case TraceEventKind::kFlowRouted:
        emit(os, first, flow_event_name(ev.a), "flow", "i", ts, kNetworkPid,
             ev.src.value(),
             "\"job\":" + std::to_string(ev.job.value()) +
                 ",\"dst\":" + std::to_string(ev.dst.value()) +
                 ",\"gb\":" + std::to_string(ev.b));
        break;
      case TraceEventKind::kFlowComplete:
        emit(os, first, "flow_complete", "flow", "i", ts, kNetworkPid,
             ev.src.value(),
             "\"job\":" + std::to_string(ev.job.value()) +
                 ",\"dst\":" + std::to_string(ev.dst.value()));
        break;
      case TraceEventKind::kCircuitSetup:
        emit(os, first, "circuit", "ocs", "B", ts, kNetworkPid,
             ev.src.value(),
             "\"dst\":" + std::to_string(ev.dst.value()) +
                 ",\"job\":" + std::to_string(ev.job.value()) +
                 ",\"flow\":" + std::to_string(ev.flow.value()) +
                 ",\"bytes\":" + std::to_string(ev.a) +
                 ",\"priority_sec\":" + std::to_string(ev.b));
        break;
      case TraceEventKind::kCircuitUp:
        emit(os, first, "circuit_up", "ocs", "i", ts, kNetworkPid,
             ev.src.value(), "\"dst\":" + std::to_string(ev.dst.value()));
        break;
      case TraceEventKind::kCircuitTeardown:
        emit(os, first, "circuit", "ocs", "E", ts, kNetworkPid,
             ev.src.value(), "");
        break;
      case TraceEventKind::kDeadlockBreak:
        emit(os, first, "deadlock_break", "sched", "i", ts, kDriverPid, 0,
             "\"total\":" + std::to_string(ev.a));
        break;
      case TraceEventKind::kTaskStraggle:
        emit(os, first, "straggle", "fault", "i", ts, job_pid(ev.job),
             ev.task.value(),
             "\"rack\":" + std::to_string(ev.src.value()) +
                 ",\"slow\":" + std::to_string(ev.b));
        break;
      case TraceEventKind::kTaskKilled:
        // A kill ends the running attempt: close the span its kTaskStart
        // opened, so the retry's span starts on a balanced row.
        emit(os, first, ev.a == 0 ? "map" : "reduce", "task", "E", ts,
             job_pid(ev.job), ev.task.value(), "");
        emit(os, first, ev.a == 0 ? "kill_map" : "kill_reduce", "fault", "i",
             ts, job_pid(ev.job), ev.task.value(),
             "\"rack\":" + std::to_string(ev.src.value()) +
                 ",\"point\":" + std::to_string(ev.b));
        break;
      case TraceEventKind::kOcsOutage:
        emit(os, first, "ocs_outage", "fault", ev.a == 1 ? "B" : "E", ts,
             kNetworkPid, 0,
             ev.a == 1 ? "\"dur_sec\":" + std::to_string(ev.b) : "");
        break;
      case TraceEventKind::kFlowEvicted:
        emit(os, first, "flow_evicted", "fault", "i", ts, kNetworkPid,
             ev.src.value(),
             "\"job\":" + std::to_string(ev.job.value()) +
                 ",\"dst\":" + std::to_string(ev.dst.value()) +
                 ",\"bits_left\":" + std::to_string(ev.b));
        break;
    }
  }

  if (counters != nullptr) {
    const auto& names = counters->names();
    const auto& times = counters->sample_times();
    const auto& rows = counters->rows();
    for (std::size_t i = 0; i < rows.size(); ++i) {
      for (std::size_t j = 0; j < names.size(); ++j) {
        emit(os, first, names[j], "counter", "C", micros(times[i]),
             kDriverPid, 0,
             "\"" + names[j] + "\":" + std::to_string(rows[i][j]));
      }
    }
  }

  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  COSCHED_CHECK_MSG(os.good(), "chrome trace export failed");
}

void TraceRecorder::write_csv(std::ostream& os) const {
  os << "time_sec,kind,job,task,flow,src,dst,a,b\n";
  for (const TraceEvent& ev : events_) {
    os << ev.at.sec() << ',' << to_string(ev.kind) << ',' << ev.job.value()
       << ',' << ev.task.value() << ',' << ev.flow.value() << ','
       << ev.src.value() << ',' << ev.dst.value() << ',' << ev.a << ','
       << ev.b << "\n";
  }
  COSCHED_CHECK_MSG(os.good(), "trace CSV export failed");
}

}  // namespace cosched
