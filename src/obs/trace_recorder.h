// TraceRecorder: capture typed sim-time events and export them.
//
// A recorder records every event it is given. A run that should record
// nothing carries no Observability bundle, and every recording site is
// guarded by that bundle's pointer, so a dark run never reaches record().
//
// Exports:
//   * write_chrome_trace — Chrome trace_event JSON (open in chrome://tracing
//     or https://ui.perfetto.dev). Tasks become per-task duration spans
//     grouped under one "process" per job; circuits become spans on the
//     network process, one "thread" row per source rack; counter samples
//     (optional) become counter tracks.
//   * write_csv — flat timeline, one event per row, for ad-hoc plotting.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "obs/trace_event.h"

namespace cosched {

class CounterRegistry;

class TraceRecorder {
 public:
  void record(const TraceEvent& ev) { events_.push_back(ev); }

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

  /// Number of recorded events of one kind.
  [[nodiscard]] std::int64_t count(TraceEventKind kind) const;

  /// Chrome trace_event JSON. When `counters` is given, its samples are
  /// emitted as counter ("C") tracks alongside the events.
  void write_chrome_trace(std::ostream& os,
                          const CounterRegistry* counters = nullptr) const;

  /// CSV timeline: time_sec,kind,job,task,flow,src,dst,a,b.
  void write_csv(std::ostream& os) const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace cosched
