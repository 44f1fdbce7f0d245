// A rack-to-rack flow in the fluid (flow-level) network model.
//
// Flows are aggregated per (job, source rack, destination rack): all shuffle
// bytes a job moves between one rack pair form one Flow. The elephant rule
// is applied at this granularity, exactly as in the paper.
//
// A Flow's `remaining_bits` and `rate` are settled lazily by the fabric
// carrying it. The circuit fabrics advance the flow itself by rate *
// elapsed; the EPS fabric keeps the live fluid state of its flows per rack
// pair and answers for them (EpsFabric::remaining_bits / rate).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>

#include "common/ids.h"
#include "common/units.h"
#include "simcore/simulator.h"

namespace cosched {

enum class FlowPath {
  kPending,  // not yet routed
  kEps,      // shares the oversubscribed packet network
  kOcs,      // waits for / uses an optical circuit
  kLocal     // src == dst; served at NIC speed without fabric contention
};

[[nodiscard]] constexpr const char* to_string(FlowPath p) {
  switch (p) {
    case FlowPath::kPending:
      return "pending";
    case FlowPath::kEps:
      return "eps";
    case FlowPath::kOcs:
      return "ocs";
    case FlowPath::kLocal:
      return "local";
  }
  return "?";
}

class Flow {
 public:
  Flow(FlowId id, CoflowId coflow, JobId job, RackId src, RackId dst,
       DataSize size)
      : id_(id),
        coflow_(coflow),
        job_(job),
        src_(src),
        dst_(dst),
        size_(size),
        remaining_bits_(static_cast<double>(size.in_bytes()) * 8.0) {}

  Flow(const Flow&) = delete;
  Flow& operator=(const Flow&) = delete;

  [[nodiscard]] FlowId id() const { return id_; }
  [[nodiscard]] CoflowId coflow() const { return coflow_; }
  [[nodiscard]] JobId job() const { return job_; }
  [[nodiscard]] RackId src() const { return src_; }
  [[nodiscard]] RackId dst() const { return dst_; }
  [[nodiscard]] DataSize size() const { return size_; }
  [[nodiscard]] FlowPath path() const { return path_; }
  [[nodiscard]] bool started() const { return started_; }
  [[nodiscard]] bool completed() const { return completed_; }
  [[nodiscard]] SimTime start_time() const { return start_time_; }
  [[nodiscard]] SimTime completion_time() const { return completion_time_; }
  [[nodiscard]] double remaining_bits() const { return remaining_bits_; }
  [[nodiscard]] DataSize remaining() const {
    return DataSize::bytes(static_cast<std::int64_t>(remaining_bits_ / 8.0));
  }
  [[nodiscard]] Bandwidth rate() const { return rate_; }

  void set_path(FlowPath p) { path_ = p; }

  /// Additional demand discovered after creation (a reduce task placed on
  /// the destination rack after the flow already existed).
  void add_demand(DataSize extra) {
    size_ += extra;
    remaining_bits_ += static_cast<double>(extra.in_bytes()) * 8.0;
    if (completed_ && remaining_bits_ > 0.0) completed_ = false;
  }

  void mark_started(SimTime now) {
    if (!started_) {
      started_ = true;
      start_time_ = now;
    }
  }

  void mark_completed(SimTime now) {
    completed_ = true;
    remaining_bits_ = 0.0;
    completion_time_ = now;
  }

  /// Advance the fluid transfer by `elapsed` at the current rate.
  /// Returns the number of bits moved.
  double settle(Duration elapsed) {
    const double moved =
        std::min(remaining_bits_, rate_.in_bits_per_sec() * elapsed.sec());
    remaining_bits_ -= moved;
    return moved;
  }

  void set_rate(Bandwidth r) { rate_ = r; }

  /// Completion event bookkeeping for whichever fabric is carrying the flow.
  EventHandle& completion_event() { return completion_event_; }

  /// EPS fabric bookkeeping: the flow's position in its group's member
  /// heap once it has a rate, kEpsUnrated before its first replan, and
  /// kEpsIdle while the EPS fabric does not carry it. While it carries
  /// the flow, remaining_bits() keeps its value from the flow's first rate
  /// plus demand added since.
  static constexpr std::int32_t kEpsIdle = -1;
  static constexpr std::int32_t kEpsUnrated = -2;
  [[nodiscard]] std::int32_t eps_slot() const { return eps_slot_; }
  void set_eps_slot(std::int32_t slot) { eps_slot_ = slot; }

  /// Circuit bytes the circuit fabric has already credited for this
  /// flow. A flow reopened by late demand after an earlier circuit
  /// completion credits only the delta on its next completion (size() is
  /// cumulative). Kept on the flow so it is freed with the job.
  [[nodiscard]] DataSize circuit_credited() const { return circuit_credited_; }
  void set_circuit_credited(DataSize bytes) { circuit_credited_ = bytes; }

 private:
  FlowId id_;
  CoflowId coflow_;
  JobId job_;
  RackId src_;
  RackId dst_;
  DataSize size_;
  double remaining_bits_;
  FlowPath path_ = FlowPath::kPending;
  bool started_ = false;
  bool completed_ = false;
  SimTime start_time_ = SimTime::zero();
  SimTime completion_time_ = SimTime::zero();
  Bandwidth rate_ = Bandwidth::zero();
  EventHandle completion_event_;
  std::int32_t eps_slot_ = kEpsIdle;
  DataSize circuit_credited_;
};

}  // namespace cosched
