// CpuLane: a serialized compute (or transmit) resource inside the
// simulation.
//
// Each node models its processing capacity as one or more lanes. Charging
// work to a lane both delays the completion callback and occupies the
// lane, so offered load beyond 1/service_time saturates — this is what
// produces the throughput ceilings of the paper's multi-client experiments
// (Fig. 5).

#pragma once

#include <functional>

#include "common/types.h"
#include "simnet/simulation.h"

namespace wedge {

/// A resource that processes work items one at a time, FIFO.
class CpuLane {
 public:
  explicit CpuLane(Simulation* sim) : sim_(sim) {}

  /// Reserves `cost` time units on this lane starting no earlier than now;
  /// returns the completion time.
  SimTime Reserve(SimTime cost) {
    SimTime start = busy_until_ > sim_->now() ? busy_until_ : sim_->now();
    busy_until_ = start + cost;
    return busy_until_;
  }

  /// Reserves `cost` on the lane and runs `fn` at completion.
  void Execute(SimTime cost, std::function<void()> fn) {
    sim_->ScheduleAt(Reserve(cost), std::move(fn));
  }

  /// Completion time of work reserved so far (may be in the past).
  SimTime busy_until() const { return busy_until_; }

  /// True if the lane has unfinished work at the current time.
  bool busy() const { return busy_until_ > sim_->now(); }

 private:
  Simulation* sim_;
  SimTime busy_until_ = 0;
};

}  // namespace wedge
