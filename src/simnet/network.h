// SimNetwork: the discrete-event Transport implementation.
//
// Delivery time for a message from a to b is
//   egress serialization (bytes / link bandwidth, FIFO per sender)
//   + one-way propagation (RTT matrix / 2, or intra-DC constant)
//   + small deterministic jitter.
//
// Failure injection: individual links can be cut (messages silently
// dropped), which tests use to exercise timeout/dispute paths.

#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/result.h"
#include "common/types.h"
#include "runtime/fault_plane.h"
#include "runtime/transport.h"
#include "simnet/cpu.h"
#include "simnet/datacenter.h"
#include "simnet/simulation.h"

namespace wedge {

struct NetworkConfig {
  LatencyMatrix latency = LatencyMatrix::Paper();
  /// Effective per-flow WAN throughput, bytes per virtual microsecond
  /// (50 B/us == 50 MB/s).
  double wan_bytes_per_us = 50.0;
  /// Intra-datacenter throughput.
  double lan_bytes_per_us = 2000.0;
  /// Intra-datacenter one-way propagation (us). Calibrated so a local
  /// round trip plus service matches Fig. 5(d)'s best-case reads.
  SimTime local_one_way = 85;
  /// Uniform multiplicative jitter on propagation, e.g. 0.01 = ±1%.
  double jitter_frac = 0.01;
  /// Fixed framing overhead added to every message's size.
  size_t per_message_overhead_bytes = 128;
};

/// Statistics the benchmarks report (data-free certification shows up here
/// as a drop in WAN bytes).
struct NetworkStats {
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t wan_messages = 0;
  uint64_t wan_bytes = 0;
  uint64_t dropped = 0;
  /// Breakdown of `dropped` by cause (the remainder was sent to an
  /// unattached node): cut by a down link / isolation, or lost to a
  /// shaped link's drop probability.
  uint64_t cut_drops = 0;
  uint64_t shape_drops = 0;
  /// Messages delayed by a shaped link's extra_delay.
  uint64_t shape_delays = 0;
};

class SimNetwork : public Transport {
 public:
  SimNetwork(Simulation* sim, NetworkConfig config)
      : sim_(sim), config_(config) {}

  /// Registers `endpoint` as the receiver for messages addressed to `id`,
  /// placing it in datacenter `location`.
  void Attach(NodeId id, Dc location, Endpoint* endpoint);

  /// Unregisters a node; in-flight messages to it are dropped on arrival.
  void Detach(NodeId id);

  Result<Dc> LocationOf(NodeId id) const;

  /// Cuts (or restores) the link between two nodes, both directions.
  void SetLinkDown(NodeId a, NodeId b, bool down);

  /// Drops all traffic from/to `id` (node isolation).
  void SetNodeIsolated(NodeId id, bool isolated);

  /// Shapes messages from `a` to `b` (directional; call with both orders
  /// for a symmetric link): extra propagation delay with its own jitter,
  /// plus a drop probability. Randomness comes from the simulation's
  /// seeded RNG, so shaped runs stay deterministic. A default-constructed
  /// shape clears the link's shaping.
  void SetLinkShape(NodeId a, NodeId b, LinkShape shape);
  void ClearLinkShapes() { shaped_.clear(); }

  // Transport:
  void Send(NodeId from, NodeId to, Bytes payload) override;
  SimTime Now() const override { return sim_->now(); }
  void After(SimTime delay, std::function<void()> fn) override {
    sim_->ScheduleAfter(delay, std::move(fn));
  }
  TransportStats stats_snapshot() const override {
    return TransportStats{stats_.messages, stats_.bytes, stats_.dropped};
  }

  const NetworkStats& stats() const { return stats_; }
  void ResetStats() { stats_ = NetworkStats{}; }
  const NetworkConfig& config() const { return config_; }

 private:
  struct NodeState {
    Dc location;
    Endpoint* endpoint;
    /// FIFO egress link; serializes transmissions from this node.
    CpuLane egress;
  };

  Simulation* sim_;
  NetworkConfig config_;
  std::unordered_map<NodeId, NodeState> nodes_;
  std::set<std::pair<NodeId, NodeId>> down_links_;
  std::set<NodeId> isolated_;
  std::map<std::pair<NodeId, NodeId>, LinkShape> shaped_;
  NetworkStats stats_;
};

}  // namespace wedge
