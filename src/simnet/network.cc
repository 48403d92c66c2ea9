#include "simnet/network.h"

#include <utility>

#include "common/logging.h"

namespace wedge {

void SimNetwork::Attach(NodeId id, Dc location, Endpoint* endpoint) {
  nodes_.emplace(id, NodeState{location, endpoint, CpuLane(sim_)});
}

void SimNetwork::Detach(NodeId id) { nodes_.erase(id); }

void SimNetwork::SetLinkDown(NodeId a, NodeId b, bool down) {
  auto key1 = std::make_pair(a, b);
  auto key2 = std::make_pair(b, a);
  if (down) {
    down_links_.insert(key1);
    down_links_.insert(key2);
  } else {
    down_links_.erase(key1);
    down_links_.erase(key2);
  }
}

void SimNetwork::SetNodeIsolated(NodeId id, bool isolated) {
  if (isolated) {
    isolated_.insert(id);
  } else {
    isolated_.erase(id);
  }
}

void SimNetwork::SetLinkShape(NodeId a, NodeId b, LinkShape shape) {
  const auto key = std::make_pair(a, b);
  if (shape.extra_delay == 0 && shape.drop_prob <= 0) {
    shaped_.erase(key);
  } else {
    shaped_[key] = shape;
  }
}

void SimNetwork::Send(NodeId from, NodeId to, Bytes payload) {
  auto from_it = nodes_.find(from);
  auto to_it = nodes_.find(to);
  if (from_it == nodes_.end() || to_it == nodes_.end()) {
    stats_.dropped++;
    WLOG_DEBUG << "drop: unattached endpoint " << from << "->" << to;
    return;
  }
  if (down_links_.count({from, to}) != 0 || isolated_.count(from) != 0 ||
      isolated_.count(to) != 0) {
    stats_.dropped++;
    stats_.cut_drops++;
    return;
  }

  // Per-link shaping: drop first (a dropped message consumes no egress),
  // extra delay joins propagation below. Randomness comes from the
  // simulation's seeded RNG, and only shaped links draw from it, so
  // unshaped runs are bit-identical to pre-shaping ones.
  const LinkShape* shape = nullptr;
  if (!shaped_.empty()) {
    auto sh = shaped_.find({from, to});
    if (sh != shaped_.end()) shape = &sh->second;
  }
  if (shape != nullptr && shape->drop_prob > 0 &&
      sim_->rng().NextDouble() < shape->drop_prob) {
    stats_.dropped++;
    stats_.shape_drops++;
    return;
  }

  const size_t wire_bytes = payload.size() + config_.per_message_overhead_bytes;
  const Dc src = from_it->second.location;
  const Dc dst = to_it->second.location;
  const bool wan = src != dst;

  stats_.messages++;
  stats_.bytes += wire_bytes;
  if (wan) {
    stats_.wan_messages++;
    stats_.wan_bytes += wire_bytes;
  }

  const double bandwidth =
      wan ? config_.wan_bytes_per_us : config_.lan_bytes_per_us;
  const SimTime tx =
      static_cast<SimTime>(static_cast<double>(wire_bytes) / bandwidth);

  SimTime propagation =
      wan ? config_.latency.OneWay(src, dst) : config_.local_one_way;
  if (config_.jitter_frac > 0) {
    double j = (sim_->rng().NextDouble() * 2.0 - 1.0) * config_.jitter_frac;
    propagation += static_cast<SimTime>(static_cast<double>(propagation) * j);
  }
  if (shape != nullptr && shape->extra_delay > 0) {
    SimTime extra = shape->extra_delay;
    if (shape->jitter_frac > 0) {
      double j = (sim_->rng().NextDouble() * 2.0 - 1.0) * shape->jitter_frac;
      extra += static_cast<SimTime>(static_cast<double>(extra) * j);
    }
    propagation += extra;
    stats_.shape_delays++;
  }

  // The sender's egress link serializes transmissions; propagation then
  // runs concurrently for in-flight messages.
  SimTime tx_done = from_it->second.egress.Reserve(tx);
  SimTime arrival = tx_done + propagation;

  sim_->ScheduleAt(arrival, [this, from, to, p = std::move(payload)]() {
    auto it = nodes_.find(to);
    if (it == nodes_.end()) {
      stats_.dropped++;
      return;
    }
    it->second.endpoint->OnMessage(from, Slice(p), sim_->now());
  });
}

}  // namespace wedge
