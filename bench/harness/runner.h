// Experiment runner: deploys one of the three systems through the
// wedge::Store façade, preloads data, drives closed-loop clients per the
// workload spec, and returns metrics.
//
// Every §VI experiment is a loop over calls into this runner with
// different parameters. One code path serves all three backends — the
// apples-to-apples harness the paper's comparison requires.

#pragma once

#include <functional>
#include <string>

#include "api/store.h"
#include "simnet/datacenter.h"
#include "simnet/network.h"
#include "workload/workload.h"

namespace wedge {

struct ExperimentConfig {
  WorkloadSpec spec;
  size_t num_clients = 1;
  /// Edge nodes; with num_shards == 0 clients are pinned round-robin
  /// (client i on edge i % num_edges), otherwise shard s lives on edge s.
  size_t num_edges = 1;
  /// Key shards routed by the api-layer ShardRouter; 0 = unsharded.
  size_t num_shards = 0;
  ShardScheme shard_scheme = ShardScheme::kHash;
  /// kRange only; defaults to spec.key_space when 0.
  uint64_t shard_range_span = 0;
  /// Physical shard slots (>= num_shards; extra slots start idle and
  /// receive ranges migrated by SplitShard). 0 = num_shards.
  size_t shard_capacity = 0;
  /// Autonomous shard lifecycle (StoreOptions::WithAutoBalance) when
  /// enabled — fig10's "no operator calls" panels.
  BalancerPolicy balancer;
  /// Preload interleaving the low and high halves of the key space
  /// instead of sequentially — what a sharded bulk loader does, and
  /// what keeps a load policy from chasing the sequential load's
  /// marching hotspot. Set it for EVERY panel of an experiment that
  /// enables the balancer in any panel, so the compared runs start from
  /// the identical LSM layout.
  bool striped_preload = false;
  Dc client_dc = Dc::kCalifornia;
  Dc edge_dc = Dc::kCalifornia;
  Dc cloud_dc = Dc::kVirginia;
  uint64_t seed = 1;
  /// Keys loaded (sequentially) before measurement.
  size_t preload_keys = 0;
  SimTime warmup = 2 * kSecond;
  SimTime measure = 20 * kSecond;
  /// LSMerkle thresholds; the paper's §VI config.
  std::vector<size_t> lsm_thresholds{10, 10, 100, 1000};
  size_t page_pairs = 100;
  /// Ablation: ship full blocks with certification instead of digests.
  bool certify_full_blocks = false;
  /// Ablation: disable the client-side VerifierCache (reproduces the
  /// paper's verify-every-response read cost in wall time).
  bool verify_cache = true;
  /// Ablation: clients block on Phase II instead of Phase I (disables the
  /// "lazy" in lazy certification).
  bool wait_phase2 = false;
  /// Mid-run action (fig9's live SplitShard): runs once at
  /// measure_start + mid_run_at, with the workload still in flight.
  /// Reads completing after that instant are counted separately
  /// (RunMetrics::reads_post_mark) so an action run and a control run
  /// compare the same post-event window. Setting mid_run_at > 0 without
  /// an action records the mark alone (the control run); with both at
  /// their defaults no mark is recorded (RunMetrics::mark == 0).
  SimTime mid_run_at = 0;
  std::function<void(Store&)> mid_run;
};

struct ExperimentResult {
  RunMetrics metrics;
  NetworkStats net;
  /// Sharding/migration/balancer snapshot taken at the end of the run
  /// (Store::stats()).
  StoreStats final_stats;
  /// Convenience: mean commit latency in ms.
  double write_ms = 0;
  double phase2_ms = 0;
  double read_ms = 0;
  double kops = 0;  // throughput in K ops/s

  /// Per-edge breakdown (metrics.per_edge, one entry per shard) when the
  /// experiment ran sharded; empty otherwise.
  const std::vector<EdgeLoadMetrics>& per_edge() const {
    return metrics.per_edge;
  }
};

/// Runs the workload against the given backend, all through one façade
/// code path.
ExperimentResult RunSystem(BackendKind kind, const ExperimentConfig& cfg);

/// Runs the system named "wedge" | "cloud" | "edge-baseline".
ExperimentResult RunSystem(const std::string& name,
                           const ExperimentConfig& cfg);

inline ExperimentResult RunWedge(const ExperimentConfig& cfg) {
  return RunSystem(BackendKind::kWedge, cfg);
}
inline ExperimentResult RunCloudOnly(const ExperimentConfig& cfg) {
  return RunSystem(BackendKind::kCloudOnly, cfg);
}
inline ExperimentResult RunEdgeBaseline(const ExperimentConfig& cfg) {
  return RunSystem(BackendKind::kEdgeBaseline, cfg);
}

}  // namespace wedge
