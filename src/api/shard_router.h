// ShardRouter: the key-partitioned, epoch-aware routing layer between
// the wedge::Store façade and the per-edge clients.
//
// A sharded store (StoreOptions::WithShards / WithShardCapacity) runs up
// to `capacity` independent partitions — one LSMerkle tree + log per
// edge — and backs every logical client with one physical client per
// shard slot, laid out as
//
//   physical(c, s) = c * capacity + s      (pinned to edge s)
//
// inside the wrapped deployment. The router owns the only map from keys
// to shards — an epoch-versioned OwnershipTable seeded from
// core/partitioner.h — and applies it uniformly over all three backends:
// WedgeChain, edge-baseline and cloud-only accept the identical sharded
// call sequence, because routing happens behind the StoreBackend seam
// rather than in any deployment.
//
//  - Put/Get/MultiGet route each key to its owning shard under the
//    current ownership epoch; a batch spanning shards commits on every
//    involved shard before either phase reports.
//  - Epoch-aware routing: every logical client carries the ownership
//    epoch it last observed. A request under a stale epoch is
//    deterministically redirected to the current owner and the client's
//    epoch refreshed — never an error (RouterStats::stale_redirects).
//  - Failure awareness: a Get routed to a crashed or partitioned edge
//    degrades to a cloud-served, certificate-verified read
//    (RouterStats::failovers) instead of timing out; writes and scans
//    to an unreachable shard fail fast with Unavailable
//    (RouterStats::unreachable_rejects) — they cannot be cloud-served.
//  - Append (no key) routes to the logical client's home slot
//    c % capacity.
//  - ReadBlock uses router-scoped block ids: global = inner * capacity +
//    shard. The modulus is the slot *capacity*, fixed for the store's
//    life, so block ids handed out under epoch N remain decodable under
//    every later epoch.
//  - Scan fans out one verified sub-scan per owned slice intersecting
//    the range and stitches the results by key. Proof-boundary
//    invariant: a pair enters the stitched result only from the shard
//    owning its key under the epoch the scan was issued at, so a shard
//    can neither inject keys it does not own nor mask another shard's
//    violation — any failing sub-scan fails the whole scan, with
//    SecurityViolation taking precedence over benign errors.
//  - SplitShard/MergeShards/Rebalance drive verified live migration
//    (the router is the ReshardingCoordinator's ShardMigrationHost):
//    writes into the moving range are parked while the handoff is in
//    flight — the parking path still refreshes the client's epoch, and
//    the parked keys are counted into the heat window when they flush —
//    and per-client verifier caches are invalidated for the moved range
//    (toward the destination on a split, toward the survivor on a
//    merge) and re-sized to the new ownership.
//  - With StoreOptions::WithAutoBalance the router runs an AutoBalancer
//    tick over its own heat window (RouterStats::ops_per_shard),
//    splitting hot shards and merging cooled ones without operator
//    calls; a merged slot returns to the idle pool, so a shifting
//    hotspot cycles split → merge → split inside the fixed capacity.

#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "api/backend.h"
#include "core/balancer.h"
#include "core/partitioner.h"
#include "core/resharding.h"

namespace wedge {

/// Live per-shard load signals (read-latency histograms, byte counters)
/// behind their own lock. Shared into completion callbacks by
/// shared_ptr value — a read completing while the router tears down
/// records into still-live state instead of a dangling `this`.
struct ShardLoadStats {
  std::mutex mu;
  ShardSignals signals;
};

/// Counts the writes in flight against one shard between routing and
/// their Phase-I commit (or fast failure), so a migration fence can wait
/// for *explicit* quiescence instead of guessing with a drain timer.
/// FenceRange swaps a fresh gauge into the routing table and Arms the
/// old one: post-fence writes count on the new gauge, and the armed
/// callback fires exactly when the last pre-fence write resolves — on
/// whatever thread that completion lands (the coordinator re-posts).
/// Writes hold the gauge by shared_ptr, so a completion landing after
/// the fence (or after router teardown) still balances the right count.
class WriteGauge {
 public:
  /// One write routed to the shard. Called under the router's routing
  /// lock, in the same critical section that picked the shard — a
  /// concurrent fence either sees the increment or swaps first (and the
  /// write counts on the replacement gauge it routed under).
  void Add() {
    std::lock_guard<std::mutex> lock(mu_);
    ++count_;
  }

  /// The write reached Phase I (or failed fast). Fires the armed
  /// callback when this was the last one.
  void Done() {
    std::function<void()> fire;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--count_ == 0 && armed_) {
        fire = std::move(cb_);
        armed_ = false;
      }
    }
    if (fire) fire();
  }

  /// Registers the quiescence callback; invoked immediately when nothing
  /// is in flight. At most one Arm per gauge (a gauge is fenced once).
  void Arm(std::function<void()> cb) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (count_ > 0) {
        cb_ = std::move(cb);
        armed_ = true;
        return;
      }
    }
    cb();
  }

 private:
  std::mutex mu_;
  int64_t count_ = 0;
  bool armed_ = false;
  std::function<void()> cb_;
};

class ShardRouter : public StoreBackend, public ShardMigrationHost {
 public:
  /// Wraps `inner`, which must have been built with
  /// logical_clients * table->capacity() physical clients pinned
  /// shard-aware (DeploymentConfig::sharding). Use MakeBackend rather
  /// than constructing directly.
  ShardRouter(std::unique_ptr<StoreBackend> inner,
              std::shared_ptr<OwnershipTable> table, size_t logical_clients,
              VerifierCache::Limits cache_unit, ReshardingConfig resharding,
              BalancerPolicy balancer = {});

  /// Members are destroyed before inner_, but inner_'s workers may still
  /// be running callbacks posted into coordinator_ and balancer_: stop
  /// the runtime first, as Runtime::Shutdown requires.
  ~ShardRouter() override { inner_->runtime().Shutdown(); }

  BackendKind kind() const override { return inner_->kind(); }
  void Start() override {
    inner_->Start();
    if (balancer_) balancer_->Start();
  }
  Runtime& runtime() override { return inner_->runtime(); }
  Simulation& sim() override { return inner_->sim(); }
  SimNetwork& net() override { return inner_->net(); }
  size_t client_count() const override { return logical_clients_; }
  const Partitioner& partitioner() const override { return table_->seed(); }
  size_t shard_count() const override { return table_->capacity(); }
  const OwnershipTable* ownership() const override { return table_.get(); }
  const ReshardingCoordinator* resharding() const override {
    return coordinator_.get();
  }
  RouterStats router_stats_snapshot() const override;
  const AutoBalancer* balancer() const override { return balancer_.get(); }

  void PutBatch(size_t client, const std::vector<std::pair<Key, Bytes>>& kvs,
                CommitCb on_phase1, CommitCb on_phase2) override;
  void Append(size_t client, std::vector<Bytes> payloads, CommitCb on_phase1,
              CommitCb on_phase2) override;
  void Get(size_t client, Key key, GetCb cb) override;
  // MultiGet is inherited: the default gather issues the batch through
  // the virtual Get, which already routes each key (scatter per shard).
  void Scan(size_t client, Key lo, Key hi, ScanCb cb) override;
  void ReadBlock(size_t client, BlockId bid, ReadBlockCb cb) override;

  void SplitShard(size_t shard, SplitCb cb) override;
  void MergeShards(size_t shard, SplitCb cb) override;
  void Rebalance(SplitCb cb) override;

  Deployment* wedge() override { return inner_->wedge(); }
  EdgeBaselineDeployment* edge_baseline() override {
    return inner_->edge_baseline();
  }
  CloudOnlyDeployment* cloud_only() override { return inner_->cloud_only(); }

  /// The physical client backing (logical `client`, `shard`).
  size_t PhysicalClient(size_t client, size_t shard) const {
    return client * table_->capacity() + shard;
  }

  /// The ownership epoch logical `client` last observed (requests carry
  /// it; stale views are refreshed by the redirect path).
  OwnershipEpoch ClientEpoch(size_t client) const {
    std::lock_guard<std::mutex> lock(mu_);
    return client_epochs_.at(client);
  }

  // Router-scoped block ids. Every block id that crosses the StoreBackend
  // seam of a sharded store is in global form; `slots` is the shard slot
  // capacity, which never changes — ids are epoch-stable.
  static BlockId GlobalBlockId(BlockId inner, size_t shard, size_t slots) {
    return inner * slots + shard;
  }
  static size_t ShardOfBlockId(BlockId global, size_t slots) {
    return static_cast<size_t>(global % slots);
  }
  static BlockId InnerBlockId(BlockId global, size_t slots) {
    return global / slots;
  }

  // ---- ShardMigrationHost (driven by the ReshardingCoordinator) ------

  void ExportRange(size_t shard, Key lo, Key hi, ExportCb cb) override;
  void ImportPairs(size_t shard, std::vector<KvPair> pairs, PhaseCb applied,
                   PhaseCb certified) override;
  void FenceRange(size_t source, Key lo, Key hi,
                  std::function<void()> quiesced) override;
  void LiftFence() override;
  void OnEpochInstalled(const MigrationReport& report) override;

 private:
  /// Routes `key` for logical `client` under the client's last-known
  /// epoch, redirecting (and refreshing the view) when it is stale.
  /// Callers hold mu_ (routing state and counters live behind it).
  size_t RouteKeyLocked(size_t client, Key key);
  /// Locking convenience for single-key paths (Get).
  size_t RouteKey(size_t client, Key key);
  /// Refreshes a client's epoch view without a key (scans, appends).
  /// Callers hold mu_.
  void RefreshEpochLocked(size_t client);

  /// Sizes each physical client's verifier cache by the key-span its
  /// shard owns under the current epoch (see
  /// ClientConfig::verify_cache_limits).
  void ResizeVerifierCaches();

  /// Rebalance's body (heat-driven victim selection + split), already
  /// posted onto the runtime's control executor.
  void RebalanceOnControl(SplitCb cb);

  std::unique_ptr<StoreBackend> inner_;
  std::shared_ptr<OwnershipTable> table_;
  size_t logical_clients_;
  VerifierCache::Limits cache_unit_;
  std::unique_ptr<ReshardingCoordinator> coordinator_;
  std::unique_ptr<AutoBalancer> balancer_;

  /// Guards the routing state below (client epochs, fence, parked
  /// writes, counters): under ThreadedRuntime every driver thread routes
  /// concurrently. Fine-grained — never held across an inner_ call, so
  /// no lock ordering exists against executor or completion locks.
  mutable std::mutex mu_;

  /// Ownership epoch each logical client last observed.
  std::vector<OwnershipEpoch> client_epochs_;

  /// Migration fence: while active, writes whose keys fall in
  /// [fence_lo_, fence_hi_] are parked and flushed on LiftFence.
  bool fence_active_ = false;
  Key fence_lo_ = 0;
  Key fence_hi_ = 0;
  std::vector<std::function<void()>> parked_;

  /// Per-shard in-flight write gauges (indexed by slot). Swapped at
  /// fence time; writes capture their gauge at routing, under mu_.
  std::vector<std::shared_ptr<WriteGauge>> write_gauges_;

  RouterStats stats_;

  /// Richer per-shard load (RouterStats::load in snapshots; fed to the
  /// AutoBalancer via Hooks::signals). Cumulative since Open — epoch
  /// installs reset ops_per_shard but not latency/byte history.
  std::shared_ptr<ShardLoadStats> load_;
};

}  // namespace wedge
