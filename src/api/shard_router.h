// ShardRouter: the key-partitioned, epoch-aware routing layer between
// the wedge::Store façade and the per-physical-client StoreBackend
// adapters. Every Store routes through one.
//
// A store runs up to `capacity` independent partitions — one LSMerkle
// tree + log per edge — and backs every logical client with one
// physical client per shard slot, laid out as
//
//   physical(c, s) = c * capacity + s
//
// inside the adapter's deployment. An unsharded store (num_shards == 0)
// is one live shard on one slot, so physical(c, 0) = c and client c
// keeps its round-robin home edge c % num_edges. The router owns the
// only map from keys to shards — an epoch-versioned OwnershipTable
// seeded from core/partitioner.h — and applies it uniformly over all
// three backends: WedgeChain, edge-baseline and cloud-only accept the
// identical call sequence, because routing happens above the
// StoreBackend seam rather than in any deployment.
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
//    (RouterStats::failovers) instead of timing out, when the cloud
//    keeps a full backup of the edge's blocks (CloudConfig::backup_blocks
//    with EdgeConfig::ship_full_blocks).
//    Without a backup, and for writes and scans, which cannot be
//    cloud-served, an unreachable shard fails fast with Unavailable
//    (RouterStats::unreachable_rejects).
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
//    merge) and re-sized to the new ownership. The coordinator refuses a
//    split with no idle slot and a merge with no neighbour, so an
//    unsharded store answers both with FailedPrecondition.
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

/// Counters of the routing layer, exposed through Store::stats().
struct RouterStats {
  /// Operations whose stale-epoch route differed from the current owner
  /// and were redirected (the deterministic retry, never an error).
  uint64_t stale_redirects = 0;
  /// Logical-client epoch views refreshed to the current epoch.
  uint64_t epoch_refreshes = 0;
  /// Write sub-batches parked by a migration fence and flushed at epoch
  /// install (or on an aborted split, back to the unchanged owner).
  uint64_t writes_parked = 0;
  /// Reads served from the cloud's backup because the owning edge was
  /// crashed or partitioned away (failure-aware degrade: slower, still
  /// verified against the cloud's certificate).
  uint64_t failovers = 0;
  /// Operations refused with Unavailable because the owning edge was
  /// unreachable: writes and scans, which cannot be cloud-served, and
  /// reads when the cloud keeps no full backup. Failing fast beats hanging
  /// until the op deadline.
  uint64_t unreachable_rejects = 0;
  /// Keyed operations routed per shard slot since the last epoch change
  /// — the heat signal Rebalance (and the AutoBalancer's watermark
  /// policy) picks its victims by. Writes parked by a migration fence
  /// count here when they flush, attributed to the owner they commit
  /// on.
  std::vector<uint64_t> ops_per_shard;
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

class ShardRouter : public ShardMigrationHost {
 public:
  using CommitCb = StoreBackend::CommitCb;
  using GetCb = StoreBackend::GetCb;
  using ScanCb = StoreBackend::ScanCb;
  using ReadBlockCb = StoreBackend::ReadBlockCb;
  using MultiGetCb =
      std::function<void(const Status&, MultiGetResult, SimTime)>;
  using SplitCb =
      std::function<void(const Status&, const SplitReport&, SimTime)>;

  /// Builds (but does not Start) the router and, under it, the adapter
  /// `options.backend` selects, with logical_clients * capacity physical
  /// clients pinned shard-aware (DeploymentConfig::sharding). Null for
  /// an unknown backend.
  static std::unique_ptr<ShardRouter> Make(const StoreOptions& options);

  /// Members are destroyed before inner_, but inner_'s workers may still
  /// be running callbacks posted into coordinator_ and balancer_: stop
  /// the runtime first, as Runtime::Shutdown requires.
  ~ShardRouter() override { inner_->runtime().Shutdown(); }

  void Start() {
    inner_->Start();
    if (balancer_) balancer_->Start();
  }
  Runtime& runtime() { return inner_->runtime(); }
  /// The per-physical-client adapter underneath (deployment access,
  /// the before_start hook).
  StoreBackend& inner() { return *inner_; }
  size_t client_count() const { return logical_clients_; }
  const OwnershipTable& ownership() const { return *table_; }
  const ReshardingCoordinator& resharding() const { return *coordinator_; }
  /// The autonomous lifecycle policy; null unless the store was opened
  /// with StoreOptions::WithAutoBalance.
  const AutoBalancer* balancer() const { return balancer_.get(); }
  /// Value-copy of the routing counters, safe while worker threads are
  /// routing concurrently.
  RouterStats stats_snapshot() const;

  void PutBatch(size_t client, const std::vector<std::pair<Key, Bytes>>& kvs,
                CommitCb on_phase1, CommitCb on_phase2);
  void Append(size_t client, std::vector<Bytes> payloads, CommitCb on_phase1,
              CommitCb on_phase2);
  void Get(size_t client, Key key, GetCb cb);
  /// Batched point reads: all keys issued concurrently through Get, so
  /// each routes to its own shard; results positionally aligned with
  /// `keys`. Any failing key fails the whole batch, with security-class
  /// failures taking precedence.
  void MultiGet(size_t client, const std::vector<Key>& keys, MultiGetCb cb);
  void Scan(size_t client, Key lo, Key hi, ScanCb cb);
  void ReadBlock(size_t client, BlockId bid, ReadBlockCb cb);

  /// Splits `shard`'s key range via verified live migration (see
  /// core/resharding.h) into the first idle slot.
  void SplitShard(size_t shard, SplitCb cb);
  /// The inverse migration: folds `shard`'s slice into its adjacent
  /// neighbour and returns the freed slot to the idle pool.
  void MergeShards(size_t shard, SplitCb cb);
  /// Splits the busiest live shard (by routed operations since the last
  /// epoch change) into the first idle slot.
  void Rebalance(SplitCb cb);

  /// The physical client backing (logical `client`, `shard`).
  size_t PhysicalClient(size_t client, size_t shard) const {
    return client * table_->capacity() + shard;
  }

  // Router-scoped block ids. Every block id the router hands out or
  // accepts is in global form; `slots` is the shard slot capacity, which
  // never changes — ids are epoch-stable (and equal the inner ids on a
  // one-slot store).
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
  ShardRouter(std::unique_ptr<StoreBackend> inner,
              std::shared_ptr<OwnershipTable> table,
              const StoreOptions& options);

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
  /// Whether the cloud holds every edge block and so can serve a read
  /// for an unreachable edge: CloudConfig::backup_blocks keeps what the
  /// cloud sees, EdgeConfig::ship_full_blocks makes it see every block
  /// (without it, only blocks that went through merges).
  bool cloud_backup_;
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
};

}  // namespace wedge
