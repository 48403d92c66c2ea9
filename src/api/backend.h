// StoreBackend: the deployment-neutral seam under wedge::Store.
//
// Each of the paper's three systems adapts its client API onto this
// asynchronous interface; the Store turns it into synchronous Result<T>
// calls and CommitHandles by waiting on the deployment's runtime —
// stepping the simulator under SimRuntime, blocking on a condition
// variable under ThreadedRuntime. The bench harness drives the
// asynchronous form directly (closed-loop clients must not block each
// other).
//
// Commit contract: `on_phase1` fires at the commit the paper calls
// Phase I (temporary, edge-local for WedgeChain); `on_phase2` at the
// certified commit. The baselines certify synchronously, so both fire
// together at their single commit point — which is exactly the paper's
// framing: the baselines collapse the two phases into one synchronous
// round trip.

#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "api/options.h"
#include "core/balancer.h"
#include "core/partitioner.h"
#include "core/resharding.h"
#include "log/block.h"
#include "lsmerkle/kv.h"
#include "lsmerkle/verifier_cache.h"
#include "runtime/runtime.h"

namespace wedge {

class Deployment;
class EdgeBaselineDeployment;
class CloudOnlyDeployment;
class ReshardingCoordinator;
class AutoBalancer;

/// Counters of the sharded routing layer (api/shard_router.h), exposed
/// through StoreBackend::router_stats_snapshot() / Store::stats().
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
  /// Writes and scans refused with Unavailable because the owning edge
  /// was unreachable (they cannot be cloud-served; failing fast beats
  /// hanging until the op deadline).
  uint64_t unreachable_rejects = 0;
  /// Keyed operations routed per shard slot since the last epoch change
  /// — the heat signal Rebalance (and the AutoBalancer's watermark
  /// policy) picks its victims by. Writes parked by a migration fence
  /// count here when they flush, attributed to the owner they commit
  /// on.
  std::vector<uint64_t> ops_per_shard;
  /// Richer per-shard load: read-latency histograms and byte counters,
  /// cumulative since Open (NOT reset on epoch installs, unlike
  /// ops_per_shard). Fed to the AutoBalancer via Hooks::signals so
  /// future watermarks can act on p99/bytes; empty on unrouted stores.
  ShardSignals load;
};

/// One-call observability snapshot of a store's sharding machinery
/// (Store::stats()): current ownership epoch plus the routing,
/// migration, and autonomous-balancing counters. All fields are
/// value-copies taken at the call; unrouted stores report epoch 1 and
/// zeroed counters.
struct StoreStats {
  OwnershipEpoch epoch = 1;
  size_t live_shards = 1;
  RouterStats router;
  ReshardingCoordinator::Stats resharding;
  BalancerStats balancer;
  /// Transport-level message counters of the underlying runtime (same
  /// shape on both runtimes; `dropped` includes fault-plane drops).
  TransportStats transport;
  /// Injected-fault counters (Runtime::faults().stats()).
  FaultStats faults;
  /// Async-surface admission and lifecycle counters (always populated;
  /// zeros when nothing used the async surface).
  AsyncStats async;
};

/// One committed write phase: the block that carries the write and the
/// virtual time the phase completed.
struct Commit {
  BlockId block = 0;
  SimTime at = 0;
};

/// Outcome of a point read through the façade.
struct GetResult {
  bool found = false;
  Bytes value;
  uint64_t version = 0;
  /// True when every component of the proof was cloud-certified
  /// (Phase II read); baselines always report true.
  bool phase2 = false;
  /// True when the result was proof-verified at the client; false for
  /// the cloud-only backend, which trusts the server outright.
  bool verified = false;
  SimTime at = 0;
};

/// Outcome of a range scan: newest version per key in [lo, hi].
struct ScanResult {
  std::vector<KvPair> pairs;
  bool phase2 = false;
  bool verified = false;
  SimTime at = 0;
};

/// Outcome of a scatter-gather MultiGet: one GetResult per requested
/// key, positionally aligned with the key list.
struct MultiGetResult {
  std::vector<GetResult> results;
  SimTime at = 0;
};

/// Outcome of a log-block read.
struct BlockRead {
  Block block;
  bool phase2 = false;
  SimTime at = 0;
};

/// Trust-severity status merge for fan-out joins: the first error wins,
/// except that a security-class status (a detected lie) always displaces
/// a benign one — a slow or unavailable shard must never mask a
/// tampering shard.
void MergeStatusBySeverity(Status* into, const Status& s);

class StoreBackend {
 public:
  using CommitCb = std::function<void(const Status&, BlockId, SimTime)>;
  using GetCb = std::function<void(const Status&, GetResult, SimTime)>;
  using ScanCb = std::function<void(const Status&, ScanResult, SimTime)>;
  using MultiGetCb =
      std::function<void(const Status&, MultiGetResult, SimTime)>;
  using ReadBlockCb = std::function<void(const Status&, BlockRead, SimTime)>;
  using SplitCb =
      std::function<void(const Status&, const SplitReport&, SimTime)>;

  virtual ~StoreBackend() = default;

  virtual BackendKind kind() const = 0;

  /// Attaches every node to the network and starts timers/gossip.
  virtual void Start() = 0;

  /// The runtime this backend's deployment executes on — the seam every
  /// synchronous wait and clock read goes through, valid under both
  /// SimRuntime and ThreadedRuntime.
  virtual Runtime& runtime() = 0;

  /// Sim-only accessors (deterministic tests, CostModel experiments);
  /// abort under ThreadedRuntime. Runtime-neutral callers use runtime().
  virtual Simulation& sim() = 0;
  virtual SimNetwork& net() = 0;
  virtual size_t client_count() const = 0;

  /// Key partitioning this backend routes with. The default (unsharded)
  /// is a single shard owning every key; the ShardRouter decorator
  /// returns the real partition function, which callers (bench harness,
  /// workload generators) must share to attribute keys to edges.
  virtual const Partitioner& partitioner() const {
    static const Partitioner kSingle;
    return kSingle;
  }
  virtual size_t shard_count() const { return partitioner().shards(); }

  /// Applies a batch of key-value puts as client `client`.
  virtual void PutBatch(size_t client,
                        const std::vector<std::pair<Key, Bytes>>& kvs,
                        CommitCb on_phase1, CommitCb on_phase2) = 0;

  /// Appends raw log entries. Supported by all three systems, so log
  /// workloads run apples-to-apples: WedgeChain commits in two phases,
  /// the baselines certify synchronously (both phases fire together).
  virtual void Append(size_t client, std::vector<Bytes> payloads,
                      CommitCb on_phase1, CommitCb on_phase2) = 0;

  virtual void Get(size_t client, Key key, GetCb cb) = 0;

  // ---- failure awareness ----------------------------------------------

  /// True when `client`'s home edge is reachable from it under the
  /// runtime's fault plane (neither crashed nor partitioned away). The
  /// routing layer keys its read failover on this; backends without a
  /// notion of per-client edges report always-reachable.
  virtual bool EdgeReachable(size_t client) {
    (void)client;
    return true;
  }

  /// Degraded read: serves `key` from the cloud's backup of `client`'s
  /// edge instead of the edge itself — slower (wide-area round trip) but
  /// still verified against the cloud's certificate on backends that
  /// support it (WedgeChain with CloudConfig::backup_blocks). A miss is
  /// NOT proof of absence: the backup may lag the edge. The default
  /// falls back to the normal read path.
  virtual void CloudGet(size_t client, Key key, GetCb cb) {
    Get(client, key, std::move(cb));
  }

  /// Batched point reads: all keys issued concurrently (the sharded
  /// router scatter-gathers them per owning shard), results positionally
  /// aligned with `keys`. Any failing key fails the whole batch, with
  /// security-class failures taking precedence.
  virtual void MultiGet(size_t client, const std::vector<Key>& keys,
                        MultiGetCb cb);

  virtual void Scan(size_t client, Key lo, Key hi, ScanCb cb) = 0;

  /// Reads log block `bid`: proof-verified on the edge systems, trusted
  /// on cloud-only.
  virtual void ReadBlock(size_t client, BlockId bid, ReadBlockCb cb) = 0;

  // ---- resharding ----------------------------------------------------
  // Implemented by the ShardRouter decorator; the base backend has a
  // single static shard and refuses.

  /// Splits `shard`'s key range via verified live migration (see
  /// core/resharding.h). FailedPrecondition on an unrouted store.
  virtual void SplitShard(size_t shard, SplitCb cb);

  /// The inverse migration: folds `shard`'s slice into its adjacent
  /// neighbour and returns the freed slot to the idle pool.
  /// FailedPrecondition on an unrouted store.
  virtual void MergeShards(size_t shard, SplitCb cb);

  /// Splits the busiest live shard (by routed operations since the last
  /// epoch change) into the first idle slot.
  virtual void Rebalance(SplitCb cb);

  /// The versioned ownership map a routed store consults; null on an
  /// unrouted store (ownership is the static single-shard function).
  virtual const OwnershipTable* ownership() const { return nullptr; }
  virtual const ReshardingCoordinator* resharding() const { return nullptr; }
  /// Value-copy of the routing counters, safe while worker threads are
  /// routing concurrently (the ShardRouter override takes its stats
  /// lock); zeroed on an unrouted store.
  virtual RouterStats router_stats_snapshot() const { return {}; }
  /// The autonomous lifecycle policy; null unless the store was opened
  /// with StoreOptions::WithAutoBalance.
  virtual const AutoBalancer* balancer() const { return nullptr; }

  // ---- verifier-cache management ------------------------------------
  // Per-physical-client hooks the routing layer uses to keep cache
  // budgets tracking shard ownership. No-ops on backends without
  // client-side verification (cloud-only).

  virtual void ResizeVerifierCache(size_t client,
                                   const VerifierCache::Limits& limits) {
    (void)client;
    (void)limits;
  }
  virtual void InvalidateVerifierRange(size_t client, Key lo, Key hi) {
    (void)client;
    (void)lo;
    (void)hi;
  }

  /// The concrete deployment, for instrumentation (stats, misbehaviour
  /// injection, trust-authority queries). Null unless `kind()` matches.
  virtual Deployment* wedge() { return nullptr; }
  virtual EdgeBaselineDeployment* edge_baseline() { return nullptr; }
  virtual CloudOnlyDeployment* cloud_only() { return nullptr; }
};

/// Builds (but does not Start) the backend selected by `options.backend`.
std::unique_ptr<StoreBackend> MakeBackend(const StoreOptions& options);

}  // namespace wedge
