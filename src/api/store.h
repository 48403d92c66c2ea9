// wedge::Store — the public face of WedgeChain.
//
// One API over the paper's three systems: open a Store against the
// WedgeChain, edge-baseline, or cloud-only backend (StoreOptions::backend)
// and run the identical call sequence on each. Reads return Result<T>
// synchronously; writes return an AsyncCommit whose WaitPhase1()/
// WaitPhase2() pump the simulator to the corresponding commit point —
// the paper's lazy-trust contract (§IV) as first-class API objects:
//
//   auto store = *Store::Open(StoreOptions().WithOpsPerBlock(4));
//   AsyncCommit h = store.Put(42, value);
//   Commit p1 = *h.WaitPhase1();   // edge-latency, temporary proof
//   Commit p2 = *h.WaitPhase2();   // cloud-certified, p2.at >= p1.at
//   GetResult got = *store.Get(42);
//
// Every store routes through one ShardRouter (api/shard_router.h); an
// unsharded store is its one-shard case.
//
// A detected lie surfaces as a Status (SecurityViolation /
// MaliciousBehavior) from the wait or read that observed it, never as
// silently wrong data.

#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "api/async.h"
#include "api/backend.h"
#include "api/options.h"
#include "api/shard_router.h"
#include "common/result.h"

namespace wedge {

namespace api_internal {
struct StoreCore;
}  // namespace api_internal

/// One-call observability snapshot of a store (Store::stats()): current
/// ownership epoch plus the routing, migration, and autonomous-balancing
/// counters, and the runtime's transport and fault counters. All fields
/// are value-copies taken at the call.
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

class Store {
 public:
  /// Builds, wires and starts the selected deployment.
  static Result<Store> Open(StoreOptions options);

  Store(Store&&) = default;
  Store& operator=(Store&&) = default;

  // ------------------------------------------------------------- writes
  //
  // Each is its Async* form below with no per-op deadline; the returned
  // handle's WaitPhase1/WaitPhase2 pump the runtime to the commit point.

  /// Puts one key-value pair as client `client`.
  AsyncCommit Put(Key key, Bytes value, size_t client = 0);

  /// Applies a batch of key-value puts through the LSMerkle path.
  AsyncCommit PutBatch(const std::vector<std::pair<Key, Bytes>>& kvs,
                       size_t client = 0);

  /// Appends raw log entries. All three backends support log workloads:
  /// the baselines certify synchronously, so both phases commit together.
  AsyncCommit Append(std::vector<Bytes> payloads, size_t client = 0);

  // ------------------------------------------------------ async surface
  //
  // Non-blocking issue: the returned handle's completions fire on the
  // runtime's executors (no pump-to-completion). Per-op deadlines and
  // Cancel settle the handle early; StoreOptions::async_inflight_limit
  // bounds admitted ops so a slow shard backpressures the issuer with
  // ResourceExhausted instead of ballooning memory. The sync reads below
  // are thin wrappers over these (issue + Wait).

  AsyncCommit AsyncPut(Key key, Bytes value, size_t client = 0,
                       const AsyncOptions& opts = {});
  AsyncCommit AsyncPutBatch(const std::vector<std::pair<Key, Bytes>>& kvs,
                            size_t client = 0, const AsyncOptions& opts = {});
  AsyncCommit AsyncAppend(std::vector<Bytes> payloads, size_t client = 0,
                          const AsyncOptions& opts = {});
  AsyncOp<GetResult> AsyncGet(Key key, size_t client = 0,
                              const AsyncOptions& opts = {});
  AsyncOp<MultiGetResult> AsyncMultiGet(const std::vector<Key>& keys,
                                        size_t client = 0,
                                        const AsyncOptions& opts = {});
  AsyncOp<ScanResult> AsyncScan(Key lo, Key hi, size_t client = 0,
                                const AsyncOptions& opts = {});
  AsyncOp<BlockRead> AsyncReadBlock(BlockId bid, size_t client = 0,
                                    const AsyncOptions& opts = {});

  /// Admission/lifecycle counters of the async surface (also included
  /// in stats().async).
  AsyncStats async_stats() const;

  // -------------------------------------------------------------- reads

  /// Gets `key`, pumping the simulator until the (verified) response
  /// arrives. Proof failures surface as SecurityViolation. `deadline`
  /// overrides StoreOptions::op_timeout for this call (0 keeps it);
  /// with StoreOptions::WithRetry, Unavailable / DeadlineExceeded
  /// outcomes are retried with bounded exponential backoff — the same
  /// per-op deadline applies to each attempt.
  Result<GetResult> Get(Key key, size_t client = 0, SimTime deadline = 0);

  /// Batched point reads, scatter-gathered per owning shard on a sharded
  /// store (all sub-reads in flight concurrently, so the batch pays one
  /// round trip rather than one per key). Results are positionally
  /// aligned with `keys`; any failing key fails the batch, with
  /// security-class failures taking precedence.
  Result<MultiGetResult> MultiGet(const std::vector<Key>& keys,
                                  size_t client = 0, SimTime deadline = 0);

  /// Scans [lo, hi] with completeness verification on the edge backends;
  /// a truncated scan fails as SecurityViolation, never as silently
  /// missing keys.
  Result<ScanResult> Scan(Key lo, Key hi, size_t client = 0,
                          SimTime deadline = 0);

  /// Reads log block `bid`: proof-verified on the edge backends, trusted
  /// on cloud-only.
  Result<BlockRead> ReadBlock(BlockId bid, size_t client = 0,
                              SimTime deadline = 0);

  // --------------------------------------------------------- resharding

  /// Splits `shard`'s key range at its midpoint via verified live
  /// migration (core/resharding.h): the moving range is exported as a
  /// completeness-verified scan (a lying source fails the split as
  /// SecurityViolation), imported at the first idle shard slot, and the
  /// new ownership epoch goes live at the destination's Phase I commit —
  /// the cloud certifies the handoff lazily. Pumps the simulator until
  /// the epoch is live (or the split fails; ownership is then
  /// unchanged). Needs spare capacity: open with WithShardCapacity.
  Result<SplitReport> SplitShard(size_t shard);

  /// The inverse migration: folds `shard`'s slice into its adjacent
  /// surviving neighbour through the same verified live-migration
  /// machinery (fence → drain → completeness-verified export → import
  /// at the survivor's Phase I → lazy handoff certificate). When the
  /// merged slice was the shard's last, the freed slot returns to the
  /// idle pool — a split→merge cycle never exhausts WithShardCapacity.
  Result<SplitReport> MergeShards(size_t shard);

  /// Splits the busiest live shard (by keyed operations routed since the
  /// last epoch change) — the one-step heat-driven rebalance. For the
  /// continuous, autonomous version see StoreOptions::WithAutoBalance.
  Result<SplitReport> Rebalance();

  /// Current ownership epoch: 1 until a migration installs a newer map.
  OwnershipEpoch ownership_epoch() const;
  /// The versioned ownership table (never null; an unsharded store has
  /// one slot owning every key).
  const OwnershipTable* ownership() const;
  /// Migration counters and the applied-migration reports (never null).
  const ReshardingCoordinator* resharding() const;
  /// The autonomous lifecycle policy (null unless opened with
  /// WithAutoBalance).
  const AutoBalancer* balancer() const;
  /// One-call snapshot of epoch, live shards, router, migration and
  /// balancer counters (the balancer's defaulted when it is off), plus
  /// the runtime's transport message counters and injected-fault stats.
  StoreStats stats() const;

  // -------------------------------------------------- runtime & access

  /// Runs the deployment for `duration` — virtual time under the default
  /// SimRuntime (background work such as certification, merges, and
  /// gossip happens during these windows), wall time (a real sleep,
  /// workers running throughout) under ThreadedRuntime.
  void RunFor(SimTime duration);
  void RunUntil(SimTime until);
  SimTime now();

  BackendKind kind() const;
  size_t client_count() const;
  /// Shards this store routes over (1 when opened unsharded). A sharded
  /// store partitions keys across edges per `partitioner()`; Scan fans
  /// out and stitches per-shard verified results transparently.
  size_t shard_count() const;
  const Partitioner& partitioner() const;
  /// The runtime this store executes on (see StoreOptions::WithRuntime).
  Runtime& runtime();
  /// Sim-only; abort under ThreadedRuntime — use runtime() for
  /// runtime-neutral code.
  Simulation& sim();
  SimNetwork& net();
  const StoreOptions& options() const;

  /// The routing layer every operation goes through (bench harness;
  /// advanced callers that must not block the closed loop).
  ShardRouter& router();

  /// Concrete deployments for instrumentation — stats, misbehaviour
  /// injection, trust-authority queries. Aborts (in every build type)
  /// if `kind()` differs.
  Deployment& wedge();
  EdgeBaselineDeployment& edge_baseline();
  CloudOnlyDeployment& cloud_only();

 private:
  explicit Store(std::shared_ptr<api_internal::StoreCore> core)
      : core_(std::move(core)) {}

  std::shared_ptr<api_internal::StoreCore> core_;
};

}  // namespace wedge
