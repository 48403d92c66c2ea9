// StoreOptions: builder-style configuration for the wedge::Store façade.
//
// Subsumes DeploymentConfig: the full knob surface stays reachable via
// `deploy`, while the chainable With* setters cover everything examples,
// tests and benchmarks actually tune. `backend` selects which of the
// paper's three systems answers the identical call sequence — the
// trust/latency trade-off is switchable at one call site.

#pragma once

#include <algorithm>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/balancer.h"
#include "core/deployment.h"
#include "core/resharding.h"

namespace wedge {

class StoreBackend;

/// The three deployments compared throughout the paper (§VI).
enum class BackendKind {
  /// WedgeChain: Phase I commits at the edge, Phase II certified lazily
  /// by the cloud (data-free).
  kWedge,
  /// Edge-baseline: every write certified at the cloud synchronously
  /// before the edge answers (§II-C).
  kEdgeBaseline,
  /// Cloud-only: the trusted cloud serves everything; no proofs, full
  /// wide-area latency on every operation.
  kCloudOnly,
};

std::string_view BackendKindToString(BackendKind kind);

/// Counters of the async surface's admission gate and op lifecycle
/// (Store::stats().async). All counts are cumulative since Open except
/// `inflight`, a point-in-time reading.
struct AsyncStats {
  /// Operations admitted past the in-flight gate and issued to the
  /// backend (sync reads route through the async surface and count too).
  uint64_t issued = 0;
  /// Admitted operations whose backend completion arrived (whatever its
  /// status, and even if a deadline or cancel settled the handle first).
  uint64_t completed = 0;
  /// Operations refused up front with ResourceExhausted because
  /// `async_inflight_limit` admitted ops were already in flight.
  uint64_t rejected = 0;
  /// Handles settled by AsyncOp/AsyncCommit::Cancel before completion.
  uint64_t cancelled = 0;
  /// Handles settled by their per-op deadline before completion.
  uint64_t deadline_expired = 0;
  /// Admitted operations currently between issue and backend completion.
  uint64_t inflight = 0;
  /// High-water mark of `inflight` since Open.
  uint64_t inflight_peak = 0;
};

/// All BackendKind values, in presentation order — handy for "run the
/// same scenario on every system" loops.
inline constexpr BackendKind kAllBackends[] = {
    BackendKind::kWedge, BackendKind::kEdgeBaseline, BackendKind::kCloudOnly};

struct StoreOptions {
  BackendKind backend = BackendKind::kWedge;
  /// The full deployment knob surface (topology, costs, edge/cloud/client
  /// configs). The With* setters below write through to it.
  DeploymentConfig deploy;
  /// Time budget a synchronous wait (Get/Scan/ReadBlock,
  /// AsyncCommit::WaitPhaseN) may block before giving up with
  /// DeadlineExceeded — virtual time under the default SimRuntime (the
  /// wait pumps the simulator), wall time under ThreadedRuntime (the
  /// wait sleeps on the completion condition variable). Every waiting
  /// call also takes a per-operation deadline override.
  SimTime op_timeout = 120 * kSecond;
  /// Wiring hook run after the deployment is constructed but before it
  /// starts — the window in which durable storage must be attached and
  /// recovered state restored (see storage/edge_storage.h). It receives
  /// the per-physical-client adapter under the router.
  std::function<void(StoreBackend&)> before_start;
  /// Live-migration knobs for SplitShard / MergeShards / Rebalance.
  ReshardingConfig resharding;
  /// Façade-level retry of failed synchronous reads (Get / MultiGet /
  /// Scan / ReadBlock): Unavailable and DeadlineExceeded results are
  /// retried with bounded exponential backoff — each backoff runs the
  /// deployment, so background recovery (healed partitions, edge certify
  /// retries) makes progress between attempts. Security-class failures
  /// (a detected lie) are never retried. Disabled by default; WithRetry
  /// enables it, and Store::Open requires max_attempts >= 1 when
  /// enabled (an unbounded façade retry against a dead deployment would
  /// never return).
  RetryPolicy retry{/*enabled=*/false};
  /// Autonomous shard lifecycle (heat-driven auto-split + merge);
  /// disabled unless WithAutoBalance is called. Requires a splittable
  /// sharded store (range partitioning, or a single seed shard with
  /// spare capacity).
  BalancerPolicy balancer;
  /// Bounded in-flight admission for the async surface (AsyncPut /
  /// AsyncGet / ...): at most this many admitted operations between
  /// issue and backend completion; excess issues settle immediately
  /// with ResourceExhausted instead of queueing unbounded callback
  /// state behind a slow shard. 0 (default) = unlimited. Sync reads
  /// route through the same gate.
  size_t async_inflight_limit = 0;

  StoreOptions& WithBackend(BackendKind b) {
    backend = b;
    return *this;
  }
  StoreOptions& WithSeed(uint64_t seed) {
    deploy.seed = seed;
    return *this;
  }
  StoreOptions& WithClients(size_t n) {
    deploy.num_clients = n;
    return *this;
  }
  StoreOptions& WithEdges(size_t n) {
    deploy.num_edges = n;
    return *this;
  }
  /// Selects the runtime the deployment executes on (src/runtime/):
  /// RuntimeKind::kSim (default) is the deterministic simulator — virtual
  /// time, CostModel charging, bit-identical runs; RuntimeKind::kThreaded
  /// runs every edge and the cloud on its own OS thread with clients
  /// multiplexed over a driver pool — wall-clock time, real crypto, no
  /// cost model. Resharding and WithAutoBalance run on both: live
  /// migration gates on explicit write quiescence, not virtual time.
  StoreOptions& WithRuntime(RuntimeKind kind) {
    deploy.runtime.kind = kind;
    return *this;
  }
  /// Full runtime knob surface (driver pool width, inbox capacity).
  StoreOptions& WithRuntimeConfig(const RuntimeConfig& config) {
    deploy.runtime = config;
    return *this;
  }
  /// WAN shaping under RuntimeKind::kThreaded: every cross-Dc message
  /// (and socket frame) is delayed by the matrix's one-way latency for
  /// the (sender Dc, receiver Dc) link, plus up to `jitter_frac` of it.
  /// LatencyMatrix::Paper() reproduces the paper's five-region geography
  /// on real threads. Implies WithRuntime(kThreaded) takes effect — the
  /// simulator has its own SimNetwork latency model and ignores this.
  StoreOptions& WithWan(const LatencyMatrix& matrix,
                        double jitter_frac = 0.0) {
    deploy.runtime.wan.enabled = true;
    deploy.runtime.wan.matrix = matrix;
    deploy.runtime.wan.jitter_frac = jitter_frac;
    return *this;
  }
  /// Routes every message through SocketTransport's real TCP framing
  /// (see src/runtime/socket_transport.h). With no arguments the
  /// process self-connects over loopback — same in-process topology,
  /// every frame on a real socket. A hub process (the cloud) sets
  /// `listen_port`; a spoke dials `connect_host:connect_port`. All
  /// processes of one deployment must share `secret_seed` — it derives
  /// the link MAC key. Requires RuntimeKind::kThreaded.
  StoreOptions& WithSocketTransport(uint16_t listen_port = 0,
                                    std::string connect_host = {},
                                    uint16_t connect_port = 0,
                                    uint64_t secret_seed = 0) {
    deploy.runtime.socket.enabled = true;
    deploy.runtime.socket.listen_port = listen_port;
    deploy.runtime.socket.connect_host = std::move(connect_host);
    deploy.runtime.socket.connect_port = connect_port;
    deploy.runtime.socket.secret_seed = secret_seed;
    return *this;
  }
  /// Key-partitions the store across `n` shards (one per edge node).
  /// Every store routes through the api-layer ShardRouter; this sets
  /// how many shards it routes over. Raises num_edges to at least `n`
  /// (call WithEdges afterwards to run spare edges; Store::Open rejects
  /// n > num_edges). For ShardScheme::kRange, `range_span` must bound
  /// the key domain: keys in [0, range_span) are cut into contiguous
  /// slices and keys beyond it belong to the last shard. n == 1 puts
  /// every client on edge 0; n == 0, the default, is one shard with
  /// clients round-robin over the edges.
  StoreOptions& WithShards(size_t n, ShardScheme scheme = ShardScheme::kHash,
                           uint64_t range_span = 0) {
    deploy.sharding.num_shards = n;
    deploy.sharding.scheme = scheme;
    deploy.sharding.range_span = range_span;
    deploy.num_edges =
        std::max(deploy.num_edges, deploy.sharding.slots());
    return *this;
  }
  /// Provisions `m` physical shard slots (edges, per-shard clients, the
  /// router's block-id modulus) of which only the WithShards count start
  /// live. Spare slots own no keys until SplitShard migrates a hot
  /// shard's range onto one — the grid never changes shape at runtime,
  /// which is what keeps block ids and client pinning stable across
  /// ownership epochs. Raises num_edges to at least `m`.
  StoreOptions& WithShardCapacity(size_t m) {
    deploy.sharding.capacity = m;
    deploy.num_edges = std::max(deploy.num_edges, deploy.sharding.slots());
    return *this;
  }
  /// Virtual time a SplitShard waits between fencing the moving range
  /// and the export scan (see ReshardingConfig::drain_delay).
  StoreOptions& WithDrainDelay(SimTime delay) {
    resharding.drain_delay = delay;
    return *this;
  }
  /// Turns on the autonomous shard lifecycle: a background policy tick
  /// reads the router's per-epoch heat window against the policy's
  /// high/low watermarks and calls SplitShard / MergeShards on its own
  /// (with hysteresis and cooldown so oscillating load doesn't thrash
  /// migrations). Pass a BalancerPolicy to tune the knobs; the default
  /// policy is used when omitted. Requires a splittable sharded store.
  StoreOptions& WithAutoBalance(BalancerPolicy policy = {}) {
    balancer = policy;
    balancer.enabled = true;
    return *this;
  }
  StoreOptions& WithLocations(Dc client, Dc edge, Dc cloud) {
    deploy.client_dc = client;
    deploy.edge_dc = edge;
    deploy.cloud_dc = cloud;
    return *this;
  }
  StoreOptions& WithOpsPerBlock(size_t n) {
    deploy.edge.ops_per_block = n;
    return *this;
  }
  /// LSMerkle structure: level thresholds plus the page split size (kept
  /// consistent between edge and cloud, as merges require).
  StoreOptions& WithLsm(std::vector<size_t> level_thresholds,
                        size_t target_page_pairs) {
    deploy.edge.lsm.level_thresholds = std::move(level_thresholds);
    deploy.edge.lsm.target_page_pairs = target_page_pairs;
    deploy.cloud.target_page_pairs = target_page_pairs;
    return *this;
  }
  StoreOptions& WithGossipPeriod(SimTime period) {
    deploy.cloud.gossip_period = period;
    return *this;
  }
  StoreOptions& WithNoopMergePeriod(SimTime period) {
    deploy.edge.noop_merge_period = period;
    return *this;
  }
  StoreOptions& WithFreshnessWindow(SimTime window) {
    deploy.client.freshness_window = window;
    return *this;
  }
  StoreOptions& WithProofTimeout(SimTime timeout) {
    deploy.client.proof_timeout = timeout;
    return *this;
  }
  /// Client-side memoization of verified proof material (root/block
  /// certificates, level-part proofs) across reads. On by default; turn
  /// off to reproduce the paper's verify-every-response read cost.
  StoreOptions& WithVerifierCache(bool on) {
    deploy.client.verify_cache = on;
    return *this;
  }
  /// Per-shard verifier-cache sizing unit (see
  /// ClientConfig::verify_cache_limits).
  StoreOptions& WithVerifierCacheLimits(VerifierCache::Limits limits) {
    deploy.client.verify_cache_limits = limits;
    return *this;
  }
  StoreOptions& WithOpTimeout(SimTime timeout) {
    op_timeout = timeout;
    return *this;
  }
  /// Turns on façade-level read retry (see `retry`). The policy must
  /// bound its attempts: Store::Open rejects max_attempts == 0.
  StoreOptions& WithRetry(RetryPolicy policy) {
    retry = policy;
    retry.enabled = true;
    return *this;
  }
  /// Ceiling on one live-migration attempt, fence to epoch-install (see
  /// ReshardingConfig::migration_timeout): a source or destination that
  /// crashes mid-migration aborts the attempt cleanly instead of
  /// wedging the fence forever. 0 disables the watchdog.
  StoreOptions& WithMigrationTimeout(SimTime timeout) {
    resharding.migration_timeout = timeout;
    return *this;
  }
  /// Caps admitted-but-uncompleted async operations (see
  /// `async_inflight_limit`); a slow shard then backpressures the
  /// issuer with ResourceExhausted instead of ballooning memory.
  StoreOptions& WithAsyncInflightLimit(size_t limit) {
    async_inflight_limit = limit;
    return *this;
  }
  StoreOptions& WithBeforeStart(std::function<void(StoreBackend&)> hook) {
    before_start = std::move(hook);
    return *this;
  }
};

}  // namespace wedge
