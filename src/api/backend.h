// StoreBackend: the per-physical-client seam under the ShardRouter.
//
// Each of the paper's three systems adapts its client API onto this
// asynchronous interface, addressed by physical client index. Every
// Store routes through one ShardRouter (api/shard_router.h), which maps
// logical clients and keys onto these physical clients; the Store turns
// the router's callbacks into synchronous Result<T> calls and commit
// handles by waiting on the deployment's runtime — stepping the
// simulator under SimRuntime, blocking on a condition variable under
// ThreadedRuntime.
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
#include "log/block.h"
#include "lsmerkle/kv.h"
#include "lsmerkle/verifier_cache.h"
#include "runtime/runtime.h"

namespace wedge {

class Deployment;
class EdgeBaselineDeployment;
class CloudOnlyDeployment;

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

class StoreBackend {
 public:
  using CommitCb = std::function<void(const Status&, BlockId, SimTime)>;
  using GetCb = std::function<void(const Status&, GetResult, SimTime)>;
  using ScanCb = std::function<void(const Status&, ScanResult, SimTime)>;
  using ReadBlockCb = std::function<void(const Status&, BlockRead, SimTime)>;

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

  virtual void Scan(size_t client, Key lo, Key hi, ScanCb cb) = 0;

  /// Reads log block `bid`: proof-verified on the edge systems, trusted
  /// on cloud-only.
  virtual void ReadBlock(size_t client, BlockId bid, ReadBlockCb cb) = 0;

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

/// Builds (but does not Start) the adapter selected by `options.backend`,
/// over a deployment of `options.deploy` as given; null for an unknown
/// backend. The ShardRouter calls it with its physical client grid.
std::unique_ptr<StoreBackend> MakeBackend(const StoreOptions& options);

}  // namespace wedge
