#include "api/store.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "baselines/baseline_deployment.h"
#include "core/deployment.h"

namespace wedge {

namespace api_internal {

struct StoreCore {
  StoreOptions options;
  /// Declared before `backend` deliberately: the backend's destructor
  /// joins worker threads whose completion wrappers release admission
  /// slots, so the gate must outlive it.
  AsyncGate gate;
  std::unique_ptr<StoreBackend> backend;

  /// Blocks until `done()` holds, bounded by the per-op `deadline` when
  /// one was given (> 0) and `options.op_timeout` otherwise — stepping
  /// simulation events under SimRuntime (where a drained event queue
  /// before completion means the operation can never finish), sleeping
  /// on the runtime's completion condition variable under
  /// ThreadedRuntime. `done` must read only state written through
  /// Runtime::RunOnCompletion, which is what orders it against the
  /// completing worker thread.
  Status PumpUntil(const std::function<bool()>& done, SimTime deadline = 0) {
    return backend->runtime().WaitUntil(
        deadline > 0 ? deadline : options.op_timeout, done);
  }
};

Status PumpCore(StoreCore& core, const std::function<bool()>& done,
                SimTime deadline) {
  return core.PumpUntil(done, deadline);
}

}  // namespace api_internal

using api_internal::AsyncCommitState;
using api_internal::AsyncGate;
using api_internal::AsyncOpState;
using api_internal::SettleCommit;
using api_internal::SettleOp;
using api_internal::StoreCore;

// ----------------------------------------------------------- CommitHandle

bool CommitHandle::phase1_done() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->p1_settled;
}
bool CommitHandle::phase2_done() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->p2_settled;
}

Result<Commit> CommitHandle::WaitPhase1(SimTime deadline) {
  auto* st = state_.get();
  WEDGE_RETURN_NOT_OK(
      core_->PumpUntil([st] { return st->phase1_done; }, deadline));
  std::lock_guard<std::mutex> lock(state_->mu);
  if (!st->phase1_status.ok()) return st->phase1_status;
  return st->phase1;
}

Result<Commit> CommitHandle::WaitPhase2(SimTime deadline) {
  auto* st = state_.get();
  WEDGE_RETURN_NOT_OK(
      core_->PumpUntil([st] { return st->phase2_done; }, deadline));
  std::lock_guard<std::mutex> lock(state_->mu);
  if (!st->phase2_status.ok()) return st->phase2_status;
  return st->phase2;
}

// ------------------------------------------------------------------ Store

namespace {

/// Rejects configurations that would otherwise crash (or wedge) deep in
/// deployment construction: every Open failure is an InvalidArgument
/// here, never an abort downstream.
Status ValidateOptions(const StoreOptions& options) {
  const DeploymentConfig& d = options.deploy;
  if (d.num_clients == 0) {
    return Status::InvalidArgument("StoreOptions: need at least one client");
  }
  if (d.num_edges == 0) {
    return Status::InvalidArgument("StoreOptions: need at least one edge");
  }
  const ShardingConfig& sh = d.sharding;
  if (sh.slots() > d.num_edges) {
    return Status::InvalidArgument(
        "StoreOptions: " + std::to_string(sh.slots()) +
        " shard slots need at least as many edges, got " +
        std::to_string(d.num_edges));
  }
  if (sh.num_shards >= 2 && sh.scheme == ShardScheme::kRange &&
      sh.range_span < sh.num_shards) {
    return Status::InvalidArgument(
        "StoreOptions: range sharding needs range_span >= num_shards "
        "(every shard must own at least one key)");
  }
  if (sh.num_shards >= 2 && sh.scheme == ShardScheme::kHash &&
      sh.slots() > sh.num_shards) {
    return Status::InvalidArgument(
        "StoreOptions: spare shard capacity is unusable under hash "
        "sharding (interleaved ownership cannot be split); use "
        "ShardScheme::kRange for resharding");
  }
  // The drain floor binds every migration-capable config: a split needs
  // a spare slot, but a merge runs between two live neighbours with no
  // spare at all — either way writes in flight at fence time must reach
  // the source before the export snapshot.
  const bool can_migrate = sh.slots() >= 2 && sh.range_expressible();
  if (can_migrate &&
      options.resharding.drain_delay < 2 * d.edge.partial_flush_delay) {
    return Status::InvalidArgument(
        "StoreOptions: resharding drain_delay must comfortably exceed "
        "the edge partial_flush_delay (>= 2x), or writes in flight at "
        "fence time could miss the migration export");
  }
  if (options.retry.enabled && options.retry.max_attempts == 0) {
    return Status::InvalidArgument(
        "StoreOptions: facade retry must bound its attempts "
        "(WithRetry with max_attempts >= 1) — an unbounded retry "
        "against a dead deployment would never return");
  }
  if (d.runtime.socket.enabled && d.runtime.kind != RuntimeKind::kThreaded) {
    // SocketTransport is built by ThreadedRuntime; under the simulator
    // the config would be silently ignored.
    return Status::InvalidArgument(
        "StoreOptions: WithSocketTransport requires WithRuntime("
        "RuntimeKind::kThreaded) — the simulator has no real sockets");
  }
  if (options.backend != BackendKind::kWedge &&
      d.runtime.socket.mode() != SocketMode::kLocal) {
    // Only the WedgeChain deployment splits its nodes by socket mode; a
    // baseline would start every node in each process, a second cloud
    // included.
    return Status::InvalidArgument(
        "StoreOptions: hub and spoke socket processes run only the "
        "WedgeChain backend; the baselines need every node in one "
        "process (WithSocketTransport() with no arguments)");
  }
  if (options.balancer.enabled) {
    // The autonomous lifecycle actuates through SplitShard/MergeShards,
    // so it needs a routed store with range-expressible ownership: a
    // policy that could never act is a misconfiguration, not a no-op.
    if (!can_migrate) {
      return Status::InvalidArgument(
          "StoreOptions: WithAutoBalance needs a splittable sharded "
          "store (WithShards(n, ShardScheme::kRange, span), or a single "
          "seed shard with WithShardCapacity spare slots)");
    }
    if (options.balancer.tick_period <= 0) {
      return Status::InvalidArgument(
          "StoreOptions: balancer tick_period must be positive");
    }
    if (options.balancer.split_ticks == 0 ||
        options.balancer.merge_ticks == 0) {
      return Status::InvalidArgument(
          "StoreOptions: balancer split_ticks/merge_ticks must be >= 1 "
          "(a zero streak makes every shard a candidate on every tick)");
    }
    if (options.balancer.min_window_ops == 0) {
      return Status::InvalidArgument(
          "StoreOptions: balancer min_window_ops must be >= 1, or an "
          "idle store's zero-op windows read as uniformly cold and it "
          "merges itself on no signal");
    }
    if (options.balancer.split_fraction <= 0 ||
        options.balancer.split_fraction > 1 ||
        options.balancer.merge_fraction < 0 ||
        options.balancer.merge_fraction >= 1) {
      return Status::InvalidArgument(
          "StoreOptions: balancer watermarks are fractions of the "
          "window's ops — split_fraction must be in (0, 1] and "
          "merge_fraction in [0, 1), or the policy can never act");
    }
    if (options.balancer.split_fraction <= options.balancer.merge_fraction) {
      return Status::InvalidArgument(
          "StoreOptions: balancer split_fraction must exceed "
          "merge_fraction (the watermarks must not overlap, or every "
          "window would both split and merge the same shard)");
    }
  }
  return Status::OK();
}

}  // namespace

Result<Store> Store::Open(StoreOptions options) {
  WEDGE_RETURN_NOT_OK(ValidateOptions(options));
  auto core = std::make_shared<StoreCore>();
  core->options = std::move(options);
  core->gate.set_limit(core->options.async_inflight_limit);
  core->backend = MakeBackend(core->options);
  if (core->backend == nullptr) {
    return Status::InvalidArgument("StoreOptions: unknown backend");
  }
  if (core->options.before_start) {
    core->options.before_start(*core->backend);
    // The hook's one legitimate call is done; don't keep its captured
    // environment (often stack references) reachable via options().
    core->options.before_start = nullptr;
  }
  core->backend->Start();
  return Store(std::move(core));
}

namespace {

/// Builds the shared state of a write handle and issues the write
/// through the admission gate with its two phase-settling callbacks —
/// or settles both phases up front when the client index is out of
/// range (InvalidArgument) or the gate is full (ResourceExhausted).
/// Phase settles go through SettleCommit, whose RunOnCompletion write
/// is what the façade's WaitPhaseN predicates synchronize on.
std::shared_ptr<AsyncCommitState> IssueWrite(
    StoreCore& core, size_t client, const AsyncOptions& opts,
    const std::function<void(StoreBackend::CommitCb, StoreBackend::CommitCb)>&
        issue) {
  auto state = std::make_shared<AsyncCommitState>();
  Runtime* rt = &core.backend->runtime();
  state->rt = rt;
  state->gate = &core.gate;
  if (client >= core.backend->client_count()) {
    const Status bad =
        Status::InvalidArgument("no client " + std::to_string(client));
    SettleCommit(state, /*phase2=*/true, bad, Commit{0, rt->Now()});
    return state;
  }
  if (!core.gate.TryAdmit()) {
    const Status full = Status::ResourceExhausted(
        "async in-flight limit reached (StoreOptions::async_inflight_limit)");
    SettleCommit(state, /*phase2=*/true, full, Commit{0, rt->Now()});
    return state;
  }
  AsyncGate* gate = &core.gate;
  issue(
      [state](const Status& s, BlockId bid, SimTime t) {
        SettleCommit(state, /*phase2=*/false, s, Commit{bid, t});
      },
      [state, gate](const Status& s, BlockId bid, SimTime t) {
        // Phase II is the backend's final word on this write: the
        // admission slot is released here and only here, even when a
        // deadline or cancel settled the handle earlier.
        gate->Release();
        SettleCommit(state, /*phase2=*/true, s, Commit{bid, t});
      });
  if (opts.deadline > 0) {
    rt->ControlExecutor()->After(opts.deadline, [state, gate] {
      SettleCommit(state, /*phase2=*/true,
                   Status::DeadlineExceeded("async op deadline"), Commit{},
                   [gate] { gate->CountDeadlineExpired(); });
    });
  }
  return state;
}

}  // namespace

CommitHandle Store::Put(Key key, Bytes value, size_t client) {
  return PutBatch({{key, std::move(value)}}, client);
}

CommitHandle Store::PutBatch(const std::vector<std::pair<Key, Bytes>>& kvs,
                             size_t client) {
  return CommitHandle(
      core_, IssueWrite(*core_, client, AsyncOptions{},
                        [&](StoreBackend::CommitCb p1, StoreBackend::CommitCb
                                                           p2) {
                          core_->backend->PutBatch(client, kvs, std::move(p1),
                                                   std::move(p2));
                        }));
}

CommitHandle Store::Append(std::vector<Bytes> payloads, size_t client) {
  return CommitHandle(
      core_, IssueWrite(*core_, client, AsyncOptions{},
                        [&](StoreBackend::CommitCb p1, StoreBackend::CommitCb
                                                           p2) {
                          core_->backend->Append(client, std::move(payloads),
                                                 std::move(p1), std::move(p2));
                        }));
}

AsyncCommit Store::AsyncPut(Key key, Bytes value, size_t client,
                            const AsyncOptions& opts) {
  return AsyncPutBatch({{key, std::move(value)}}, client, opts);
}

AsyncCommit Store::AsyncPutBatch(const std::vector<std::pair<Key, Bytes>>& kvs,
                                 size_t client, const AsyncOptions& opts) {
  return AsyncCommit(
      core_, IssueWrite(*core_, client, opts,
                        [&](StoreBackend::CommitCb p1, StoreBackend::CommitCb
                                                           p2) {
                          core_->backend->PutBatch(client, kvs, std::move(p1),
                                                   std::move(p2));
                        }));
}

AsyncCommit Store::AsyncAppend(std::vector<Bytes> payloads, size_t client,
                               const AsyncOptions& opts) {
  return AsyncCommit(
      core_, IssueWrite(*core_, client, opts,
                        [&](StoreBackend::CommitCb p1, StoreBackend::CommitCb
                                                           p2) {
                          core_->backend->Append(client, std::move(payloads),
                                                 std::move(p1), std::move(p2));
                        }));
}

namespace {

/// Builds the shared state of a single-completion async op and issues
/// it through the admission gate; shared by the four Async* reads. Bad
/// client indexes settle InvalidArgument and a full gate settles
/// ResourceExhausted, both without touching the backend.
template <typename T, typename IssueFn>
AsyncOp<T> IssueAsyncRead(const std::shared_ptr<StoreCore>& core,
                          size_t client, const AsyncOptions& opts,
                          IssueFn issue) {
  auto state = std::make_shared<AsyncOpState<T>>();
  Runtime* rt = &core->backend->runtime();
  state->rt = rt;
  state->gate = &core->gate;
  if (client >= core->backend->client_count()) {
    SettleOp<T>(state,
                Status::InvalidArgument("no client " + std::to_string(client)),
                T{});
    return AsyncOp<T>(core, state);
  }
  if (!core->gate.TryAdmit()) {
    SettleOp<T>(state,
                Status::ResourceExhausted(
                    "async in-flight limit reached "
                    "(StoreOptions::async_inflight_limit)"),
                T{});
    return AsyncOp<T>(core, state);
  }
  AsyncGate* gate = &core->gate;
  issue(client, [state, gate](const Status& s, T r, SimTime) {
    // The backend's single completion: release the admission slot
    // unconditionally (a deadline/cancel may have settled the handle
    // already — the slot tracks the backend work, not the observation).
    gate->Release();
    SettleOp<T>(state, s, std::move(r));
  });
  if (opts.deadline > 0) {
    rt->ControlExecutor()->After(opts.deadline, [state, gate] {
      SettleOp<T>(state, Status::DeadlineExceeded("async op deadline"), T{},
                  [gate] { gate->CountDeadlineExpired(); });
    });
  }
  return AsyncOp<T>(core, state);
}

/// The synchronous read façade as a thin wrapper over the async
/// surface: issue + Wait. With StoreOptions::retry enabled, transient
/// failures (Unavailable, DeadlineExceeded) are re-issued after an
/// exponential backoff that runs the deployment — background recovery
/// (healed partitions, edge certify retries) makes progress between
/// attempts. Security-class failures never retry: a detected lie must
/// surface, not be papered over by a second ask.
template <typename T, typename ReissueFn>
Result<T> SyncRead(StoreCore& core, SimTime deadline, ReissueFn reissue) {
  const RetryPolicy& retry = core.options.retry;
  SimTime backoff = retry.initial_backoff;
  for (uint32_t attempt = 1;; ++attempt) {
    AsyncOp<T> op = reissue();
    Result<T> r = op.Wait(deadline);
    if (r.ok()) return r;
    const Status& s = r.status();
    const bool transient = s.IsUnavailable() || s.IsDeadlineExceeded();
    if (!retry.enabled || !transient || attempt >= retry.max_attempts) {
      return r;
    }
    // A timed-out attempt's handle stays alive inside its own callback
    // capture; if the stale response lands later it settles a handle
    // nobody reads. The retry issues a fresh request.
    core.backend->runtime().RunFor(backoff);
    backoff = std::min<SimTime>(
        retry.max_backoff,
        static_cast<SimTime>(static_cast<double>(backoff) * retry.multiplier));
  }
}

}  // namespace

AsyncOp<GetResult> Store::AsyncGet(Key key, size_t client,
                                   const AsyncOptions& opts) {
  return IssueAsyncRead<GetResult>(
      core_, client, opts, [this, key](size_t c, StoreBackend::GetCb cb) {
        core_->backend->Get(c, key, std::move(cb));
      });
}

AsyncOp<MultiGetResult> Store::AsyncMultiGet(const std::vector<Key>& keys,
                                             size_t client,
                                             const AsyncOptions& opts) {
  return IssueAsyncRead<MultiGetResult>(
      core_, client, opts,
      [this, &keys](size_t c, StoreBackend::MultiGetCb cb) {
        core_->backend->MultiGet(c, keys, std::move(cb));
      });
}

AsyncOp<ScanResult> Store::AsyncScan(Key lo, Key hi, size_t client,
                                     const AsyncOptions& opts) {
  if (lo > hi) {
    // Normalized across backends: the edge systems reject an inverted
    // range in proof verification; cloud-only would silently return
    // nothing.
    auto state = std::make_shared<AsyncOpState<ScanResult>>();
    state->rt = &core_->backend->runtime();
    state->gate = &core_->gate;
    SettleOp<ScanResult>(
        state, Status::InvalidArgument("scan range is empty"), ScanResult{});
    return AsyncOp<ScanResult>(core_, state);
  }
  return IssueAsyncRead<ScanResult>(
      core_, client, opts, [this, lo, hi](size_t c, StoreBackend::ScanCb cb) {
        core_->backend->Scan(c, lo, hi, std::move(cb));
      });
}

AsyncOp<BlockRead> Store::AsyncReadBlock(BlockId bid, size_t client,
                                         const AsyncOptions& opts) {
  return IssueAsyncRead<BlockRead>(
      core_, client, opts, [this, bid](size_t c, StoreBackend::ReadBlockCb cb) {
        core_->backend->ReadBlock(c, bid, std::move(cb));
      });
}

AsyncStats Store::async_stats() const { return core_->gate.Snapshot(); }

Result<GetResult> Store::Get(Key key, size_t client, SimTime deadline) {
  return SyncRead<GetResult>(*core_, deadline, [&] {
    return AsyncGet(key, client);
  });
}

Result<MultiGetResult> Store::MultiGet(const std::vector<Key>& keys,
                                       size_t client, SimTime deadline) {
  return SyncRead<MultiGetResult>(*core_, deadline, [&] {
    return AsyncMultiGet(keys, client);
  });
}

Result<ScanResult> Store::Scan(Key lo, Key hi, size_t client,
                               SimTime deadline) {
  return SyncRead<ScanResult>(*core_, deadline, [&] {
    return AsyncScan(lo, hi, client);
  });
}

Result<BlockRead> Store::ReadBlock(BlockId bid, size_t client,
                                   SimTime deadline) {
  return SyncRead<BlockRead>(*core_, deadline, [&] {
    return AsyncReadBlock(bid, client);
  });
}

namespace {

/// Issues an asynchronous split via `issue` and pumps until its callback
/// delivers; shared by SplitShard and Rebalance.
template <typename IssueFn>
Result<SplitReport> SyncSplit(StoreCore& core, IssueFn issue) {
  struct Waiter {
    bool done = false;
    Status status;
    SplitReport report;
  };
  auto waiter = std::make_shared<Waiter>();
  Runtime* rt = &core.backend->runtime();
  issue([waiter, rt](const Status& s, const SplitReport& r, SimTime) {
    rt->RunOnCompletion([&] {
      waiter->status = s;
      waiter->report = r;
      waiter->done = true;
    });
  });
  WEDGE_RETURN_NOT_OK(core.PumpUntil([w = waiter.get()] { return w->done; }));
  if (!waiter->status.ok()) return waiter->status;
  return waiter->report;
}

}  // namespace

Result<SplitReport> Store::SplitShard(size_t shard) {
  return SyncSplit(*core_, [this, shard](StoreBackend::SplitCb cb) {
    core_->backend->SplitShard(shard, std::move(cb));
  });
}

Result<SplitReport> Store::MergeShards(size_t shard) {
  return SyncSplit(*core_, [this, shard](StoreBackend::SplitCb cb) {
    core_->backend->MergeShards(shard, std::move(cb));
  });
}

Result<SplitReport> Store::Rebalance() {
  return SyncSplit(*core_, [this](StoreBackend::SplitCb cb) {
    core_->backend->Rebalance(std::move(cb));
  });
}

OwnershipEpoch Store::ownership_epoch() const {
  const OwnershipTable* t = core_->backend->ownership();
  return t == nullptr ? 1 : t->epoch();
}
const OwnershipTable* Store::ownership() const {
  return core_->backend->ownership();
}
const ReshardingCoordinator* Store::resharding() const {
  return core_->backend->resharding();
}
const AutoBalancer* Store::balancer() const {
  return core_->backend->balancer();
}

StoreStats Store::stats() const {
  StoreStats s;
  const OwnershipTable* table = core_->backend->ownership();
  if (table != nullptr) {
    s.epoch = table->epoch();
    s.live_shards = table->LiveShards();
  }
  s.router = core_->backend->router_stats_snapshot();
  if (const ReshardingCoordinator* c = core_->backend->resharding()) {
    s.resharding = c->stats_snapshot();
  }
  if (const AutoBalancer* b = core_->backend->balancer()) {
    s.balancer = b->stats_snapshot();
  }
  Runtime& rt = core_->backend->runtime();
  s.transport = rt.transport().stats_snapshot();
  s.faults = rt.faults().stats();
  s.async = core_->gate.Snapshot();
  return s;
}

void Store::RunFor(SimTime duration) {
  core_->backend->runtime().RunFor(duration);
}
void Store::RunUntil(SimTime until) {
  core_->backend->runtime().RunUntil(until);
}
SimTime Store::now() { return core_->backend->runtime().Now(); }

BackendKind Store::kind() const { return core_->backend->kind(); }
size_t Store::client_count() const { return core_->backend->client_count(); }
size_t Store::shard_count() const { return core_->backend->shard_count(); }
const Partitioner& Store::partitioner() const {
  return core_->backend->partitioner();
}
Runtime& Store::runtime() { return core_->backend->runtime(); }
Simulation& Store::sim() { return core_->backend->sim(); }
SimNetwork& Store::net() { return core_->backend->net(); }
const StoreOptions& Store::options() const { return core_->options; }
StoreBackend& Store::backend() { return *core_->backend; }

namespace {

/// Unconditional (NDEBUG-proof): dereferencing a null deployment would
/// be silent undefined behavior in release builds.
template <typename T>
T& CheckedDeployment(T* d, const char* accessor, BackendKind actual) {
  if (d == nullptr) {
    std::fprintf(stderr, "Store::%s() requires a matching backend, got %s\n",
                 accessor, std::string(BackendKindToString(actual)).c_str());
    std::abort();
  }
  return *d;
}

}  // namespace

Deployment& Store::wedge() {
  return CheckedDeployment(core_->backend->wedge(), "wedge", kind());
}

EdgeBaselineDeployment& Store::edge_baseline() {
  return CheckedDeployment(core_->backend->edge_baseline(), "edge_baseline",
                           kind());
}

CloudOnlyDeployment& Store::cloud_only() {
  return CheckedDeployment(core_->backend->cloud_only(), "cloud_only",
                           kind());
}

}  // namespace wedge
