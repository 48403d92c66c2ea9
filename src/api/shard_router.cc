#include "api/shard_router.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <string>
#include <utility>

namespace wedge {

namespace {

/// Trust-severity status merge for fan-out joins: the first error wins,
/// except that a security-class status (a detected lie) always displaces
/// a benign one — a slow or unavailable shard must never mask a
/// tampering shard.
void MergeStatusBySeverity(Status* into, const Status& s) {
  if (s.ok()) return;
  const bool s_security = s.IsSecurityViolation() || s.IsMaliciousBehavior();
  const bool into_security =
      into->IsSecurityViolation() || into->IsMaliciousBehavior();
  if (into->ok() || (s_security && !into_security)) *into = s;
}

/// Join state for one phase of a multi-shard write: the phase reports
/// once every involved shard has reported it, at the latest sub-commit
/// time, carrying the (globalized) block id of the lowest involved shard
/// so the reported id is deterministic. Sub-commits land on different
/// shard executors under ThreadedRuntime, so the join carries its own
/// lock; the phase callback fires outside it.
struct PhaseJoin {
  std::mutex mu;
  size_t waiting = 0;
  Status status;
  size_t bid_shard = SIZE_MAX;
  BlockId bid = 0;
  SimTime at = 0;
};

void RecordPhase(PhaseJoin* join, size_t shard, const Status& s, BlockId bid,
                 SimTime t, const StoreBackend::CommitCb& done) {
  Status status;
  BlockId out_bid = 0;
  SimTime at = 0;
  {
    std::lock_guard<std::mutex> lock(join->mu);
    MergeStatusBySeverity(&join->status, s);
    if (s.ok() && shard < join->bid_shard) {
      join->bid_shard = shard;
      join->bid = bid;
    }
    join->at = std::max(join->at, t);
    if (--join->waiting > 0) return;
    status = join->status;
    out_bid = join->bid;
    at = join->at;
  }
  if (done) done(status, out_bid, at);
}

/// Wraps a commit callback so acked block ids come out in global form.
StoreBackend::CommitCb TranslateBidsCb(StoreBackend::CommitCb cb, size_t shard,
                                       size_t slots) {
  if (!cb) return nullptr;
  return [cb = std::move(cb), shard, slots](const Status& s, BlockId bid,
                                            SimTime t) {
    cb(s, ShardRouter::GlobalBlockId(bid, shard, slots), t);
  };
}

}  // namespace

std::unique_ptr<ShardRouter> ShardRouter::Make(const StoreOptions& options) {
  // One physical client per (logical client, shard slot), pinned
  // shard-aware by the deployment's sharding config. Slots beyond
  // num_shards start idle; SplitShard migrates ranges onto them without
  // reshaping the grid. The table clamps an unsharded config to one
  // slot, so there the grid is the logical clients themselves.
  const ShardingConfig& sharding = options.deploy.sharding;
  auto table = std::make_shared<OwnershipTable>(Partitioner(sharding),
                                                sharding.slots());
  StoreOptions inner = options;
  inner.deploy.num_clients = options.deploy.num_clients * table->capacity();
  std::unique_ptr<StoreBackend> base = MakeBackend(inner);
  if (base == nullptr) return nullptr;
  return std::unique_ptr<ShardRouter>(
      new ShardRouter(std::move(base), std::move(table), options));
}

ShardRouter::ShardRouter(std::unique_ptr<StoreBackend> inner,
                         std::shared_ptr<OwnershipTable> table,
                         const StoreOptions& options)
    : inner_(std::move(inner)),
      table_(std::move(table)),
      logical_clients_(options.deploy.num_clients),
      cache_unit_(options.deploy.client.verify_cache_limits),
      cloud_backup_(options.deploy.cloud.backup_blocks &&
                    options.deploy.edge.ship_full_blocks),
      client_epochs_(logical_clients_, table_->epoch()) {
  // Migration state machines run on the runtime's control executor:
  // inline simulation events under SimRuntime, the control worker thread
  // under ThreadedRuntime (the operator entry points below post their
  // bodies there, so coordinator state stays control-confined on every
  // runtime).
  coordinator_ = std::make_unique<ReshardingCoordinator>(
      inner_->runtime().ControlExecutor(), table_, this, options.resharding);
  stats_.ops_per_shard.assign(table_->capacity(), 0);
  write_gauges_.resize(table_->capacity());
  for (auto& g : write_gauges_) g = std::make_shared<WriteGauge>();
  if (options.balancer.enabled) {
    // The balancer reads this router's own heat window and actuates
    // through the same coordinator the operator calls use, so manual
    // and autonomous migrations share the single-in-flight rule.
    AutoBalancer::Hooks hooks;
    hooks.heat = [this]() {
      std::lock_guard<std::mutex> lock(mu_);
      return stats_.ops_per_shard;
    };
    hooks.split = [this](size_t shard, ReshardingCoordinator::SplitCb cb) {
      coordinator_->SplitShard(shard, std::move(cb));
    };
    hooks.merge = [this](size_t shard, ReshardingCoordinator::SplitCb cb) {
      coordinator_->MergeShards(shard, std::move(cb));
    };
    hooks.busy = [this]() { return coordinator_->migration_in_flight(); };
    balancer_ = std::make_unique<AutoBalancer>(
        inner_->runtime().ControlExecutor(), table_, options.balancer,
        std::move(hooks));
  }
  ResizeVerifierCaches();
}

RouterStats ShardRouter::stats_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t ShardRouter::RouteKeyLocked(size_t client, Key key) {
  const OwnershipEpoch known = client_epochs_[client];
  const OwnershipEpoch current = table_->epoch();
  size_t shard = table_->ShardOf(key, known);
  if (known != current) {
    // The request carried a stale epoch: re-route deterministically to
    // the current owner and refresh the client's view. Never an error —
    // the client simply learns the new map on its next touch.
    const size_t actual = table_->ShardOf(key, current);
    if (actual != shard) {
      stats_.stale_redirects++;
      shard = actual;
    }
    client_epochs_[client] = current;
    stats_.epoch_refreshes++;
  }
  stats_.ops_per_shard[shard]++;
  return shard;
}

size_t ShardRouter::RouteKey(size_t client, Key key) {
  std::lock_guard<std::mutex> lock(mu_);
  return RouteKeyLocked(client, key);
}

void ShardRouter::RefreshEpochLocked(size_t client) {
  const OwnershipEpoch current = table_->epoch();
  if (client_epochs_[client] != current) {
    client_epochs_[client] = current;
    stats_.epoch_refreshes++;
  }
}

void ShardRouter::PutBatch(size_t client,
                           const std::vector<std::pair<Key, Bytes>>& kvs,
                           CommitCb on_phase1, CommitCb on_phase2) {
  const size_t slots = table_->capacity();
  // Split by owning shard under the client's (refreshed) epoch,
  // preserving the caller's per-shard put order (version order within a
  // shard must match the unsharded sequence). Keys inside an active
  // migration fence are parked and flushed at epoch install, re-routed
  // under the then-current owner. Routing runs under mu_; the inner
  // sub-calls are issued after it is released.
  std::map<size_t, std::vector<std::pair<Key, Bytes>>> by_shard;
  std::map<size_t, std::shared_ptr<WriteGauge>> gauges;
  std::vector<std::pair<Key, Bytes>> parked;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& kv : kvs) {
      if (fence_active_ && kv.first >= fence_lo_ && kv.first <= fence_hi_) {
        parked.push_back(kv);
      } else {
        by_shard[RouteKeyLocked(client, kv.first)].push_back(kv);
      }
    }
    if (!parked.empty()) {
      // The parking path is still an epoch touch: a batch that falls
      // entirely inside the fence must refresh the client's view like
      // any routed write would (its keys join the heat window at flush
      // time, attributed to the owner they commit on — see the flush
      // closure).
      RefreshEpochLocked(client);
    }
    // Gauge each involved shard in the same critical section that routed
    // the batch: a fence swapping the gauge either happens before this
    // routing (the write counts on the fresh gauge) or sees the count it
    // must wait out. The sub-batch holds its gauge until Phase I.
    for (const auto& [shard, sub] : by_shard) {
      (void)sub;
      write_gauges_[shard]->Add();
      gauges[shard] = write_gauges_[shard];
    }
  }
  if (by_shard.empty() && parked.empty()) {
    // Empty batch: keep the unsharded contract (one call, to the logical
    // client's home slot) rather than inventing a zero-call commit.
    const size_t home = client % slots;
    by_shard[home] = {};
    std::lock_guard<std::mutex> lock(mu_);
    write_gauges_[home]->Add();
    gauges[home] = write_gauges_[home];
  }

  auto p1 = std::make_shared<PhaseJoin>();
  auto p2 = std::make_shared<PhaseJoin>();
  p1->waiting = p2->waiting = by_shard.size() + (parked.empty() ? 0 : 1);

  auto issue = [this, client, slots, p1, p2, on_phase1, on_phase2](
                   size_t shard, std::vector<std::pair<Key, Bytes>> sub,
                   std::shared_ptr<WriteGauge> gauge) {
    const size_t phys = PhysicalClient(client, shard);
    if (!inner_->EdgeReachable(phys)) {
      // Writes cannot be cloud-served (only the owning edge holds the
      // shard's tree); fail the sub-batch fast instead of letting the
      // whole batch hang to the op deadline.
      {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.unreachable_rejects++;
      }
      const Status down = Status::Unavailable(
          "shard " + std::to_string(shard) +
          "'s edge is crashed or partitioned away");
      const SimTime now = runtime().Now();
      RecordPhase(p1.get(), shard, down, 0, now, on_phase1);
      RecordPhase(p2.get(), shard, down, 0, now, on_phase2);
      gauge->Done();  // failed fast — resolved for quiescence purposes
      return;
    }
    inner_->PutBatch(
        phys, sub,
        [p1, shard, slots, on_phase1, gauge = std::move(gauge)](
            const Status& st, BlockId bid, SimTime t) {
          RecordPhase(p1.get(), shard, st, GlobalBlockId(bid, shard, slots),
                      t, on_phase1);
          gauge->Done();  // Phase I reached: this write no longer blocks
                          // a fence's quiescence gate
        },
        [p2, shard, slots, on_phase2](const Status& st, BlockId bid,
                                      SimTime t) {
          RecordPhase(p2.get(), shard, st, GlobalBlockId(bid, shard, slots),
                      t, on_phase2);
        });
  };

  for (auto& [shard, sub] : by_shard) {
    issue(shard, std::move(sub), std::move(gauges[shard]));
  }

  if (!parked.empty()) {
    // The parked portion joins as one unit; when the fence lifts it
    // re-splits under the then-current table (a completed split divides
    // it between source and destination), widening the joins in place
    // before any of its sub-calls can resolve. LiftFence runs on the
    // coordinator's control executor, so the flush closure routes under
    // mu_ like any live batch and gauges its sub-batches at flush time
    // (on the post-swap gauges — these writes are post-fence by
    // definition).
    std::lock_guard<std::mutex> lock(mu_);
    stats_.writes_parked++;
    parked_.push_back([this, client, parked = std::move(parked), p1, p2,
                       issue]() {
      std::map<size_t, std::vector<std::pair<Key, Bytes>>> by;
      std::map<size_t, std::shared_ptr<WriteGauge>> flush_gauges;
      {
        std::lock_guard<std::mutex> route_lock(mu_);
        for (const auto& kv : parked) {
          by[RouteKeyLocked(client, kv.first)].push_back(kv);
        }
        for (const auto& [shard, sub] : by) {
          (void)sub;
          write_gauges_[shard]->Add();
          flush_gauges[shard] = write_gauges_[shard];
        }
      }
      {
        std::lock_guard<std::mutex> p1_lock(p1->mu);
        p1->waiting += by.size() - 1;
      }
      {
        std::lock_guard<std::mutex> p2_lock(p2->mu);
        p2->waiting += by.size() - 1;
      }
      for (auto& [shard, sub] : by) {
        issue(shard, std::move(sub), std::move(flush_gauges[shard]));
      }
    });
  }
}

void ShardRouter::Append(size_t client, std::vector<Bytes> payloads,
                         CommitCb on_phase1, CommitCb on_phase2) {
  // Raw appends carry no key; the batch stays whole (one append batch =
  // one block's worth of entries) on the logical client's home slot,
  // which never changes across epochs — append streams are not migrated.
  {
    std::lock_guard<std::mutex> lock(mu_);
    RefreshEpochLocked(client);
  }
  const size_t slots = table_->capacity();
  const size_t home = client % slots;
  inner_->Append(PhysicalClient(client, home), std::move(payloads),
                 TranslateBidsCb(std::move(on_phase1), home, slots),
                 TranslateBidsCb(std::move(on_phase2), home, slots));
}

void ShardRouter::Get(size_t client, Key key, GetCb cb) {
  const size_t shard = RouteKey(client, key);
  const size_t phys = PhysicalClient(client, shard);
  if (inner_->EdgeReachable(phys)) {
    inner_->Get(phys, key, std::move(cb));
    return;
  }
  if (!cloud_backup_) {
    // Nothing else holds the shard's recent blocks: a cloud read would
    // answer "not found" for every key the cloud never saw, which is not
    // proof of absence. Fail fast like writes and scans.
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.unreachable_rejects++;
    }
    if (cb) {
      cb(Status::Unavailable("shard " + std::to_string(shard) +
                             "'s edge is crashed or partitioned away and "
                             "the cloud keeps no full backup"),
         GetResult{}, runtime().Now());
    }
    return;
  }
  // Failure-aware degrade: the owning edge is crashed or partitioned
  // away, so serve the read from the cloud's backup instead — slower
  // (wide-area round trip) but still certificate-verified. The store
  // stays available through the fault window rather than timing out.
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.failovers++;
  }
  inner_->CloudGet(phys, key, std::move(cb));
}

void ShardRouter::MultiGet(size_t client, const std::vector<Key>& keys,
                           MultiGetCb cb) {
  if (keys.empty()) {
    const SimTime now = runtime().Now();
    if (cb) cb(Status::OK(), MultiGetResult{{}, now}, now);
    return;
  }
  // Sub-reads complete on different shard executors under
  // ThreadedRuntime, so the join is lock-protected; the final callback
  // fires outside the lock.
  struct Join {
    std::mutex mu;
    size_t waiting = 0;
    Status status;
    MultiGetResult out;
  };
  auto join = std::make_shared<Join>();
  join->waiting = keys.size();
  join->out.results.resize(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    Get(client, keys[i],
        [join, i, cb](const Status& st, GetResult r, SimTime t) {
          Status status;
          MultiGetResult out;
          {
            std::lock_guard<std::mutex> lock(join->mu);
            MergeStatusBySeverity(&join->status, st);
            join->out.at = std::max(join->out.at, t);
            join->out.results[i] = std::move(r);
            if (--join->waiting > 0) return;
            status = join->status;
            out = std::move(join->out);
          }
          if (!cb) return;
          if (!status.ok()) {
            cb(status, MultiGetResult{}, out.at);
          } else {
            const SimTime at = out.at;
            cb(status, std::move(out), at);
          }
        });
  }
}

void ShardRouter::Scan(size_t client, Key lo, Key hi, ScanCb cb) {
  // Sub-scans complete on different shard executors under
  // ThreadedRuntime; the stitch join carries its own lock and the final
  // callback fires outside it.
  struct ScanJoin {
    std::mutex mu;
    size_t waiting = 0;
    Status status;
    bool phase2 = true;
    bool verified = true;
    SimTime at = 0;
    std::vector<KvPair> pairs;
  };

  // Route under the epoch current at issue time, and filter each
  // sub-scan's contribution by that same epoch: a migration installing
  // a newer epoch mid-scan must not drop pairs the source legitimately
  // owned (and still stores) under the epoch this scan was routed by.
  const std::vector<OwnedSlice> slices =
      lo > hi ? std::vector<OwnedSlice>{} : table_->SlicesTouching(lo, hi);
  OwnershipEpoch at_epoch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    RefreshEpochLocked(client);
    at_epoch = table_->epoch();
    for (const OwnedSlice& slice : slices) {
      stats_.ops_per_shard[slice.shard]++;
    }
  }
  if (slices.empty()) {
    // An empty slice set (an inverted lo > hi range — live slices tile
    // the whole key domain, so nothing else produces one) must still
    // answer: with zero sub-scans the join below would start at
    // waiting == 0 and never invoke the callback, hanging any
    // wait-for-completion caller. An empty range is vacuously complete
    // and verified.
    if (cb) {
      ScanResult empty;
      empty.phase2 = true;
      empty.verified = true;
      empty.at = runtime().Now();
      const SimTime at = empty.at;
      cb(Status::OK(), std::move(empty), at);
    }
    return;
  }

  auto join = std::make_shared<ScanJoin>();
  join->waiting = slices.size();
  for (const OwnedSlice& slice : slices) {
    auto sub_cb =
        [join, slice, at_epoch, cb, table = table_](const Status& st,
                                                    ScanResult r, SimTime t) {
          Status status;
          ScanResult out;
          {
            std::lock_guard<std::mutex> lock(join->mu);
            MergeStatusBySeverity(&join->status, st);
            join->at = std::max(join->at, t);
            if (st.ok()) {
              join->phase2 = join->phase2 && r.phase2;
              join->verified = join->verified && r.verified;
              // Proof boundary: this sub-scan contributes only keys its
              // shard owns under the scan's epoch. On the edge backends
              // this is a no-op (each edge's tree holds only its shard);
              // on cloud-only, where every sub-scan hits the same
              // trusted server, it deduplicates the fan-out.
              for (auto& p : r.pairs) {
                if (table->ShardOf(p.key, at_epoch) == slice.shard) {
                  join->pairs.push_back(std::move(p));
                }
              }
            }
            if (--join->waiting > 0) return;
            status = join->status;
            if (status.ok()) {
              std::sort(join->pairs.begin(), join->pairs.end(),
                        [](const KvPair& a, const KvPair& b) {
                          return a.key < b.key;
                        });
              out.pairs = std::move(join->pairs);
              out.phase2 = join->phase2;
              out.verified = join->verified;
            }
            out.at = join->at;
          }
          if (!cb) return;
          const SimTime at = out.at;
          if (!status.ok()) {
            cb(status, ScanResult{}, at);
          } else {
            cb(status, std::move(out), at);
          }
        };
    const size_t phys = PhysicalClient(client, slice.shard);
    if (!inner_->EdgeReachable(phys)) {
      // A sub-scan against an unreachable edge cannot be cloud-served
      // with completeness proofs; fail it fast (which fails the stitched
      // scan) rather than hanging the whole fan-out to the op deadline.
      {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.unreachable_rejects++;
      }
      sub_cb(Status::Unavailable("shard " + std::to_string(slice.shard) +
                                 "'s edge is crashed or partitioned away"),
             ScanResult{}, runtime().Now());
      continue;
    }
    inner_->Scan(phys, slice.lo, slice.hi, std::move(sub_cb));
  }
}

void ShardRouter::ReadBlock(size_t client, BlockId bid, ReadBlockCb cb) {
  const size_t slots = table_->capacity();
  const size_t shard = ShardOfBlockId(bid, slots);
  inner_->ReadBlock(
      PhysicalClient(client, shard), InnerBlockId(bid, slots),
      [cb = std::move(cb), shard, slots](const Status& st, BlockRead r,
                                         SimTime t) {
        // Hand the block back under the id the caller asked by.
        r.block.id = GlobalBlockId(r.block.id, shard, slots);
        cb(st, std::move(r), t);
      });
}

// -------------------------------------------------------------- resharding
//
// The operator entry points post their bodies onto the runtime's control
// executor — inline under the simulator (identical schedules), the
// control worker under ThreadedRuntime — so the coordinator's state
// machine runs control-confined on every runtime. The balancer's hooks
// already run there, so manual and autonomous migrations serialize
// naturally against the single-in-flight rule.

void ShardRouter::SplitShard(size_t shard, SplitCb cb) {
  runtime().ControlExecutor()->Post([this, shard, cb = std::move(cb)]() {
    coordinator_->SplitShard(shard, std::move(cb));
  });
}

void ShardRouter::MergeShards(size_t shard, SplitCb cb) {
  runtime().ControlExecutor()->Post([this, shard, cb = std::move(cb)]() {
    coordinator_->MergeShards(shard, std::move(cb));
  });
}

void ShardRouter::Rebalance(SplitCb cb) {
  runtime().ControlExecutor()->Post(
      [this, cb = std::move(cb)]() { RebalanceOnControl(std::move(cb)); });
}

void ShardRouter::RebalanceOnControl(SplitCb cb) {
  if (!table_->splittable()) {
    // Delegate for the coordinator's precise refusal.
    coordinator_->SplitShard(0, std::move(cb));
    return;
  }
  // Heat-driven victim selection: the hottest shard (routed keyed ops
  // since the last epoch change) that can actually be split — idle
  // slots and shards whose widest slice is a single key are skipped.
  size_t victim = SIZE_MAX;
  uint64_t hottest = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t s = 0; s < table_->capacity(); ++s) {
      const std::optional<OwnedSlice> slice = table_->WidestSliceOf(s);
      if (!slice.has_value() || slice->lo >= slice->hi) continue;
      if (victim == SIZE_MAX || stats_.ops_per_shard[s] > hottest) {
        victim = s;
        hottest = stats_.ops_per_shard[s];
      }
    }
  }
  if (victim == SIZE_MAX) {
    if (cb) {
      cb(Status::FailedPrecondition("no live shard to rebalance"),
         SplitReport{}, runtime().Now());
    }
    return;
  }
  coordinator_->SplitShard(victim, std::move(cb));
}

void ShardRouter::ExportRange(size_t shard, Key lo, Key hi, ExportCb cb) {
  // The export is a completeness-verified scan through the source
  // shard's own client (logical client 0's sub-client): a truncating or
  // tampering source fails verification there as SecurityViolation and
  // the failure aborts the migration upstream.
  inner_->Scan(PhysicalClient(0, shard), lo, hi,
               [cb = std::move(cb)](const Status& st, ScanResult r,
                                    SimTime t) {
                 cb(st, std::move(r.pairs), t);
               });
}

void ShardRouter::ImportPairs(size_t shard, std::vector<KvPair> pairs,
                              PhaseCb applied, PhaseCb certified) {
  // The destination ingests through its normal write path, so the
  // migrated range gets the usual two commit points: Phase I (servable,
  // the handoff point) now, the cloud's certificate lazily.
  std::vector<std::pair<Key, Bytes>> kvs;
  kvs.reserve(pairs.size());
  for (auto& p : pairs) kvs.emplace_back(p.key, std::move(p.value));
  inner_->PutBatch(
      PhysicalClient(0, shard), kvs,
      [applied = std::move(applied)](const Status& st, BlockId, SimTime t) {
        if (applied) applied(st, t);
      },
      [certified = std::move(certified)](const Status& st, BlockId,
                                         SimTime t) {
        if (certified) certified(st, t);
      });
}

void ShardRouter::FenceRange(size_t source, Key lo, Key hi,
                             std::function<void()> quiesced) {
  // Raise the fence and swap the source's gauge in one routing critical
  // section: every write routed before the swap counts on `old` (the
  // set quiescence waits out); every later one either parks on the
  // fence or counts on the fresh gauge. Arm fires `quiesced` when the
  // last pre-fence write reaches Phase I — immediately, outside mu_,
  // when none are in flight.
  std::shared_ptr<WriteGauge> old;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fence_active_ = true;
    fence_lo_ = lo;
    fence_hi_ = hi;
    old = std::move(write_gauges_[source]);
    write_gauges_[source] = std::make_shared<WriteGauge>();
  }
  old->Arm(std::move(quiesced));
}

void ShardRouter::LiftFence() {
  std::vector<std::function<void()>> parked;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fence_active_ = false;
    parked = std::move(parked_);
    parked_.clear();
  }
  for (auto& flush : parked) flush();
}

void ShardRouter::OnEpochInstalled(const MigrationReport& report) {
  // The source's clients may hold verified proof material for keys that
  // just moved; drop it so nothing covering the migrated range can be
  // replayed against the old owner. On a split the invalidation flows
  // toward the idle destination; on a merge, toward the surviving
  // neighbour — either way report.source is the shard whose clients
  // must forget the range.
  for (size_t c = 0; c < logical_clients_; ++c) {
    inner_->InvalidateVerifierRange(PhysicalClient(c, report.source),
                                    report.moved_lo, report.moved_hi);
  }
  ResizeVerifierCaches();
  // A new epoch opens a new heat window for Rebalance.
  std::lock_guard<std::mutex> lock(mu_);
  stats_.ops_per_shard.assign(table_->capacity(), 0);
}

void ShardRouter::ResizeVerifierCaches() {
  // Per-shard cache sizing: each physical client's budget follows the
  // key-span fraction its shard owns (total per logical client =
  // cache_unit_ × capacity), with a small floor for idle slots that
  // never exceeds the unit itself. A split hands the moved range's
  // budget to the destination along with the range, so the warm hit
  // rate on a hot range survives its own split. Hash tables interleave
  // ownership evenly and keep the unit as-is.
  if (!table_->splittable()) return;
  const std::vector<double> fractions = table_->OwnedFractions();
  const double slots = static_cast<double>(table_->capacity());
  auto scaled = [](size_t unit, size_t floor, double scale) {
    return std::max<size_t>(
        std::min(unit, floor),
        static_cast<size_t>(static_cast<double>(unit) * scale));
  };
  for (size_t s = 0; s < table_->capacity(); ++s) {
    const double scale = fractions[s] * slots;
    VerifierCache::Limits limits = cache_unit_;
    limits.max_blocks = scaled(cache_unit_.max_blocks, 8, scale);
    limits.max_parts = scaled(cache_unit_.max_parts, 16, scale);
    for (size_t c = 0; c < logical_clients_; ++c) {
      inner_->ResizeVerifierCache(PhysicalClient(c, s), limits);
    }
  }
}

}  // namespace wedge
