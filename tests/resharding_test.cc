// Tests for dynamic resharding: the epoch-versioned OwnershipTable,
// verified shard splits through the wedge::Store façade on all three
// backends, epoch-aware routing (stale-epoch redirect determinism,
// block-id stability), live-migration correctness (reads/writes during
// the split, parked-write flushing), a tampering source failing the
// migration as SecurityViolation, and verifier-cache invalidation /
// per-shard sizing across epochs.
//
// The store-level suites run on a backend × runtime matrix: all three
// backends under the simulator, plus the wedge backend on real threads
// (with and without the socket transport) now that live migration gates
// on explicit write quiescence instead of virtual-time drains. Threaded
// variants assert only through client-visible results and locked stats
// snapshots; exact mid-migration timing (fence-up observations, precise
// parked counts) stays simulator-only where noted.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <future>
#include <map>
#include <string>
#include <vector>

#include "api/shard_router.h"
#include "api/store.h"
#include "baselines/baseline_deployment.h"
#include "core/deployment.h"
#include "core/partitioner.h"
#include "runtime/runtime.h"
#include "runtime/sim_runtime.h"

namespace wedge {
namespace {

Bytes Val(uint8_t tag) { return Bytes(16, tag); }

// ---------------------------------------------------------- OwnershipTable

TEST(OwnershipTableTest, EpochOneMatchesTheSeedPartitioner) {
  const Partitioner seed = Partitioner::Range(4, 1000);
  OwnershipTable table(seed, 8);
  EXPECT_EQ(table.epoch(), 1u);
  EXPECT_EQ(table.capacity(), 8u);
  EXPECT_TRUE(table.splittable());
  for (Key k = 0; k < 1100; ++k) {
    EXPECT_EQ(table.ShardOf(k), seed.ShardOf(k)) << "key " << k;
  }
  // Slices tile [0, kMaxKey] in order.
  const auto slices = table.Slices(1);
  ASSERT_EQ(slices.size(), 4u);
  Key expect_lo = 0;
  for (const OwnedSlice& sl : slices) {
    EXPECT_EQ(sl.lo, expect_lo);
    expect_lo = sl.hi + 1;
  }
  EXPECT_EQ(slices.back().hi, kMaxKey);
}

TEST(OwnershipTableTest, HashMultiShardIsNotSplittable) {
  OwnershipTable table(Partitioner::Hash(4), 4);
  EXPECT_FALSE(table.splittable());
  EXPECT_EQ(table.epoch(), 1u);
  EXPECT_TRUE(table.InstallSplit(0, 2, 100).status().IsFailedPrecondition());
  // Hash scans fan out one full-range pseudo-slice per shard.
  const auto slices = table.SlicesTouching(10, 20);
  ASSERT_EQ(slices.size(), 4u);
  for (const OwnedSlice& sl : slices) {
    EXPECT_EQ(sl.lo, 10u);
    EXPECT_EQ(sl.hi, 20u);
  }
  // Routing still delegates to the hash function.
  EXPECT_EQ(table.ShardOf(12345), Partitioner::Hash(4).ShardOf(12345));
}

TEST(OwnershipTableTest, InstallSplitBumpsEpochAndKeepsHistory) {
  OwnershipTable table(Partitioner::Range(2, 1000), 4);
  // Shard 0 owns [0, 499]; move [250, 499] to slot 2.
  ASSERT_EQ(table.FirstIdleShard().value(), 2u);
  auto e = table.InstallSplit(0, 2, 250);
  ASSERT_TRUE(e.ok()) << e.status();
  EXPECT_EQ(*e, 2u);
  EXPECT_EQ(table.epoch(), 2u);

  // Current epoch: the moved range belongs to the destination.
  EXPECT_EQ(table.ShardOf(100), 0u);
  EXPECT_EQ(table.ShardOf(250), 2u);
  EXPECT_EQ(table.ShardOf(499), 2u);
  EXPECT_EQ(table.ShardOf(500), 1u);
  // Historical epoch 1 is unchanged — the stale view a lagging client
  // routes (and gets redirected) by.
  EXPECT_EQ(table.ShardOf(250, 1), 0u);
  EXPECT_EQ(table.ShardOf(499, 1), 0u);

  // The new epoch still tiles the domain.
  const auto slices = table.Slices(2);
  ASSERT_EQ(slices.size(), 3u);
  Key expect_lo = 0;
  for (const OwnedSlice& sl : slices) {
    EXPECT_EQ(sl.lo, expect_lo);
    expect_lo = sl.hi + 1;
  }
  EXPECT_EQ(table.LiveShards(), 3u);
  EXPECT_EQ(table.FirstIdleShard().value(), 3u);

  // Degenerate splits are refused.
  EXPECT_FALSE(table.InstallSplit(0, 3, 0).ok());     // empty source half
  EXPECT_FALSE(table.InstallSplit(1, 1, 600).ok());   // source == dest
  EXPECT_FALSE(table.InstallSplit(3, 0, 600).ok());   // idle source
}

TEST(OwnershipTableTest, OwnedFractionsFollowSplits) {
  OwnershipTable table(Partitioner::Range(2, 1000), 4);
  // Fractions are over the configured span: the last shard's tail to
  // kMaxKey counts as its in-span slice, not the whole uint64 line.
  auto f1 = table.OwnedFractions();
  EXPECT_NEAR(f1[0], 0.5, 1e-9);
  EXPECT_NEAR(f1[1], 0.5, 1e-9);
  EXPECT_NEAR(f1[2], 0.0, 1e-9);
  ASSERT_TRUE(table.InstallSplit(0, 2, 250).ok());
  auto f2 = table.OwnedFractions();
  EXPECT_NEAR(f2[0], 0.25, 1e-9);
  EXPECT_NEAR(f2[2], 0.25, 1e-9);
  // The old hot range's share is conserved across its own split — which
  // is what keeps that range's total cache budget intact.
  EXPECT_NEAR(f2[0] + f2[2], f1[0], 1e-9);
}

// ----------------------------------------------------- merge installation

TEST(OwnershipTableTest, MergePlanPrefersTheLeftNeighbour) {
  OwnershipTable table(Partitioner::Range(2, 1000), 4);
  ASSERT_TRUE(table.InstallSplit(0, 2, 250).ok());
  // Slices: [0,249]@0, [250,499]@2, [500,max]@1.
  const auto plan2 = table.MergePlanFor(2);
  ASSERT_TRUE(plan2.has_value());
  EXPECT_EQ(plan2->survivor, 0u);  // left neighbour wins over right
  EXPECT_EQ(plan2->slice, (OwnedSlice{250, 499, 2}));
  // The first slice has no left neighbour: the right one absorbs it.
  const auto plan0 = table.MergePlanFor(0);
  ASSERT_TRUE(plan0.has_value());
  EXPECT_EQ(plan0->survivor, 2u);
  // Idle slots and hash tables have no plan.
  EXPECT_FALSE(table.MergePlanFor(3).has_value());
  OwnershipTable hash(Partitioner::Hash(4), 4);
  EXPECT_FALSE(hash.MergePlanFor(0).has_value());
  // A shard owning the whole domain has no neighbour to absorb it.
  OwnershipTable whole(Partitioner::Range(1, 1000), 2);
  EXPECT_FALSE(whole.MergePlanFor(0).has_value());
}

TEST(OwnershipTableTest, InstallMergeCoalescesAndFreesTheSlot) {
  OwnershipTable table(Partitioner::Range(2, 1000), 4);
  ASSERT_TRUE(table.InstallSplit(0, 2, 250).ok());
  ASSERT_EQ(table.LiveShards(), 3u);
  ASSERT_EQ(table.FirstIdleShard().value(), 3u);

  auto e = table.InstallMerge(2, 0, 250, 499);
  ASSERT_TRUE(e.ok()) << e.status();
  EXPECT_EQ(*e, 3u);
  EXPECT_EQ(table.epoch(), 3u);
  // The survivor's slice re-coalesced to the pre-split shape and the
  // absorbed slot is idle again — the next split's destination.
  const auto slices = table.Slices(3);
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[0], (OwnedSlice{0, 499, 0}));
  EXPECT_EQ(table.LiveShards(), 2u);
  EXPECT_EQ(table.FirstIdleShard().value(), 2u);
  // Every historical epoch stays queryable: epoch 2 still names the
  // absorbed slot as the owner of the merged range.
  EXPECT_EQ(table.ShardOf(300, 2), 2u);
  EXPECT_EQ(table.ShardOf(300, 3), 0u);
  EXPECT_EQ(table.ShardOf(300), 0u);

  // Degenerate merges are refused with ownership unchanged.
  EXPECT_FALSE(table.InstallMerge(0, 0, 0, 499).ok());    // source == survivor
  EXPECT_FALSE(table.InstallMerge(0, 1, 0, 300).ok());    // not a whole slice
  EXPECT_FALSE(table.InstallMerge(3, 0, 500, 900).ok());  // idle source
  EXPECT_EQ(table.epoch(), 3u);
  // Non-adjacent survivor: [0,499]@0 and the tail's owner 1 are
  // adjacent here, so split first to create a non-adjacent pair.
  ASSERT_TRUE(table.InstallSplit(1, 2, 750).ok());
  // Slices: [0,499]@0, [500,749]@1, [750,max]@2. 0 and 2 not adjacent.
  EXPECT_TRUE(
      table.InstallMerge(2, 0, 750, kMaxKey).status().IsFailedPrecondition());
}

// ------------------------------------------------- façade split round trip

/// One cell of the resharding matrix: which backend serves and which
/// runtime executes (optionally over the socket transport).
struct ReshardCase {
  BackendKind backend = BackendKind::kWedge;
  RuntimeKind runtime = RuntimeKind::kSim;
  bool socket = false;
};

StoreOptions ReshardOptions(const ReshardCase& c) {
  StoreOptions o;
  o.WithBackend(c.backend)
      .WithRuntime(c.runtime)
      .WithSeed(7)
      .WithOpsPerBlock(4)
      .WithLsm({3, 2, 8}, 8)
      .WithProofTimeout(2 * kSecond)
      .WithShards(2, ShardScheme::kRange, /*range_span=*/1000)
      .WithShardCapacity(4)
      .WithDrainDelay(200 * kMillisecond);
  if (c.socket) o.WithSocketTransport();
  o.deploy.net.jitter_frac = 0.0;
  return o;
}

StoreOptions ReshardOptions(BackendKind kind) {
  return ReshardOptions(ReshardCase{kind, RuntimeKind::kSim, false});
}

/// Runs `fn` on the wedge edge's own executor and waits for it — the
/// runtime-neutral way to flip misbehavior knobs (edge state is only
/// safe to touch from its worker thread under ThreadedRuntime).
void OnWedgeEdge(Store& store, size_t edge_index,
                 const std::function<void()>& fn) {
  Executor* exec = store.runtime().ExecutorFor(
      store.wedge().edge(edge_index).id(), ExecRole::kDedicated);
  std::promise<void> done;
  exec->Post([&] {
    fn();
    done.set_value();
  });
  done.get_future().wait();
}

/// Polls `probe` across migration windows: runs the deployment in short
/// slices (virtual time under sim, wall time under threads) until the
/// probe holds or the budget is spent.
bool RunUntilTrue(Store& store, const std::function<bool()>& probe,
                  SimTime slice = 200 * kMillisecond, int max_slices = 50) {
  for (int i = 0; i < max_slices; ++i) {
    if (probe()) return true;
    store.RunFor(slice);
  }
  return probe();
}

/// Client-visible state over a fixed key set: value-by-key plus one
/// stitched scan. Versions/block ids are intentionally absent (per-edge
/// numbering legitimately changes across a migration re-apply).
struct Visible {
  std::map<Key, std::pair<bool, Bytes>> gets;
  std::vector<std::pair<Key, Bytes>> scan;
};

Visible Snapshot(Store& store, const std::vector<Key>& keys, Key lo, Key hi) {
  Visible v;
  for (Key k : keys) {
    auto got = store.Get(k);
    EXPECT_TRUE(got.ok()) << "key " << k << ": " << got.status();
    if (got.ok()) v.gets[k] = {got->found, got->value};
  }
  auto scan = store.Scan(lo, hi);
  EXPECT_TRUE(scan.ok()) << scan.status();
  if (scan.ok()) {
    for (const auto& p : scan->pairs) v.scan.emplace_back(p.key, p.value);
  }
  return v;
}

class ReshardingStoreTest : public ::testing::TestWithParam<ReshardCase> {
 protected:
  bool Sim() const { return GetParam().runtime == RuntimeKind::kSim; }
  /// Virtual settle time under sim; a tenth of it in wall time under
  /// threads, where background work proceeds at real network speed.
  void Settle(Store& store, SimTime t) { store.RunFor(Sim() ? t : t / 10); }
};

// The tentpole acceptance: the identical key set reads identically
// before, during, and after a verified split, on every backend.
TEST_P(ReshardingStoreTest, SplitPreservesClientVisibleResults) {
  auto opened = Store::Open(ReshardOptions(GetParam()));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);
  EXPECT_EQ(store.shard_count(), 4u) << "capacity slots";
  EXPECT_EQ(store.ownership_epoch(), 1u);

  // Keys across both live shards, including the range a split of shard 0
  // will move ([250, 499] of its [0, 499] slice).
  std::vector<Key> keys;
  std::vector<std::pair<Key, Bytes>> kvs;
  for (Key k = 0; k < 1000; k += 50) {
    keys.push_back(k);
    kvs.emplace_back(k, Val(1));
  }
  ASSERT_TRUE(store.PutBatch(kvs).WaitPhase2().ok());
  Settle(store, kSecond);

  const Visible before = Snapshot(store, keys, 0, 999);
  ASSERT_EQ(before.scan.size(), keys.size());

  auto report = store.SplitShard(0);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->epoch, 2u);
  EXPECT_EQ(report->source, 0u);
  EXPECT_EQ(report->dest, 2u);
  EXPECT_EQ(report->moved_lo, 250u);
  EXPECT_EQ(report->moved_hi, 499u);
  EXPECT_GT(report->pairs_moved, 0u);
  EXPECT_EQ(store.ownership_epoch(), 2u);

  // "During": the handoff certificate is still lazy — results must
  // already be identical at Phase-I trust.
  const Visible during = Snapshot(store, keys, 0, 999);
  EXPECT_EQ(during.gets, before.gets);
  EXPECT_EQ(during.scan, before.scan);

  EXPECT_TRUE(RunUntilTrue(store, [&] {
    return store.stats().resharding.splits_certified >= 1;
  })) << "lazy handoff certificate never landed";

  const Visible after = Snapshot(store, keys, 0, 999);
  EXPECT_EQ(after.gets, before.gets);
  EXPECT_EQ(after.scan, before.scan);

  // New writes to the migrated range land on (and read from) the new
  // owner.
  ASSERT_TRUE(store.PutBatch({{300, Val(9)}, {310, Val(9)}, {320, Val(9)},
                              {330, Val(9)}})
                  .WaitPhase2()
                  .ok());
  auto got = store.Get(300);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->value, Val(9));
}

// A second split (of the other live shard) composes: three epochs, four
// live shards, same client-visible state.
TEST_P(ReshardingStoreTest, RepeatedSplitsCompose) {
  auto opened = Store::Open(ReshardOptions(GetParam()));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  std::vector<Key> keys;
  std::vector<std::pair<Key, Bytes>> kvs;
  for (Key k = 5; k < 1000; k += 40) {
    keys.push_back(k);
    kvs.emplace_back(k, Val(4));
  }
  ASSERT_TRUE(store.PutBatch(kvs).WaitPhase2().ok());
  Settle(store, kSecond);
  const Visible before = Snapshot(store, keys, 0, 999);

  ASSERT_TRUE(store.SplitShard(0).ok());
  auto second = store.SplitShard(1);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->dest, 3u);
  EXPECT_EQ(store.ownership_epoch(), 3u);
  EXPECT_EQ(store.ownership()->LiveShards(), 4u);

  const Visible after = Snapshot(store, keys, 0, 999);
  EXPECT_EQ(after.gets, before.gets);
  EXPECT_EQ(after.scan, before.scan);

  // Capacity exhausted: a third split has no idle slot.
  EXPECT_TRUE(store.SplitShard(0).status().IsFailedPrecondition());
}

// Reads and writes issued while the migration is in flight (fence up,
// export/import pending) stay correct: reads serve from the source until
// the epoch installs, fenced writes park and commit to the new owner.
TEST_P(ReshardingStoreTest, LiveTrafficDuringMigration) {
  auto opened = Store::Open(ReshardOptions(GetParam()));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  std::vector<std::pair<Key, Bytes>> kvs;
  for (Key k = 250; k < 500; k += 25) kvs.emplace_back(k, Val(1));
  ASSERT_TRUE(store.PutBatch(kvs).WaitPhase2().ok());
  Settle(store, kSecond);

  // Start the split asynchronously so traffic can interleave with it.
  std::atomic<bool> split_done{false};
  Status split_status;
  store.backend().SplitShard(
      0, [&](const Status& s, const SplitReport&, SimTime) {
        split_status = s;
        split_done.store(true, std::memory_order_release);
      });

  // A read of a moving key during the fence window serves from the
  // source (still the owner under the current epoch).
  auto during_read = store.Get(250);
  ASSERT_TRUE(during_read.ok()) << during_read.status();
  EXPECT_EQ(during_read->value, Val(1));
  if (Sim()) {
    // Exact interleaving is deterministic only under the simulator; on
    // threads the drain may already have elapsed in wall time.
    ASSERT_FALSE(split_done.load()) << "split should still be draining";
  }

  // A write into the moving range parks behind the fence (or, under
  // threads, lands on the source before the fence and is exported) and
  // commits to the post-split owner either way.
  CommitHandle parked = store.Put(275, Val(7));
  auto p1 = parked.WaitPhase1();
  ASSERT_TRUE(p1.ok()) << p1.status();
  if (Sim()) {
    EXPECT_TRUE(split_done.load()) << "parked write must flush at epoch install";
  }
  ASSERT_TRUE(RunUntilTrue(store, [&] {
    return split_done.load(std::memory_order_acquire);
  })) << "split never completed";
  ASSERT_TRUE(split_status.ok()) << split_status;
  if (Sim()) {
    EXPECT_GE(store.stats().router.writes_parked, 1u);
  }

  // The parked write beat the migrated (older) copy: newest wins.
  auto got = store.Get(275);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->value, Val(7));
  // And an untouched migrated key reads its pre-split value.
  auto kept = store.Get(425);
  ASSERT_TRUE(kept.ok()) << kept.status();
  EXPECT_EQ(kept->value, Val(1));
}

// Requests carry the client's epoch: a logical client that has not
// touched the store since before the split is redirected (deterministic,
// not an error) exactly once, then its view is current.
TEST_P(ReshardingStoreTest, StaleEpochRedirectIsDeterministic) {
  StoreOptions o = ReshardOptions(GetParam());
  o.WithClients(2);
  auto opened = Store::Open(o);
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  ASSERT_TRUE(store.PutBatch({{260, Val(2)}, {270, Val(2)}, {280, Val(2)},
                              {290, Val(2)}})
                  .WaitPhase2()
                  .ok());
  Settle(store, kSecond);

  // Both clients observe epoch 1; only the split itself advances it.
  ASSERT_TRUE(store.Get(260, /*client=*/1).ok());
  ASSERT_TRUE(store.SplitShard(0).ok());

  // Stats via the locked snapshot: ops are sequential, so the counters
  // are exact on both runtimes.
  const uint64_t redirects_before = store.stats().router.stale_redirects;

  // Client 1 still holds epoch 1; its get of a migrated key redirects
  // to the new owner and returns the right value.
  auto got = store.Get(260, /*client=*/1);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->value, Val(2));
  EXPECT_EQ(store.stats().router.stale_redirects, redirects_before + 1);

  // The retry refreshed the view: the second access does not redirect.
  ASSERT_TRUE(store.Get(260, /*client=*/1).ok());
  EXPECT_EQ(store.stats().router.stale_redirects, redirects_before + 1);
}

// Router-scoped block ids are minted with the slot capacity as modulus,
// so an id handed out under epoch 1 still reads back after a split.
TEST_P(ReshardingStoreTest, BlockIdsStayStableAcrossEpochs) {
  auto opened = Store::Open(ReshardOptions(GetParam()));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  ASSERT_TRUE(store.PutBatch({{300, Val(3)}, {310, Val(3)}, {320, Val(3)},
                              {330, Val(3)}})
                  .WaitPhase2()
                  .ok());
  CommitHandle h = store.Append({Bytes{'a'}, Bytes{'b'}, Bytes{'c'},
                                 Bytes{'d'}});
  auto p1 = h.WaitPhase1();
  ASSERT_TRUE(p1.ok()) << p1.status();
  ASSERT_TRUE(h.WaitPhase2().ok());
  Settle(store, kSecond);

  ASSERT_TRUE(store.SplitShard(0).ok());

  auto read = store.ReadBlock(p1->block);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->block.id, p1->block);
  EXPECT_EQ(read->block.entries.size(), 4u);
}

// Scatter-gather MultiGet spans the split transparently.
TEST_P(ReshardingStoreTest, MultiGetSpansTheSplit) {
  auto opened = Store::Open(ReshardOptions(GetParam()));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  std::vector<std::pair<Key, Bytes>> kvs;
  for (Key k = 100; k < 900; k += 100) kvs.emplace_back(k, Val(6));
  ASSERT_TRUE(store.PutBatch(kvs).WaitPhase2().ok());
  Settle(store, kSecond);
  ASSERT_TRUE(store.SplitShard(0).ok());

  // Keys on the shrunken source, the migrated range, shard 1, and a
  // miss — one batch, positional results.
  const std::vector<Key> keys{100, 300, 400, 700, 999};
  auto multi = store.MultiGet(keys);
  ASSERT_TRUE(multi.ok()) << multi.status();
  ASSERT_EQ(multi->results.size(), keys.size());
  for (size_t i = 0; i + 1 < keys.size(); ++i) {
    EXPECT_TRUE(multi->results[i].found) << "key " << keys[i];
    EXPECT_EQ(multi->results[i].value, Val(6));
  }
  EXPECT_FALSE(multi->results.back().found);
}

// Open-time validation of the resharding option surface: misconfigured
// stores are InvalidArgument at Open, never a surprise at the first
// split.
TEST(ReshardingStoreTest, OpenRejectsUnusableReshardingConfigs) {
  {
    // Spare capacity under hash sharding can never become live.
    StoreOptions o;
    o.WithShards(2, ShardScheme::kHash).WithShardCapacity(4);
    EXPECT_TRUE(Store::Open(o).status().IsInvalidArgument());
  }
  {
    // A drain window shorter than the edge's partial-flush delay would
    // let in-flight writes miss the migration export.
    StoreOptions o = ReshardOptions(BackendKind::kWedge);
    o.WithDrainDelay(10 * kMillisecond);  // < 2x 50ms partial flush
    EXPECT_TRUE(Store::Open(o).status().IsInvalidArgument());
  }
  {
    // The drain floor binds merge-capable configs too: two live range
    // shards with no spare slot can still MergeShards, so a tiny drain
    // is just as unsafe without any split capacity.
    StoreOptions o;
    o.WithOpsPerBlock(4)
        .WithShards(2, ShardScheme::kRange, 1000)
        .WithDrainDelay(10 * kMillisecond);
    EXPECT_TRUE(Store::Open(o).status().IsInvalidArgument());
  }
}

// Without a range_span there is no sane split point inside a slice that
// runs to kMaxKey: the split is refused rather than installed as a
// useless no-op migrating an empty astronomic range.
TEST(ReshardingStoreTest, UnboundedSliceRefusesToSplit) {
  StoreOptions o;
  o.WithOpsPerBlock(4).WithShards(1).WithShardCapacity(2);
  auto opened = Store::Open(o);
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);
  ASSERT_TRUE(store.Put(42, Val(1)).WaitPhase2().ok());

  auto r = store.SplitShard(0);
  EXPECT_TRUE(r.status().IsFailedPrecondition()) << r.status();
  EXPECT_EQ(store.ownership_epoch(), 1u);

  // With a span bounding the domain, the same single-seed-shard layout
  // splits fine.
  StoreOptions bounded;
  bounded.WithOpsPerBlock(4)
      .WithShards(1, ShardScheme::kRange, /*range_span=*/100)
      .WithShardCapacity(2)
      .WithDrainDelay(200 * kMillisecond);
  Store s2 = *Store::Open(bounded);
  ASSERT_TRUE(s2.PutBatch({{10, Val(1)}, {60, Val(1)}, {70, Val(1)},
                           {80, Val(1)}})
                  .WaitPhase2()
                  .ok());
  auto split = s2.SplitShard(0);
  ASSERT_TRUE(split.ok()) << split.status();
  EXPECT_EQ(split->moved_lo, 50u);
  EXPECT_GT(split->pairs_moved, 0u);
  auto got = s2.Get(60);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->value, Val(1));
}

// A split whose moving range stores nothing is a data-free handoff: the
// returned report is already certified (there is nothing for the cloud
// to certify lazily), matching the coordinator's own view.
TEST(ReshardingStoreTest, EmptyRangeSplitReportsCertified) {
  auto opened = Store::Open(ReshardOptions(BackendKind::kWedge));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  // Data only below the future split point (250) and on shard 1.
  ASSERT_TRUE(store.PutBatch({{10, Val(1)}, {20, Val(1)}, {600, Val(1)},
                              {700, Val(1)}})
                  .WaitPhase2()
                  .ok());
  store.RunFor(kSecond);

  auto report = store.SplitShard(0);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->pairs_moved, 0u);
  EXPECT_TRUE(report->certified)
      << "a data-free handoff must come back final";
  EXPECT_TRUE(store.resharding()->last_split().certified);
  EXPECT_EQ(store.resharding()->stats().splits_certified, 1u);
  EXPECT_EQ(store.ownership_epoch(), 2u);
}

// ------------------------------------------------- façade merge round trip

// The merge mirror of SplitPreservesClientVisibleResults: the identical
// key set reads identically before, during (handoff certificate still
// lazy), and after a verified merge, on every backend.
TEST_P(ReshardingStoreTest, MergePreservesClientVisibleResults) {
  auto opened = Store::Open(ReshardOptions(GetParam()));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  std::vector<Key> keys;
  std::vector<std::pair<Key, Bytes>> kvs;
  for (Key k = 0; k < 1000; k += 50) {
    keys.push_back(k);
    kvs.emplace_back(k, Val(2));
  }
  ASSERT_TRUE(store.PutBatch(kvs).WaitPhase2().ok());
  Settle(store, kSecond);

  // Split first so there is a split-born slot to merge away, and let its
  // handoff certificate land before merging the slot back.
  ASSERT_TRUE(store.SplitShard(0).ok());
  EXPECT_TRUE(RunUntilTrue(store, [&] {
    return store.stats().resharding.splits_certified >= 1;
  }));
  const Visible before = Snapshot(store, keys, 0, 999);
  ASSERT_EQ(before.scan.size(), keys.size());

  auto report = store.MergeShards(2);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->kind, MigrationKind::kMerge);
  EXPECT_EQ(report->epoch, 3u);
  EXPECT_EQ(report->source, 2u);
  EXPECT_EQ(report->dest, 0u);
  EXPECT_EQ(report->moved_lo, 250u);
  EXPECT_EQ(report->moved_hi, 499u);
  EXPECT_GT(report->pairs_moved, 0u);
  EXPECT_EQ(store.ownership_epoch(), 3u);
  EXPECT_EQ(store.ownership()->LiveShards(), 2u);
  // The absorbed slot went back to the idle pool.
  EXPECT_EQ(store.ownership()->FirstIdleShard().value(), 2u);

  // "During": the merge's handoff certificate is still lazy — results
  // must already be identical at Phase-I trust.
  const Visible during = Snapshot(store, keys, 0, 999);
  EXPECT_EQ(during.gets, before.gets);
  EXPECT_EQ(during.scan, before.scan);

  EXPECT_TRUE(RunUntilTrue(store, [&] {
    return store.stats().resharding.merges_certified >= 1;
  })) << "lazy merge handoff certificate never landed";
  EXPECT_EQ(store.stats().resharding.merges_applied, 1u);
  EXPECT_EQ(store.stats().resharding.merges_certified, 1u);

  const Visible after = Snapshot(store, keys, 0, 999);
  EXPECT_EQ(after.gets, before.gets);
  EXPECT_EQ(after.scan, before.scan);

  // New writes to the merged-away range land on (and read from) the
  // surviving neighbour.
  ASSERT_TRUE(store.PutBatch({{300, Val(9)}, {310, Val(9)}, {320, Val(9)},
                              {330, Val(9)}})
                  .WaitPhase2()
                  .ok());
  auto got = store.Get(300);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->value, Val(9));
}

// The full lifecycle inside a fixed capacity: split twice to exhaustion,
// merge a cooled shard, and the freed slot hosts the next split — the
// slot economy that keeps WithShardCapacity sufficient forever.
TEST_P(ReshardingStoreTest, SplitMergeSplitCycleReusesTheFreedSlot) {
  auto opened = Store::Open(ReshardOptions(GetParam()));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  std::vector<Key> keys;
  std::vector<std::pair<Key, Bytes>> kvs;
  for (Key k = 5; k < 1000; k += 40) {
    keys.push_back(k);
    kvs.emplace_back(k, Val(3));
  }
  ASSERT_TRUE(store.PutBatch(kvs).WaitPhase2().ok());
  Settle(store, kSecond);
  const Visible before = Snapshot(store, keys, 0, 999);

  ASSERT_TRUE(store.SplitShard(0).ok());  // dest 2
  ASSERT_TRUE(store.SplitShard(1).ok());  // dest 3
  // Capacity exhausted: the next split has no slot...
  ASSERT_TRUE(store.SplitShard(0).status().IsFailedPrecondition());
  // ...until a merge reclaims one.
  auto merged = store.MergeShards(2);
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(store.ownership()->FirstIdleShard().value(), 2u);
  auto resplit = store.SplitShard(1);
  ASSERT_TRUE(resplit.ok()) << resplit.status();
  EXPECT_EQ(resplit->dest, 2u) << "the freed slot must host the re-split";
  EXPECT_EQ(store.ownership_epoch(), 5u);

  Settle(store, 2 * kSecond);
  const Visible after = Snapshot(store, keys, 0, 999);
  EXPECT_EQ(after.gets, before.gets);
  EXPECT_EQ(after.scan, before.scan);

  // Every applied migration kept its own certified report.
  const ReshardingCoordinator::Stats rs = store.stats().resharding;
  EXPECT_EQ(rs.splits_applied, 3u);
  EXPECT_EQ(rs.merges_applied, 1u);
  EXPECT_EQ(rs.certify_failures, 0u);
  if (Sim()) {
    ASSERT_NE(store.resharding(), nullptr);
    const auto& applied = store.resharding()->applied_migrations();
    EXPECT_EQ(applied.size(), 4u);
    for (const auto& [seq, r] : applied) {
      EXPECT_TRUE(r.certified || r.pairs_moved == 0)
          << MigrationKindToString(r.kind) << " seq " << seq
          << " never certified";
      EXPECT_FALSE(r.certify_failed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndRuntimes, ReshardingStoreTest,
    ::testing::Values(
        ReshardCase{BackendKind::kCloudOnly, RuntimeKind::kSim, false},
        ReshardCase{BackendKind::kEdgeBaseline, RuntimeKind::kSim, false},
        ReshardCase{BackendKind::kWedge, RuntimeKind::kSim, false},
        ReshardCase{BackendKind::kWedge, RuntimeKind::kThreaded, false},
        ReshardCase{BackendKind::kWedge, RuntimeKind::kThreaded, true}),
    [](const ::testing::TestParamInfo<ReshardCase>& info) {
      std::string name(BackendKindToString(info.param.backend));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      if (info.param.socket) return name + "_socket";
      name += info.param.runtime == RuntimeKind::kSim ? "_sim" : "_threaded";
      return name;
    });

// ------------------------------------------------- tampering source shard

class ReshardingSecurityTest : public ::testing::TestWithParam<RuntimeKind> {
 protected:
  bool Sim() const { return GetParam() == RuntimeKind::kSim; }
  void Settle(Store& store, SimTime t) { store.RunFor(Sim() ? t : t / 10); }
};

// A source that truncates its export scan fails the migration as
// SecurityViolation — never as silently dropped keys. Ownership stays at
// epoch 1, the lying edge is punished through the usual dispute path
// (its identity revoked, §IV-E), honest shards keep serving, and the
// migration fence is lifted. Runs on both runtimes: under threads the
// misbehavior flip marshals onto the edge's worker and the assertions
// read locked snapshots.
TEST_P(ReshardingSecurityTest, TamperingSourceFailsTheMigration) {
  StoreOptions o = ReshardOptions(ReshardCase{BackendKind::kWedge,
                                              GetParam(), false});
  o.WithLsm({2, 2, 8}, 4);  // small pages: the export spans page runs
  auto opened = Store::Open(o);
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  std::vector<std::pair<Key, Bytes>> kvs;
  for (Key k = 250; k < 1000; k += 10) kvs.emplace_back(k, Val(8));
  ASSERT_TRUE(store.PutBatch(kvs).WaitPhase2().ok());
  Settle(store, 5 * kSecond);  // merge into paged levels

  OnWedgeEdge(store, 0, [&store] {
    store.wedge().edge(0).misbehavior().truncate_scans = true;
  });

  // Start the split asynchronously (the fence goes up immediately), then
  // write into the moving range so the write parks behind the fence.
  std::atomic<bool> split_done{false};
  Status split_status;
  store.backend().SplitShard(
      0, [&](const Status& s, const SplitReport&, SimTime) {
        split_status = s;
        split_done.store(true, std::memory_order_release);
      });
  store.backend().PutBatch(0, {{260, Val(9)}}, nullptr, nullptr);
  if (Sim()) {
    EXPECT_EQ(store.stats().router.writes_parked, 1u);
  }

  ASSERT_TRUE(RunUntilTrue(store, [&] {
    return split_done.load(std::memory_order_acquire);
  })) << "split never resolved";
  EXPECT_TRUE(split_status.IsSecurityViolation())
      << "a lying source must fail the split as SecurityViolation, got "
      << split_status;
  EXPECT_EQ(store.ownership_epoch(), 1u) << "ownership must not change";
  EXPECT_EQ(store.stats().resharding.splits_failed, 1u);

  // The lie is self-convicting evidence: the export client disputed it
  // and the cloud revoked the lying edge's identity (the dispute travels
  // asynchronously; poll for it).
  Deployment& d = store.wedge();
  EXPECT_TRUE(RunUntilTrue(store, [&] {
    return d.authority().IsPunished(d.edge(0).id());
  })) << "the tampering source must be punished through the dispute path";

  // Honest shards keep serving through the same store.
  auto honest = store.Get(700);
  ASSERT_TRUE(honest.ok()) << honest.status();
  EXPECT_EQ(honest->value, Val(8));

  // The fence was lifted with the abort: new writes into the formerly
  // moving range are routed (to the unchanged owner), not parked.
  const uint64_t parked = store.stats().router.writes_parked;
  store.backend().PutBatch(0, {{270, Val(9)}}, nullptr, nullptr);
  if (!Sim()) Settle(store, kSecond);
  EXPECT_EQ(store.stats().router.writes_parked, parked)
      << "the aborted migration must not leave its fence behind";
}

// A merge source that truncates its export fails the merge the same way
// a lying split source fails the split: SecurityViolation, ownership
// unchanged, punishment, fence lifted.
TEST_P(ReshardingSecurityTest, TamperingSourceFailsTheMerge) {
  StoreOptions o = ReshardOptions(ReshardCase{BackendKind::kWedge,
                                              GetParam(), false});
  o.WithLsm({2, 2, 8}, 4);  // small pages: the export spans page runs
  auto opened = Store::Open(o);
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  std::vector<std::pair<Key, Bytes>> kvs;
  for (Key k = 250; k < 500; k += 5) kvs.emplace_back(k, Val(8));
  ASSERT_TRUE(store.PutBatch(kvs).WaitPhase2().ok());
  Settle(store, 5 * kSecond);  // merge into paged levels

  // A clean split seeds slot 2 with [250, 499]; then that slot starts
  // lying when asked to export it back.
  ASSERT_TRUE(store.SplitShard(0).ok());
  EXPECT_TRUE(RunUntilTrue(store, [&] {
    return store.stats().resharding.splits_certified >= 1;
  }));
  OnWedgeEdge(store, 2, [&store] {
    store.wedge().edge(2).misbehavior().truncate_scans = true;
  });

  auto merged = store.MergeShards(2);
  EXPECT_TRUE(merged.status().IsSecurityViolation())
      << "a lying merge source must fail as SecurityViolation, got "
      << merged.status();
  EXPECT_EQ(store.ownership_epoch(), 2u) << "ownership must not change";
  EXPECT_EQ(store.stats().resharding.merges_failed, 1u);
  EXPECT_EQ(store.stats().resharding.merges_applied, 0u);

  // The dispute travels to the cloud asynchronously; poll for it.
  Deployment& d = store.wedge();
  EXPECT_TRUE(RunUntilTrue(store, [&] {
    return d.authority().IsPunished(d.edge(2).id());
  })) << "the tampering merge source must be punished";

  // Honest shards keep serving (the lying edge still owns [250, 499];
  // shard 1's range is untouched), and the aborted merge left no fence:
  // a write into the formerly moving range routes, not parks.
  auto other = store.Get(700);
  ASSERT_TRUE(other.ok()) << other.status();
  const uint64_t parked = store.stats().router.writes_parked;
  store.backend().PutBatch(0, {{260, Val(9)}}, nullptr, nullptr);
  if (!Sim()) Settle(store, kSecond);
  EXPECT_EQ(store.stats().router.writes_parked, parked)
      << "the aborted merge must not leave its fence behind";
}

INSTANTIATE_TEST_SUITE_P(
    BothRuntimes, ReshardingSecurityTest,
    ::testing::Values(RuntimeKind::kSim, RuntimeKind::kThreaded),
    [](const ::testing::TestParamInfo<RuntimeKind>& i) {
      return i.param == RuntimeKind::kSim ? std::string("sim")
                                          : std::string("threaded");
    });

// -------------------------------------------------- bugfix regressions

// A certificate for a migration that later migrations superseded must
// still finalize its own report (the seq != applied_seq_ guard used to
// drop it, permanently under-counting splits_certified). Driven through
// a fake host so the certificate's arrival order is exact.
class ManualHost : public ShardMigrationHost {
 public:
  void ExportRange(size_t, Key lo, Key hi, ExportCb cb) override {
    std::vector<KvPair> pairs;
    pairs.push_back(KvPair{lo, Bytes(4, 0x1), 1});
    pairs.push_back(KvPair{hi, Bytes(4, 0x1), 1});
    cb(Status::OK(), std::move(pairs), 0);
  }
  void ImportPairs(size_t, std::vector<KvPair>, PhaseCb applied,
                   PhaseCb certified) override {
    applied(Status::OK(), 0);
    held_certs.push_back(std::move(certified));  // land them by hand
  }
  void FenceRange(size_t, Key, Key, std::function<void()> quiesced) override {
    quiesced();  // nothing in flight: the fake host quiesces instantly
  }
  void LiftFence() override {}
  void OnEpochInstalled(const MigrationReport&) override {}

  std::vector<PhaseCb> held_certs;
};

TEST(ReshardingCoordinatorTest, LateCertificateLandsOnItsOwnMigration) {
  SimRuntime rt{1, NetworkConfig{}};
  Simulation& sim = rt.sim();
  auto table = std::make_shared<OwnershipTable>(Partitioner::Range(2, 1000), 4);
  ManualHost host;
  ReshardingCoordinator coord(rt.ControlExecutor(), table, &host,
                              ReshardingConfig{});

  Status s1, s2;
  coord.SplitShard(0, [&](const Status& s, const MigrationReport&, SimTime) {
    s1 = s;
  });
  sim.Run();
  ASSERT_TRUE(s1.ok()) << s1;
  coord.SplitShard(1, [&](const Status& s, const MigrationReport&, SimTime) {
    s2 = s;
  });
  sim.Run();
  ASSERT_TRUE(s2.ok()) << s2;
  ASSERT_EQ(host.held_certs.size(), 2u);
  EXPECT_EQ(coord.stats().splits_applied, 2u);
  EXPECT_EQ(coord.stats().splits_certified, 0u);

  // The FIRST migration's certificate lands after the second has long
  // been applied: it must finalize migration #1, not be dropped.
  host.held_certs[0](Status::OK(), 10);
  EXPECT_EQ(coord.stats().splits_certified, 1u);
  ASSERT_EQ(coord.applied_migrations().size(), 2u);
  EXPECT_TRUE(coord.applied_migrations().begin()->second.certified)
      << "the superseded migration's lazy trust chain must still close";
  EXPECT_FALSE(coord.last_split().certified);

  host.held_certs[1](Status::OK(), 11);
  EXPECT_EQ(coord.stats().splits_certified, 2u);
  EXPECT_TRUE(coord.last_split().certified);

  // A failing late certificate surfaces on its own report too.
  Status s3;
  coord.MergeShards(2, [&](const Status& s, const MigrationReport&, SimTime) {
    s3 = s;
  });
  sim.Run();
  ASSERT_TRUE(s3.ok()) << s3;
  ASSERT_EQ(host.held_certs.size(), 3u);
  host.held_certs[2](Status::SecurityViolation("bad handoff"), 12);
  EXPECT_EQ(coord.stats().certify_failures, 1u);
  EXPECT_TRUE(coord.last_split().certify_failed);
  EXPECT_EQ(coord.stats().merges_certified, 0u);
}

// A Scan whose slice set is empty (an inverted range reaching the
// router directly) must still answer — the fan-out join used to start
// at waiting == 0 and never invoke the callback, hanging any
// pump-to-completion caller.
TEST(RouterRegressionTest, EmptySliceScanStillAnswers) {
  auto opened = Store::Open(ReshardOptions(BackendKind::kWedge));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);
  ASSERT_TRUE(store.Put(10, Val(1)).WaitPhase1().ok());

  bool answered = false;
  store.backend().Scan(0, /*lo=*/500, /*hi=*/100,
                       [&](const Status& s, ScanResult r, SimTime) {
                         EXPECT_TRUE(s.ok()) << s;
                         EXPECT_TRUE(r.pairs.empty());
                         EXPECT_TRUE(r.verified);
                         answered = true;
                       });
  store.RunFor(kSecond);
  EXPECT_TRUE(answered)
      << "an empty slice set must produce an empty verified result, "
         "not a hang";
}

// A write batch that falls entirely inside a migration fence used to
// bypass RouteKey: the client's epoch view was never refreshed on the
// parking path, and the parked keys joined the heat window only at
// flush. Parking must refresh the epoch immediately and the flush must
// attribute the keys to the owner they commit on.
TEST(RouterRegressionTest, FullyFencedBatchRefreshesTheClientEpoch) {
  StoreOptions o = ReshardOptions(BackendKind::kWedge);
  o.WithClients(2);
  auto opened = Store::Open(o);
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  ASSERT_TRUE(store.PutBatch({{760, Val(1)}, {770, Val(1)}, {780, Val(1)},
                              {790, Val(1)}})
                  .WaitPhase2()
                  .ok());
  store.RunFor(kSecond);
  // Client 1 last observed epoch 1; the first split moves it to 2
  // without client 1 hearing about it.
  ASSERT_TRUE(store.Get(760, /*client=*/1).ok());
  ASSERT_TRUE(store.SplitShard(0).ok());

  // Second migration: shard 1's upper half [750, 999] is fenced while
  // the split drains.
  bool split_done = false;
  store.backend().SplitShard(
      1, [&](const Status& s, const SplitReport&, SimTime) {
        EXPECT_TRUE(s.ok()) << s;
        split_done = true;
      });

  const uint64_t refreshes = store.stats().router.epoch_refreshes;
  // Client 1's batch falls entirely inside the fence: it parks, and the
  // parking path itself must refresh the stale epoch view.
  store.backend().PutBatch(1, {{800, Val(7)}}, nullptr, nullptr);
  const RouterStats parked = store.stats().router;
  EXPECT_EQ(parked.writes_parked, 1u);
  EXPECT_GT(parked.epoch_refreshes, refreshes)
      << "a fully-fenced batch must still refresh the client's epoch";

  store.RunFor(2 * kSecond);
  ASSERT_TRUE(split_done);
  // At flush the parked key was routed under the new epoch and counted
  // into the new owner's heat window (the window reset at install, so
  // the flushed write is its first entry).
  const size_t owner = store.ownership()->ShardOf(800);
  EXPECT_GE(store.stats().router.ops_per_shard[owner], 1u)
      << "parked keys must join the heat window when they flush";
  auto got = store.Get(800);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->value, Val(7));
}

// ------------------------------------------ verifier caches across epochs

// On epoch install the source's per-client caches drop every entry
// covering the migrated range (no stale proof material can be replayed
// against the old owner), and per-shard cache budgets re-size to the new
// ownership.
TEST(ReshardingCacheTest, SplitInvalidatesAndResizesSourceCaches) {
  StoreOptions o = ReshardOptions(BackendKind::kWedge);
  o.WithLsm({2, 2, 8}, 4);
  auto opened = Store::Open(o);
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  std::vector<std::pair<Key, Bytes>> kvs;
  for (Key k = 0; k < 500; k += 10) kvs.emplace_back(k, Val(5));
  ASSERT_TRUE(store.PutBatch(kvs).WaitPhase2().ok());
  store.RunFor(5 * kSecond);

  // Warm the source client's cache over the range that will move.
  for (Key k = 250; k < 500; k += 10) ASSERT_TRUE(store.Get(k).ok());

  Deployment& d = store.wedge();
  const size_t source_phys = 0 * 4 + 0;  // logical 0, shard 0
  const auto warm_limits =
      d.client(source_phys).verifier_cache().limits();
  // Live shards own 1/2 of the domain each on a 4-slot grid: their
  // budgets run at 2x the per-shard unit while idle slots sit at the
  // floor.
  EXPECT_EQ(warm_limits.max_parts, VerifierCache::Limits{}.max_parts * 2);

  ASSERT_TRUE(store.SplitShard(0).ok());

  // The moved range's budget followed the range to the destination:
  // source and destination now hold the pre-split source budget between
  // them.
  const auto src_limits = d.client(source_phys).verifier_cache().limits();
  const auto dst_limits = d.client(0 * 4 + 2).verifier_cache().limits();
  EXPECT_EQ(src_limits.max_parts + dst_limits.max_parts,
            warm_limits.max_parts);

  // No stale proof is accepted post-split: reads of migrated keys run
  // against the new owner and verify fresh.
  for (Key k = 250; k < 500; k += 10) {
    auto got = store.Get(k);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->value, Val(5));
  }
}

}  // namespace
}  // namespace wedge
