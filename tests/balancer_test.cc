// Tests for the autonomous shard lifecycle policy (core/balancer.h):
// watermark triggers, hysteresis under oscillating load, cooldown
// suppression, merge survivor guards — driven tick-by-tick against fake
// hooks — plus the integrated store-level loop (WithAutoBalance) where
// the balancer splits a hot shard and merges it back when the load
// moves on, and the Open-time validation of the policy surface.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "api/store.h"
#include "runtime/sim_runtime.h"
#include "core/balancer.h"
#include "core/partitioner.h"

namespace wedge {
namespace {

Bytes Val(uint8_t tag) { return Bytes(16, tag); }

/// Harness owning a balancer over a fake heat source and recording the
/// actions the policy takes. Ticks are driven by hand; sim time is
/// advanced by hand — no timers involved.
struct PolicyHarness {
  explicit PolicyHarness(BalancerPolicy policy,
                         Partitioner seed = Partitioner::Range(2, 1000),
                         size_t capacity = 4)
      : table(std::make_shared<OwnershipTable>(seed, capacity)),
        heat(table->capacity(), 0) {
    AutoBalancer::Hooks hooks;
    hooks.heat = [this]() { return heat; };
    hooks.split = [this](size_t s, ReshardingCoordinator::SplitCb) {
      splits.push_back(s);
    };
    hooks.merge = [this](size_t s, ReshardingCoordinator::SplitCb) {
      merges.push_back(s);
    };
    hooks.busy = [this]() { return busy; };
    balancer.emplace(rt.ControlExecutor(), table, policy,
                 std::move(hooks));
  }

  /// Adds one window of per-shard ops, advances time by `dt`, ticks.
  void Window(const std::vector<uint64_t>& ops, SimTime dt = 100) {
    for (size_t s = 0; s < ops.size(); ++s) heat[s] += ops[s];
    rt.sim().ScheduleAfter(dt, [] {});
    rt.sim().Run();
    balancer->Tick();
  }

  SimRuntime rt{1, NetworkConfig{}};
  std::shared_ptr<OwnershipTable> table;
  std::vector<uint64_t> heat;
  bool busy = false;
  std::vector<size_t> splits;
  std::vector<size_t> merges;
  std::optional<AutoBalancer> balancer;
};

BalancerPolicy TestPolicy() {
  BalancerPolicy p;
  p.enabled = true;
  p.split_fraction = 0.6;
  p.merge_fraction = 0.1;
  p.split_ticks = 2;
  p.merge_ticks = 2;
  p.cooldown = 1000;
  p.min_window_ops = 10;
  p.min_live_shards = 1;
  return p;
}

TEST(BalancerPolicyTest, HighWatermarkTriggersAfterHysteresis) {
  PolicyHarness h(TestPolicy());
  h.Window({50, 50});  // first window only baselines (primed)
  h.Window({90, 10});  // hot streak 1: suppressed by hysteresis
  EXPECT_TRUE(h.splits.empty());
  EXPECT_EQ(h.balancer->stats().hysteresis_suppressed, 1u);
  h.Window({90, 10});  // hot streak 2: act
  ASSERT_EQ(h.splits.size(), 1u);
  EXPECT_EQ(h.splits[0], 0u);
  EXPECT_EQ(h.balancer->stats().auto_splits, 1u);
}

TEST(BalancerPolicyTest, OscillatingLoadNeverClearsTheHysteresisBar) {
  PolicyHarness h(TestPolicy());
  h.Window({50, 50});
  // The hot shard alternates every window: each crossing resets before
  // the two-tick streak completes, so the policy never thrashes a
  // migration.
  for (int i = 0; i < 10; ++i) {
    h.Window(i % 2 == 0 ? std::vector<uint64_t>{90, 10}
                        : std::vector<uint64_t>{10, 90});
  }
  EXPECT_TRUE(h.splits.empty());
  EXPECT_TRUE(h.merges.empty());
  EXPECT_GE(h.balancer->stats().hysteresis_suppressed, 5u);
}

TEST(BalancerPolicyTest, CooldownSuppressesBackToBackActions) {
  PolicyHarness h(TestPolicy());
  h.Window({50, 50});
  h.Window({90, 10});
  h.Window({90, 10});
  ASSERT_EQ(h.splits.size(), 1u);
  // Still hot immediately after acting (the fake split changed no
  // ownership): inside the cooldown the policy holds.
  h.Window({90, 10});
  h.Window({90, 10});
  EXPECT_EQ(h.splits.size(), 1u);
  EXPECT_GE(h.balancer->stats().cooldown_suppressed, 1u);
  // Past the cooldown it may act again.
  h.Window({90, 10}, /*dt=*/2000);
  EXPECT_EQ(h.splits.size(), 2u);
}

TEST(BalancerPolicyTest, LowWatermarkMergesTheColdShard) {
  PolicyHarness h(TestPolicy());
  h.Window({50, 50});
  h.Window({95, 5});  // shard 1 cold streak 1 (shard 0 hot streak 1)
  // Keep shard 0 under the split bar so only the merge fires.
  h.Window({55, 5, 0, 40});
  EXPECT_TRUE(h.splits.empty());
  ASSERT_EQ(h.merges.size(), 1u);
  EXPECT_EQ(h.merges[0], 1u);
  EXPECT_EQ(h.balancer->stats().auto_merges, 1u);
}

TEST(BalancerPolicyTest, MergeRespectsTheLiveShardFloor) {
  BalancerPolicy p = TestPolicy();
  p.min_live_shards = 2;  // never fold back below the seed parallelism
  PolicyHarness h(p);
  h.Window({50, 50});
  h.Window({95, 5});
  h.Window({95, 5});
  h.Window({95, 5});
  EXPECT_TRUE(h.merges.empty()) << "2 live shards is already the floor";
}

TEST(BalancerPolicyTest, MergeNeverFeedsAHotSurvivor) {
  PolicyHarness h(TestPolicy());
  h.Window({50, 50});
  // Shard 1 is cold but its only neighbour (the survivor) is hot: the
  // merge would pile onto an overloaded shard, so the policy holds.
  h.Window({95, 5});
  h.Window({95, 5});
  h.Window({95, 5});
  EXPECT_TRUE(h.merges.empty());
  // The same windows with a lukewarm survivor do merge (split shard 0's
  // heat is below the bar).
  PolicyHarness h2(TestPolicy());
  h2.Window({50, 50});
  h2.Window({55, 5, 0, 40});
  h2.Window({55, 5, 0, 40});
  ASSERT_EQ(h2.merges.size(), 1u);
  EXPECT_EQ(h2.merges[0], 1u);
}

TEST(BalancerPolicyTest, QuietWindowsCarryNoSignal) {
  PolicyHarness h(TestPolicy());
  h.Window({50, 50});
  h.Window({90, 10});  // hot streak 1
  h.Window({5, 0});    // 5 ops < min_window_ops: no decision, streak holds
  h.Window({90, 10});  // hot streak 2: act
  EXPECT_EQ(h.splits.size(), 1u);
}

TEST(BalancerPolicyTest, BusyCoordinatorDefersActions) {
  PolicyHarness h(TestPolicy());
  h.Window({50, 50});
  h.busy = true;
  h.Window({90, 10});
  h.Window({90, 10});
  h.Window({90, 10});
  EXPECT_TRUE(h.splits.empty()) << "one migration at a time";
  h.busy = false;
  h.Window({90, 10});
  EXPECT_EQ(h.splits.size(), 1u);
}

TEST(BalancerPolicyTest, EpochChangeRestartsTheWindowAndStreaks) {
  PolicyHarness h(TestPolicy());
  h.Window({50, 50});
  h.Window({90, 10});  // hot streak 1
  ASSERT_TRUE(h.table->InstallSplit(0, 2, 250).ok());
  h.Window({90, 10});  // re-baseline only (new ownership regime)
  h.Window({90, 10});  // streak 1 again
  EXPECT_TRUE(h.splits.empty());
  h.Window({90, 10});  // streak 2: act
  EXPECT_EQ(h.splits.size(), 1u);
}

TEST(BalancerPolicyTest, SplitWithoutAnIdleSlotWaitsForAMerge) {
  // 2 live shards on 2 slots: a hot shard has nowhere to go until a
  // merge frees a slot.
  PolicyHarness h(TestPolicy(), Partitioner::Range(2, 1000), 2);
  h.Window({50, 50});
  h.Window({90, 10});
  h.Window({90, 10});
  EXPECT_TRUE(h.splits.empty());
  EXPECT_GE(h.balancer->stats().split_blocked_no_slot, 1u);
}

// ------------------------------------------------- store-level lifecycle

TEST(AutoBalanceStoreTest, OpenValidatesThePolicySurface) {
  {
    StoreOptions o;  // unsharded
    o.WithAutoBalance();
    EXPECT_TRUE(Store::Open(o).status().IsInvalidArgument());
  }
  {
    StoreOptions o;
    o.WithShards(2, ShardScheme::kHash).WithAutoBalance();
    EXPECT_TRUE(Store::Open(o).status().IsInvalidArgument());
  }
  {
    StoreOptions o;
    o.WithShards(2, ShardScheme::kRange, 1000).WithShardCapacity(4);
    BalancerPolicy p;
    p.split_fraction = 0.1;
    p.merge_fraction = 0.5;  // overlapping watermarks
    o.WithAutoBalance(p);
    EXPECT_TRUE(Store::Open(o).status().IsInvalidArgument());
  }
  {
    // Degenerate knobs that would void the dampers: a zero streak makes
    // every shard a candidate every tick, and a zero min_window_ops
    // reads an idle store's empty windows as uniformly cold.
    StoreOptions o;
    o.WithShards(2, ShardScheme::kRange, 1000).WithShardCapacity(4);
    BalancerPolicy p;
    p.merge_ticks = 0;
    o.WithAutoBalance(p);
    EXPECT_TRUE(Store::Open(o).status().IsInvalidArgument());
    p = BalancerPolicy{};
    p.min_window_ops = 0;
    o.WithAutoBalance(p);
    EXPECT_TRUE(Store::Open(o).status().IsInvalidArgument());
  }
}

/// Issues `n` synchronous gets of keys spread over [lo, hi] — the
/// closed-loop heat source of the integration tests.
void Heat(Store& store, Key lo, Key hi, size_t n) {
  const Key step = (hi - lo) / (n > 1 ? n - 1 : 1);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(store.Get(lo + step * i).ok());
  }
}

// The full autonomous loop against a real store: hot traffic on shard 0
// splits it without any operator call; when the load moves to shard 1's
// range, the cooled halves merge back and the freed slot is idle again.
TEST(AutoBalanceStoreTest, LifecycleRunsWithoutOperatorCalls) {
  BalancerPolicy policy;
  policy.tick_period = 100 * kMillisecond;
  policy.split_fraction = 0.6;
  policy.merge_fraction = 0.1;
  policy.split_ticks = 2;
  policy.merge_ticks = 2;
  policy.cooldown = 300 * kMillisecond;
  policy.min_window_ops = 16;
  policy.min_live_shards = 2;

  StoreOptions o;
  o.WithSeed(11)
      .WithOpsPerBlock(4)
      .WithLsm({3, 2, 8}, 8)
      .WithShards(2, ShardScheme::kRange, /*range_span=*/1000)
      .WithShardCapacity(3)
      .WithDrainDelay(150 * kMillisecond)
      .WithAutoBalance(policy);
  o.deploy.net.jitter_frac = 0.0;
  auto opened = Store::Open(o);
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);
  ASSERT_NE(store.balancer(), nullptr);

  std::vector<std::pair<Key, Bytes>> kvs;
  for (Key k = 0; k < 1000; k += 10) kvs.emplace_back(k, Val(1));
  ASSERT_TRUE(store.PutBatch(kvs).WaitPhase2().ok());
  store.RunFor(kSecond);
  ASSERT_EQ(store.ownership_epoch(), 1u);

  // Phase 1: hammer shard 0's range. Every Get pumps the simulator, so
  // balancer ticks run underneath the traffic.
  for (int round = 0; round < 30 && store.ownership_epoch() < 2; ++round) {
    Heat(store, 0, 499, 40);
    store.RunFor(50 * kMillisecond);
  }
  EXPECT_EQ(store.ownership_epoch(), 2u) << "the hot shard never auto-split";
  EXPECT_EQ(store.ownership()->LiveShards(), 3u);
  StoreStats mid = store.stats();
  EXPECT_EQ(mid.balancer.auto_splits, 1u);
  EXPECT_EQ(mid.balancer.auto_merges, 0u);

  // Phase 2: the load moves entirely to shard 1's range; the split
  // halves cool and one merges away, freeing its slot.
  for (int round = 0; round < 40 && store.ownership_epoch() < 3; ++round) {
    Heat(store, 500, 999, 40);
    store.RunFor(50 * kMillisecond);
  }
  EXPECT_EQ(store.ownership_epoch(), 3u) << "the cooled shard never merged";
  EXPECT_EQ(store.ownership()->LiveShards(), 2u);
  EXPECT_TRUE(store.ownership()->FirstIdleShard().has_value());
  StoreStats end = store.stats();
  EXPECT_EQ(end.balancer.auto_merges, 1u);
  EXPECT_EQ(end.resharding.merges_applied, 1u);
  EXPECT_EQ(end.live_shards, 2u);

  // The data survived the autonomous churn.
  for (Key k = 0; k < 1000; k += 10) {
    auto got = store.Get(k);
    ASSERT_TRUE(got.ok()) << "key " << k << ": " << got.status();
    EXPECT_EQ(got->value, Val(1));
  }
}

// Store::stats() surfaces the balancer counters (and defaults cleanly
// on an unsharded store, which runs no balancer).
TEST(AutoBalanceStoreTest, StatsSnapshotCoversTheLifecycle) {
  StoreOptions o;
  o.WithOpsPerBlock(4);
  auto unsharded = Store::Open(o);
  ASSERT_TRUE(unsharded.ok());
  StoreStats s = unsharded->stats();
  EXPECT_EQ(s.epoch, 1u);
  EXPECT_EQ(s.live_shards, 1u);
  EXPECT_EQ(s.balancer.ticks, 0u);
  EXPECT_EQ(s.resharding.splits_applied, 0u);
}

}  // namespace
}  // namespace wedge
