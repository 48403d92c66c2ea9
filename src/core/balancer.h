// AutoBalancer: the heat-driven autonomous shard lifecycle policy.
//
// PR 4 made resharding *possible* (SplitShard / MergeShards on the
// coordinator) but an operator still had to invoke it. The AutoBalancer
// closes the loop: a background simulator tick reads the routing
// layer's per-epoch heat window (RouterStats::ops_per_shard) and drives
// the coordinator autonomously —
//
//   - a shard carrying more than `split_fraction` of the window's
//     routed operations for `split_ticks` consecutive ticks is split
//     onto an idle slot (high watermark);
//   - a live shard carrying less than `merge_fraction` for
//     `merge_ticks` consecutive ticks is merged into its adjacent
//     neighbour, returning its slot to the idle pool (low watermark) —
//     which is also what un-blocks the next split when the capacity is
//     exhausted, so a shifting hotspot cycles split → merge → split
//     without operator calls and without growing the physical grid.
//
// Three dampers keep oscillating load from thrashing migrations:
// watermark *hysteresis* (an action needs N consecutive over/under
// ticks, so a load that flaps around a watermark never triggers), a
// *cooldown* after every migration, and the single-migration-in-flight
// rule inherited from the coordinator. Decisions are fractions of the
// window's total ops, so the policy is workload-rate agnostic; windows
// with fewer than `min_window_ops` operations carry no signal and leave
// the streaks untouched.
//
// The balancer is core-layer and host-agnostic: it reads heat and
// issues split/merge through std::function hooks (bound by the
// api-layer ShardRouter), and consults the shared OwnershipTable — the
// same epoch-versioned map the router routes by — for liveness, idle
// slots and merge plans.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/partitioner.h"
#include "core/resharding.h"
#include "runtime/runtime.h"

namespace wedge {

/// Policy knobs of the autonomous shard lifecycle
/// (StoreOptions::WithAutoBalance).
struct BalancerPolicy {
  /// Master switch; the router only runs the tick loop when set (the
  /// WithAutoBalance setter sets it).
  bool enabled = false;
  /// Virtual time between heat-window reads.
  SimTime tick_period = 500 * kMillisecond;
  /// Virtual time after Start before the first window is read: bulk
  /// loads and recovery replays are transient hotspots no policy should
  /// chase (a sequential load marches a 100% hotspot across the key
  /// space). The first tick after the delay only baselines the window.
  SimTime initial_delay = 0;
  /// High watermark: a shard whose share of the window's routed ops
  /// meets this fraction is a split candidate.
  double split_fraction = 0.5;
  /// Low watermark: a live shard whose share falls to or below this
  /// fraction is a merge candidate (its survivor must itself not be a
  /// split candidate, so a merge never feeds a hot shard).
  double merge_fraction = 0.05;
  /// Hysteresis: consecutive over/under-watermark ticks required before
  /// acting. Oscillating load that flaps across a watermark resets the
  /// streak and never triggers a migration.
  uint32_t split_ticks = 2;
  uint32_t merge_ticks = 3;
  /// Virtual time after a triggered migration during which no new one
  /// is triggered (the workload gets to settle under the new map).
  SimTime cooldown = 2 * kSecond;
  /// Windows with fewer routed ops than this carry no signal: streaks
  /// hold (an idle store neither splits nor merges on noise).
  uint64_t min_window_ops = 32;
  /// Never merge below this many live shards (a floor of parallelism;
  /// set it to the seed shard count to only reclaim split-created
  /// slots).
  size_t min_live_shards = 1;
};

/// Counters of the autonomous lifecycle, exposed through
/// Store::balancer() / Store::stats().
struct BalancerStats {
  uint64_t ticks = 0;
  /// Migrations the policy triggered (attempts; failures of the
  /// underlying migration count in failed_actions too).
  uint64_t auto_splits = 0;
  uint64_t auto_merges = 0;
  /// Triggered migrations whose coordinator run failed.
  uint64_t failed_actions = 0;
  /// Ticks where a watermark was crossed but the streak had not yet
  /// reached the hysteresis count.
  uint64_t hysteresis_suppressed = 0;
  /// Ticks where an action was due but suppressed by the post-migration
  /// cooldown.
  uint64_t cooldown_suppressed = 0;
  /// Ticks where a split was due but no idle slot existed (waiting for
  /// a merge to reclaim one).
  uint64_t split_blocked_no_slot = 0;
};

class AutoBalancer {
 public:
  /// Heat and actuation hooks, bound by the routing layer. `heat`
  /// returns the per-slot routed-op counters of the *current* ownership
  /// epoch's window (RouterStats::ops_per_shard — cumulative since the
  /// last epoch install); `busy` is
  /// ReshardingCoordinator::migration_in_flight.
  struct Hooks {
    std::function<std::vector<uint64_t>()> heat;
    std::function<void(size_t, ReshardingCoordinator::SplitCb)> split;
    std::function<void(size_t, ReshardingCoordinator::SplitCb)> merge;
    std::function<bool()> busy;
  };

  AutoBalancer(Executor* exec, std::shared_ptr<OwnershipTable> table,
               BalancerPolicy policy, Hooks hooks);

  /// Starts the recurring tick on the simulation. Idempotent.
  void Start();

  /// One policy evaluation over the heat window since the previous
  /// tick. Public so policy unit tests (and manual drivers) can step
  /// the balancer without waiting out tick_period on the simulator.
  void Tick();

  const BalancerPolicy& policy() const { return policy_; }
  /// Live reference; safe under SimRuntime only (ticks run on the
  /// balancer's executor). Cross-thread readers use stats_snapshot().
  const BalancerStats& stats() const { return stats_; }
  /// Locked copy, safe from any thread while ticks run.
  BalancerStats stats_snapshot() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
  }

 private:
  /// Per-tick watermark decision inputs: the delta of routed ops per
  /// slot since the previous tick, and their sum.
  struct Window {
    std::vector<uint64_t> delta;
    uint64_t total = 0;
  };

  void ScheduleNextTick();
  std::optional<Window> ReadWindow();
  void UpdateStreaks(const Window& w);
  /// Ready candidates only — slots whose streak already cleared the
  /// hysteresis bar (a hotter-but-flapping slot cannot shadow a mature
  /// one).
  std::optional<size_t> SplitCandidate() const;
  std::optional<size_t> MergeCandidate() const;
  bool AnyStreakBuilding() const;

  Executor* exec_;
  std::shared_ptr<OwnershipTable> table_;
  BalancerPolicy policy_;
  Hooks hooks_;

  bool started_ = false;
  /// False until the first window read: the opening tick only
  /// baselines, so everything before it (preload, recovery) is
  /// discarded rather than read as one giant window.
  bool primed_ = false;
  OwnershipEpoch seen_epoch_ = 0;
  std::vector<uint64_t> prev_;
  /// Consecutive ticks each slot has been over the split / under the
  /// merge watermark. Reset on epoch change (a new ownership regime
  /// starts a fresh argument) and on the opposite observation.
  std::vector<uint32_t> hot_streak_;
  std::vector<uint32_t> cold_streak_;
  /// Share of the last window's ops per slot (the fractions the streaks
  /// were updated from; kept for the survivor-not-hot merge guard).
  std::vector<double> last_fraction_;
  SimTime last_action_at_ = 0;
  bool acted_once_ = false;

  /// Guards stats_ alone: counters are bumped on the tick executor (and
  /// failed_actions on whichever executor completes a migration) while
  /// Store::stats() snapshots from the caller's thread.
  mutable std::mutex stats_mu_;
  BalancerStats stats_;
};

}  // namespace wedge
