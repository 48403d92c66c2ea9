#include "core/balancer.h"

#include <algorithm>
#include <utility>

namespace wedge {

AutoBalancer::AutoBalancer(Executor* exec,
                           std::shared_ptr<OwnershipTable> table,
                           BalancerPolicy policy, Hooks hooks)
    : exec_(exec),
      table_(std::move(table)),
      policy_(policy),
      hooks_(std::move(hooks)) {
  const size_t slots = table_->capacity();
  prev_.assign(slots, 0);
  hot_streak_.assign(slots, 0);
  cold_streak_.assign(slots, 0);
  last_fraction_.assign(slots, 0.0);
  seen_epoch_ = table_->epoch();
}

void AutoBalancer::Start() {
  if (started_) return;
  started_ = true;
  exec_->After(policy_.initial_delay, [this]() { ScheduleNextTick(); });
}

void AutoBalancer::ScheduleNextTick() {
  // The tick self-reschedules for the simulation's life, like the
  // cloud's gossip timer: every window read is one cheap event.
  exec_->After(policy_.tick_period, [this]() {
    Tick();
    ScheduleNextTick();
  });
}

std::optional<AutoBalancer::Window> AutoBalancer::ReadWindow() {
  std::vector<uint64_t> cur = hooks_.heat();
  cur.resize(table_->capacity(), 0);
  if (!primed_) {
    primed_ = true;
    seen_epoch_ = table_->epoch();
    prev_ = std::move(cur);
    return std::nullopt;
  }
  if (table_->epoch() != seen_epoch_) {
    // A migration installed a new ownership map since the last tick:
    // the routing layer reset its heat counters and the old streaks
    // argue about slices that no longer exist. Start a fresh window.
    seen_epoch_ = table_->epoch();
    prev_ = std::move(cur);
    std::fill(hot_streak_.begin(), hot_streak_.end(), 0);
    std::fill(cold_streak_.begin(), cold_streak_.end(), 0);
    std::fill(last_fraction_.begin(), last_fraction_.end(), 0.0);
    return std::nullopt;
  }
  Window w;
  w.delta.resize(cur.size());
  for (size_t s = 0; s < cur.size(); ++s) {
    // Monotone within an epoch: the router only resets the counters at
    // an epoch install, and that case re-baselined above.
    w.delta[s] = cur[s] - prev_[s];
    w.total += w.delta[s];
  }
  prev_ = std::move(cur);
  return w;
}

void AutoBalancer::UpdateStreaks(const Window& w) {
  for (size_t s = 0; s < w.delta.size(); ++s) {
    const bool live = table_->WidestSliceOf(s).has_value();
    const double frac =
        w.total == 0 ? 0.0
                     : static_cast<double>(w.delta[s]) /
                           static_cast<double>(w.total);
    last_fraction_[s] = frac;
    if (!live) {
      hot_streak_[s] = 0;
      cold_streak_[s] = 0;
      continue;
    }
    if (frac >= policy_.split_fraction) {
      hot_streak_[s]++;
    } else {
      hot_streak_[s] = 0;
    }
    if (frac <= policy_.merge_fraction) {
      cold_streak_[s]++;
    } else {
      cold_streak_[s] = 0;
    }
  }
}

std::optional<size_t> AutoBalancer::SplitCandidate() const {
  // The hottest slot whose streak cleared the hysteresis bar and whose
  // widest slice is splittable. Only mature streaks compete, so a
  // steadily-hot shard can never be starved by a hotter one that flaps
  // across the watermark (and so never matures).
  std::optional<size_t> best;
  for (size_t s = 0; s < hot_streak_.size(); ++s) {
    if (hot_streak_[s] < policy_.split_ticks) continue;
    const std::optional<OwnedSlice> slice = table_->WidestSliceOf(s);
    if (!slice.has_value() || slice->lo >= slice->hi) continue;
    if (!best.has_value() || last_fraction_[s] > last_fraction_[*best]) {
      best = s;
    }
  }
  return best;
}

std::optional<size_t> AutoBalancer::MergeCandidate() const {
  if (table_->LiveShards() <= policy_.min_live_shards) return std::nullopt;
  // The coldest slot with a mature under-watermark streak whose planned
  // survivor is itself not over the high watermark (a merge must never
  // feed a hot shard).
  std::optional<size_t> best;
  for (size_t s = 0; s < cold_streak_.size(); ++s) {
    if (cold_streak_[s] < policy_.merge_ticks) continue;
    const std::optional<MergePlan> plan = table_->MergePlanFor(s);
    if (!plan.has_value()) continue;
    if (last_fraction_[plan->survivor] >= policy_.split_fraction) continue;
    if (!best.has_value() || last_fraction_[s] < last_fraction_[*best]) {
      best = s;
    }
  }
  return best;
}

bool AutoBalancer::AnyStreakBuilding() const {
  for (size_t s = 0; s < hot_streak_.size(); ++s) {
    if (hot_streak_[s] > 0 && hot_streak_[s] < policy_.split_ticks) return true;
    if (cold_streak_[s] > 0 && cold_streak_[s] < policy_.merge_ticks) {
      return true;
    }
  }
  return false;
}

void AutoBalancer::Tick() {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.ticks++;
  }
  const std::optional<Window> window = ReadWindow();
  if (!window.has_value()) return;  // fresh epoch: re-baseline only
  if (window->total < policy_.min_window_ops) return;  // no signal
  UpdateStreaks(*window);

  if (hooks_.busy && hooks_.busy()) return;  // one migration at a time

  // Only candidates whose streak cleared the hysteresis bar compete.
  const std::optional<size_t> split_cand = SplitCandidate();
  const std::optional<size_t> merge_cand = MergeCandidate();
  const bool split_ready = split_cand.has_value();
  const bool merge_ready = merge_cand.has_value();
  if (!split_ready && !merge_ready) {
    if (AnyStreakBuilding()) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.hysteresis_suppressed++;
    }
    return;
  }

  const SimTime now = exec_->Now();
  if (acted_once_ && now - last_action_at_ < policy_.cooldown) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.cooldown_suppressed++;
    return;
  }

  // At most one migration per tick. A ready split takes priority (it
  // relieves an overloaded edge now); when the capacity is exhausted the
  // merge goes first and reclaims the slot the split needs.
  const bool have_idle = table_->FirstIdleShard().has_value();
  auto on_done = [this](const Status& s, const MigrationReport&, SimTime) {
    if (!s.ok()) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.failed_actions++;
    }
  };
  if (split_ready && have_idle) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.auto_splits++;
    }
    acted_once_ = true;
    last_action_at_ = now;
    hooks_.split(*split_cand, on_done);
    return;
  }
  if (merge_ready) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.auto_merges++;
    }
    acted_once_ = true;
    last_action_at_ = now;
    hooks_.merge(*merge_cand, on_done);
    return;
  }
  if (split_ready && !have_idle) {
    // Hot shard, no slot, nothing cold enough to merge yet: record the
    // blockage; the low watermark will eventually free a slot.
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.split_blocked_no_slot++;
  }
}

}  // namespace wedge
