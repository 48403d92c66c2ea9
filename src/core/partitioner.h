// Partitioner + OwnershipTable: key ownership for the sharding subsystem.
//
// A sharded deployment runs one LSMerkle tree (and log) per edge node.
// Ownership has two layers:
//
//  - Partitioner: the pure, stateless ownership *function* — the seed
//    mapping every sharded store opens with. Two schemes:
//      - kHash: keys are mixed (splitmix64) and spread uniformly.
//        Balanced under any key distribution, but a range scan must fan
//        out to every shard.
//      - kRange: the key domain [0, range_span) is cut into contiguous
//        slices, one per shard (keys >= range_span belong to the last
//        shard). Scans touch only the shards whose slice intersects the
//        range.
//  - OwnershipTable: the epoch-stamped, *versioned* ownership map. Epoch
//    1 is the seed partitioner's mapping; a shard split installs epoch
//    N+1 in which part of the source shard's key range belongs to the
//    destination. Every historical epoch stays queryable, so a request
//    routed under a stale epoch can be redirected deterministically.
//
// The same Partitioner instance is shared by the api-layer ShardRouter
// (via its OwnershipTable), the deployments (client-to-edge pinning),
// and the workload key generators (partition-aware distributions), so
// ownership can never disagree across layers.

#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "lsmerkle/kv.h"

namespace wedge {

/// Version number of an ownership map. Distinct from the LSMerkle
/// snapshot Epoch: ownership epochs advance only on resharding.
using OwnershipEpoch = uint64_t;

enum class ShardScheme : uint8_t {
  kHash = 0,
  kRange = 1,
};

inline const char* ShardSchemeToString(ShardScheme s) {
  return s == ShardScheme::kRange ? "range" : "hash";
}

/// Sharding knobs carried by DeploymentConfig / StoreOptions.
struct ShardingConfig {
  /// Number of key partitions. 0 = unsharded: one shard, with clients
  /// round-robin over all edges (client i on edge i % num_edges). 1 = a
  /// single shard on edge 0. Either way the router treats the store as
  /// one shard. Must not exceed num_edges.
  size_t num_shards = 0;
  ShardScheme scheme = ShardScheme::kHash;
  /// kRange only: exclusive upper bound of the key domain that is cut
  /// into slices. Keys >= range_span map to the last shard.
  uint64_t range_span = 0;
  /// Physical shard slots (edges + per-shard clients + the block-id
  /// modulus) to provision at Open. Slots beyond num_shards start idle —
  /// they own no keys — and exist so SplitShard can migrate a key range
  /// onto one without rebuilding the deployment. 0 = num_shards (no
  /// spare slots).
  size_t capacity = 0;

  bool enabled() const { return num_shards >= 1; }
  /// Physical shard slots actually provisioned.
  size_t slots() const { return std::max(capacity, num_shards); }
  /// True when ownership is expressible as contiguous key slices — the
  /// precondition for every migration (split and merge). Range seeds
  /// and single-shard seeds qualify; a multi-shard hash seed
  /// interleaves keys and stays frozen. The one definition shared by
  /// Open-time validation, the OwnershipTable, and the balancer
  /// validation, so they can never drift apart.
  bool range_expressible() const {
    return scheme == ShardScheme::kRange || num_shards <= 1;
  }
};

class Partitioner {
 public:
  /// A single-shard partitioner (everything maps to shard 0).
  Partitioner() : Partitioner(ShardScheme::kHash, 1, 0) {}

  Partitioner(ShardScheme scheme, size_t shards, uint64_t range_span = 0)
      : scheme_(scheme),
        shards_(shards == 0 ? 1 : shards),
        span_(range_span) {}

  explicit Partitioner(const ShardingConfig& cfg)
      : Partitioner(cfg.scheme, cfg.num_shards, cfg.range_span) {}

  static Partitioner Hash(size_t shards) {
    return Partitioner(ShardScheme::kHash, shards);
  }
  static Partitioner Range(size_t shards, uint64_t range_span) {
    return Partitioner(ShardScheme::kRange, shards, range_span);
  }

  size_t shards() const { return shards_; }
  ShardScheme scheme() const { return scheme_; }
  uint64_t range_span() const { return span_; }

  /// The shard that owns `key`. Total: every key has exactly one owner.
  size_t ShardOf(Key key) const {
    if (shards_ == 1) return 0;
    if (scheme_ == ShardScheme::kRange) {
      if (span_ == 0 || key >= span_) return shards_ - 1;
      return static_cast<size_t>(
          (static_cast<unsigned __int128>(key) * shards_) / span_);
    }
    // Multiply-shift over the mixed key: uniform over [0, shards).
    return static_cast<size_t>(
        (static_cast<unsigned __int128>(Mix(key)) * shards_) >> 64);
  }

  /// The contiguous key interval [lo, hi] owned by shard `s` under the
  /// kRange scheme. For kHash every shard owns an interleaved subset, so
  /// the full key domain is returned (a scan must consult every shard).
  std::pair<Key, Key> OwnedRange(size_t s) const {
    if (scheme_ != ShardScheme::kRange || shards_ == 1 || span_ == 0) {
      return {kMinKey, kMaxKey};
    }
    const Key lo = Boundary(s);
    const Key hi = (s + 1 >= shards_) ? kMaxKey : Boundary(s + 1) - 1;
    return {lo, hi};
  }

  /// True when a scan of [lo, hi] must consult shard `s` — i.e. the
  /// shard's owned interval intersects the scan range.
  bool ScanTouches(size_t s, Key lo, Key hi) const {
    const auto owned = OwnedRange(s);
    return owned.first <= hi && lo <= owned.second;
  }

  /// Clamps a scan range to the part shard `s` can own. Only meaningful
  /// when ScanTouches(s, lo, hi).
  std::pair<Key, Key> ClampToShard(size_t s, Key lo, Key hi) const {
    const auto owned = OwnedRange(s);
    return {std::max(lo, owned.first), std::min(hi, owned.second)};
  }

 private:
  /// splitmix64 finalizer: a cheap, well-distributed 64-bit mixer.
  static uint64_t Mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  /// First key of shard `s` under kRange: the smallest k with
  /// k * shards / span == s, i.e. ceil(s * span / shards).
  Key Boundary(size_t s) const {
    const unsigned __int128 num =
        static_cast<unsigned __int128>(s) * span_ + (shards_ - 1);
    return static_cast<Key>(num / shards_);
  }

  ShardScheme scheme_;
  size_t shards_;
  uint64_t span_;
};

/// One contiguous slice [lo, hi] of the key domain owned by a shard
/// under some ownership epoch.
struct OwnedSlice {
  Key lo = kMinKey;
  Key hi = kMaxKey;
  size_t shard = 0;

  bool operator==(const OwnedSlice& o) const {
    return lo == o.lo && hi == o.hi && shard == o.shard;
  }
};

/// A merge the table could install for some shard: the slice that would
/// move and the adjacent shard that would absorb it. Computed by
/// OwnershipTable::MergePlanFor so the ReshardingCoordinator and the
/// AutoBalancer agree on the survivor before the migration starts.
struct MergePlan {
  OwnedSlice slice;
  size_t survivor = 0;
};

/// Epoch-versioned key ownership across a fixed set of shard slots.
///
/// Epoch 1 is the seed Partitioner's mapping. A split installs epoch
/// N+1 in which the upper part of a source shard's slice belongs to a
/// destination slot; all earlier epochs stay queryable so stale-epoch
/// requests can be re-routed deterministically rather than failed.
///
/// Splittability: a split exports the moving keys as one
/// completeness-verified range scan, so ownership must be expressible as
/// contiguous key slices. Range-partitioned seeds (and any single-shard
/// seed, which owns the whole domain) qualify; a multi-shard hash seed
/// interleaves keys and stays frozen at epoch 1. Note the coordinator
/// additionally needs a range_span bounding the populated domain to
/// place a split point inside a slice that runs to kMaxKey.
///
/// `capacity` is the number of physical shard slots — fixed for the
/// table's life, which is what keeps router-scoped block ids (global =
/// inner * capacity + shard) stable across epochs.
///
/// Thread-safe: readers (router hot path, any worker thread under
/// ThreadedRuntime) take a shared lock; Install* (control thread)
/// takes it exclusively. Under the simulator everything is one thread
/// and the locks are uncontended.
class OwnershipTable {
 public:
  OwnershipTable(Partitioner seed, size_t capacity)
      : seed_(seed), capacity_(std::max(capacity, seed.shards())) {
    if (seed_.scheme() == ShardScheme::kRange || seed_.shards() == 1) {
      std::vector<OwnedSlice> initial;
      for (size_t s = 0; s < seed_.shards(); ++s) {
        const auto [lo, hi] = seed_.OwnedRange(s);
        initial.push_back({lo, hi, s});
      }
      history_.push_back(std::move(initial));
    }
    // Multi-shard hash seeds leave history_ empty: ownership is
    // interleaved, routing delegates to the seed function, epoch == 1
    // forever.
  }

  size_t capacity() const { return capacity_; }
  const Partitioner& seed() const { return seed_; }
  OwnershipEpoch epoch() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return EpochLocked();
  }
  bool splittable() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return !history_.empty();
  }

  /// The shard owning `key` under the current epoch.
  size_t ShardOf(Key key) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return ShardOfLocked(key, EpochLocked());
  }

  /// The shard owning `key` under historical epoch `e` (clamped to
  /// [1, epoch()]) — the view a client that last synced at `e` routes by.
  size_t ShardOf(Key key, OwnershipEpoch e) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return ShardOfLocked(key, e);
  }

  /// The slices of the current epoch intersecting [lo, hi], clamped to
  /// the scan range — one verified sub-scan per returned slice. For a
  /// non-splittable (hash) table every shard owns an interleaved subset,
  /// so each shard contributes one full-range pseudo-slice.
  std::vector<OwnedSlice> SlicesTouching(Key lo, Key hi) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    std::vector<OwnedSlice> out;
    if (history_.empty()) {
      for (size_t s = 0; s < seed_.shards(); ++s) out.push_back({lo, hi, s});
      return out;
    }
    for (const OwnedSlice& sl : history_.back()) {
      if (sl.lo <= hi && lo <= sl.hi) {
        out.push_back({std::max(lo, sl.lo), std::min(hi, sl.hi), sl.shard});
      }
    }
    return out;
  }

  /// All slices of epoch `e` (clamped), sorted by lo. Empty for
  /// non-splittable tables.
  std::vector<OwnedSlice> Slices(OwnershipEpoch e) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (history_.empty()) return {};
    return At(e);
  }

  /// The widest slice currently owned by `shard`; nullopt when the slot
  /// is idle (or the table is not splittable).
  std::optional<OwnedSlice> WidestSliceOf(size_t shard) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return WidestSliceLocked(shard);
  }

  /// The lowest shard slot owning nothing under the current epoch — the
  /// natural destination of the next split. nullopt when every slot is
  /// live (open with a larger ShardingConfig::capacity to keep spares).
  std::optional<size_t> FirstIdleShard() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (history_.empty()) return std::nullopt;
    std::vector<bool> live(capacity_, false);
    for (const OwnedSlice& sl : history_.back()) live[sl.shard] = true;
    for (size_t s = 0; s < capacity_; ++s) {
      if (!live[s]) return s;
    }
    return std::nullopt;
  }

  /// Shard slots owning at least one slice under the current epoch.
  size_t LiveShards() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (history_.empty()) return seed_.shards();
    std::vector<bool> live(capacity_, false);
    for (const OwnedSlice& sl : history_.back()) live[sl.shard] = true;
    return static_cast<size_t>(std::count(live.begin(), live.end(), true));
  }

  /// Fraction of the key domain each shard slot owns under the current
  /// epoch (sums to ~1). The domain is the seed's range_span when set —
  /// the last shard's tail to "infinity" counts as its slice inside the
  /// span, not the whole uint64 line. Hash tables split ownership evenly
  /// over the seed shards. Used to size per-shard verifier caches.
  std::vector<double> OwnedFractions() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    std::vector<double> f(capacity_, 0.0);
    if (history_.empty()) {
      for (size_t s = 0; s < seed_.shards(); ++s) {
        f[s] = 1.0 / static_cast<double>(seed_.shards());
      }
      return f;
    }
    const Key domain_hi =
        seed_.range_span() > 0 ? seed_.range_span() - 1 : kMaxKey;
    const double domain = static_cast<double>(domain_hi) + 1.0;
    for (const OwnedSlice& sl : history_.back()) {
      if (sl.lo > domain_hi) continue;  // entirely in the empty tail
      const Key hi = std::min(sl.hi, domain_hi);
      f[sl.shard] +=
          (static_cast<double>(hi) - static_cast<double>(sl.lo) + 1.0) /
          domain;
    }
    return f;
  }

  /// The merge this table would install for `shard`: its widest slice
  /// moves to the owner of an adjacent slice (the left neighbour when
  /// both exist, so repeated merges walk deterministically). nullopt
  /// when the slot is idle, the table is not splittable, or the shard
  /// owns the whole domain (no neighbour to absorb it).
  std::optional<MergePlan> MergePlanFor(size_t shard) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (history_.empty()) return std::nullopt;
    const std::optional<OwnedSlice> slice = WidestSliceLocked(shard);
    if (!slice.has_value()) return std::nullopt;
    const std::vector<OwnedSlice>& cur = history_.back();
    for (size_t i = 0; i < cur.size(); ++i) {
      if (!(cur[i] == *slice)) continue;
      if (i > 0 && cur[i - 1].shard != shard) {
        return MergePlan{*slice, cur[i - 1].shard};
      }
      if (i + 1 < cur.size() && cur[i + 1].shard != shard) {
        return MergePlan{*slice, cur[i + 1].shard};
      }
      return std::nullopt;
    }
    return std::nullopt;
  }

  /// Installs epoch+1 in which the slice [lo, hi] owned by `source`
  /// moves whole to `survivor`, which must own an adjacent slice — the
  /// inverse of InstallSplit. Adjacent same-owner slices are coalesced,
  /// so a slot whose last slice merges away becomes idle again
  /// (FirstIdleShard returns it; split→merge cycles never exhaust the
  /// capacity). Returns the new epoch, or InvalidArgument /
  /// FailedPrecondition when the merge is not expressible (hash table,
  /// bad slots, [lo, hi] not exactly a source-owned slice, survivor not
  /// adjacent).
  Result<OwnershipEpoch> InstallMerge(size_t source, size_t survivor, Key lo,
                                      Key hi) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    if (history_.empty()) {
      return Status::FailedPrecondition(
          "ownership is hash-interleaved; merges need range partitioning");
    }
    if (source >= capacity_ || survivor >= capacity_ || source == survivor) {
      return Status::InvalidArgument("bad merge shard slots");
    }
    std::vector<OwnedSlice> next = history_.back();
    for (size_t i = 0; i < next.size(); ++i) {
      if (!(next[i] == OwnedSlice{lo, hi, source})) continue;
      const bool left_adjacent = i > 0 && next[i - 1].shard == survivor;
      const bool right_adjacent =
          i + 1 < next.size() && next[i + 1].shard == survivor;
      if (!left_adjacent && !right_adjacent) {
        return Status::FailedPrecondition(
            "survivor owns no slice adjacent to the merged range");
      }
      next[i].shard = survivor;
      // Coalesce adjacent same-owner slices so the map stays normalized
      // (one slice per maximal owned run; WidestSliceOf and MergePlanFor
      // rely on this).
      std::vector<OwnedSlice> coalesced;
      for (const OwnedSlice& sl : next) {
        if (!coalesced.empty() && coalesced.back().shard == sl.shard &&
            coalesced.back().hi + 1 == sl.lo) {
          coalesced.back().hi = sl.hi;
        } else {
          coalesced.push_back(sl);
        }
      }
      history_.push_back(std::move(coalesced));
      return EpochLocked();
    }
    return Status::InvalidArgument(
        "merge range is not exactly a slice owned by the source shard");
  }

  /// Installs epoch+1 in which [split_key, hi] of the source slice
  /// containing split_key moves to `dest` while [lo, split_key-1] stays
  /// with `source`. Returns the new epoch, or InvalidArgument /
  /// FailedPrecondition when the split is not expressible (hash table,
  /// bad slots, split_key outside a source-owned slice, empty half).
  Result<OwnershipEpoch> InstallSplit(size_t source, size_t dest,
                                      Key split_key) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    if (history_.empty()) {
      return Status::FailedPrecondition(
          "ownership is hash-interleaved; splits need range partitioning");
    }
    if (source >= capacity_ || dest >= capacity_ || source == dest) {
      return Status::InvalidArgument("bad split shard slots");
    }
    std::vector<OwnedSlice> next = history_.back();
    for (size_t i = 0; i < next.size(); ++i) {
      const OwnedSlice sl = next[i];
      if (sl.shard != source || split_key < sl.lo || split_key > sl.hi) {
        continue;
      }
      if (split_key == sl.lo) {
        return Status::InvalidArgument(
            "split would leave the source half empty");
      }
      next[i] = {sl.lo, split_key - 1, source};
      next.insert(next.begin() + static_cast<ptrdiff_t>(i) + 1,
                  {split_key, sl.hi, dest});
      history_.push_back(std::move(next));
      return EpochLocked();
    }
    return Status::InvalidArgument(
        "split_key is not inside a slice owned by the source shard");
  }

 private:
  OwnershipEpoch EpochLocked() const {
    return history_.empty() ? 1 : history_.size();
  }

  size_t ShardOfLocked(Key key, OwnershipEpoch e) const {
    if (history_.empty()) return seed_.ShardOf(key);
    return SliceContaining(At(e), key).shard;
  }

  std::optional<OwnedSlice> WidestSliceLocked(size_t shard) const {
    std::optional<OwnedSlice> best;
    if (history_.empty()) return best;
    for (const OwnedSlice& sl : history_.back()) {
      if (sl.shard != shard) continue;
      if (!best.has_value() || sl.hi - sl.lo > best->hi - best->lo) best = sl;
    }
    return best;
  }

  const std::vector<OwnedSlice>& At(OwnershipEpoch e) const {
    const size_t idx = e == 0 ? 0 : static_cast<size_t>(e - 1);
    return history_[std::min(idx, history_.size() - 1)];
  }

  static const OwnedSlice& SliceContaining(const std::vector<OwnedSlice>& m,
                                           Key key) {
    // Slices are sorted by lo and tile [0, kMaxKey]: binary search for
    // the last slice with lo <= key.
    size_t lo = 0, hi = m.size() - 1;
    while (lo < hi) {
      const size_t mid = (lo + hi + 1) / 2;
      if (m[mid].lo <= key) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    return m[lo];
  }

  Partitioner seed_;
  size_t capacity_;
  mutable std::shared_mutex mu_;
  /// history_[e-1] = the slice map of epoch e, sorted by lo, tiling
  /// [0, kMaxKey]. Empty for non-splittable (multi-shard hash) tables.
  /// Guarded by mu_.
  std::vector<std::vector<OwnedSlice>> history_;
};

}  // namespace wedge
