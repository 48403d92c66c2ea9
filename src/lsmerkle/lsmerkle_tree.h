// LsmerkleTree: the edge-resident mLSM state (paper §V).
//
// L0 is the WedgeChain log/buffer: a list of recent blocks whose put
// operations have been Phase I committed; each L0 page's hash is certified
// through the same block-certify/block-proof exchange as log blocks.
// Levels 1..n-1 hold immutable sorted pages with a Merkle tree per level
// and a global root over all level roots, re-signed by the cloud after
// every merge.

#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "log/block.h"
#include "lsmerkle/level.h"
#include "lsmerkle/merge.h"
#include "lsmerkle/root_certificate.h"

namespace wedge {

struct LsmConfig {
  /// Page-count thresholds per level; index 0 is the L0 block threshold.
  /// The paper's evaluation uses {10, 10, 100, 1000} (§VI).
  std::vector<size_t> level_thresholds{10, 10, 100, 1000};
  /// Target pairs per page produced by merges.
  size_t target_page_pairs = 100;
};

/// A block sitting in L0 along with its extracted put operations. The
/// block is shared (immutable once applied) so read responses reference
/// it instead of copying it; `newest` indexes the newest pair per key,
/// making point lookups a hash probe instead of a linear scan. `digest`
/// is the block's own digest, memoized when it enters L0: a read reply
/// sends the slot as a reference when the client holds this exact block.
struct L0Unit {
  std::shared_ptr<const Block> block;
  Digest256 digest;
  std::vector<KvPair> pairs;               // apply order
  std::unordered_map<Key, uint32_t> newest;  // key -> index into `pairs`
};

class LsmerkleTree {
 public:
  explicit LsmerkleTree(LsmConfig config);

  const LsmConfig& config() const { return config_; }

  /// Number of levels (including L0), fixed by the config.
  size_t level_count() const { return config_.level_thresholds.size(); }

  // ---- L0 ----

  /// Appends the block as the newest L0 unit. Kv-ness is content-
  /// defined: entries whose payloads decode as puts become pairs, raw
  /// append entries are kept (for id contiguity) but contribute none.
  Status ApplyBlock(Block block);

  const std::vector<L0Unit>& l0_units() const { return l0_; }
  size_t l0_count() const { return l0_.size(); }

  // ---- levels 1..n-1 ----

  /// Level `i` for i in [1, level_count).
  const LevelState& level(size_t i) const { return levels_.at(i - 1); }

  // ---- merging ----

  /// The lowest level whose size exceeds its threshold, if any. Merging
  /// that level into the next is the edge's next maintenance step.
  std::optional<size_t> NeedsMerge() const;

  /// True while a merge round-trip with the cloud is outstanding. The
  /// tree remains readable (immutability makes this safe), but no second
  /// merge may start.
  bool merge_in_flight() const { return merge_in_flight_; }
  void set_merge_in_flight(bool v) { merge_in_flight_ = v; }

  /// Installs the cloud's merge result: level `from` is emptied (for
  /// from==0, the first `consumed_l0` blocks leave L0), level `from+1`
  /// receives `merged`, and the new root certificate is recorded.
  /// The caller must have validated `cert` against the keystore.
  Status InstallMergeResult(size_t from, size_t consumed_l0,
                            std::vector<Page> merged, RootCertificate cert);

  /// Structural install without certificate bookkeeping: used when a
  /// response carries several cascaded merges followed by one final root
  /// certificate (edge-baseline), and by the cloud's own authoritative
  /// copy of an edge-baseline tree.
  Status InstallMergeRaw(size_t from, size_t consumed_l0,
                         std::vector<Page> merged);

  /// Records the epoch + root certificate; Corruption if the certificate's
  /// global root does not match the tree's recomputed one.
  Status SetEpochAndCert(RootCertificate cert);

  /// Advances the epoch without a certificate (trusted local state, e.g.
  /// the cloud's own tree in baselines).
  void set_epoch(Epoch e) { epoch_ = e; }

  /// Restores levels 1..n wholesale from recovered storage (manifest
  /// replay). `levels[i]` becomes level i+1. When `cert` is present the
  /// recomputed global root must match it; recovery fails otherwise
  /// (tampered or mismatched manifest). L0 is not touched — the caller
  /// re-applies un-merged kv blocks from the recovered log.
  Status RestoreLevels(std::vector<std::vector<Page>> levels, Epoch epoch,
                       std::optional<RootCertificate> cert);

  // ---- roots ----

  Epoch epoch() const { return epoch_; }

  /// Merkle roots of levels 1..n-1, in order.
  std::vector<Digest256> LevelRoots() const;

  Digest256 GlobalRoot() const { return ComputeGlobalRoot(epoch_, LevelRoots()); }

  const std::optional<RootCertificate>& root_cert() const {
    return root_cert_;
  }

  // ---- lookup ----

  struct FindResult {
    bool found = false;
    KvPair pair;
    /// 0 means found in L0; otherwise the level index.
    uint32_t level = 0;
  };

  /// Finds the newest version of `key`: L0 newest-block-first, then levels
  /// in order (lower levels are newer). Per-page bloom filters skip pages
  /// that certainly lack the key (advisory; see bloom.h). Disable with
  /// set_use_bloom(false) for the ablation.
  FindResult Lookup(Key key) const;

  void set_use_bloom(bool v) { use_bloom_ = v; }
  bool use_bloom() const { return use_bloom_; }

  /// Cumulative lookup accounting (for the bloom ablation): pages whose
  /// contents were actually searched vs pages skipped by a filter.
  struct LookupStats {
    uint64_t page_probes = 0;
    uint64_t bloom_skips = 0;
  };
  const LookupStats& lookup_stats() const { return lookup_stats_; }
  void reset_lookup_stats() { lookup_stats_ = {}; }

  /// Total key count estimate across levels (diagnostics).
  size_t ApproxPairCount() const;

 private:
  LsmConfig config_;
  std::vector<L0Unit> l0_;
  std::vector<LevelState> levels_;  // levels_[i] is level i+1
  Epoch epoch_ = 0;
  std::optional<RootCertificate> root_cert_;
  bool merge_in_flight_ = false;
  bool use_bloom_ = true;
  mutable LookupStats lookup_stats_;
};

}  // namespace wedge
