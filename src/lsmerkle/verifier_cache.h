// VerifierCache: client-side memoization of verified authentication
// material across read requests (the trick CONIKS- and Merkle²-style
// transparency logs use to make repeated reads cheap).
//
// WedgeChain's read proofs repeat almost all of their material between
// requests: the same L0 blocks, the same covering pages, the same root
// certificate. Verifying each response from scratch re-hashes every L0
// block and re-checks every signature — the 0.19 ms/read of Fig. 5d. The
// cache remembers what has already been verified so the steady state only
// pays for what changed. It also feeds the held-block hint of read
// requests (HeldBlocks), so the edge sends held L0 blocks as references
// and the client fills them back in (ResolveHeldRefs).
//
// Soundness: every entry binds the *content* it vouches for, not just an
// id. A hit requires the presented bytes to equal the verified bytes
// (full-content equality — strictly stronger than comparing digests, and
// cheaper than re-hashing). A malicious edge that alters a block, page,
// certificate or root therefore cannot hit the cache with tampered
// content; it can only miss, which routes it into full verification and
// the usual SecurityViolation. Freshness-window and snapshot-monotonicity
// checks are deliberately outside the cache: a *valid but stale* replayed
// certificate hits the cache and is then rejected by those checks exactly
// as it would be without caching.
//
// The cache is per-client, single-threaded (like the clients themselves),
// and bounded: blocks and parts evict FIFO once the caps are reached.

#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "crypto/digest.h"
#include "log/block.h"
#include "log/certificate.h"
#include "lsmerkle/page.h"
#include "lsmerkle/root_certificate.h"
#include "merkle/merkle_tree.h"

namespace wedge {

class VerifierCache {
 public:
  struct Limits {
    size_t max_blocks = 128;
    size_t max_roots = 8;
    /// Distinct level roots with cached parts (old roots die on merge).
    size_t max_part_roots = 16;
    /// Total cached (root, page, proof) triples across all roots. Pages
    /// dominate the cache's memory (~page_bytes each), so this also
    /// bounds the footprint: 2048 pages of ~12 KB is ~24 MB worst case.
    size_t max_parts = 2048;
    /// Distinct level roots with cached scan runs.
    size_t max_run_roots = 16;
    /// Total pages held inside run entries across all roots (same
    /// footprint arithmetic as max_parts).
    size_t max_run_pages = 2048;
  };

  struct Stats {
    uint64_t root_hits = 0;
    uint64_t root_misses = 0;
    uint64_t block_hits = 0;
    uint64_t block_misses = 0;
    uint64_t part_hits = 0;
    uint64_t part_misses = 0;
    uint64_t run_hits = 0;
    uint64_t run_misses = 0;
  };

  VerifierCache() = default;
  explicit VerifierCache(Limits limits) : limits_(limits) {}

  // ---- root certificates -------------------------------------------

  /// True iff this exact (edge, certificate, level-roots) combination was
  /// fully validated before. Signature and global-root recomputation can
  /// then be skipped; freshness/staleness must still be checked.
  bool IsRootVerified(NodeId edge, const RootCertificate& cert,
                      const std::vector<Digest256>& level_roots);

  /// Records a fully validated root certificate.
  void RecordRoot(NodeId edge, const RootCertificate& cert,
                  const std::vector<Digest256>& level_roots);

  // ---- L0 blocks ----------------------------------------------------

  /// A verified block plus the derived material worth keeping: its
  /// digest, the newest put per key (for point lookups without decoding
  /// payloads), and the last certificate validated against it.
  struct BlockEntry {
    NodeId edge = kInvalidNodeId;
    std::shared_ptr<const Block> block;
    Digest256 digest;
    std::optional<BlockCertificate> cert;
    /// key -> newest (value, version) among this block's puts.
    std::unordered_map<Key, KvPair> newest;
  };

  /// The cached entry for (edge, bid), or null. The caller must compare
  /// the presented block against entry->block before trusting anything
  /// in the entry (content binding). Entries are shared so they stay
  /// valid across later Record* calls even if evicted meanwhile.
  std::shared_ptr<BlockEntry> FindBlock(NodeId edge, BlockId bid);

  /// Records a fully verified block. `newest` must be derived from the
  /// block's decoded payloads; `cert`, when present, must have been
  /// validated against `digest`.
  std::shared_ptr<BlockEntry> RecordBlock(
      NodeId edge, std::shared_ptr<const Block> block,
      const Digest256& digest, std::optional<BlockCertificate> cert,
      std::unordered_map<Key, KvPair> newest);

  /// The cached blocks of `edge` with bid >= `floor`, newest first, at
  /// most `max`: the held-block hint of a get or scan request. The
  /// caller keeps the returned entries until the reply is verified, so
  /// an eviction in between cannot lose a block the edge may reference.
  std::vector<std::shared_ptr<BlockEntry>> HeldBlocks(NodeId edge,
                                                      BlockId floor,
                                                      size_t max) const;

  /// The resolve step of a get or scan reply: fills every reference slot
  /// (`refs[i]` set, `(*blocks)[i]` null) with the block of the `held`
  /// entry it names. A reference to a block not in `held`, or with a
  /// digest other than the held copy's, is a SecurityViolation; the
  /// other slots are filled all the same, so a dispute can supply them.
  /// Returns the number of slots resolved.
  static Result<size_t> ResolveHeldRefs(
      const std::vector<std::shared_ptr<BlockEntry>>& held,
      const std::vector<std::optional<BlockRef>>& refs,
      std::vector<std::shared_ptr<const Block>>* blocks);

  // ---- level parts --------------------------------------------------

  /// True iff (level_root, page, proof) was verified before: the page's
  /// membership in the level is then established without re-hashing the
  /// page or walking the proof.
  bool IsPartVerified(const Digest256& level_root, const Page& page,
                      const MerkleProof& proof);

  /// Records a fully verified (level_root, page, proof) triple.
  void RecordPart(const Digest256& level_root,
                  std::shared_ptr<const Page> page, const MerkleProof& proof);

  // ---- scan runs ----------------------------------------------------

  /// True iff (level_root, page, proof) lies inside an already verified
  /// contiguous run of pages: page membership is then established without
  /// re-hashing or walking the proof. Same content binding as parts —
  /// a hit requires the presented page and proof to equal the verified
  /// copies byte for byte.
  bool IsRunVerified(const Digest256& level_root, const Page& page,
                     const MerkleProof& proof);

  /// Records a fully verified run of adjacent pages under `level_root`.
  /// Runs that overlap or touch an existing run merge into one entry, so
  /// a sequence of adjacent scans grows a single covering run instead of
  /// fragmenting — the next scan's overlap hits regardless of which scan
  /// verified it. `pages` and `proofs` must be parallel and the pages
  /// adjacent (VerifyScanResponse has already checked both).
  void RecordRun(const Digest256& level_root,
                 const std::vector<std::shared_ptr<const Page>>& pages,
                 const std::vector<MerkleProof>& proofs);

  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = {}; }
  void Clear();

  const Limits& limits() const { return limits_; }

  /// Re-sizes the cache, evicting FIFO until the new caps hold. Used by
  /// the sharded routing layer to keep per-shard cache budgets tracking
  /// key ownership across resharding epochs.
  void Resize(const Limits& limits);

  /// Drops every entry that vouches for keys in [lo, hi]: L0 block
  /// entries whose key index intersects the range and level parts whose
  /// page covers any of it. Root certificates bind no keys and stay.
  /// Called when a resharding epoch migrates [lo, hi] away from the edge
  /// this client is pinned to, so no proof material for moved keys can
  /// be replayed against the old owner.
  void InvalidateRange(Key lo, Key hi);

  /// Full validation of a presented root certificate against the level
  /// roots it must bind, shared by get and scan verification: signature,
  /// edge identity, and the global-root recomputation — skipped on a
  /// cache hit (content-equal certificate + level roots), recorded on
  /// success. Freshness/staleness checks are the caller's business.
  /// SecurityViolation on any mismatch.
  static Status VerifyPresentedRoot(const KeyStore& keystore, NodeId edge,
                                    const RootCertificate& cert,
                                    const std::vector<Digest256>& level_roots,
                                    VerifierCache* cache);

  /// Full set of checks for a response's presented L0 blocks, each with
  /// an optional certificate, shared by get and scan verification. With a
  /// cache, a content-equal block (or the cached block object itself, as
  /// a resolved reference presents it) skips re-hashing and re-validation
  /// and the returned entry's `newest` index replaces payload decoding;
  /// without one (`cache == nullptr`) the classic per-request checks run:
  /// reservation validation and, when a certificate is present, its
  /// signature plus a digest match against the re-hashed block.
  /// Cache-missed blocks are digested together through the multi-buffer
  /// hasher, then validated individually. Returns one entry per block
  /// (entries are nullptr when `cache == nullptr`), in input order, or
  /// SecurityViolation on any mismatch. `certs` must be parallel to
  /// `blocks`.
  static Result<std::vector<std::shared_ptr<BlockEntry>>>
  VerifyPresentedL0Blocks(const KeyStore& keystore, NodeId edge,
                          const std::vector<std::shared_ptr<const Block>>& blocks,
                          const std::vector<std::optional<BlockCertificate>>& certs,
                          VerifierCache* cache);

 private:
  struct RootEntry {
    NodeId edge = kInvalidNodeId;
    RootCertificate cert;
    std::vector<Digest256> level_roots;
  };
  struct PartEntry {
    std::shared_ptr<const Page> page;
    MerkleProof proof;
  };
  /// A verified contiguous run: pages tile [lo, hi] with no gaps, keyed
  /// inside by page min_key. One entry per maximal run per root — merges
  /// on record keep runs maximal, so lookup is one floor-search.
  struct RunEntry {
    Key hi = 0;  // run covers [its map key, hi]
    std::map<Key, PartEntry> pages;
  };

  Limits limits_;
  Stats stats_;

  std::deque<RootEntry> roots_;  // FIFO, capped at max_roots

  // (edge, bid) packed -> entry; FIFO eviction
  std::unordered_map<uint64_t, std::shared_ptr<BlockEntry>> blocks_;
  std::deque<uint64_t> block_order_;

  /// level_root -> (page min_key -> entry). One covering page per
  /// min_key per root, matching how levels tile the key space.
  std::unordered_map<Digest256, std::map<Key, PartEntry>> parts_;
  std::deque<Digest256> part_root_order_;  // FIFO eviction of whole roots
  size_t part_count_ = 0;

  /// level_root -> (run lo -> run). Disjoint, maximal runs per root.
  std::unordered_map<Digest256, std::map<Key, RunEntry>> runs_;
  std::deque<Digest256> run_root_order_;  // FIFO eviction of whole roots
  size_t run_page_count_ = 0;

  void EvictRunsToLimits();
};

}  // namespace wedge
