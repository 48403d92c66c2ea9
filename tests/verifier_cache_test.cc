// Tests for the client-side VerifierCache (lsmerkle/verifier_cache.h):
// warm-cache hits must not change verification outcomes, and — the part
// that matters — tampered content presented against a warm cache must
// still surface as SecurityViolation. Cache keys bind content, so a
// malicious edge can only miss the cache, never poison it.

#include <gtest/gtest.h>

#include "core/read_service.h"
#include "crypto/signature.h"
#include "log/edge_log.h"
#include "lsmerkle/merge.h"
#include "lsmerkle/scan_proof.h"
#include "lsmerkle/verifier_cache.h"

namespace wedge {
namespace {

Bytes Val(uint8_t tag) { return Bytes(8, tag); }

constexpr size_t kMaxHeld = 32;

/// A populated edge: a merged level 1 (signed root) plus fresh certified
/// L0 blocks on top — the steady state a reading client sees.
class VerifierCacheTest : public ::testing::Test {
 protected:
  VerifierCacheTest()
      : client_(keystore_.Register(Role::kClient, "client")),
        edge_(keystore_.Register(Role::kEdge, "edge")),
        cloud_(keystore_.Register(Role::kCloud, "cloud")),
        tree_(LsmConfig{{8, 8, 16}, 4}) {
    BlockId bid = 0;
    for (Key base = 0; base < 16; base += 4) {
      AddBlock(bid++, base);
    }
    // Merge everything into level 1 and certify the root.
    std::vector<KvPair> newer;
    for (const auto& unit : tree_.l0_units()) {
      newer.insert(newer.end(), unit.pairs.begin(), unit.pairs.end());
    }
    auto merged = *MergeIntoPages(std::move(newer), {}, 4, 1000);
    EXPECT_TRUE(
        tree_.InstallMergeRaw(0, tree_.l0_count(), std::move(merged)).ok());
    auto cert = RootCertificate::Make(
        cloud_, edge_.id(), 1, ComputeGlobalRoot(1, tree_.LevelRoots()),
        1000);
    EXPECT_TRUE(tree_.SetEpochAndCert(cert).ok());
    // Fresh L0 on top.
    for (Key base = 16; base < 24; base += 4) {
      AddBlock(bid++, base);
    }
  }

  void AddBlock(BlockId bid, Key base) {
    Block b;
    b.id = bid;
    for (Key k = base; k < base + 4; ++k) {
      b.entries.push_back(Entry::Make(
          client_, next_seq_++,
          EncodePutPayload(k, Val(static_cast<uint8_t>(k)))));
    }
    EXPECT_TRUE(log_.Append(b).ok());
    EXPECT_TRUE(log_
                    .SetCertificate(BlockCertificate::Make(
                        cloud_, edge_.id(), bid, b.Digest(), 1000))
                    .ok());
    EXPECT_TRUE(tree_.ApplyBlock(b).ok());
  }

  GetVerifyOptions CacheOpts() {
    GetVerifyOptions opts;
    opts.cache = &cache_;
    return opts;
  }

  KeyStore keystore_;
  Signer client_;
  Signer edge_;
  Signer cloud_;
  EdgeLog log_;
  LsmerkleTree tree_;
  SeqNum next_seq_ = 0;
  VerifierCache cache_;
};

TEST_F(VerifierCacheTest, WarmGetHitsCacheAndAgreesWithColdResult) {
  const Key key = 2;  // lives in the merged level
  auto body = AssembleGetResponse(tree_, log_, key);

  auto cold = VerifyGetResponse(keystore_, edge_.id(), key, body);
  ASSERT_TRUE(cold.ok()) << cold.status();

  auto first = VerifyGetResponse(keystore_, edge_.id(), key, body,
                                 CacheOpts());
  ASSERT_TRUE(first.ok()) << first.status();
  const auto after_first = cache_.stats();
  EXPECT_GT(after_first.block_misses, 0u);
  EXPECT_EQ(after_first.block_hits, 0u);

  auto second = VerifyGetResponse(keystore_, edge_.id(), key, body,
                                  CacheOpts());
  ASSERT_TRUE(second.ok()) << second.status();
  const auto after_second = cache_.stats();
  EXPECT_EQ(after_second.block_hits, tree_.l0_count());
  EXPECT_GT(after_second.root_hits, 0u);
  EXPECT_GT(after_second.part_hits, 0u);

  EXPECT_EQ(second->found, cold->found);
  EXPECT_EQ(second->value, cold->value);
  EXPECT_EQ(second->version, cold->version);
  EXPECT_EQ(second->phase2, cold->phase2);
}

TEST_F(VerifierCacheTest, TamperedPageWithCachedProofDetected) {
  const Key key = 2;
  auto body = AssembleGetResponse(tree_, log_, key);
  ASSERT_TRUE(
      VerifyGetResponse(keystore_, edge_.id(), key, body, CacheOpts()).ok());

  // Same proof, tampered page content: the (root, page, proof) triple no
  // longer matches any cached entry, so the Merkle check re-runs — and
  // fails.
  ASSERT_FALSE(body.parts.empty());
  Page tampered = *body.parts[0].page;
  ASSERT_FALSE(tampered.pairs.empty());
  tampered.pairs[0].value = Bytes{0xee};
  body.parts[0].page = std::make_shared<const Page>(std::move(tampered));

  auto v = VerifyGetResponse(keystore_, edge_.id(), key, body, CacheOpts());
  EXPECT_TRUE(v.status().IsSecurityViolation()) << v.status();
}

TEST_F(VerifierCacheTest, TamperedBlockContentMissesCacheAndFails) {
  const Key key = 17;  // lives in L0
  auto body = AssembleGetResponse(tree_, log_, key);
  ASSERT_TRUE(
      VerifyGetResponse(keystore_, edge_.id(), key, body, CacheOpts()).ok());

  // Rewrite the newest block's payload for `key`: content equality with
  // the cached block breaks, the full path re-hashes, and the certified
  // digest no longer matches.
  Block forged = *body.l0_blocks.back();
  ASSERT_FALSE(forged.entries.empty());
  forged.entries[1].payload = EncodePutPayload(key, Bytes{0xbb});
  body.l0_blocks.back() = std::make_shared<const Block>(std::move(forged));

  auto v = VerifyGetResponse(keystore_, edge_.id(), key, body, CacheOpts());
  EXPECT_TRUE(v.status().IsSecurityViolation()) << v.status();
}

TEST_F(VerifierCacheTest, ForgedBlockCertificateDetectedDespiteWarmCache) {
  const Key key = 17;
  auto body = AssembleGetResponse(tree_, log_, key);
  ASSERT_TRUE(
      VerifyGetResponse(keystore_, edge_.id(), key, body, CacheOpts()).ok());

  // The edge signs its own block certificate. The block content still
  // hits the cache; the unseen certificate is validated — and rejected.
  const Block& blk = *body.l0_blocks.back();
  body.l0_certs.back() =
      BlockCertificate::Make(edge_, edge_.id(), blk.id, blk.Digest(), 1000);

  auto v = VerifyGetResponse(keystore_, edge_.id(), key, body, CacheOpts());
  EXPECT_TRUE(v.status().IsSecurityViolation()) << v.status();
}

TEST_F(VerifierCacheTest, WrongDigestCertificateDetectedDespiteWarmCache) {
  const Key key = 17;
  auto body = AssembleGetResponse(tree_, log_, key);
  ASSERT_TRUE(
      VerifyGetResponse(keystore_, edge_.id(), key, body, CacheOpts()).ok());

  // Cloud-signed but for different content: caught against the cached
  // digest without re-hashing the block.
  const Block& blk = *body.l0_blocks.back();
  body.l0_certs.back() = BlockCertificate::Make(
      cloud_, edge_.id(), blk.id, Digest256::Of(Slice("forged")), 1000);

  auto v = VerifyGetResponse(keystore_, edge_.id(), key, body, CacheOpts());
  EXPECT_TRUE(v.status().IsSecurityViolation()) << v.status();
}

TEST_F(VerifierCacheTest, StaleRootCertificateStillFailsFreshness) {
  const Key key = 2;
  auto body = AssembleGetResponse(tree_, log_, key);
  ASSERT_TRUE(
      VerifyGetResponse(keystore_, edge_.id(), key, body, CacheOpts()).ok());

  // The replayed response is fully cache-resident and crypto-valid; the
  // freshness window (outside the cache) still rejects it.
  GetVerifyOptions opts = CacheOpts();
  opts.now = 100 * kSecond;
  opts.freshness_window = 10 * kSecond;
  auto v = VerifyGetResponse(keystore_, edge_.id(), key, body, opts);
  EXPECT_TRUE(v.status().IsFailedPrecondition()) << v.status();
}

TEST_F(VerifierCacheTest, ScanWarmCacheAgreesAndTamperDetected) {
  auto body = AssembleScanResponse(tree_, log_, 0, 23);
  auto cold = VerifyScanResponse(keystore_, edge_.id(), 0, 23, body);
  ASSERT_TRUE(cold.ok()) << cold.status();

  ASSERT_TRUE(VerifyScanResponse(keystore_, edge_.id(), 0, 23, body,
                                 CacheOpts())
                  .ok());
  auto warm = VerifyScanResponse(keystore_, edge_.id(), 0, 23, body,
                                 CacheOpts());
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_GT(cache_.stats().run_hits, 0u);
  ASSERT_EQ(warm->pairs.size(), cold->pairs.size());
  for (size_t i = 0; i < warm->pairs.size(); ++i) {
    EXPECT_TRUE(warm->pairs[i] == cold->pairs[i]) << "pair " << i;
  }

  ASSERT_FALSE(body.runs.empty());
  Page tampered = *body.runs[0].pages[0];
  ASSERT_FALSE(tampered.pairs.empty());
  tampered.pairs[0].value = Bytes{0xdd};
  body.runs[0].pages[0] = std::make_shared<const Page>(std::move(tampered));
  auto v =
      VerifyScanResponse(keystore_, edge_.id(), 0, 23, body, CacheOpts());
  EXPECT_TRUE(v.status().IsSecurityViolation()) << v.status();
}

TEST_F(VerifierCacheTest, AdjacentScansReuseOverlappingRuns) {
  // Level 1 tiles 0..15 into four 4-key pages. The first scan verifies
  // pages [0,3][4,7][8,11]; the adjacent second scan overlaps on [4,7]
  // and [8,11], which must come out of the run cache — only [12,15] is
  // hashed fresh.
  auto first = AssembleScanResponse(tree_, log_, 0, 11);
  ASSERT_TRUE(VerifyScanResponse(keystore_, edge_.id(), 0, 11, first,
                                 CacheOpts())
                  .ok());
  cache_.ResetStats();

  auto second = AssembleScanResponse(tree_, log_, 4, 15);
  auto cold = VerifyScanResponse(keystore_, edge_.id(), 4, 15, second);
  ASSERT_TRUE(cold.ok()) << cold.status();
  auto warm = VerifyScanResponse(keystore_, edge_.id(), 4, 15, second,
                                 CacheOpts());
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ(cache_.stats().run_hits, 2u);
  EXPECT_EQ(cache_.stats().run_misses, 1u);
  ASSERT_EQ(warm->pairs.size(), cold->pairs.size());
  for (size_t i = 0; i < warm->pairs.size(); ++i) {
    EXPECT_TRUE(warm->pairs[i] == cold->pairs[i]) << "pair " << i;
  }

  // The merged run now covers [0,15]: a third scan anywhere inside is
  // all hits, regardless of which scan verified which page.
  cache_.ResetStats();
  auto third = AssembleScanResponse(tree_, log_, 2, 13);
  ASSERT_TRUE(VerifyScanResponse(keystore_, edge_.id(), 2, 13, third,
                                 CacheOpts())
                  .ok());
  EXPECT_EQ(cache_.stats().run_misses, 0u);
  EXPECT_GT(cache_.stats().run_hits, 0u);
}

TEST_F(VerifierCacheTest, InvalidateRangeDropsScanRuns) {
  auto body = AssembleScanResponse(tree_, log_, 0, 15);
  ASSERT_TRUE(VerifyScanResponse(keystore_, edge_.id(), 0, 15, body,
                                 CacheOpts())
                  .ok());

  // The run covers [0,15]; invalidating any slice drops the whole run
  // (conservative — runs vouch for contiguity, so partial trims are not
  // attempted). The re-scan must re-verify from scratch and still agree.
  cache_.InvalidateRange(4, 7);
  cache_.ResetStats();
  auto v =
      VerifyScanResponse(keystore_, edge_.id(), 0, 15, body, CacheOpts());
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(cache_.stats().run_hits, 0u)
      << "invalidated run material must not hit";
  EXPECT_GT(cache_.stats().run_misses, 0u);
}

TEST_F(VerifierCacheTest, InvalidateRangeDropsOnlyCoveringEntries) {
  // Warm the cache with an L0 key (17, bid 4's block holds 16..19) and a
  // merged-level key (2, covered by a level-1 page).
  for (Key key : {Key(2), Key(17)}) {
    auto body = AssembleGetResponse(tree_, log_, key);
    ASSERT_TRUE(
        VerifyGetResponse(keystore_, edge_.id(), key, body, CacheOpts()).ok());
  }
  cache_.ResetStats();

  // Invalidate [16, 19]: the L0 block holding 16..19 and any page
  // covering the range must be gone; material for key 2 survives.
  cache_.InvalidateRange(16, 19);

  auto l0 = AssembleGetResponse(tree_, log_, 17);
  ASSERT_TRUE(
      VerifyGetResponse(keystore_, edge_.id(), 17, l0, CacheOpts()).ok());
  EXPECT_GT(cache_.stats().block_misses, 0u)
      << "the invalidated block must not hit";

  cache_.ResetStats();
  auto lvl = AssembleGetResponse(tree_, log_, 2);
  ASSERT_TRUE(
      VerifyGetResponse(keystore_, edge_.id(), 2, lvl, CacheOpts()).ok());
  EXPECT_GT(cache_.stats().part_hits, 0u)
      << "entries outside the range must survive";
}

TEST_F(VerifierCacheTest, ResizeEvictsDownToTheNewLimits) {
  for (Key key : {Key(2), Key(6), Key(17), Key(21)}) {
    auto body = AssembleGetResponse(tree_, log_, key);
    ASSERT_TRUE(
        VerifyGetResponse(keystore_, edge_.id(), key, body, CacheOpts()).ok());
  }
  VerifierCache::Limits tiny;
  tiny.max_blocks = 1;
  tiny.max_parts = 1;
  tiny.max_part_roots = 1;
  tiny.max_roots = 1;
  cache_.Resize(tiny);
  EXPECT_EQ(cache_.limits().max_blocks, 1u);

  // Still correct after the shrink (entries re-verify on miss), and a
  // later grow restores capacity.
  for (Key key : {Key(2), Key(17)}) {
    auto body = AssembleGetResponse(tree_, log_, key);
    auto v = VerifyGetResponse(keystore_, edge_.id(), key, body, CacheOpts());
    ASSERT_TRUE(v.ok()) << v.status();
    EXPECT_TRUE(v->found);
  }
  cache_.Resize(VerifierCache::Limits{});
  EXPECT_EQ(cache_.limits().max_blocks, VerifierCache::Limits{}.max_blocks);
}

TEST_F(VerifierCacheTest, EvictionKeepsResultsCorrect) {
  VerifierCache::Limits tiny;
  tiny.max_blocks = 1;
  tiny.max_parts = 1;
  tiny.max_part_roots = 1;
  tiny.max_roots = 1;
  VerifierCache small(tiny);
  GetVerifyOptions opts;
  opts.cache = &small;

  for (int round = 0; round < 3; ++round) {
    for (Key key : {Key(2), Key(17), Key(21)}) {
      auto body = AssembleGetResponse(tree_, log_, key);
      auto v = VerifyGetResponse(keystore_, edge_.id(), key, body, opts);
      ASSERT_TRUE(v.ok()) << "round " << round << " key " << key << ": "
                          << v.status();
      EXPECT_TRUE(v->found);
    }
  }
}

// --------------------------------------------- held-block references

/// The held-list entries for `held`, as a request carries them.
std::vector<BlockRef> Hint(
    const std::vector<std::shared_ptr<VerifierCache::BlockEntry>>& held) {
  std::vector<BlockRef> refs;
  for (const auto& e : held) refs.push_back({e->block->id, e->digest});
  return refs;
}

TEST_F(VerifierCacheTest, HeldBlocksAreNewestFirstAboveTheFloor) {
  auto body = AssembleGetResponse(tree_, log_, 17);
  ASSERT_TRUE(
      VerifyGetResponse(keystore_, edge_.id(), 17, body, CacheOpts()).ok());
  // L0 holds blocks 4 and 5.
  auto held = cache_.HeldBlocks(edge_.id(), 0, kMaxHeld);
  ASSERT_EQ(held.size(), 2u);
  EXPECT_EQ(held[0]->block->id, 5u);
  EXPECT_EQ(held[1]->block->id, 4u);
  EXPECT_EQ(held[0]->digest, held[0]->block->Digest());
  EXPECT_EQ(cache_.HeldBlocks(edge_.id(), 5, kMaxHeld).size(), 1u);
  EXPECT_TRUE(cache_.HeldBlocks(edge_.id(), 6, kMaxHeld).empty());
  ASSERT_EQ(cache_.HeldBlocks(edge_.id(), 0, 1).size(), 1u);
  EXPECT_EQ(cache_.HeldBlocks(edge_.id(), 0, 1)[0]->block->id, 5u);
  EXPECT_TRUE(cache_.HeldBlocks(cloud_.id(), 0, kMaxHeld).empty());
}

// Slots sent as references resolve to the held objects themselves, and
// the reply then verifies exactly like the full one — every L0 slot a
// cache hit. Left unresolved, the verifiers refuse the reply.
TEST_F(VerifierCacheTest, ResolvedReferencesVerifyLikeFullBlocks) {
  const Key key = 17;  // lives in L0
  auto full = AssembleGetResponse(tree_, log_, key);
  auto want = VerifyGetResponse(keystore_, edge_.id(), key, full, CacheOpts());
  ASSERT_TRUE(want.ok()) << want.status();
  const auto held = cache_.HeldBlocks(edge_.id(), 0, kMaxHeld);

  auto body = AssembleGetResponse(tree_, log_, key, false, Hint(held));
  ASSERT_EQ(body.l0_blocks.size(), 2u);
  EXPECT_EQ(body.l0_blocks[0], nullptr);
  EXPECT_EQ(body.l0_blocks[1], nullptr);
  EXPECT_TRUE(VerifyGetResponse(keystore_, edge_.id(), key, body, CacheOpts())
                  .status()
                  .IsSecurityViolation());

  auto resolved =
      VerifierCache::ResolveHeldRefs(held, body.l0_refs, &body.l0_blocks);
  ASSERT_TRUE(resolved.ok()) << resolved.status();
  EXPECT_EQ(*resolved, 2u);
  EXPECT_EQ(body.l0_blocks[1], held[0]->block);
  const auto before = cache_.stats();
  auto got = VerifyGetResponse(keystore_, edge_.id(), key, body, CacheOpts());
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->value, want->value);
  EXPECT_EQ(got->version, want->version);
  EXPECT_EQ(got->phase2, want->phase2);
  EXPECT_EQ(cache_.stats().block_hits - before.block_hits, 2u);
  EXPECT_EQ(cache_.stats().block_misses, before.block_misses);

  // Scans resolve the same way; the unresolved scan is refused too.
  auto scan = AssembleScanResponse(tree_, log_, 0, 23, false, Hint(held));
  EXPECT_TRUE(VerifyScanResponse(keystore_, edge_.id(), 0, 23, scan,
                                 CacheOpts())
                  .status()
                  .IsSecurityViolation());
  ASSERT_TRUE(
      VerifierCache::ResolveHeldRefs(held, scan.l0_refs, &scan.l0_blocks)
          .ok());
  auto verified =
      VerifyScanResponse(keystore_, edge_.id(), 0, 23, scan, CacheOpts());
  ASSERT_TRUE(verified.ok()) << verified.status();
  EXPECT_EQ(verified->pairs.size(), 24u);
}

// The resolve step accepts only references to blocks the request listed,
// with the listed digest: anything else is the edge lying.
TEST_F(VerifierCacheTest, ReferenceToUnlistedOrOtherBlockIsViolation) {
  const Key key = 17;
  auto full = AssembleGetResponse(tree_, log_, key);
  ASSERT_TRUE(
      VerifyGetResponse(keystore_, edge_.id(), key, full, CacheOpts()).ok());
  const auto held = cache_.HeldBlocks(edge_.id(), 0, kMaxHeld);
  ASSERT_EQ(held.size(), 2u);

  // The edge references both blocks; the request listed only block 5.
  auto body = AssembleGetResponse(tree_, log_, key, false, Hint(held));
  auto unlisted = VerifierCache::ResolveHeldRefs({held[0]}, body.l0_refs,
                                                 &body.l0_blocks);
  EXPECT_TRUE(unlisted.status().IsSecurityViolation()) << unlisted.status();
  // The listed block is filled all the same: a dispute supplies it.
  EXPECT_EQ(body.l0_blocks[0], nullptr);
  EXPECT_EQ(body.l0_blocks[1], held[0]->block);

  // Listed bid, other digest: the edge claims different content.
  body = AssembleGetResponse(tree_, log_, key, false, Hint(held));
  body.l0_refs[0]->digest = Digest256::Of(Slice("other block 4"));
  auto other = VerifierCache::ResolveHeldRefs(held, body.l0_refs,
                                              &body.l0_blocks);
  EXPECT_TRUE(other.status().IsSecurityViolation()) << other.status();
}

// A pinned entry outlives its eviction: the reply resolves from the pin
// and verifies without a second round trip.
TEST_F(VerifierCacheTest, PinnedEntriesResolveAfterEviction) {
  const Key key = 17;
  auto full = AssembleGetResponse(tree_, log_, key);
  ASSERT_TRUE(
      VerifyGetResponse(keystore_, edge_.id(), key, full, CacheOpts()).ok());
  const auto held = cache_.HeldBlocks(edge_.id(), 0, kMaxHeld);
  auto body = AssembleGetResponse(tree_, log_, key, false, Hint(held));
  cache_.Clear();  // everything evicted while the request was out

  ASSERT_TRUE(
      VerifierCache::ResolveHeldRefs(held, body.l0_refs, &body.l0_blocks)
          .ok());
  auto got = VerifyGetResponse(keystore_, edge_.id(), key, body, CacheOpts());
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_TRUE(got->found);
}

}  // namespace
}  // namespace wedge
