// Tests for the bloom filter and the verifiable range-scan extension:
// filter properties, proof assembly/verification, tamper detection, and
// client-edge-cloud integration.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/deployment.h"
#include "core/read_service.h"
#include "lsmerkle/bloom.h"
#include "lsmerkle/merge.h"
#include "lsmerkle/scan_proof.h"
#include "wire/session.h"

namespace wedge {
namespace {

// ------------------------------------------------------------ BloomFilter

class BloomSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BloomSizeTest, NoFalseNegatives) {
  const size_t n = GetParam();
  std::vector<Key> keys;
  for (size_t i = 0; i < n; ++i) keys.push_back(i * 7919 + 13);
  auto filter = BloomFilter::Build(keys);
  for (Key k : keys) {
    EXPECT_TRUE(filter.MayContain(k)) << "false negative for " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BloomSizeTest,
                         ::testing::Values(1, 2, 10, 100, 1000, 10000));

TEST(BloomFilterTest, EmptyFilterContainsNothing) {
  auto filter = BloomFilter::Build({});
  EXPECT_TRUE(filter.empty());
  EXPECT_FALSE(filter.MayContain(0));
  EXPECT_FALSE(filter.MayContain(42));
}

TEST(BloomFilterTest, FalsePositiveRateNearOnePercent) {
  std::vector<Key> keys;
  for (Key k = 0; k < 10000; ++k) keys.push_back(k * 2);  // evens
  auto filter = BloomFilter::Build(keys, 10);
  size_t false_positives = 0;
  const size_t probes = 10000;
  for (size_t i = 0; i < probes; ++i) {
    if (filter.MayContain(i * 2 + 1)) ++false_positives;  // odds: absent
  }
  // 10 bits/key targets ~1%; allow generous slack against hash quirks.
  EXPECT_LT(false_positives, probes * 3 / 100)
      << "fp rate " << (100.0 * false_positives / probes) << "%";
  EXPECT_GT(false_positives, 0u) << "a bloom filter this small cannot be "
                                    "perfect; suspicious build";
}

TEST(BloomFilterTest, MoreBitsFewerFalsePositives) {
  std::vector<Key> keys;
  for (Key k = 0; k < 5000; ++k) keys.push_back(k * 2);
  auto small = BloomFilter::Build(keys, 4);
  auto large = BloomFilter::Build(keys, 16);
  size_t fp_small = 0, fp_large = 0;
  for (size_t i = 0; i < 5000; ++i) {
    if (small.MayContain(i * 2 + 1)) ++fp_small;
    if (large.MayContain(i * 2 + 1)) ++fp_large;
  }
  EXPECT_LT(fp_large, fp_small);
}

TEST(BloomFilterTest, EncodeDecodeRoundTrip) {
  std::vector<Key> keys = {1, 5, 99, 1000000, kMaxKey};
  auto filter = BloomFilter::Build(keys);
  Encoder enc;
  filter.EncodeTo(&enc);
  Decoder dec(enc.buffer());
  auto back = BloomFilter::DecodeFrom(&dec);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, filter);
  for (Key k : keys) EXPECT_TRUE(back->MayContain(k));
}

TEST(BloomFilterTest, DecodeRejectsBadProbeCount) {
  Encoder enc;
  enc.PutU32(99);  // > 30
  enc.PutBytes(Slice("somebits"));
  Decoder dec(enc.buffer());
  auto back = BloomFilter::DecodeFrom(&dec);
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsCorruption());
}

// ------------------------------------- bloom integration in LsmerkleTree

class ScanFixture : public ::testing::Test {
 protected:
  ScanFixture()
      : client_(keystore_.Register(Role::kClient, "client")),
        cloud_(keystore_.Register(Role::kCloud, "cloud")),
        edge_(keystore_.Register(Role::kEdge, "edge")),
        tree_(MakeConfig()) {}

  static LsmConfig MakeConfig() {
    LsmConfig cfg;
    cfg.level_thresholds = {4, 3, 8};
    cfg.target_page_pairs = 4;  // small pages => multi-page runs
    return cfg;
  }

  /// Applies a kv block of `puts` to the log + tree and certifies it.
  void ApplyBlock(const std::vector<std::pair<Key, Bytes>>& puts) {
    Block b;
    b.id = log_.size();
    b.created_at = 1000 + static_cast<SimTime>(b.id);
    for (const auto& [k, v] : puts) {
      b.entries.push_back(
          Entry::Make(client_, next_seq_++, EncodePutPayload(k, v)));
      model_[k] = v;
    }
    ASSERT_TRUE(log_.Append(b).ok());
    ASSERT_TRUE(log_
                    .SetCertificate(BlockCertificate::Make(
                        cloud_, edge_.id(), b.id, b.Digest(), 2000))
                    .ok());
    ASSERT_TRUE(tree_.ApplyBlock(b).ok());
  }

  /// Merges all current L0 blocks into level 1, cloud-signed.
  void MergeL0() {
    std::vector<KvPair> newer;
    for (const auto& unit : tree_.l0_units()) {
      newer.insert(newer.end(), unit.pairs.begin(), unit.pairs.end());
    }
    const size_t consumed = tree_.l0_count();
    auto merged = MergeIntoPages(std::move(newer), tree_.level(1).pages(),
                                 MakeConfig().target_page_pairs, 3000);
    ASSERT_TRUE(merged.ok());
    ASSERT_TRUE(tree_.InstallMergeRaw(0, consumed, *merged).ok());
    const Epoch e = tree_.epoch() + 1;
    auto cert = RootCertificate::Make(
        cloud_, edge_.id(), e, ComputeGlobalRoot(e, tree_.LevelRoots()),
        3000);
    ASSERT_TRUE(tree_.SetEpochAndCert(cert).ok());
  }

  /// The model answer for scan [lo, hi].
  std::map<Key, Bytes> ModelScan(Key lo, Key hi) const {
    std::map<Key, Bytes> out;
    for (const auto& [k, v] : model_) {
      if (k >= lo && k <= hi) out[k] = v;
    }
    return out;
  }

  KeyStore keystore_;
  Signer client_;
  Signer cloud_;
  Signer edge_;
  EdgeLog log_;
  LsmerkleTree tree_;
  std::map<Key, Bytes> model_;
  SeqNum next_seq_ = 1;
};

TEST_F(ScanFixture, BloomSkipsLevelsForAbsentKeys) {
  for (Key base : {0ull, 100ull, 200ull}) {
    ApplyBlock({{base + 1, Bytes{1}}, {base + 2, Bytes{2}}});
  }
  MergeL0();
  tree_.reset_lookup_stats();

  // Absent keys: with dense pages and sparse keys most lookups skip.
  for (Key k = 1000; k < 1100; ++k) {
    EXPECT_FALSE(tree_.Lookup(k).found);
  }
  const auto with_bloom = tree_.lookup_stats();
  EXPECT_GT(with_bloom.bloom_skips, 50u);

  // Present keys must always be found, bloom on or off.
  for (Key base : {0ull, 100ull, 200ull}) {
    EXPECT_TRUE(tree_.Lookup(base + 1).found);
    EXPECT_TRUE(tree_.Lookup(base + 2).found);
  }
  tree_.set_use_bloom(false);
  tree_.reset_lookup_stats();
  for (Key k = 1000; k < 1100; ++k) {
    EXPECT_FALSE(tree_.Lookup(k).found);
  }
  const auto without_bloom = tree_.lookup_stats();
  EXPECT_EQ(without_bloom.bloom_skips, 0u);
  EXPECT_GT(without_bloom.page_probes, with_bloom.page_probes);
}

// --------------------------------------------------- scan proof: honest

TEST_F(ScanFixture, HonestScanVerifiesAndMatchesModel) {
  ApplyBlock({{10, Bytes{1}}, {20, Bytes{2}}, {30, Bytes{3}}, {40, Bytes{4}}});
  ApplyBlock({{50, Bytes{5}}, {60, Bytes{6}}, {70, Bytes{7}}, {80, Bytes{8}}});
  MergeL0();
  ApplyBlock({{15, Bytes{9}}, {20, Bytes{10}}});  // 20 overwritten in L0

  auto body = AssembleScanResponse(tree_, log_, 10, 60);
  auto verified = VerifyScanResponse(keystore_, edge_.id(), 10, 60, body);
  ASSERT_TRUE(verified.ok()) << verified.status();

  auto expect = ModelScan(10, 60);
  ASSERT_EQ(verified->pairs.size(), expect.size());
  auto it = expect.begin();
  for (const KvPair& p : verified->pairs) {
    EXPECT_EQ(p.key, it->first);
    EXPECT_EQ(p.value, it->second);
    ++it;
  }
  // All L0 blocks certified in this fixture: Phase II scan.
  EXPECT_TRUE(verified->phase2);
}

TEST_F(ScanFixture, ScanAcrossMultiplePagesAndLevels) {
  // 24 keys over several merge rounds: level 1 ends with multiple pages.
  for (Key base = 0; base < 24; base += 4) {
    ApplyBlock({{base, Bytes{1}},
                {base + 1, Bytes{2}},
                {base + 2, Bytes{3}},
                {base + 3, Bytes{4}}});
    if (tree_.l0_count() >= 2) MergeL0();
  }
  ASSERT_GT(tree_.level(1).page_count(), 1u);

  auto body = AssembleScanResponse(tree_, log_, 3, 20);
  auto verified = VerifyScanResponse(keystore_, edge_.id(), 3, 20, body);
  ASSERT_TRUE(verified.ok()) << verified.status();
  EXPECT_EQ(verified->pairs.size(), ModelScan(3, 20).size());
}

TEST_F(ScanFixture, EmptyRangeVerifiesWithNoPairs) {
  ApplyBlock({{10, Bytes{1}}, {20, Bytes{2}}});
  MergeL0();
  auto body = AssembleScanResponse(tree_, log_, 500, 600);
  auto verified = VerifyScanResponse(keystore_, edge_.id(), 500, 600, body);
  ASSERT_TRUE(verified.ok()) << verified.status();
  EXPECT_TRUE(verified->pairs.empty());
}

TEST_F(ScanFixture, ScanOnEmptyTreeVerifies) {
  auto body = AssembleScanResponse(tree_, log_, 0, 100);
  auto verified = VerifyScanResponse(keystore_, edge_.id(), 0, 100, body);
  ASSERT_TRUE(verified.ok()) << verified.status();
  EXPECT_TRUE(verified->pairs.empty());
}

TEST_F(ScanFixture, ScanNewestVersionWinsAcrossLevels) {
  ApplyBlock({{7, Bytes{1}}, {8, Bytes{1}}, {9, Bytes{1}}, {11, Bytes{1}}});
  MergeL0();  // version 1 of key 7 now in level 1
  ApplyBlock({{7, Bytes{2}}, {12, Bytes{2}}});  // newer 7 in L0

  auto body = AssembleScanResponse(tree_, log_, 7, 7);
  auto verified = VerifyScanResponse(keystore_, edge_.id(), 7, 7, body);
  ASSERT_TRUE(verified.ok()) << verified.status();
  ASSERT_EQ(verified->pairs.size(), 1u);
  EXPECT_EQ(verified->pairs[0].value, Bytes{2});
}

TEST_F(ScanFixture, InvertedRangeIsInvalidArgument) {
  auto body = AssembleScanResponse(tree_, log_, 10, 60);
  auto verified = VerifyScanResponse(keystore_, edge_.id(), 60, 10, body);
  ASSERT_FALSE(verified.ok());
  EXPECT_TRUE(verified.status().IsInvalidArgument());
}

// -------------------------------------------------- scan proof: attacks

TEST_F(ScanFixture, TruncatedRunDetected) {
  for (Key base = 0; base < 24; base += 4) {
    ApplyBlock({{base, Bytes{1}},
                {base + 1, Bytes{2}},
                {base + 2, Bytes{3}},
                {base + 3, Bytes{4}}});
    if (tree_.l0_count() >= 2) MergeL0();
  }
  ASSERT_GT(tree_.level(1).page_count(), 1u);

  auto body = AssembleScanResponse(tree_, log_, 0, 23,
                                   /*drop_last_run_page=*/true);
  auto verified = VerifyScanResponse(keystore_, edge_.id(), 0, 23, body);
  ASSERT_FALSE(verified.ok());
  EXPECT_TRUE(verified.status().IsSecurityViolation());
}

TEST_F(ScanFixture, WithheldMiddlePageDetected) {
  for (Key base = 0; base < 32; base += 4) {
    ApplyBlock({{base, Bytes{1}},
                {base + 1, Bytes{2}},
                {base + 2, Bytes{3}},
                {base + 3, Bytes{4}}});
    if (tree_.l0_count() >= 2) MergeL0();
  }
  auto body = AssembleScanResponse(tree_, log_, 0, 31);
  ASSERT_FALSE(body.runs.empty());
  ASSERT_GT(body.runs[0].pages.size(), 2u);
  // Drop an interior page: adjacency must break.
  body.runs[0].pages.erase(body.runs[0].pages.begin() + 1);
  body.runs[0].proofs.erase(body.runs[0].proofs.begin() + 1);
  auto verified = VerifyScanResponse(keystore_, edge_.id(), 0, 31, body);
  ASSERT_FALSE(verified.ok());
  EXPECT_TRUE(verified.status().IsSecurityViolation());
}

TEST_F(ScanFixture, TamperedClaimedValueDetected) {
  ApplyBlock({{10, Bytes{1}}, {20, Bytes{2}}});
  auto body = AssembleScanResponse(tree_, log_, 0, 100);
  ASSERT_FALSE(body.pairs.empty());
  body.pairs[0].value = Bytes{0xbad & 0xff};
  auto verified = VerifyScanResponse(keystore_, edge_.id(), 0, 100, body);
  ASSERT_FALSE(verified.ok());
  EXPECT_TRUE(verified.status().IsSecurityViolation());
}

TEST_F(ScanFixture, OmittedClaimedKeyDetected) {
  ApplyBlock({{10, Bytes{1}}, {20, Bytes{2}}});
  auto body = AssembleScanResponse(tree_, log_, 0, 100);
  ASSERT_EQ(body.pairs.size(), 2u);
  body.pairs.erase(body.pairs.begin());
  auto verified = VerifyScanResponse(keystore_, edge_.id(), 0, 100, body);
  ASSERT_FALSE(verified.ok());
  EXPECT_TRUE(verified.status().IsSecurityViolation());
}

TEST_F(ScanFixture, TamperedPageContentFailsMerkleCheck) {
  ApplyBlock({{10, Bytes{1}}, {20, Bytes{2}}, {30, Bytes{3}}, {40, Bytes{4}}});
  MergeL0();
  auto body = AssembleScanResponse(tree_, log_, 0, 100);
  ASSERT_FALSE(body.runs.empty());
  ASSERT_FALSE(body.runs[0].pages[0]->pairs.empty());
  // Tamper via copy-and-replace: responses share immutable pages, and a
  // copy drops the memoized digest, so the forged content re-hashes.
  Page tampered = *body.runs[0].pages[0];
  tampered.pairs[0].value = Bytes{0xee};
  body.runs[0].pages[0] = std::make_shared<const Page>(std::move(tampered));
  auto verified = VerifyScanResponse(keystore_, edge_.id(), 0, 100, body);
  ASSERT_FALSE(verified.ok());
  EXPECT_TRUE(verified.status().IsSecurityViolation());
}

TEST_F(ScanFixture, MissingLevelRunDetected) {
  ApplyBlock({{10, Bytes{1}}, {20, Bytes{2}}, {30, Bytes{3}}, {40, Bytes{4}}});
  MergeL0();
  auto body = AssembleScanResponse(tree_, log_, 0, 100);
  ASSERT_FALSE(body.runs.empty());
  body.runs.clear();  // pretend the levels have nothing
  auto verified = VerifyScanResponse(keystore_, edge_.id(), 0, 100, body);
  ASSERT_FALSE(verified.ok());
  EXPECT_TRUE(verified.status().IsSecurityViolation());
}

TEST_F(ScanFixture, RootCertForDifferentEdgeDetected) {
  ApplyBlock({{10, Bytes{1}}, {20, Bytes{2}}, {30, Bytes{3}}, {40, Bytes{4}}});
  MergeL0();
  auto body = AssembleScanResponse(tree_, log_, 0, 100);
  // Re-sign the root for a different edge id.
  ASSERT_TRUE(body.root_cert.has_value());
  body.root_cert = RootCertificate::Make(cloud_, edge_.id() + 1,
                                         body.root_cert->epoch,
                                         body.root_cert->global_root, 3000);
  auto verified = VerifyScanResponse(keystore_, edge_.id(), 0, 100, body);
  ASSERT_FALSE(verified.ok());
  EXPECT_TRUE(verified.status().IsSecurityViolation());
}

// The cloud's dispute check sets an unresolved reference aside. No
// content of that block could excuse a dropped run page or an omitted
// level key, so those still convict; a claim the block could explain
// does not.
TEST_F(ScanFixture, SetAsideReferenceNeitherConvictsNorShields) {
  for (Key base = 0; base < 24; base += 4) {
    ApplyBlock({{base, Bytes{1}},
                {base + 1, Bytes{2}},
                {base + 2, Bytes{3}},
                {base + 3, Bytes{4}}});
    if (tree_.l0_count() >= 2) MergeL0();
  }
  ApplyBlock({{5, Bytes{9}}, {30, Bytes{9}}});
  ApplyBlock({{31, Bytes{9}}});
  ASSERT_GT(tree_.level(1).page_count(), 1u);
  const L0Unit& first = tree_.l0_units().front();
  const std::vector<BlockRef> held = {{first.block->id, first.digest}};
  auto check = [&](const ScanResponseBody& body) {
    GetVerifyOptions opts;
    opts.set_aside_unresolved = true;
    return VerifyScanResponse(keystore_, edge_.id(), 0, 31, body, opts)
        .status();
  };

  // Honest, with its first L0 slot unresolved: the client's verifier
  // rejects the slot, the dispute check cannot decide.
  const auto honest = AssembleScanResponse(tree_, log_, 0, 31, false, held);
  ASSERT_EQ(honest.l0_blocks[0], nullptr);
  EXPECT_TRUE(VerifyScanResponse(keystore_, edge_.id(), 0, 31, honest)
                  .status()
                  .IsSecurityViolation());
  EXPECT_TRUE(check(honest).IsNotFound()) << check(honest);

  // Key 30 lives only in the set-aside block: omitting it proves nothing.
  auto body = honest;
  body.pairs.erase(std::find_if(body.pairs.begin(), body.pairs.end(),
                                [](const KvPair& p) { return p.key == 30; }));
  EXPECT_TRUE(check(body).IsNotFound()) << check(body);

  // Key 10 lives in level 1: no block can remove it from the result.
  body = honest;
  body.pairs.erase(std::find_if(body.pairs.begin(), body.pairs.end(),
                                [](const KvPair& p) { return p.key == 10; }));
  EXPECT_TRUE(check(body).IsSecurityViolation()) << check(body);

  // A dropped run page fails the coverage check whatever L0 holds.
  body = AssembleScanResponse(tree_, log_, 0, 31, /*drop_last_run_page=*/true,
                              held);
  EXPECT_TRUE(check(body).IsSecurityViolation()) << check(body);
}

// ----------------------------------------------------------- integration

DeploymentConfig ScanDeployConfig() {
  DeploymentConfig cfg;
  cfg.seed = 5;
  cfg.net.jitter_frac = 0.0;
  cfg.edge.ops_per_block = 4;
  cfg.edge.lsm.level_thresholds = {2, 2, 8};
  cfg.edge.lsm.target_page_pairs = 4;
  cfg.cloud.target_page_pairs = 4;
  return cfg;
}

TEST(ScanIntegrationTest, ClientScanReturnsVerifiedRange) {
  Deployment d(ScanDeployConfig());
  d.Start();
  for (Key base = 0; base < 40; base += 4) {
    std::vector<std::pair<Key, Bytes>> kvs;
    for (Key k = base; k < base + 4; ++k) kvs.emplace_back(k, Bytes(16, 7));
    d.client().PutBatch(kvs);
  }
  d.sim().RunFor(10 * kSecond);

  Status status;
  std::vector<Key> keys;
  d.client().Scan(10, 25, [&](const Status& s, const VerifiedScan& scan,
                              SimTime) {
    status = s;
    for (const auto& p : scan.pairs) keys.push_back(p.key);
  });
  d.sim().RunFor(kSecond);

  ASSERT_TRUE(status.ok()) << status;
  ASSERT_EQ(keys.size(), 16u);
  for (size_t i = 0; i < keys.size(); ++i) EXPECT_EQ(keys[i], 10 + i);
  EXPECT_EQ(d.client().stats().scans_ok, 1u);
  EXPECT_EQ(d.edge().stats().scans_served, 1u);
}

TEST(ScanIntegrationTest, TruncatingEdgeDetectedByClient) {
  Deployment d(ScanDeployConfig());
  d.Start();
  for (Key base = 0; base < 40; base += 4) {
    std::vector<std::pair<Key, Bytes>> kvs;
    for (Key k = base; k < base + 4; ++k) kvs.emplace_back(k, Bytes(16, 7));
    d.client().PutBatch(kvs);
  }
  d.sim().RunFor(10 * kSecond);
  ASSERT_GT(d.edge().lsm().level(1).page_count() +
                d.edge().lsm().level(2).page_count(),
            1u);

  d.edge().misbehavior().truncate_scans = true;
  Status status;
  d.client().Scan(0, 39, [&](const Status& s, const VerifiedScan&, SimTime) {
    status = s;
  });
  d.sim().RunFor(kSecond);

  EXPECT_TRUE(status.IsSecurityViolation()) << status;
  EXPECT_GE(d.client().stats().verification_failures, 1u);

  // The signed response convicts the edge: the client's dispute is
  // upheld by the cloud re-running the verifier, and the edge is
  // punished — lazy trust, extended to scans.
  d.sim().RunFor(2 * kSecond);
  EXPECT_GE(d.client().stats().disputes_sent, 1u);
  EXPECT_GE(d.client().stats().disputes_upheld, 1u);
  EXPECT_TRUE(d.cloud().IsFlagged(d.edge().id()));
  EXPECT_TRUE(d.authority().IsPunished(d.edge().id()));
}

// The truncating edge's reply sends the client's held L0 blocks as
// references, so the signed envelope alone no longer holds the evidence:
// the dispute supplies the referenced blocks and is still upheld.
TEST(ScanIntegrationTest, TruncatedScanWithReferencesStillConvicts) {
  auto cfg = ScanDeployConfig();
  cfg.edge.lsm.level_thresholds = {4, 2, 8};
  Deployment d(cfg);
  d.Start();
  auto put_block = [&d](Key base) {
    std::vector<std::pair<Key, Bytes>> kvs;
    for (Key k = base; k < base + 4; ++k) kvs.emplace_back(k, Bytes(16, 7));
    d.client().PutBatch(kvs);
  };
  for (Key base = 0; base < 44; base += 4) put_block(base);
  d.sim().RunFor(10 * kSecond);
  put_block(44);  // one block left in L0, under the merge threshold
  d.sim().RunFor(kSecond);
  ASSERT_GT(d.edge().lsm().l0_count(), 0u);

  // An honest scan first: the client now holds every L0 block.
  Status honest;
  d.client().Scan(0, 47, [&](const Status& s, const VerifiedScan&, SimTime) {
    honest = s;
  });
  d.sim().RunFor(kSecond);
  ASSERT_TRUE(honest.ok()) << honest;
  const uint64_t refs_before = d.edge().stats().l0_refs_sent;

  d.edge().misbehavior().truncate_scans = true;
  Status status;
  d.client().Scan(0, 47, [&](const Status& s, const VerifiedScan&, SimTime) {
    status = s;
  });
  d.sim().RunFor(3 * kSecond);
  EXPECT_TRUE(status.IsSecurityViolation()) << status;
  EXPECT_EQ(d.edge().stats().l0_refs_sent - refs_before,
            d.edge().lsm().l0_count());
  EXPECT_GE(d.client().stats().disputes_upheld, 1u);
  EXPECT_TRUE(d.cloud().IsFlagged(d.edge().id()));
  EXPECT_TRUE(d.authority().IsPunished(d.edge().id()));
}

// The cloud resolves a reference only with a supplied block whose digest
// is the one the edge sealed: a mismatching block leaves the reference
// unresolved and the edge unconvicted; the right block convicts.
TEST(ScanIntegrationTest, DisputeConvictsOnlyOnMatchingSuppliedBlock) {
  Deployment d(ScanDeployConfig());
  d.Start();
  KeyStore& ks = d.keystore();
  Signer rogue = ks.Register(Role::kEdge, "rogue");
  Signer witness = ks.Register(Role::kClient, "witness");
  class NullEp : public Endpoint {
    void OnMessage(NodeId, Slice, SimTime) override {}
  } null_ep, witness_ep;
  d.net().Attach(rogue.id(), Dc::kCalifornia, &null_ep);
  d.net().Attach(witness.id(), Dc::kCalifornia, &witness_ep);

  // The rogue's scan reply: one L0 slot by reference, and a claim that
  // omits key 3, which that block holds.
  Block held;
  held.id = 0;
  for (Key k = 1; k <= 3; ++k) {
    held.entries.push_back(
        Entry::Make(witness, k, EncodePutPayload(k, Bytes(4, 1))));
  }
  ScanResponse lie;
  lie.body.lo = 0;
  lie.body.hi = 10;
  lie.body.pairs = {{1, Bytes(4, 1), MakeVersion(0, 0)},
                    {2, Bytes(4, 1), MakeVersion(0, 1)}};
  lie.body.l0_blocks = {nullptr};
  lie.body.l0_certs = {std::nullopt};
  lie.body.l0_refs = {BlockRef{0, held.Digest()}};
  const Bytes evidence = SessionSealer(rogue).Seal(
      witness.id(), MsgType::kScanResponse, lie.Encode());

  // The witness disputes twice, so both go through one sealer: a fresh
  // one would restart the counter and the second dispute would die at
  // the cloud as a replay.
  SessionSealer witness_sealer(witness);
  auto dispute = [&](Block supplied) {
    Dispute m;
    m.kind = DisputeKind::kScanTruncation;
    m.edge = rogue.id();
    m.evidence = evidence;
    m.blocks = {std::move(supplied)};
    d.net().Send(witness.id(), d.cloud().id(),
                 witness_sealer.Seal(d.cloud().id(), MsgType::kDispute,
                                     m.Encode()));
    d.sim().RunFor(kSecond);
  };

  // Same bid, other content (digest differs). Filled in by bid alone,
  // it would convict: the claim omits its key 4 as well.
  Block other = held;
  other.entries.push_back(
      Entry::Make(witness, 4, EncodePutPayload(4, Bytes(4, 1))));
  dispute(other);
  EXPECT_EQ(d.cloud().stats().disputes_received, 1u);
  EXPECT_EQ(d.cloud().stats().disputes_upheld, 0u);
  EXPECT_FALSE(d.cloud().IsFlagged(rogue.id()));

  dispute(held);
  EXPECT_EQ(d.cloud().stats().disputes_upheld, 1u);
  EXPECT_TRUE(d.cloud().IsFlagged(rogue.id()));
}

// An edge that truncates a scan and also seals a reference the client
// never listed gains nothing by it. The client's resolve step fails and
// it disputes all the same; the cloud sets the unfillable slot aside and
// convicts on the key the claim omits from the block sent in full.
TEST(ScanIntegrationTest, TruncatedScanWithUnlistedReferenceStillConvicts) {
  Deployment d(ScanDeployConfig());
  d.Start();
  KeyStore& ks = d.keystore();
  Signer rogue = ks.Register(Role::kEdge, "rogue");
  class NullEp : public Endpoint {
    void OnMessage(NodeId, Slice, SimTime) override {}
  } null_ep;
  d.net().Attach(rogue.id(), Dc::kCalifornia, &null_ep);
  Signer victim_signer = ks.Register(Role::kClient, "victim");
  const NodeId victim_id = victim_signer.id();
  WedgeClient victim(d.runtime().ExecutorFor(victim_id, ExecRole::kPooled),
                     &d.transport(), &ks, std::move(victim_signer),
                     rogue.id(), d.cloud().id(), Dc::kCalifornia,
                     d.config().client, d.config().costs);
  victim.Start();

  Status status;
  victim.Scan(0, 10, [&](const Status& s, const VerifiedScan&, SimTime) {
    status = s;
  });

  // The reply to request 1: block 0 in full, holding keys 1..3, then a
  // reference to block 1, which the request did not list. The claim
  // omits key 3.
  Block full;
  full.id = 0;
  for (Key k = 1; k <= 3; ++k) {
    full.entries.push_back(
        Entry::Make(rogue, k, EncodePutPayload(k, Bytes(4, 1))));
  }
  ScanResponse lie;
  lie.req_id = 1;
  lie.body.lo = 0;
  lie.body.hi = 10;
  lie.body.pairs = ExtractKvPairs(full);
  lie.body.pairs.pop_back();
  lie.body.l0_blocks = {std::make_shared<const Block>(full), nullptr};
  lie.body.l0_certs = {std::nullopt, std::nullopt};
  lie.body.l0_refs = {std::nullopt,
                      BlockRef{1, Digest256::Of(Slice("never listed"))}};
  d.net().Send(rogue.id(), victim_id,
               SessionSealer(rogue).Seal(victim_id, MsgType::kScanResponse,
                                         lie.Encode()));
  d.sim().RunFor(3 * kSecond);

  EXPECT_TRUE(status.IsSecurityViolation()) << status;
  EXPECT_EQ(victim.stats().disputes_sent, 1u);
  EXPECT_EQ(victim.stats().disputes_upheld, 1u);
  EXPECT_TRUE(d.cloud().IsFlagged(rogue.id()));
  EXPECT_TRUE(d.authority().IsPunished(rogue.id()));
}

TEST(ScanIntegrationTest, HonestScanNeverTriggersDispute) {
  Deployment d(ScanDeployConfig());
  d.Start();
  for (Key base = 0; base < 16; base += 4) {
    std::vector<std::pair<Key, Bytes>> kvs;
    for (Key k = base; k < base + 4; ++k) kvs.emplace_back(k, Bytes(16, 7));
    d.client().PutBatch(kvs);
  }
  d.sim().RunFor(10 * kSecond);
  for (int i = 0; i < 5; ++i) {
    d.client().Scan(0, 15, [](const Status& s, const VerifiedScan&, SimTime) {
      EXPECT_TRUE(s.ok()) << s;
    });
    d.sim().RunFor(kSecond);
  }
  EXPECT_EQ(d.client().stats().disputes_sent, 0u);
  EXPECT_FALSE(d.cloud().IsFlagged(d.edge().id()));
}

}  // namespace
}  // namespace wedge
