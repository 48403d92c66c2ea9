// Tests for the key-partitioned sharding subsystem: the Partitioner's
// ownership function, the ShardRouter's routing/stitching through the
// wedge::Store façade on all three backends, per-edge disjointness of the
// LSMerkle trees, and a tampering shard surfacing as SecurityViolation.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "api/shard_router.h"
#include "api/store.h"
#include "baselines/baseline_deployment.h"
#include "core/deployment.h"
#include "core/partitioner.h"
#include "workload/key_generator.h"

namespace wedge {
namespace {

Bytes Val(uint8_t tag) { return Bytes(16, tag); }

// ------------------------------------------------------------ Partitioner

TEST(PartitionerTest, HashIsTotalAndBalanced) {
  Partitioner part = Partitioner::Hash(4);
  std::map<size_t, size_t> counts;
  for (Key k = 0; k < 4000; ++k) {
    const size_t s = part.ShardOf(k);
    ASSERT_LT(s, 4u);
    counts[s]++;
  }
  ASSERT_EQ(counts.size(), 4u) << "some shard owns nothing";
  for (const auto& [s, n] : counts) {
    EXPECT_GT(n, 4000u / 8) << "shard " << s << " badly unbalanced";
  }
}

TEST(PartitionerTest, HashIsDeterministic) {
  Partitioner a = Partitioner::Hash(8);
  Partitioner b = Partitioner::Hash(8);
  for (Key k = 0; k < 1000; ++k) EXPECT_EQ(a.ShardOf(k), b.ShardOf(k));
}

TEST(PartitionerTest, RangeOwnershipMatchesOwnedRange) {
  for (const size_t shards : {2u, 3u, 4u, 7u}) {
    for (const uint64_t span : {10ull, 100ull, 1000ull, 12345ull}) {
      Partitioner part = Partitioner::Range(shards, span);
      for (Key k = 0; k < span + 10; ++k) {
        const size_t s = part.ShardOf(k);
        ASSERT_LT(s, shards);
        const auto [lo, hi] = part.OwnedRange(s);
        EXPECT_GE(k, lo) << "shards=" << shards << " span=" << span;
        EXPECT_LE(k, hi) << "shards=" << shards << " span=" << span;
      }
      // Ranges are contiguous and ordered: shard boundaries tile [0, max].
      Key expect_lo = 0;
      for (size_t s = 0; s < shards; ++s) {
        const auto [lo, hi] = part.OwnedRange(s);
        EXPECT_EQ(lo, expect_lo);
        if (s + 1 == shards) {
          EXPECT_EQ(hi, kMaxKey) << "last shard owns the tail";
        } else {
          expect_lo = hi + 1;
        }
      }
    }
  }
}

TEST(PartitionerTest, RangeScanTouchesOnlyIntersectingShards) {
  Partitioner part = Partitioner::Range(4, 100);  // 25 keys per shard
  EXPECT_TRUE(part.ScanTouches(0, 0, 10));
  EXPECT_FALSE(part.ScanTouches(1, 0, 10));
  EXPECT_TRUE(part.ScanTouches(1, 20, 30));
  EXPECT_TRUE(part.ScanTouches(0, 20, 30));
  EXPECT_FALSE(part.ScanTouches(3, 0, 74));
  // Clamps stay inside both the scan range and the shard.
  const auto [lo, hi] = part.ClampToShard(1, 20, 90);
  EXPECT_EQ(lo, 25u);
  EXPECT_EQ(hi, 49u);
}

TEST(PartitionerTest, HashScansTouchEveryShard) {
  Partitioner part = Partitioner::Hash(4);
  for (size_t s = 0; s < 4; ++s) EXPECT_TRUE(part.ScanTouches(s, 10, 20));
}

// ----------------------------------------------- partition-aware keygens

TEST(PartitionKeyGenTest, EmitsOnlyOwnedKeys) {
  for (const ShardScheme scheme : {ShardScheme::kHash, ShardScheme::kRange}) {
    const Partitioner part(scheme, 4, /*range_span=*/1000);
    for (size_t shard = 0; shard < 4; ++shard) {
      PartitionKeyGen gen(part, shard, /*key_space=*/1000, /*seed=*/99);
      for (int i = 0; i < 500; ++i) {
        const Key k = gen.Next();
        EXPECT_LT(k, 1000u);
        EXPECT_EQ(part.ShardOf(k), shard)
            << ShardSchemeToString(scheme) << " leaked key " << k;
      }
    }
  }
}

TEST(HotShardKeyGenTest, SkewsTowardTheHotShard) {
  const Partitioner part = Partitioner::Hash(4);
  HotShardKeyGen gen(part, /*hot_shard=*/2, /*hot_fraction=*/0.7,
                     /*key_space=*/10000, /*seed=*/5);
  std::map<size_t, size_t> counts;
  const int kDraws = 4000;
  for (int i = 0; i < kDraws; ++i) counts[part.ShardOf(gen.Next())]++;
  EXPECT_GT(counts[2], kDraws / 2) << "hot shard not hot";
  for (const size_t cold : {0u, 1u, 3u}) {
    EXPECT_GT(counts[cold], 0u) << "cold shard starved entirely";
    EXPECT_LT(counts[cold], static_cast<size_t>(kDraws) / 4);
  }
}

TEST(ShardRouterTest, BlockIdEncodingRoundTrips) {
  for (const size_t shards : {2u, 3u, 8u}) {
    for (BlockId inner = 0; inner < 50; ++inner) {
      for (size_t s = 0; s < shards; ++s) {
        const BlockId global = ShardRouter::GlobalBlockId(inner, s, shards);
        EXPECT_EQ(ShardRouter::ShardOfBlockId(global, shards), s);
        EXPECT_EQ(ShardRouter::InnerBlockId(global, shards), inner);
      }
    }
  }
}

// --------------------------------------------------- façade round trips

StoreOptions ShardedOptions(BackendKind kind, size_t shards,
                            ShardScheme scheme = ShardScheme::kHash,
                            uint64_t span = 0) {
  StoreOptions o;
  o.WithBackend(kind)
      .WithSeed(7)
      .WithOpsPerBlock(4)
      .WithLsm({3, 2, 8}, 8)
      .WithProofTimeout(2 * kSecond)
      .WithShards(shards, scheme, span);
  o.deploy.net.jitter_frac = 0.0;
  return o;
}

/// Client-visible outcome of the canonical call sequence, for comparison
/// across shard counts. Versions and block ids are intentionally absent:
/// both encode per-edge block numbering, which legitimately differs.
struct VisibleResults {
  std::map<Key, std::pair<bool, Bytes>> gets;
  std::vector<std::pair<Key, Bytes>> scan;
  bool scan_verified = false;
};

VisibleResults RunCanonicalSequence(Store& store) {
  // Two batches spanning the key space (and, hashed, every shard), then
  // an overwrite round.
  std::vector<std::pair<Key, Bytes>> first;
  for (Key k = 0; k < 8; ++k) first.emplace_back(k * 13 + 1, Val(1));
  EXPECT_TRUE(store.PutBatch(first).WaitPhase2().ok());
  std::vector<std::pair<Key, Bytes>> second;
  for (Key k = 0; k < 4; ++k) second.emplace_back(k * 13 + 1, Val(2));
  EXPECT_TRUE(store.PutBatch(second).WaitPhase2().ok());
  store.RunFor(kSecond);

  VisibleResults out;
  for (Key k = 0; k < 8; ++k) {
    const Key key = k * 13 + 1;
    auto got = store.Get(key);
    EXPECT_TRUE(got.ok()) << got.status();
    if (got.ok()) out.gets[key] = {got->found, got->value};
  }
  auto miss = store.Get(999);
  EXPECT_TRUE(miss.ok()) << miss.status();
  if (miss.ok()) out.gets[999] = {miss->found, miss->value};

  auto scan = store.Scan(0, 200);
  EXPECT_TRUE(scan.ok()) << scan.status();
  if (scan.ok()) {
    out.scan_verified = scan->verified;
    for (const auto& p : scan->pairs) out.scan.emplace_back(p.key, p.value);
  }
  return out;
}

class ShardedStoreTest : public ::testing::TestWithParam<BackendKind> {};

// The tentpole acceptance: the identical call sequence on shard counts
// {1, 2, 4} yields identical client-visible results on every backend.
TEST_P(ShardedStoreTest, IdenticalResultsAcrossShardCounts) {
  std::vector<VisibleResults> results;
  for (const size_t shards : {1u, 2u, 4u}) {
    auto opened = Store::Open(ShardedOptions(GetParam(), shards));
    ASSERT_TRUE(opened.ok()) << "shards=" << shards << ": " << opened.status();
    Store store = std::move(*opened);
    EXPECT_EQ(store.shard_count(), shards);
    results.push_back(RunCanonicalSequence(store));
  }
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].gets, results[0].gets) << "shard count diverged";
    EXPECT_EQ(results[i].scan, results[0].scan) << "scan diverged";
    EXPECT_EQ(results[i].scan_verified, results[0].scan_verified);
  }
  // Sanity: the sequence actually observed data.
  EXPECT_EQ(results[0].scan.size(), 8u);
  EXPECT_TRUE(results[0].gets.at(1).first);
  EXPECT_FALSE(results[0].gets.at(999).first);
}

// Range sharding routes by contiguous slices and must agree with hash
// sharding on what the client sees.
TEST_P(ShardedStoreTest, RangeSchemeMatchesHashScheme) {
  auto hash_opened = Store::Open(ShardedOptions(GetParam(), 4));
  ASSERT_TRUE(hash_opened.ok()) << hash_opened.status();
  Store hash_store = std::move(*hash_opened);
  VisibleResults hashed = RunCanonicalSequence(hash_store);

  auto range_opened = Store::Open(
      ShardedOptions(GetParam(), 4, ShardScheme::kRange, /*span=*/1000));
  ASSERT_TRUE(range_opened.ok()) << range_opened.status();
  Store range_store = std::move(*range_opened);
  VisibleResults ranged = RunCanonicalSequence(range_store);

  EXPECT_EQ(hashed.gets, ranged.gets);
  EXPECT_EQ(hashed.scan, ranged.scan);
}

// Cross-shard scans stitch per-shard verified sub-scans: ascending keys,
// no duplicates, newest version per key, verified on the edge backends.
TEST_P(ShardedStoreTest, CrossShardScanStitchesVerifiedResults) {
  auto opened = Store::Open(ShardedOptions(GetParam(), 4));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  std::vector<std::pair<Key, Bytes>> kvs;
  for (Key k = 0; k < 16; ++k) kvs.emplace_back(k, Val(7));
  ASSERT_TRUE(store.PutBatch(kvs).WaitPhase2().ok());
  store.RunFor(kSecond);

  auto scan = store.Scan(0, 15);
  ASSERT_TRUE(scan.ok()) << scan.status();
  ASSERT_EQ(scan->pairs.size(), 16u);
  for (size_t i = 0; i < scan->pairs.size(); ++i) {
    EXPECT_EQ(scan->pairs[i].key, i) << "stitching lost order or keys";
    EXPECT_EQ(scan->pairs[i].value, Val(7));
  }
  EXPECT_EQ(scan->verified, GetParam() != BackendKind::kCloudOnly);

  // A sub-range spanning a strict subset of shards still stitches.
  auto part = store.Scan(3, 9);
  ASSERT_TRUE(part.ok()) << part.status();
  ASSERT_EQ(part->pairs.size(), 7u);
  EXPECT_EQ(part->pairs.front().key, 3u);
  EXPECT_EQ(part->pairs.back().key, 9u);
}

// Append/ReadBlock on a sharded store: acked block ids are router-scoped
// and round-trip through ReadBlock on every backend.
TEST_P(ShardedStoreTest, ShardedAppendReadBlockRoundTrip) {
  auto opened = Store::Open(ShardedOptions(GetParam(), 2));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  AsyncCommit h = store.Append({Bytes{'a'}, Bytes{'b'}, Bytes{'c'},
                                Bytes{'d'}});
  auto p1 = h.WaitPhase1();
  ASSERT_TRUE(p1.ok()) << p1.status();
  ASSERT_TRUE(h.WaitPhase2().ok());

  auto read = store.ReadBlock(p1->block);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->block.id, p1->block);
  EXPECT_EQ(read->block.entries.size(), 4u);

  auto missing = store.ReadBlock(997);
  EXPECT_TRUE(missing.status().IsNotFound()) << missing.status();
}

// Writes spanning shards commit on every involved shard before either
// phase reports; mixed put/append sequences still verify.
TEST_P(ShardedStoreTest, MixedShardedWorkloadStillVerifies) {
  auto opened = Store::Open(ShardedOptions(GetParam(), 4));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  ASSERT_TRUE(store.PutBatch({{1, Val(1)}, {2, Val(1)}, {3, Val(1)},
                              {4, Val(1)}})
                  .WaitPhase2()
                  .ok());
  ASSERT_TRUE(store.Append({Bytes{'r'}, Bytes{'a'}, Bytes{'w'}, Bytes{'!'}})
                  .WaitPhase2()
                  .ok());
  ASSERT_TRUE(store.PutBatch({{5, Val(2)}, {6, Val(2)}, {7, Val(2)},
                              {8, Val(2)}})
                  .WaitPhase2()
                  .ok());
  store.RunFor(kSecond);

  auto scan = store.Scan(1, 8);
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_EQ(scan->pairs.size(), 8u);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, ShardedStoreTest, ::testing::ValuesIn(kAllBackends),
    [](const ::testing::TestParamInfo<BackendKind>& info) {
      std::string name(BackendKindToString(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// The routing layer's layout contract, observed from the deployment
// side: physical client c*S+s is pinned to the edge hosting shard s.
TEST(ShardedStoreTest, PhysicalClientsPinToTheirShardEdge) {
  StoreOptions o = ShardedOptions(BackendKind::kWedge, 4);
  o.WithClients(2);
  auto opened = Store::Open(o);
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  Deployment& d = store.wedge();
  ASSERT_EQ(d.client_count(), 2u * 4u) << "one physical client per "
                                          "(logical client, shard)";
  for (size_t c = 0; c < 2; ++c) {
    for (size_t s = 0; s < 4; ++s) {
      EXPECT_EQ(d.client(c * 4 + s).edge(), d.edge(s).id())
          << "physical client (" << c << "," << s << ") mis-pinned";
    }
  }
}

// ------------------------------------------------- per-edge disjointness

// Each shard's LSMerkle tree owns exactly its keys: the routed workload
// never leaks a key to a non-owning edge.
TEST(ShardedStoreTest, PerEdgeTreesOwnDisjointKeyRanges) {
  auto opened = Store::Open(ShardedOptions(BackendKind::kWedge, 4));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  std::vector<std::pair<Key, Bytes>> kvs;
  for (Key k = 0; k < 32; ++k) kvs.emplace_back(k, Val(3));
  ASSERT_TRUE(store.PutBatch(kvs).WaitPhase2().ok());
  store.RunFor(kSecond);

  const Partitioner& part = store.partitioner();
  Deployment& d = store.wedge();
  ASSERT_EQ(d.edge_count(), 4u);
  size_t found_total = 0;
  for (Key k = 0; k < 32; ++k) {
    for (size_t e = 0; e < d.edge_count(); ++e) {
      const bool found = d.edge(e).lsm().Lookup(k).found;
      if (part.ShardOf(k) == e) {
        EXPECT_TRUE(found) << "key " << k << " missing from owning shard "
                           << e;
        found_total += found ? 1 : 0;
      } else {
        EXPECT_FALSE(found) << "key " << k << " leaked to shard " << e;
      }
    }
  }
  EXPECT_EQ(found_total, 32u);
}

// ------------------------------------------------- tampering shards

Key KeyOwnedBy(const Partitioner& part, size_t shard, Key start = 0) {
  for (Key k = start;; ++k) {
    if (part.ShardOf(k) == shard) return k;
  }
}

// One lying shard is caught: reads routed to it fail as
// SecurityViolation, reads on honest shards still succeed, and a
// cross-shard scan fails because the tampered sub-scan fails.
TEST(ShardedStoreTest, SingleTamperingShardCaught) {
  auto opened = Store::Open(ShardedOptions(BackendKind::kWedge, 4));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);
  const Partitioner& part = store.partitioner();

  std::vector<std::pair<Key, Bytes>> kvs;
  for (Key k = 0; k < 16; ++k) kvs.emplace_back(k, Val(9));
  ASSERT_TRUE(store.PutBatch(kvs).WaitPhase2().ok());
  store.RunFor(kSecond);

  const size_t liar = 1;
  store.wedge().edge(liar).misbehavior().tamper_get_value = true;

  const Key bad_key = KeyOwnedBy(part, liar);
  ASSERT_LT(bad_key, 16u) << "test data must cover the lying shard";
  auto bad = store.Get(bad_key);
  EXPECT_TRUE(bad.status().IsSecurityViolation()) << bad.status();

  const Key good_key = KeyOwnedBy(part, 0);
  ASSERT_LT(good_key, 16u);
  auto good = store.Get(good_key);
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_EQ(good->value, Val(9)) << "honest shards must stay readable";

  // The logical client's view is the aggregate over its per-shard
  // sub-clients: the lie shows up in the summed verification failures.
  ClientStats total;
  Deployment& d = store.wedge();
  for (size_t s = 0; s < 4; ++s) total += d.client(s).stats();
  EXPECT_GE(total.verification_failures, 1u);
  EXPECT_GE(total.gets_ok, 1u) << "honest sub-clients kept serving";
}

TEST(ShardedStoreTest, TamperedShardFailsCrossShardScan) {
  StoreOptions o = ShardedOptions(BackendKind::kWedge, 4);
  o.WithLsm({2, 2, 8}, 4);  // small pages: scans span multi-page runs
  auto opened = Store::Open(o);
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  for (Key base = 0; base < 32; base += 4) {
    std::vector<std::pair<Key, Bytes>> kvs;
    for (Key k = base; k < base + 4; ++k) kvs.emplace_back(k, Val(5));
    ASSERT_TRUE(store.PutBatch(kvs).WaitPhase1().ok());
  }
  store.RunFor(10 * kSecond);

  auto honest = store.Scan(0, 31);
  ASSERT_TRUE(honest.ok()) << honest.status();
  EXPECT_EQ(honest->pairs.size(), 32u);

  store.wedge().edge(2).misbehavior().truncate_scans = true;
  auto truncated = store.Scan(0, 31);
  EXPECT_TRUE(truncated.status().IsSecurityViolation())
      << "a single tampering shard must fail the stitched scan, got "
      << truncated.status();
}

// ------------------------------------------------- option validation

TEST(ShardedOptionsTest, OpenRejectsBadShardConfigs) {
  {
    StoreOptions o;
    o.WithClients(0);
    EXPECT_TRUE(Store::Open(o).status().IsInvalidArgument());
  }
  {
    StoreOptions o;
    o.deploy.num_edges = 0;
    EXPECT_TRUE(Store::Open(o).status().IsInvalidArgument());
  }
  {
    StoreOptions o;
    o.WithShards(4).WithEdges(2);  // shards > edges
    EXPECT_TRUE(Store::Open(o).status().IsInvalidArgument());
  }
  {
    StoreOptions o;  // range scheme with a span smaller than the shards
    o.WithShards(4, ShardScheme::kRange, /*range_span=*/2);
    EXPECT_TRUE(Store::Open(o).status().IsInvalidArgument());
  }
  {
    StoreOptions o;  // spare edges beyond the shard count are fine
    o.WithShards(2).WithEdges(4);
    EXPECT_TRUE(Store::Open(o).ok());
  }
}

}  // namespace
}  // namespace wedge
