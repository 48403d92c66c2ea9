// Tests for the wedge::Store façade (api/store.h): the identical call
// sequence on all three backends, write-handle phase ordering, the
// backend capability surface, and a malicious edge surfacing as
// SecurityViolation through the façade.

#include <gtest/gtest.h>

#include <algorithm>

#include "api/store.h"
#include "baselines/baseline_deployment.h"
#include "core/deployment.h"

namespace wedge {
namespace {

StoreOptions SmallOptions(BackendKind kind) {
  StoreOptions o;
  o.WithBackend(kind)
      .WithSeed(7)
      .WithOpsPerBlock(4)
      .WithLsm({3, 2, 8}, 8)
      .WithProofTimeout(2 * kSecond);
  o.deploy.net.jitter_frac = 0.0;
  return o;
}

Bytes Val(uint8_t tag) { return Bytes(16, tag); }

class StoreApiTest : public ::testing::TestWithParam<BackendKind> {};

// The acceptance sequence: the same puts, gets and scans against every
// backend, switched by one option.
TEST_P(StoreApiTest, PutGetScanRoundTrip) {
  auto opened = Store::Open(SmallOptions(GetParam()));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  std::vector<std::pair<Key, Bytes>> kvs;
  for (Key k = 10; k < 14; ++k) kvs.emplace_back(k, Val(1));
  AsyncCommit write = store.PutBatch(kvs);

  auto p1 = write.WaitPhase1();
  ASSERT_TRUE(p1.ok()) << p1.status();
  auto p2 = write.WaitPhase2();
  ASSERT_TRUE(p2.ok()) << p2.status();
  EXPECT_GE(p2->at, p1->at);

  for (Key k = 10; k < 14; ++k) {
    auto got = store.Get(k);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_TRUE(got->found) << "key " << k;
    EXPECT_EQ(got->value, Val(1));
  }

  // Proof of absence (or a trusted miss, for cloud-only).
  auto miss = store.Get(999);
  ASSERT_TRUE(miss.ok()) << miss.status();
  EXPECT_FALSE(miss->found);

  // Scan covers exactly the written range, ascending.
  auto scan = store.Scan(10, 13);
  ASSERT_TRUE(scan.ok()) << scan.status();
  ASSERT_EQ(scan->pairs.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(scan->pairs[i].key, 10 + i);
    EXPECT_EQ(scan->pairs[i].value, Val(1));
  }

  // Overwrites: the newest version must win in gets and scans alike.
  std::vector<std::pair<Key, Bytes>> overwrite;
  for (Key k = 10; k < 14; ++k) overwrite.emplace_back(k, Val(2));
  auto w2 = store.PutBatch(overwrite).WaitPhase2();
  ASSERT_TRUE(w2.ok()) << w2.status();

  auto got = store.Get(12);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->value, Val(2));
  auto scan2 = store.Scan(10, 13);
  ASSERT_TRUE(scan2.ok()) << scan2.status();
  ASSERT_EQ(scan2->pairs.size(), 4u);
  for (const auto& p : scan2->pairs) EXPECT_EQ(p.value, Val(2));
}

// Only the edge backends verify proofs; cloud-only trusts the server.
TEST_P(StoreApiTest, VerificationFlagMatchesBackend) {
  auto opened = Store::Open(SmallOptions(GetParam()));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  ASSERT_TRUE(store.PutBatch({{1, Val(3)}, {2, Val(3)}, {3, Val(3)},
                              {4, Val(3)}})
                  .WaitPhase2()
                  .ok());
  auto got = store.Get(1);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->verified, GetParam() != BackendKind::kCloudOnly);
}

TEST_P(StoreApiTest, InvalidClientIndexIsAnError) {
  auto opened = Store::Open(SmallOptions(GetParam()));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  auto got = store.Get(1, /*client=*/5);
  EXPECT_TRUE(got.status().IsInvalidArgument());

  auto commit = store.Put(1, Val(1), /*client=*/5).WaitPhase1();
  EXPECT_TRUE(commit.status().IsInvalidArgument());
}

// Open validates the whole option surface up front: broken configs are
// InvalidArgument at Open, never a crash (or hang) downstream.
TEST_P(StoreApiTest, OpenValidatesOptions) {
  {
    StoreOptions o = SmallOptions(GetParam()).WithClients(0);
    EXPECT_TRUE(Store::Open(o).status().IsInvalidArgument());
  }
  {
    StoreOptions o = SmallOptions(GetParam()).WithEdges(0);
    EXPECT_TRUE(Store::Open(o).status().IsInvalidArgument());
  }
  {
    // Shard count may not exceed the edge count.
    StoreOptions o = SmallOptions(GetParam()).WithShards(3);
    o.deploy.num_edges = 2;
    EXPECT_TRUE(Store::Open(o).status().IsInvalidArgument());
  }
  if (GetParam() != BackendKind::kWedge) {
    // Hub and spoke processes each start one side of a WedgeChain
    // deployment; a baseline would start every node, a second cloud
    // included. Both fail validation before any socket opens.
    StoreOptions hub = SmallOptions(GetParam())
                           .WithRuntime(RuntimeKind::kThreaded)
                           .WithSocketTransport(/*listen_port=*/7000);
    EXPECT_TRUE(Store::Open(hub).status().IsInvalidArgument());
    StoreOptions spoke = SmallOptions(GetParam())
                             .WithRuntime(RuntimeKind::kThreaded)
                             .WithSocketTransport(0, "127.0.0.1", 7000);
    EXPECT_TRUE(Store::Open(spoke).status().IsInvalidArgument());
  }
}

// Scatter-gather MultiGet: positional results matching individual Gets,
// on every backend, unsharded and sharded alike.
TEST_P(StoreApiTest, MultiGetMatchesIndividualGets) {
  for (const size_t shards : {size_t{0}, size_t{2}}) {
    StoreOptions o = SmallOptions(GetParam());
    if (shards > 0) o.WithShards(shards);
    auto opened = Store::Open(o);
    ASSERT_TRUE(opened.ok()) << opened.status();
    Store store = std::move(*opened);

    std::vector<std::pair<Key, Bytes>> kvs;
    for (Key k = 20; k < 28; ++k) kvs.emplace_back(k, Val(4));
    ASSERT_TRUE(store.PutBatch(kvs).WaitPhase2().ok());

    // Hits, a miss in the middle, and an out-of-order key list.
    const std::vector<Key> keys{25, 20, 999, 27, 23};
    auto multi = store.MultiGet(keys);
    ASSERT_TRUE(multi.ok()) << "shards=" << shards << ": " << multi.status();
    ASSERT_EQ(multi->results.size(), keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      auto single = store.Get(keys[i]);
      ASSERT_TRUE(single.ok()) << single.status();
      EXPECT_EQ(multi->results[i].found, single->found) << "key " << keys[i];
      EXPECT_EQ(multi->results[i].value, single->value) << "key " << keys[i];
      EXPECT_EQ(multi->results[i].verified, single->verified);
    }

    // The empty batch is a successful no-op.
    auto empty = store.MultiGet({});
    ASSERT_TRUE(empty.ok()) << empty.status();
    EXPECT_TRUE(empty->results.empty());

    // Client validation matches Get.
    EXPECT_TRUE(store.MultiGet({1}, /*client=*/9).status()
                    .IsInvalidArgument());
  }
}

// A tampering shard fails the whole MultiGet as SecurityViolation, even
// though other keys in the batch verify fine.
TEST(MultiGetTest, TamperingShardFailsTheBatch) {
  StoreOptions o = SmallOptions(BackendKind::kWedge).WithShards(2);
  auto opened = Store::Open(o);
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  std::vector<std::pair<Key, Bytes>> kvs;
  for (Key k = 0; k < 8; ++k) kvs.emplace_back(k, Val(2));
  ASSERT_TRUE(store.PutBatch(kvs).WaitPhase2().ok());

  store.wedge().edge(1).misbehavior().tamper_get_value = true;
  const Partitioner& part = store.partitioner();
  std::vector<Key> keys;
  for (Key k = 0; k < 8; ++k) keys.push_back(k);
  const bool any_on_liar =
      std::any_of(keys.begin(), keys.end(),
                  [&](Key k) { return part.ShardOf(k) == 1; });
  ASSERT_TRUE(any_on_liar) << "test keys must cover the lying shard";

  auto multi = store.MultiGet(keys);
  EXPECT_TRUE(multi.status().IsSecurityViolation()) << multi.status();
}

// The acceptance sequence again, sharded: WithShards(2) must be
// invisible to the caller on every backend.
TEST_P(StoreApiTest, ShardedPutGetScanRoundTrip) {
  StoreOptions o = SmallOptions(GetParam()).WithShards(2);
  auto opened = Store::Open(o);
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);
  EXPECT_EQ(store.shard_count(), 2u);

  std::vector<std::pair<Key, Bytes>> kvs;
  for (Key k = 10; k < 14; ++k) kvs.emplace_back(k, Val(1));
  ASSERT_TRUE(store.PutBatch(kvs).WaitPhase2().ok());

  for (Key k = 10; k < 14; ++k) {
    auto got = store.Get(k);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_TRUE(got->found) << "key " << k;
    EXPECT_EQ(got->value, Val(1));
  }
  auto scan = store.Scan(10, 13);
  ASSERT_TRUE(scan.ok()) << scan.status();
  ASSERT_EQ(scan->pairs.size(), 4u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(scan->pairs[i].key, 10 + i);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, StoreApiTest, ::testing::ValuesIn(kAllBackends),
    [](const ::testing::TestParamInfo<BackendKind>& info) {
      std::string name(BackendKindToString(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ------------------------------------------------- phase semantics

// WedgeChain: Phase I is an edge-latency commit, Phase II completes
// strictly later, once the far-away cloud certified the digest.
TEST(CommitPhasesTest, WedgePhase1CommitsBeforePhase2) {
  auto opened = Store::Open(SmallOptions(BackendKind::kWedge));
  ASSERT_TRUE(opened.ok());
  Store store = std::move(*opened);

  AsyncCommit h = store.Put(42, Val(1));
  // One put of a 4-op block: the partial-flush timer forms the block.
  auto p1 = h.WaitPhase1();
  ASSERT_TRUE(p1.ok()) << p1.status();
  EXPECT_TRUE(h.phase1_done());
  EXPECT_FALSE(h.phase2_done()) << "certification cannot have finished at "
                                   "Phase I commit time";

  auto p2 = h.WaitPhase2();
  ASSERT_TRUE(p2.ok()) << p2.status();
  EXPECT_LT(p1->at, p2->at);
  EXPECT_EQ(p1->block, p2->block);

  // Waits are idempotent once complete.
  EXPECT_TRUE(h.WaitPhase1().ok());
  EXPECT_TRUE(h.WaitPhase2().ok());
}

// Baselines certify synchronously: their single commit is both phases.
TEST(CommitPhasesTest, BaselinesCollapsePhases) {
  for (BackendKind kind :
       {BackendKind::kEdgeBaseline, BackendKind::kCloudOnly}) {
    auto opened = Store::Open(SmallOptions(kind));
    ASSERT_TRUE(opened.ok());
    Store store = std::move(*opened);

    AsyncCommit h = store.PutBatch({{1, Val(1)}, {2, Val(1)}});
    auto p1 = h.WaitPhase1();
    ASSERT_TRUE(p1.ok()) << p1.status();
    EXPECT_TRUE(h.phase2_done());
    auto p2 = h.WaitPhase2();
    ASSERT_TRUE(p2.ok());
    EXPECT_EQ(p1->at, p2->at);
  }
}

// ------------------------------------------------- capability surface

// Log workloads run apples-to-apples: Append and ReadBlock work on all
// three backends (the baselines certify synchronously; cloud-only serves
// the block on trust).
TEST_P(StoreApiTest, AppendAndReadBlockRoundTrip) {
  auto opened = Store::Open(SmallOptions(GetParam()));
  ASSERT_TRUE(opened.ok());
  Store store = std::move(*opened);

  AsyncCommit h = store.Append(
      {Bytes{'a'}, Bytes{'b'}, Bytes{'c'}, Bytes{'d'}});
  auto p1 = h.WaitPhase1();
  ASSERT_TRUE(p1.ok()) << p1.status();
  ASSERT_TRUE(h.WaitPhase2().ok());

  auto read = store.ReadBlock(p1->block);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->block.id, p1->block);
  EXPECT_EQ(read->block.entries.size(), 4u);
  EXPECT_TRUE(read->phase2);

  auto missing = store.ReadBlock(999);
  EXPECT_TRUE(missing.status().IsNotFound()) << missing.status();
}

// Interleaving appends with puts must not break read verification:
// append blocks occupy L0 slots (pair-less), so the certified block id
// stream the verifier checks stays contiguous on every backend.
TEST_P(StoreApiTest, MixedAppendAndPutWorkloadStillVerifies) {
  auto opened = Store::Open(SmallOptions(GetParam()));
  ASSERT_TRUE(opened.ok());
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

  for (Key k : {Key(1), Key(5)}) {
    auto got = store.Get(k);
    ASSERT_TRUE(got.ok()) << "key " << k << ": " << got.status();
    EXPECT_TRUE(got->found);
  }
  auto scan = store.Scan(1, 8);
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_EQ(scan->pairs.size(), 8u);
}

// Baseline write acks carry the real block id, so consecutive commits
// report consecutive blocks on every backend (no more Commit::block == 0).
TEST_P(StoreApiTest, CommitsCarryRealBlockIds) {
  auto opened = Store::Open(SmallOptions(GetParam()));
  ASSERT_TRUE(opened.ok());
  Store store = std::move(*opened);

  auto first = store.PutBatch({{1, Val(1)}, {2, Val(1)}, {3, Val(1)},
                               {4, Val(1)}})
                   .WaitPhase2();
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = store.PutBatch({{5, Val(1)}, {6, Val(1)}, {7, Val(1)},
                                {8, Val(1)}})
                    .WaitPhase2();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_GT(second->block, first->block);

  auto read = store.ReadBlock(second->block);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->block.id, second->block);
}

// ------------------------------------------------- malicious edge

// A lying edge must surface as SecurityViolation through the façade —
// never as silently wrong data (§IV-E / §V-B).
TEST(MaliciousEdgeTest, TamperedGetSurfacesAsSecurityViolation) {
  auto opened = Store::Open(SmallOptions(BackendKind::kWedge));
  ASSERT_TRUE(opened.ok());
  Store store = std::move(*opened);
  store.wedge().edge().misbehavior().tamper_get_value = true;

  ASSERT_TRUE(store.PutBatch({{7, Val(1)}, {8, Val(1)}, {9, Val(1)},
                              {10, Val(1)}})
                  .WaitPhase2()
                  .ok());
  auto got = store.Get(7);
  EXPECT_TRUE(got.status().IsSecurityViolation()) << got.status();
  EXPECT_GE(store.wedge().client().stats().verification_failures, 1u);
}

// Cache soundness end-to-end: warm the verifier cache with honest reads,
// then tamper. The cached material must not mask the lie — tampered
// content misses the cache (keys bind content) and fails verification.
TEST(MaliciousEdgeTest, TamperedGetAfterWarmCacheStillDetected) {
  auto opened = Store::Open(SmallOptions(BackendKind::kWedge));
  ASSERT_TRUE(opened.ok());
  Store store = std::move(*opened);

  ASSERT_TRUE(store.PutBatch({{7, Val(1)}, {8, Val(1)}, {9, Val(1)},
                              {10, Val(1)}})
                  .WaitPhase2()
                  .ok());
  // Warm the cache with honest reads of the very key we will tamper.
  for (int i = 0; i < 3; ++i) {
    auto honest = store.Get(7);
    ASSERT_TRUE(honest.ok()) << honest.status();
  }
  const auto& cache_stats = store.wedge().client().verifier_cache().stats();
  EXPECT_GT(cache_stats.block_hits, 0u) << "cache never warmed";

  store.wedge().edge().misbehavior().tamper_get_value = true;
  auto got = store.Get(7);
  EXPECT_TRUE(got.status().IsSecurityViolation()) << got.status();
}

// A replayed stale-but-valid snapshot (old root certificate) must still
// surface with caches enabled: staleness checks live outside the cache.
TEST(MaliciousEdgeTest, StaleRootReplayAfterWarmCacheStillDetected) {
  StoreOptions o = SmallOptions(BackendKind::kWedge);
  o.deploy.client.monotonic_snapshots = true;
  auto opened = Store::Open(o);
  ASSERT_TRUE(opened.ok());
  Store store = std::move(*opened);

  // Reach a certified epoch, freeze that view, then advance past it.
  for (Key base = 0; base < 16; base += 4) {
    std::vector<std::pair<Key, Bytes>> kvs;
    for (Key k = base; k < base + 4; ++k) kvs.emplace_back(k, Val(1));
    ASSERT_TRUE(store.PutBatch(kvs).WaitPhase1().ok());
  }
  store.RunFor(5 * kSecond);
  ASSERT_GE(store.wedge().edge().lsm().epoch(), 1u);
  store.wedge().edge().CaptureRollbackSnapshot();
  for (Key base = 16; base < 32; base += 4) {
    std::vector<std::pair<Key, Bytes>> kvs;
    for (Key k = base; k < base + 4; ++k) kvs.emplace_back(k, Val(2));
    ASSERT_TRUE(store.PutBatch(kvs).WaitPhase1().ok());
  }
  store.RunFor(5 * kSecond);

  // Honest read observes (and caches) the new epoch's material.
  ASSERT_TRUE(store.Get(1).ok());

  // Replaying the frozen view re-presents an old root certificate whose
  // crypto is perfectly valid — possibly even cache-resident. The
  // session watermark still rejects it.
  store.wedge().edge().misbehavior().rollback_snapshot = true;
  auto stale = store.Get(1);
  EXPECT_TRUE(stale.status().IsSecurityViolation()) << stale.status();
  EXPECT_GE(store.wedge().client().stats().snapshot_regressions, 1u);
}

TEST(MaliciousEdgeTest, TruncatedScanSurfacesAsSecurityViolation) {
  StoreOptions o = SmallOptions(BackendKind::kWedge);
  o.WithLsm({2, 2, 8}, 4);  // small pages: scans span multi-page runs
  auto opened = Store::Open(o);
  ASSERT_TRUE(opened.ok());
  Store store = std::move(*opened);

  for (Key base = 0; base < 32; base += 4) {
    std::vector<std::pair<Key, Bytes>> kvs;
    for (Key k = base; k < base + 4; ++k) kvs.emplace_back(k, Val(5));
    ASSERT_TRUE(store.PutBatch(kvs).WaitPhase1().ok());
  }
  store.RunFor(10 * kSecond);  // let merges build level runs

  // Honest scan verifies.
  auto honest = store.Scan(0, 31);
  ASSERT_TRUE(honest.ok()) << honest.status();
  EXPECT_EQ(honest->pairs.size(), 32u);

  // A truncating edge breaks run adjacency/coverage: detected.
  store.wedge().edge().misbehavior().truncate_scans = true;
  auto truncated = store.Scan(0, 31);
  EXPECT_TRUE(truncated.status().IsSecurityViolation())
      << truncated.status();
}

}  // namespace
}  // namespace wedge
