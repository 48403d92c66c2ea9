// Runtime conformance: the api_test call sequence must behave
// identically on SimRuntime, ThreadedRuntime, and ThreadedRuntime with
// the loopback SocketTransport (every message over a real TCP socket),
// for every backend. Same round trips, same phase ordering, same
// verification outcomes, same security violations from a lying edge —
// only the meaning of time (virtual vs wall microseconds) differs.
// Plus the threaded contracts: live migration and WithAutoBalance now
// run under threads (quiescence-gated, not virtual-time-drained).

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <utility>
#include <vector>

#include "api/store.h"
#include "baselines/baseline_deployment.h"
#include "core/deployment.h"
#include "runtime/runtime.h"

namespace wedge {
namespace {

struct ConformanceCase {
  BackendKind backend;
  RuntimeKind runtime;
  /// Route every message through the loopback SocketTransport (implies
  /// kThreaded): the conformance matrix's third leg.
  bool socket = false;
};

StoreOptions SmallOptions(const ConformanceCase& c) {
  StoreOptions o;
  o.WithBackend(c.backend)
      .WithRuntime(c.runtime)
      .WithSeed(7)
      .WithOpsPerBlock(4)
      .WithLsm({3, 2, 8}, 8)
      .WithProofTimeout(2 * kSecond);
  if (c.socket) o.WithSocketTransport();
  o.deploy.net.jitter_frac = 0.0;
  return o;
}

Bytes Val(uint8_t tag) { return Bytes(16, tag); }

/// Runs `fn` on the wedge edge's own executor and waits for it — the
/// runtime-neutral way to flip misbehavior knobs: edge state is only
/// safe to touch from the edge's worker thread under ThreadedRuntime
/// (under SimRuntime the Post runs inline and this is equivalent to a
/// direct call).
void OnWedgeEdge(Store& store, size_t edge_index,
                 const std::function<void()>& fn) {
  Executor* exec = store.runtime().ExecutorFor(
      store.wedge().edge(edge_index).id(), ExecRole::kDedicated);
  std::promise<void> done;
  exec->Post([&] {
    fn();
    done.set_value();
  });
  done.get_future().wait();
}

class RuntimeConformanceTest
    : public ::testing::TestWithParam<ConformanceCase> {};

// The acceptance sequence from api_test, verbatim semantics on both
// runtimes: batch put through both phases, point reads, a proof of
// absence, a verified scan, and overwrite visibility.
TEST_P(RuntimeConformanceTest, PutGetScanRoundTrip) {
  auto opened = Store::Open(SmallOptions(GetParam()));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);
  EXPECT_EQ(store.runtime().kind(), GetParam().runtime);

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
    EXPECT_EQ(got->verified, GetParam().backend != BackendKind::kCloudOnly);
  }

  auto miss = store.Get(999);
  ASSERT_TRUE(miss.ok()) << miss.status();
  EXPECT_FALSE(miss->found);

  auto scan = store.Scan(10, 13);
  ASSERT_TRUE(scan.ok()) << scan.status();
  ASSERT_EQ(scan->pairs.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(scan->pairs[i].key, 10 + i);
    EXPECT_EQ(scan->pairs[i].value, Val(1));
  }

  std::vector<std::pair<Key, Bytes>> overwrite;
  for (Key k = 10; k < 14; ++k) overwrite.emplace_back(k, Val(2));
  ASSERT_TRUE(store.PutBatch(overwrite).WaitPhase2().ok());
  auto got = store.Get(12);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->value, Val(2));
}

// Phase semantics survive the thread boundary: WedgeChain's Phase II
// lands at or after Phase I on the same block; the baselines collapse
// both phases into one synchronous commit.
TEST_P(RuntimeConformanceTest, PhaseOrderingMatchesBackendContract) {
  auto opened = Store::Open(SmallOptions(GetParam()));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  AsyncCommit h =
      store.PutBatch({{1, Val(1)}, {2, Val(1)}, {3, Val(1)}, {4, Val(1)}});
  auto p1 = h.WaitPhase1();
  ASSERT_TRUE(p1.ok()) << p1.status();
  auto p2 = h.WaitPhase2();
  ASSERT_TRUE(p2.ok()) << p2.status();
  EXPECT_EQ(p1->block, p2->block);
  if (GetParam().backend == BackendKind::kWedge) {
    EXPECT_GE(p2->at, p1->at);
  } else {
    EXPECT_EQ(p1->at, p2->at) << "baselines certify synchronously";
  }

  // Waits are idempotent once complete — on both runtimes.
  EXPECT_TRUE(h.WaitPhase1().ok());
  EXPECT_TRUE(h.WaitPhase2().ok());
}

TEST_P(RuntimeConformanceTest, MultiGetMatchesIndividualGets) {
  auto opened = Store::Open(SmallOptions(GetParam()));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  ASSERT_TRUE(
      store.PutBatch({{1, Val(4)}, {2, Val(5)}, {3, Val(6)}, {4, Val(7)}})
          .WaitPhase2()
          .ok());

  std::vector<Key> keys = {1, 3, 999, 2};
  auto multi = store.MultiGet(keys);
  ASSERT_TRUE(multi.ok()) << multi.status();
  ASSERT_EQ(multi->results.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    auto single = store.Get(keys[i]);
    ASSERT_TRUE(single.ok()) << single.status();
    EXPECT_EQ(multi->results[i].found, single->found) << "key " << keys[i];
    EXPECT_EQ(multi->results[i].value, single->value) << "key " << keys[i];
  }
}

TEST_P(RuntimeConformanceTest, AppendAndReadBlockRoundTrip) {
  auto opened = Store::Open(SmallOptions(GetParam()));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  AsyncCommit h =
      store.Append({Bytes{'a'}, Bytes{'b'}, Bytes{'c'}, Bytes{'d'}});
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

// WithShards(2) must stay invisible to the caller on both runtimes:
// the router scatter-gathers across two edge worker threads.
TEST_P(RuntimeConformanceTest, ShardedPutGetScanRoundTrip) {
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
  }
  auto scan = store.Scan(10, 13);
  ASSERT_TRUE(scan.ok()) << scan.status();
  ASSERT_EQ(scan->pairs.size(), 4u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(scan->pairs[i].key, 10 + i);
}

// A lying edge surfaces as SecurityViolation on both runtimes — real
// crypto under threads, simulated crypto under the simulator, same
// detection contract.
TEST_P(RuntimeConformanceTest, TamperedGetSurfacesAsSecurityViolation) {
  if (GetParam().backend != BackendKind::kWedge) {
    GTEST_SKIP() << "misbehavior injection is a wedge deployment knob";
  }
  auto opened = Store::Open(SmallOptions(GetParam()));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  ASSERT_TRUE(
      store.PutBatch({{7, Val(1)}, {8, Val(1)}, {9, Val(1)}, {10, Val(1)}})
          .WaitPhase2()
          .ok());

  OnWedgeEdge(store, 0, [&store] {
    store.wedge().edge().misbehavior().tamper_get_value = true;
  });
  auto got = store.Get(7);
  EXPECT_TRUE(got.status().IsSecurityViolation()) << got.status();
}

INSTANTIATE_TEST_SUITE_P(
    BackendsTimesRuntimes, RuntimeConformanceTest,
    ::testing::Values(
        ConformanceCase{BackendKind::kWedge, RuntimeKind::kSim},
        ConformanceCase{BackendKind::kWedge, RuntimeKind::kThreaded},
        ConformanceCase{BackendKind::kWedge, RuntimeKind::kThreaded,
                        /*socket=*/true},
        ConformanceCase{BackendKind::kEdgeBaseline, RuntimeKind::kSim},
        ConformanceCase{BackendKind::kEdgeBaseline, RuntimeKind::kThreaded},
        ConformanceCase{BackendKind::kEdgeBaseline, RuntimeKind::kThreaded,
                        /*socket=*/true},
        ConformanceCase{BackendKind::kCloudOnly, RuntimeKind::kSim},
        ConformanceCase{BackendKind::kCloudOnly, RuntimeKind::kThreaded},
        ConformanceCase{BackendKind::kCloudOnly, RuntimeKind::kThreaded,
                        /*socket=*/true}),
    [](const ::testing::TestParamInfo<ConformanceCase>& info) {
      std::string name(BackendKindToString(info.param.backend));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      if (info.param.socket) {
        name += "_socket";
      } else {
        name +=
            info.param.runtime == RuntimeKind::kSim ? "_sim" : "_threaded";
      }
      return name;
    });

// ---------------------------------------------- threaded contracts

// Live migration runs under real threads: the fence gates on explicit
// write quiescence (per-shard in-flight gauges) instead of virtual-time
// drains, so the same split → merge → re-split cycle that the simulator
// runs completes on wall clock with the identical observable contract.
TEST(ThreadedRuntimeContractTest, LiveMigrationRunsUnderThreads) {
  StoreOptions o =
      SmallOptions({BackendKind::kWedge, RuntimeKind::kThreaded})
          .WithShards(2, ShardScheme::kRange, 1000)
          .WithShardCapacity(4)
          .WithDrainDelay(200 * kMillisecond);
  auto opened = Store::Open(o);
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  std::vector<std::pair<Key, Bytes>> kvs;
  for (Key k = 0; k < 1000; k += 50) kvs.emplace_back(k, Val(1));
  ASSERT_TRUE(store.PutBatch(kvs).WaitPhase2().ok());

  // Split shard 0's [0, 499] at 250 onto the first idle slot.
  auto split = store.SplitShard(0);
  ASSERT_TRUE(split.ok()) << split.status();
  EXPECT_EQ(split->source, 0u);
  EXPECT_EQ(split->dest, 2u);
  EXPECT_GT(split->pairs_moved, 0u);
  EXPECT_EQ(store.ownership_epoch(), 2u);

  // Migrated keys read back identically from the new owner.
  for (Key k = 250; k < 500; k += 50) {
    auto got = store.Get(k);
    ASSERT_TRUE(got.ok()) << "key " << k << ": " << got.status();
    EXPECT_EQ(got->value, Val(1));
  }

  // Merge folds the slice back and frees the slot; the re-split reuses
  // it — the full lifecycle on wall clock.
  auto merged = store.MergeShards(2);
  ASSERT_TRUE(merged.ok()) << merged.status();
  EXPECT_EQ(store.ownership_epoch(), 3u);
  auto resplit = store.SplitShard(1);
  ASSERT_TRUE(resplit.ok()) << resplit.status();
  EXPECT_EQ(resplit->dest, 2u) << "the freed slot must host the re-split";
  EXPECT_EQ(store.ownership_epoch(), 4u);

  for (Key k = 0; k < 1000; k += 50) {
    auto got = store.Get(k);
    ASSERT_TRUE(got.ok()) << "key " << k << ": " << got.status();
    EXPECT_EQ(got->value, Val(1));
  }
}

// WithAutoBalance opens (and runs) under threads now that the balancer's
// actuation path — live migration — is runtime-agnostic.
TEST(ThreadedRuntimeContractTest, AutoBalanceOpensUnderThreads) {
  StoreOptions o =
      SmallOptions({BackendKind::kWedge, RuntimeKind::kThreaded})
          .WithShards(2, ShardScheme::kRange, 1 << 16)
          .WithShardCapacity(4)
          .WithAutoBalance();
  auto opened = Store::Open(o);
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);
  ASSERT_NE(store.balancer(), nullptr);
  // The store works normally with the balancer ticking in the
  // background (the full autonomous cycle is fig10's threaded panel).
  ASSERT_TRUE(store.Put(42, Val(1)).WaitPhase1().ok());
  auto got = store.Get(42);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->value, Val(1));
}

}  // namespace
}  // namespace wedge
