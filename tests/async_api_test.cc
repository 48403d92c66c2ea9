// The async Store surface: completion ordering (Phase I settles before
// Phase II per handle, on the success and the deadline path), sync ==
// async equivalence, cancellation and deadline races, admission
// backpressure, and destruction with operations still in flight.
// Parameterized over backend × runtime like runtime_conformance_test;
// the TSan CI job runs this suite to keep the surface race-free.

#include <gtest/gtest.h>

#include <future>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "api/store.h"
#include "core/deployment.h"
#include "runtime/runtime.h"

namespace wedge {
namespace {

struct AsyncCase {
  BackendKind backend;
  RuntimeKind runtime;
};

StoreOptions SmallOptions(const AsyncCase& c) {
  StoreOptions o;
  o.WithBackend(c.backend)
      .WithRuntime(c.runtime)
      .WithSeed(7)
      .WithOpsPerBlock(4)
      .WithLsm({3, 2, 8}, 8)
      .WithProofTimeout(2 * kSecond);
  o.deploy.net.jitter_frac = 0.0;
  return o;
}

Bytes Val(uint8_t tag) { return Bytes(16, tag); }

/// Drops every client->edge message, so requests to the wedge edge never
/// complete (deadline/cancel territory). Link shaping is invisible to
/// the router's reachability check, so requests still go to the edge
/// rather than failing fast or over to the cloud, as they would against
/// a crashed edge.
void SilenceWedgeEdge(Store& store) {
  Deployment& d = store.wedge();
  LinkShape drop_all;
  drop_all.drop_prob = 1.0;
  for (size_t c = 0; c < d.client_count(); ++c) {
    store.runtime().faults().ShapeLink(d.client(c).id(), d.edge().id(),
                                       drop_all);
  }
}

class AsyncApiTest : public ::testing::TestWithParam<AsyncCase> {};

// The async handles resolve to the same outcomes as the sync wrappers —
// they are the same machinery (Put == AsyncPut + WaitPhaseN).
TEST_P(AsyncApiTest, AsyncMatchesSyncRoundTrip) {
  auto opened = Store::Open(SmallOptions(GetParam()));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  std::vector<std::pair<Key, Bytes>> kvs;
  for (Key k = 10; k < 14; ++k) kvs.emplace_back(k, Val(1));
  AsyncCommit write = store.AsyncPutBatch(kvs);
  auto p1 = write.WaitPhase1();
  ASSERT_TRUE(p1.ok()) << p1.status();
  auto p2 = write.WaitPhase2();
  ASSERT_TRUE(p2.ok()) << p2.status();
  EXPECT_GE(p2->at, p1->at);

  auto got = store.AsyncGet(11).Wait();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_TRUE(got->found);
  EXPECT_EQ(got->value, Val(1));

  auto multi = store.AsyncMultiGet({10, 13}).Wait();
  ASSERT_TRUE(multi.ok()) << multi.status();
  ASSERT_EQ(multi->results.size(), 2u);
  EXPECT_TRUE(multi->results[0].found);
  EXPECT_TRUE(multi->results[1].found);

  auto scan = store.AsyncScan(10, 13).Wait();
  ASSERT_TRUE(scan.ok()) << scan.status();
  ASSERT_EQ(scan->pairs.size(), 4u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(scan->pairs[i].key, 10 + i);

  const AsyncStats stats = store.async_stats();
  EXPECT_GE(stats.issued, 4u);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.rejected, 0u);
}

// Per-handle completion ordering on the success path: the Phase I
// callback observes its settle strictly before Phase II's.
TEST_P(AsyncApiTest, PhaseOneSettlesBeforePhaseTwo) {
  auto opened = Store::Open(SmallOptions(GetParam()));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  std::mutex mu;
  std::vector<int> order;
  std::promise<void> p2_fired;
  std::vector<std::pair<Key, Bytes>> kvs;
  for (Key k = 0; k < 4; ++k) kvs.emplace_back(k, Val(2));
  AsyncCommit write = store.AsyncPutBatch(kvs);
  write.OnPhase1([&](const Status& s, const Commit&) {
    ASSERT_TRUE(s.ok()) << s;
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(1);
  });
  write.OnPhase2([&](const Status& s, const Commit&) {
    ASSERT_TRUE(s.ok()) << s;
    {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(2);
    }
    p2_fired.set_value();
  });

  ASSERT_TRUE(write.WaitPhase2().ok());
  // WaitPhase2 returns when the settle is published; the callback runs
  // on the settling context — synchronize on it before asserting.
  p2_fired.get_future().wait();
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

// The ordering invariant holds on the deadline path too: a deadline
// expiring against a silent edge force-settles Phase I before Phase II
// (same status), never Phase II alone.
TEST_P(AsyncApiTest, DeadlineSettlesPhasesInOrder) {
  if (GetParam().backend != BackendKind::kWedge) {
    GTEST_SKIP() << "fault injection exercised on the wedge backend";
  }
  auto opened = Store::Open(SmallOptions(GetParam()));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);
  SilenceWedgeEdge(store);

  std::mutex mu;
  std::vector<int> order;
  std::promise<void> p2_fired;
  AsyncOptions opts;
  opts.deadline = 50 * kMillisecond;
  AsyncCommit write = store.AsyncPut(1, Val(3), 0, opts);
  write.OnPhase1([&](const Status& s, const Commit&) {
    EXPECT_TRUE(s.IsDeadlineExceeded()) << s;
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(1);
  });
  write.OnPhase2([&](const Status& s, const Commit&) {
    EXPECT_TRUE(s.IsDeadlineExceeded()) << s;
    {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(2);
    }
    p2_fired.set_value();
  });

  auto p2 = write.WaitPhase2();
  EXPECT_TRUE(p2.status().IsDeadlineExceeded()) << p2.status();
  p2_fired.get_future().wait();
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
  }
  EXPECT_GE(store.async_stats().deadline_expired, 1u);
}

// Cancel settles the handle exactly once: the callback fires once with
// Cancelled, a second Cancel is a no-op, and a later deadline expiry
// finds the slot already settled (no double count).
TEST_P(AsyncApiTest, CancelSettlesExactlyOnce) {
  if (GetParam().backend != BackendKind::kWedge) {
    GTEST_SKIP() << "fault injection exercised on the wedge backend";
  }
  auto opened = Store::Open(SmallOptions(GetParam()));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);
  SilenceWedgeEdge(store);

  int fires = 0;
  Status seen;
  AsyncOptions opts;
  opts.deadline = 50 * kMillisecond;  // loses the race to Cancel below
  AsyncOp<GetResult> get = store.AsyncGet(1, 0, opts);
  get.OnDone([&](const Status& s, const GetResult&) {
    fires++;
    seen = s;
  });
  get.Cancel();
  get.Cancel();  // already settled: no effect
  EXPECT_TRUE(get.done());
  EXPECT_EQ(fires, 1);
  EXPECT_TRUE(seen.IsCancelled()) << seen;
  EXPECT_TRUE(get.Wait().status().IsCancelled());

  // Let the (lost) deadline timer fire: the settle must not re-count.
  store.RunFor(200 * kMillisecond);
  const AsyncStats stats = store.async_stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.deadline_expired, 0u);
  EXPECT_EQ(fires, 1);
}

// Admission backpressure: with async_inflight_limit = 2 and an edge
// that never answers, the third issue settles ResourceExhausted
// immediately instead of queueing unboundedly.
TEST_P(AsyncApiTest, AdmissionLimitRejectsExcessIssues) {
  if (GetParam().backend != BackendKind::kWedge) {
    GTEST_SKIP() << "fault injection exercised on the wedge backend";
  }
  StoreOptions o = SmallOptions(GetParam());
  o.WithAsyncInflightLimit(2);
  auto opened = Store::Open(std::move(o));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);
  SilenceWedgeEdge(store);

  AsyncOp<GetResult> a = store.AsyncGet(1);
  AsyncOp<GetResult> b = store.AsyncGet(2);
  AsyncOp<GetResult> c = store.AsyncGet(3);
  EXPECT_FALSE(a.done());
  EXPECT_FALSE(b.done());
  EXPECT_TRUE(c.done()) << "third issue must be refused up front";
  EXPECT_TRUE(c.Wait().status().IsResourceExhausted());

  const AsyncStats stats = store.async_stats();
  EXPECT_EQ(stats.inflight, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.inflight_peak, 2u);

  // Cancel settles the handles but the slots stay held (the requests
  // are still in flight down in the deployment).
  a.Cancel();
  b.Cancel();
  EXPECT_EQ(store.async_stats().inflight, 2u);
}

// Destroying the store (and dropping every handle) with operations
// still in flight must be safe — against a healthy deployment whose
// completions race teardown, and against a silent edge whose
// completions never come.
TEST_P(AsyncApiTest, DestructionWithInflightIsSafe) {
  {
    auto opened = Store::Open(SmallOptions(GetParam()));
    ASSERT_TRUE(opened.ok()) << opened.status();
    Store store = std::move(*opened);
    for (Key k = 0; k < 4; ++k) {
      store.AsyncPut(k, Val(4));  // handle dropped immediately
      store.AsyncGet(k);
    }
    // Store destructor: runtime shutdown drains workers; the admission
    // gate outlives the backend, so completion wrappers releasing slots
    // during teardown stay safe.
  }
  if (GetParam().backend == BackendKind::kWedge) {
    auto opened = Store::Open(SmallOptions(GetParam()));
    ASSERT_TRUE(opened.ok()) << opened.status();
    Store store = std::move(*opened);
    SilenceWedgeEdge(store);
    AsyncOptions opts;
    opts.deadline = 10 * kSecond;  // timer pending at destruction
    for (Key k = 0; k < 4; ++k) store.AsyncPut(k, Val(5), 0, opts);
    store.AsyncGet(0, 0, opts);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BackendsTimesRuntimes, AsyncApiTest,
    ::testing::Values(
        AsyncCase{BackendKind::kWedge, RuntimeKind::kSim},
        AsyncCase{BackendKind::kWedge, RuntimeKind::kThreaded},
        AsyncCase{BackendKind::kEdgeBaseline, RuntimeKind::kSim},
        AsyncCase{BackendKind::kEdgeBaseline, RuntimeKind::kThreaded},
        AsyncCase{BackendKind::kCloudOnly, RuntimeKind::kSim},
        AsyncCase{BackendKind::kCloudOnly, RuntimeKind::kThreaded}),
    [](const ::testing::TestParamInfo<AsyncCase>& info) {
      std::string name(BackendKindToString(info.param.backend));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      name += info.param.runtime == RuntimeKind::kSim ? "_sim" : "_threaded";
      return name;
    });

}  // namespace
}  // namespace wedge
