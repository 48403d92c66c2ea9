// Fault plane + verified recovery: chaos injection through the unified
// Runtime::faults() seam, exercised on BOTH runtimes wherever the
// scenario is runtime-neutral.
//
//  - edge crash + verified re-hydration from the cloud's backup log
//    (a recovered edge that then lies is still caught);
//  - cloud outage: Phase I keeps committing, the certify backlog drains
//    through the edge's exponential-backoff retry after heal;
//  - partition + heal, with failure-aware read failover to the cloud
//    (and a fast Unavailable when the cloud keeps no full backup);
//  - link shaping (drop/delay) injection and clearing;
//  - crash-mid-migration: killing the source or destination edge during
//    a SplitShard aborts cleanly via the watchdog, ownership unchanged;
//  - façade-level read retry riding out a fault window.
//
// The façade suites run three legs: simulator, real threads, and real
// threads over the loopback socket transport — fault injection must
// behave identically at the socket boundary.
//
// Threaded-runtime variants assert only through client-visible signals
// (Store results, locked stats snapshots) — node internals are owned by
// their worker threads.

#include <gtest/gtest.h>

#include <functional>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "api/store.h"
#include "core/deployment.h"
#include "runtime/runtime.h"

namespace wedge {
namespace {

Bytes Val(uint8_t tag) { return Bytes(16, tag); }

std::vector<Bytes> Payloads(int n, uint8_t tag = 7) {
  std::vector<Bytes> ps;
  for (int i = 0; i < n; ++i) ps.push_back(Bytes(100, tag));
  return ps;
}

/// Base options for the chaos scenarios: small blocks, no merges below
/// 64 L0 blocks (replay recovery rebuilds L0 only — see
/// Deployment::RecoverEdge — so the chaos suite stays under the merge
/// threshold), cloud backups + full-block shipping so a crashed edge can
/// re-hydrate, and a proof timeout long enough that clients don't
/// dispute through an injected outage.
StoreOptions ChaosOptions(RuntimeKind runtime) {
  StoreOptions o;
  o.WithRuntime(runtime)
      .WithSeed(11)
      .WithOpsPerBlock(4)
      .WithLsm({64}, 8)
      .WithProofTimeout(120 * kSecond);
  o.deploy.net.jitter_frac = 0.0;
  o.deploy.cloud.backup_blocks = true;
  o.deploy.edge.ship_full_blocks = true;
  return o;
}

/// One leg of the chaos matrix: which runtime executes, and whether the
/// threaded runtime routes messages through the loopback socket
/// transport (fault-plane drop/shape semantics must survive the socket
/// boundary unchanged).
struct FaultCase {
  RuntimeKind runtime = RuntimeKind::kSim;
  bool socket = false;
};

StoreOptions ChaosOptions(const FaultCase& c) {
  StoreOptions o = ChaosOptions(c.runtime);
  if (c.socket) o.WithSocketTransport();
  return o;
}

/// Runs `fn` on the wedge edge's own executor and waits for it — the
/// runtime-neutral way to flip misbehavior knobs (edge state is only
/// safe to touch from its worker thread under ThreadedRuntime).
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

/// Polls `probe` across fault-recovery windows: runs the deployment in
/// short slices (virtual time under sim, wall time under threads) until
/// the probe holds or the budget is spent.
bool RunUntilTrue(Store& store, const std::function<bool()>& probe,
                  SimTime slice = 200 * kMillisecond, int max_slices = 50) {
  for (int i = 0; i < max_slices; ++i) {
    if (probe()) return true;
    store.RunFor(slice);
  }
  return probe();
}

class FaultFacadeTest : public ::testing::TestWithParam<FaultCase> {};

// ------------------------------------------------------- cloud outage
// The resilience_test outage scenarios, ported to the façade and both
// runtimes: lazy trust keeps Phase I committing with the cloud dark, and
// the certify-retry backoff drains the Phase II backlog after heal — no
// fresh write needed, unlike the seed behavior.
TEST_P(FaultFacadeTest, CloudOutagePhase1ServesAndBacklogDrainsAfterHeal) {
  auto opened = Store::Open(ChaosOptions(GetParam()));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);
  const NodeId cloud = store.wedge().cloud().id();

  store.runtime().faults().CrashNode(cloud);

  std::vector<AsyncCommit> writes;
  for (int i = 0; i < 3; ++i) {
    std::vector<std::pair<Key, Bytes>> kvs;
    for (Key k = 0; k < 4; ++k) {
      kvs.emplace_back(static_cast<Key>(100 * i) + k, Val(1));
    }
    writes.push_back(store.PutBatch(kvs));
    // Phase I never needed the cloud.
    auto p1 = writes.back().WaitPhase1(5 * kSecond);
    ASSERT_TRUE(p1.ok()) << p1.status();
  }

  // Phase II cannot complete while the cloud is dark: the bounded wait
  // expires (the certify-retry timer keeps the deployment live, so this
  // is a deadline, not a dead store).
  auto stalled = writes[0].WaitPhase2(300 * kMillisecond);
  EXPECT_TRUE(stalled.status().IsDeadlineExceeded()) << stalled.status();
  EXPECT_FALSE(writes[0].phase2_done());

  // Reads keep serving from the edge through the outage (Phase-I-grade).
  auto got = store.Get(101);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_TRUE(got->found);
  EXPECT_TRUE(got->verified);

  // Heal: the edge's exponential-backoff retry re-sends the uncertified
  // digests and the whole backlog certifies.
  store.runtime().faults().RestartNode(cloud);
  for (auto& w : writes) {
    auto p2 = w.WaitPhase2(60 * kSecond);
    ASSERT_TRUE(p2.ok()) << p2.status();
  }

  const StoreStats s = store.stats();
  EXPECT_EQ(s.faults.crashes, 1u);
  EXPECT_EQ(s.faults.restarts, 1u);
  EXPECT_GT(s.faults.cut_drops, 0u) << "certifies were dropped at the cut";
  EXPECT_GT(s.transport.dropped, 0u)
      << "fault-plane drops must surface in transport stats";
  EXPECT_GT(s.transport.messages, 0u);
}

// --------------------------------------------- crash, failover, recover
// Failure-aware routing with shard 0's edge crashed: reads on its keys
// degrade to cloud-served (verified) gets, writes and scans fail fast,
// and recovery re-hydrates the edge so direct serving resumes. `shards`
// == 0 is an unsharded store, the one-shard case of the same routing;
// with 2 shards the other shard keeps serving directly.
void EdgeCrashFailsOverReadsAndRecovers(const FaultCase& c, size_t shards) {
  StoreOptions o = ChaosOptions(c);
  if (shards > 0) o.WithShards(shards, ShardScheme::kRange, 1000);
  auto opened = Store::Open(o);
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  // One full block per key group: keys 10..13 live on shard 0, 600..603
  // on shard 1 when sharded (range scheme, span 1000).
  std::vector<std::pair<Key, Bytes>> low, high;
  for (Key k = 10; k < 14; ++k) low.emplace_back(k, Val(1));
  for (Key k = 600; k < 604; ++k) high.emplace_back(k, Val(2));
  ASSERT_TRUE(store.PutBatch(low).WaitPhase2().ok());
  ASSERT_TRUE(store.PutBatch(high).WaitPhase2().ok());

  store.wedge().CrashEdge(0);

  // Reads on the dead shard fail over to the cloud's backup — slower but
  // still certificate-verified, and the value is correct.
  auto got = store.Get(10);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_TRUE(got->found);
  EXPECT_TRUE(got->verified);
  EXPECT_EQ(got->value, Val(1));
  EXPECT_GE(store.stats().router.failovers, 1u);

  // Writes cannot be cloud-served: they fail fast with Unavailable
  // instead of hanging out the op deadline.
  auto blocked = store.PutBatch({{11, Val(9)}}).WaitPhase1(10 * kSecond);
  EXPECT_TRUE(blocked.status().IsUnavailable()) << blocked.status();
  EXPECT_GE(store.stats().router.unreachable_rejects, 1u);

  // A scan touching the dead shard fails fast too...
  auto scan = store.Scan(0, 999);
  EXPECT_TRUE(scan.status().IsUnavailable()) << scan.status();
  // ...while the other key group still reads: from the healthy shard
  // when sharded, through the failover when unsharded.
  auto other = store.Get(600);
  ASSERT_TRUE(other.ok()) << other.status();
  EXPECT_TRUE(other->found);
  EXPECT_EQ(other->value, Val(2));

  // Recover: the edge replays the cloud's backup log (verified) and
  // direct serving resumes — including writes.
  store.wedge().RecoverEdge(0);
  EXPECT_TRUE(RunUntilTrue(store, [&] {
    auto g = store.Get(10);
    return g.ok() && g->found && g->value == Val(1);
  }));
  auto after = store.PutBatch({{12, Val(3)}}).WaitPhase2(60 * kSecond);
  EXPECT_TRUE(after.ok()) << after.status();

  const StoreStats s = store.stats();
  EXPECT_EQ(s.faults.crashes, 1u);
  EXPECT_EQ(s.faults.restarts, 1u);
}

TEST_P(FaultFacadeTest, EdgeCrashFailsOverReadsAndRecovers) {
  EdgeCrashFailsOverReadsAndRecovers(GetParam(), /*shards=*/2);
}

TEST_P(FaultFacadeTest, UnshardedEdgeCrashFailsOverReadsAndRecovers) {
  EdgeCrashFailsOverReadsAndRecovers(GetParam(), /*shards=*/0);
}

// Without a full cloud backup nothing but the edge holds a shard's
// recent data, so a failover read would answer "not found" for keys the
// cloud never saw. The router fails it fast instead, like writes and
// scans. A full backup needs both the cloud keeping blocks and the edges
// shipping their bodies; with either off the cloud holds at most the
// blocks it saw through merges.
TEST_P(FaultFacadeTest, EdgeCrashWithoutBackupFailsReadsFast) {
  for (const bool backup : {false, true}) {
    StoreOptions o =
        ChaosOptions(GetParam()).WithShards(2, ShardScheme::kRange, 1000);
    o.deploy.cloud.backup_blocks = backup;
    o.deploy.edge.ship_full_blocks = !backup;
    auto opened = Store::Open(o);
    ASSERT_TRUE(opened.ok()) << opened.status();
    Store store = std::move(*opened);

    std::vector<std::pair<Key, Bytes>> low;
    for (Key k = 10; k < 14; ++k) low.emplace_back(k, Val(1));
    ASSERT_TRUE(store.PutBatch(low).WaitPhase2().ok());

    store.wedge().CrashEdge(0);
    const uint64_t rejects = store.stats().router.unreachable_rejects;
    auto got = store.Get(10);
    EXPECT_TRUE(got.status().IsUnavailable())
        << "backup_blocks=" << backup << ": " << got.status();
    EXPECT_EQ(store.stats().router.unreachable_rejects, rejects + 1);
    EXPECT_EQ(store.stats().router.failovers, 0u);
  }
}

// ------------------------------------------------------ partition/heal
// A partitioned (not crashed) edge keeps its state; reads fail over
// while the cut lasts and serve directly again the moment it heals.
TEST_P(FaultFacadeTest, PartitionFailsOverReadsUntilHealed) {
  StoreOptions o =
      ChaosOptions(GetParam()).WithShards(2, ShardScheme::kRange, 1000);
  auto opened = Store::Open(o);
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  std::vector<std::pair<Key, Bytes>> low;
  for (Key k = 10; k < 14; ++k) low.emplace_back(k, Val(1));
  ASSERT_TRUE(store.PutBatch(low).WaitPhase2().ok());

  // Cut edge 0 off from every client and the cloud.
  Deployment& d = store.wedge();
  std::vector<NodeId> others{d.cloud().id()};
  for (size_t c = 0; c < d.client_count(); ++c) {
    others.push_back(d.client(c).id());
  }
  store.runtime().faults().Partition({d.edge(0).id()}, others);

  auto got = store.Get(10);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_TRUE(got->found);
  EXPECT_TRUE(got->verified);
  EXPECT_GE(store.stats().router.failovers, 1u);

  // Heal: the edge never lost state, so direct serving resumes with no
  // re-hydration and writes commit again.
  store.runtime().faults().HealPartition();
  const uint64_t failovers_at_heal = store.stats().router.failovers;
  auto direct = store.Get(11);
  ASSERT_TRUE(direct.ok()) << direct.status();
  EXPECT_TRUE(direct->found);
  EXPECT_EQ(store.stats().router.failovers, failovers_at_heal)
      << "a healed edge must serve directly again";
  EXPECT_TRUE(store.PutBatch({{13, Val(4)}}).WaitPhase2(60 * kSecond).ok());

  const StoreStats s = store.stats();
  EXPECT_EQ(s.faults.partitions, 1u);
  EXPECT_EQ(s.faults.heals, 1u);
}

// ------------------------------------------------- lying after recovery
// Verified recovery does not mean blind trust afterwards: a recovered
// edge that tampers with served values is caught exactly like a
// never-crashed one.
TEST_P(FaultFacadeTest, RecoveredEdgeThatLiesIsCaught) {
  auto opened = Store::Open(ChaosOptions(GetParam()));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  std::vector<std::pair<Key, Bytes>> kvs;
  for (Key k = 10; k < 14; ++k) kvs.emplace_back(k, Val(1));
  ASSERT_TRUE(store.PutBatch(kvs).WaitPhase2().ok());

  store.wedge().CrashEdge(0);
  store.wedge().RecoverEdge(0);
  ASSERT_TRUE(RunUntilTrue(store, [&] {
    auto g = store.Get(10);
    return g.ok() && g->found && g->value == Val(1);
  })) << "edge must re-hydrate from the cloud backup first";

  OnWedgeEdge(store, 0, [&store] {
    store.wedge().edge(0).misbehavior().tamper_get_value = true;
  });
  auto lied = store.Get(10);
  EXPECT_TRUE(lied.status().IsSecurityViolation()) << lied.status();
}

// ------------------------------------------------------- link shaping
// A fully lossy shaped link blocks the read path (per-op deadline, not a
// hang); clearing the shaping restores service. Drop accounting lands in
// both the fault plane's breakdown and the transport's dropped total.
TEST_P(FaultFacadeTest, ShapedLinkDropsThenClears) {
  auto opened = Store::Open(ChaosOptions(GetParam()));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  std::vector<std::pair<Key, Bytes>> kvs;
  for (Key k = 10; k < 14; ++k) kvs.emplace_back(k, Val(1));
  ASSERT_TRUE(store.PutBatch(kvs).WaitPhase2().ok());

  const NodeId client = store.wedge().client(0).id();
  const NodeId edge = store.wedge().edge(0).id();
  LinkShape lossy;
  lossy.drop_prob = 1.0;
  store.runtime().faults().ShapeLink(client, edge, lossy);

  // The get request is eaten by the link. Under ThreadedRuntime the wait
  // expires (DeadlineExceeded); under SimRuntime the event queue can
  // drain first, which reports Unavailable — either way it is a bounded,
  // transient failure, which is exactly what the façade retry keys on.
  auto dropped = store.Get(10, 0, 400 * kMillisecond);
  EXPECT_FALSE(dropped.ok());
  EXPECT_TRUE(dropped.status().IsDeadlineExceeded() ||
              dropped.status().IsUnavailable())
      << dropped.status();

  const StoreStats mid = store.stats();
  EXPECT_GE(mid.faults.shape_drops, 1u);
  EXPECT_GT(mid.transport.dropped, 0u);

  store.runtime().faults().ClearShaping();
  auto ok = store.Get(10);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_TRUE(ok->found);
}

INSTANTIATE_TEST_SUITE_P(
    AllRuntimes, FaultFacadeTest,
    ::testing::Values(FaultCase{RuntimeKind::kSim, false},
                      FaultCase{RuntimeKind::kThreaded, false},
                      FaultCase{RuntimeKind::kThreaded, true}),
    [](const ::testing::TestParamInfo<FaultCase>& i) {
      if (i.param.socket) return std::string("socket");
      return i.param.runtime == RuntimeKind::kSim ? std::string("sim")
                                                  : std::string("threaded");
    });

// ---------------------------------------------------- sim-only internals
// Deterministic white-box checks of the recovery machinery (node
// internals are free to read on the single simulation thread).

DeploymentConfig ChaosDeployConfig() {
  DeploymentConfig cfg;
  cfg.seed = 11;
  cfg.net.jitter_frac = 0.0;
  cfg.edge.ops_per_block = 4;
  cfg.edge.lsm.level_thresholds = {64};  // stay below the merge frontier
  cfg.edge.lsm.target_page_pairs = 8;
  cfg.edge.ship_full_blocks = true;
  cfg.cloud.backup_blocks = true;
  cfg.client.proof_timeout = 120 * kSecond;
  return cfg;
}

TEST(FaultRecoveryTest, CrashedEdgeRehydratesFromCloudBackup) {
  Deployment d(ChaosDeployConfig());
  d.Start();

  for (int i = 0; i < 2; ++i) {
    d.client().PutBatch({{static_cast<Key>(10 * i), Val(1)},
                         {static_cast<Key>(10 * i + 1), Val(1)},
                         {static_cast<Key>(10 * i + 2), Val(1)},
                         {static_cast<Key>(10 * i + 3), Val(1)}});
    d.sim().RunFor(kSecond);
  }
  ASSERT_EQ(d.edge().log().size(), 2u);
  ASSERT_EQ(d.edge().log().certified_count(), 2u);

  // Crash wipes the volatile state like a power loss.
  d.CrashEdge(0);
  d.sim().RunFor(100 * kMillisecond);
  EXPECT_EQ(d.edge().log().size(), 0u);
  EXPECT_EQ(d.edge().stats().state_drops, 1u);

  // Recovery replays the cloud's backup, certificate-checked per block.
  d.RecoverEdge(0);
  d.sim().RunFor(2 * kSecond);
  EXPECT_EQ(d.edge().log().size(), 2u);
  EXPECT_EQ(d.edge().stats().backup_blocks_restored, 2u);
  EXPECT_TRUE(d.edge().log().IsCertified(0));
  EXPECT_TRUE(d.edge().log().IsCertified(1));

  // The restored tree serves verified reads again.
  Status got = Status::Internal("not fired");
  bool found = false;
  d.client().Get(11, [&](const Status& s, const VerifiedGet& v, SimTime) {
    got = s;
    found = v.found;
  });
  d.sim().RunFor(kSecond);
  EXPECT_TRUE(got.ok()) << got;
  EXPECT_TRUE(found);

  const FaultStats f = d.runtime().faults().stats();
  EXPECT_EQ(f.crashes, 1u);
  EXPECT_EQ(f.restarts, 1u);
}

TEST(FaultRecoveryTest, CertifyRetryDrainsBacklogWithoutNewWrites) {
  auto cfg = ChaosDeployConfig();
  Deployment d(cfg);
  d.Start();
  d.runtime().faults().CrashNode(d.cloud().id());

  int phase1 = 0, phase2 = 0;
  for (int i = 0; i < 3; ++i) {
    d.client().AddBatch(
        Payloads(4),
        [&](const Status& s, BlockId, SimTime) {
          if (s.ok()) phase1++;
        },
        [&](const Status& s, BlockId, SimTime) {
          if (s.ok()) phase2++;
        });
    d.sim().RunFor(100 * kMillisecond);
  }
  d.sim().RunFor(kSecond);
  EXPECT_EQ(phase1, 3);
  EXPECT_EQ(phase2, 0);
  EXPECT_EQ(d.edge().log().certified_count(), 0u);

  // Heal — and write nothing. The edge's retry timer re-sends the
  // uncertified digests on its own (the seed needed a fresh write).
  d.runtime().faults().RestartNode(d.cloud().id());
  d.sim().RunFor(30 * kSecond);
  EXPECT_EQ(phase2, 3);
  EXPECT_EQ(d.edge().log().certified_count(), 3u);
  EXPECT_GE(d.edge().stats().certify_retries, 1u);
}

TEST(FaultRecoveryTest, ShapedDelayAddsLatencyDeterministically) {
  auto cfg = ChaosDeployConfig();
  Deployment d(cfg);
  d.Start();

  // Baseline Phase I latency, then the same write shape with 100ms of
  // one-way delay injected on client -> edge: Phase I shifts by at least
  // that much (virtual time; exactly reproducible by seed).
  SimTime base_at = 0, shaped_at = 0;
  const SimTime base_issue = d.sim().now();
  d.client().PutBatch({{1, Val(1)}, {2, Val(1)}, {3, Val(1)}, {4, Val(1)}},
                      [&](const Status& s, BlockId, SimTime t) {
                        ASSERT_TRUE(s.ok()) << s;
                        base_at = t;
                      });
  d.sim().RunFor(kSecond);
  const SimTime issue_at = d.sim().now();

  LinkShape slow;
  slow.extra_delay = 100 * kMillisecond;
  d.runtime().faults().ShapeLink(d.client().id(), d.edge().id(), slow);
  d.client().PutBatch({{5, Val(1)}, {6, Val(1)}, {7, Val(1)}, {8, Val(1)}},
                      [&](const Status& s, BlockId, SimTime t) {
                        ASSERT_TRUE(s.ok()) << s;
                        shaped_at = t;
                      });
  d.sim().RunFor(kSecond);

  ASSERT_GT(base_at, base_issue);
  ASSERT_GT(shaped_at, issue_at);
  EXPECT_GE(shaped_at - issue_at, (base_at - base_issue) + 100 * kMillisecond)
      << "the shaped write must pay the injected delay";
  EXPECT_GE(d.runtime().faults().stats().shape_delays, 1u);
}

// ------------------------------------------------- crash mid-migration
// Killing the source or the destination edge mid-SplitShard must abort
// the migration cleanly: the watchdog fires, the fence lifts, ownership
// stays exactly as it was, and the store keeps serving.

StoreOptions MigrationChaosOptions(const FaultCase& c) {
  // The watchdog window is wall time under threads: keep it long enough
  // for a clean migration (drain + export + import) and short enough
  // that the abort tests don't stall the suite.
  const SimTime timeout =
      c.runtime == RuntimeKind::kSim ? 5 * kSecond : 2 * kSecond;
  return ChaosOptions(c)
      .WithShards(2, ShardScheme::kRange, 1000)
      .WithShardCapacity(3)
      .WithMigrationTimeout(timeout);
}

class CrashMidMigrationTest : public ::testing::TestWithParam<FaultCase> {};

TEST_P(CrashMidMigrationTest, CrashedSourceAbortsSplitCleanly) {
  auto opened = Store::Open(MigrationChaosOptions(GetParam()));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  std::vector<std::pair<Key, Bytes>> kvs;
  for (Key k = 10; k < 14; ++k) kvs.emplace_back(k, Val(1));
  ASSERT_TRUE(store.PutBatch(kvs).WaitPhase2().ok());
  const OwnershipEpoch before = store.ownership_epoch();

  // The source dies before the export scan can answer: the drain
  // elapses, the export hangs against a dead edge, and the watchdog
  // aborts the attempt with the fence lifted.
  store.wedge().CrashEdge(0);
  auto split = store.SplitShard(0);
  EXPECT_TRUE(split.status().IsUnavailable()) << split.status();
  EXPECT_EQ(store.ownership_epoch(), before) << "ownership must not move";
  EXPECT_EQ(store.stats().resharding.splits_started, 1u);
  EXPECT_EQ(store.stats().resharding.splits_failed, 1u);
  EXPECT_EQ(store.stats().resharding.splits_applied, 0u);

  // The rest of the store kept working through and after the abort.
  std::vector<std::pair<Key, Bytes>> high;
  for (Key k = 600; k < 604; ++k) high.emplace_back(k, Val(2));
  EXPECT_TRUE(store.PutBatch(high).WaitPhase2().ok());
}

TEST_P(CrashMidMigrationTest,
       CrashedDestinationAbortsThenSplitSucceedsAfterRecovery) {
  auto opened = Store::Open(MigrationChaosOptions(GetParam()));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  // Keys in the UPPER half of shard 0's range [0, 500): a midpoint split
  // moves [250, 500), so the export is non-empty and the import must
  // actually reach the destination.
  std::vector<std::pair<Key, Bytes>> kvs;
  for (Key k = 300; k < 304; ++k) kvs.emplace_back(k, Val(1));
  ASSERT_TRUE(store.PutBatch(kvs).WaitPhase2().ok());
  const OwnershipEpoch before = store.ownership_epoch();

  // Slot 2 is the first idle slot — the split's destination. Kill it:
  // the export succeeds but the import hangs, and the watchdog aborts.
  store.wedge().CrashEdge(2);
  auto split = store.SplitShard(0);
  EXPECT_TRUE(split.status().IsUnavailable()) << split.status();
  EXPECT_EQ(store.ownership_epoch(), before);
  EXPECT_EQ(store.stats().resharding.splits_failed, 1u);

  // Source data never moved (migration is copy-based): still served.
  auto got = store.Get(300);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_TRUE(got->found);

  // Recover the destination and retry: the same split now applies and
  // the moved keys serve from their new owner.
  store.wedge().RecoverEdge(2);
  store.RunFor(GetParam().runtime == RuntimeKind::kSim ? 2 * kSecond
                                                       : 500 * kMillisecond);
  auto retry = store.SplitShard(0);
  ASSERT_TRUE(retry.ok()) << retry.status();
  EXPECT_GT(store.ownership_epoch(), before);
  EXPECT_EQ(store.stats().resharding.splits_applied, 1u);
  auto after = store.Get(300);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_TRUE(after->found);
  EXPECT_EQ(after->value, Val(1));
}

INSTANTIATE_TEST_SUITE_P(
    AllRuntimes, CrashMidMigrationTest,
    ::testing::Values(FaultCase{RuntimeKind::kSim, false},
                      FaultCase{RuntimeKind::kThreaded, false},
                      FaultCase{RuntimeKind::kThreaded, true}),
    [](const ::testing::TestParamInfo<FaultCase>& i) {
      if (i.param.socket) return std::string("socket");
      return i.param.runtime == RuntimeKind::kSim ? std::string("sim")
                                                  : std::string("threaded");
    });

// ----------------------------------------------------- façade retry
TEST(FacadeRetryTest, ReadRetriesRideOutACrashWindow) {
  RetryPolicy retry;
  retry.initial_backoff = 200 * kMillisecond;
  retry.max_backoff = kSecond;
  retry.max_attempts = 10;
  auto opened =
      Store::Open(ChaosOptions(RuntimeKind::kSim).WithRetry(retry));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  std::vector<std::pair<Key, Bytes>> kvs;
  for (Key k = 10; k < 14; ++k) kvs.emplace_back(k, Val(1));
  ASSERT_TRUE(store.PutBatch(kvs).WaitPhase2().ok());

  // Crash the (only) edge and cut the client off from the cloud, so the
  // router's failover read cannot answer either; heal and recover 1s
  // out — inside the retry budget. The first attempts fail on their
  // per-op deadline; the backoff pumps the simulator across the
  // recovery, and a later attempt reads the re-hydrated edge.
  Deployment& d = store.wedge();
  d.CrashEdge(0);
  store.runtime().faults().Partition({d.client(0).id()}, {d.cloud().id()});
  store.runtime().ControlExecutor()->After(kSecond, [&store] {
    store.runtime().faults().HealPartition();
    store.wedge().RecoverEdge(0);
  });

  const uint64_t issued_before = store.async_stats().issued;
  auto got = store.Get(10, 0, /*deadline=*/300 * kMillisecond);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_TRUE(got->found);
  EXPECT_EQ(got->value, Val(1));
  EXPECT_GE(store.async_stats().issued - issued_before, 2u)
      << "the read must ride out the window by retrying";
}

TEST(FacadeRetryTest, UnboundedRetryRejectedAtOpen) {
  RetryPolicy unbounded;
  unbounded.max_attempts = 0;
  auto opened =
      Store::Open(ChaosOptions(RuntimeKind::kSim).WithRetry(unbounded));
  EXPECT_TRUE(opened.status().IsInvalidArgument()) << opened.status();
}

TEST(FacadeRetryTest, SecurityViolationsAreNeverRetried) {
  RetryPolicy retry;
  retry.initial_backoff = 100 * kMillisecond;
  retry.max_attempts = 5;
  auto opened =
      Store::Open(ChaosOptions(RuntimeKind::kSim).WithRetry(retry));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  std::vector<std::pair<Key, Bytes>> kvs;
  for (Key k = 10; k < 14; ++k) kvs.emplace_back(k, Val(1));
  ASSERT_TRUE(store.PutBatch(kvs).WaitPhase2().ok());

  store.wedge().edge(0).misbehavior().tamper_get_value = true;
  const uint64_t gets_before = store.wedge().client(0).stats().gets_ok;
  auto lied = store.Get(10);
  EXPECT_TRUE(lied.status().IsSecurityViolation()) << lied.status();
  // One attempt, one detection — a detected lie is surfaced, not
  // re-asked until the timing happens to look clean.
  EXPECT_EQ(store.wedge().client(0).stats().verification_failures, 1u);
  EXPECT_EQ(store.wedge().client(0).stats().gets_ok, gets_before);
}

}  // namespace
}  // namespace wedge
