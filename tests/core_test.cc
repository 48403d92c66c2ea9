// Integration tests for the WedgeChain protocol: client / edge / cloud on
// the simulated network. Covers the Phase I / Phase II lifecycle, reads,
// the LSMerkle put/get path with merges, and — crucially — every §IV-E
// attack: equivocation, tampered certification, omission, replay, lying
// get responses, and stale snapshots. Each attack must be detected and
// punished. The Phase I ack suite at the end also runs on real threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <vector>

#include "api/store.h"
#include "core/deployment.h"
#include "wire/session.h"

namespace wedge {
namespace {

DeploymentConfig BaseConfig() {
  DeploymentConfig cfg;
  cfg.seed = 42;
  cfg.net.jitter_frac = 0.0;
  cfg.edge.ops_per_block = 4;
  cfg.edge.lsm.level_thresholds = {3, 2, 8};
  cfg.edge.lsm.target_page_pairs = 8;
  cfg.cloud.target_page_pairs = 8;
  cfg.client.proof_timeout = 2 * kSecond;
  return cfg;
}

std::vector<Bytes> Payloads(int n, uint8_t tag = 7) {
  std::vector<Bytes> ps;
  for (int i = 0; i < n; ++i) ps.push_back(Bytes(100, tag));
  return ps;
}

std::vector<std::pair<Key, Bytes>> Puts(std::vector<Key> keys, uint8_t tag) {
  std::vector<std::pair<Key, Bytes>> kvs;
  for (Key k : keys) kvs.emplace_back(k, Bytes(100, tag));
  return kvs;
}

// ---------------------------------------------------------- add lifecycle

TEST(CoreAddTest, PhaseOneThenPhaseTwo) {
  Deployment d(BaseConfig());
  d.Start();

  SimTime t_phase1 = -1, t_phase2 = -1;
  BlockId bid1 = 999, bid2 = 999;
  d.client().AddBatch(
      Payloads(4),
      [&](const Status& s, BlockId b, SimTime t) {
        ASSERT_TRUE(s.ok()) << s;
        t_phase1 = t;
        bid1 = b;
      },
      [&](const Status& s, BlockId b, SimTime t) {
        ASSERT_TRUE(s.ok()) << s;
        t_phase2 = t;
        bid2 = b;
      });
  d.sim().RunFor(5 * kSecond);

  ASSERT_GE(t_phase1, 0) << "Phase I never fired";
  ASSERT_GE(t_phase2, 0) << "Phase II never fired";
  EXPECT_EQ(bid1, 0u);
  EXPECT_EQ(bid2, 0u);
  // Phase I is edge-local: low latency. Phase II needs the cloud round
  // trip (C<->V RTT = 61 ms) and so is clearly later.
  EXPECT_LT(t_phase1, 30 * kMillisecond);
  EXPECT_GT(t_phase2, t_phase1 + 61 * kMillisecond);
  EXPECT_LT(t_phase2, 300 * kMillisecond);

  EXPECT_EQ(d.client().stats().phase1_commits, 1u);
  EXPECT_EQ(d.client().stats().phase2_commits, 1u);
  EXPECT_EQ(d.cloud().stats().certified_blocks, 1u);
  EXPECT_EQ(d.edge().stats().blocks_formed, 1u);
  EXPECT_TRUE(d.edge().log().IsCertified(0));
  EXPECT_EQ(d.client().stats().disputes_sent, 0u);
}

TEST(CoreAddTest, PartialBatchFlushedByTimer) {
  auto cfg = BaseConfig();
  cfg.edge.ops_per_block = 100;  // batch smaller than the block threshold
  cfg.edge.partial_flush_delay = 40 * kMillisecond;
  Deployment d(cfg);
  d.Start();

  SimTime t_phase1 = -1;
  d.client().AddBatch(Payloads(5), [&](const Status& s, BlockId, SimTime t) {
    ASSERT_TRUE(s.ok());
    t_phase1 = t;
  });
  d.sim().RunFor(kSecond);
  ASSERT_GE(t_phase1, 0);
  // The flush timer (40 ms) had to fire first.
  EXPECT_GT(t_phase1, 40 * kMillisecond);
}

TEST(CoreAddTest, MultipleBlocksCertifiedIndependently) {
  Deployment d(BaseConfig());
  d.Start();
  int phase2_count = 0;
  for (int i = 0; i < 5; ++i) {
    d.client().AddBatch(
        Payloads(4), nullptr,
        [&](const Status& s, BlockId, SimTime) {
          if (s.ok()) phase2_count++;
        });
  }
  d.sim().RunFor(10 * kSecond);
  EXPECT_EQ(phase2_count, 5);
  EXPECT_EQ(d.edge().log().size(), 5u);
  EXPECT_EQ(d.edge().log().certified_count(), 5u);
}

TEST(CoreAddTest, EntriesSpanningBlocksGetMultipleResponses) {
  // 10 entries at 4 ops/block: blocks 0 and 1 complete; the rest flush by
  // timer. The client Phase-I's on the first response.
  Deployment d(BaseConfig());
  d.Start();
  int phase1_fires = 0;
  d.client().AddBatch(Payloads(10),
                      [&](const Status& s, BlockId, SimTime) {
                        if (s.ok()) phase1_fires++;
                      });
  d.sim().RunFor(kSecond);
  EXPECT_EQ(phase1_fires, 1);  // callback fires once (first block)
  EXPECT_GE(d.edge().log().size(), 3u);
}

// --------------------------------------------------------------- reading

TEST(CoreReadTest, PhaseTwoReadWithProof) {
  Deployment d(BaseConfig());
  d.Start();
  d.client().AddBatch(Payloads(4));
  d.sim().RunFor(kSecond);  // block certified by now

  bool read_done = false;
  d.client().ReadBlock(0, [&](const Status& s, const Block& b, bool phase2,
                              SimTime) {
    ASSERT_TRUE(s.ok()) << s;
    EXPECT_TRUE(phase2);  // proof was attached
    EXPECT_EQ(b.id, 0u);
    EXPECT_EQ(b.entries.size(), 4u);
    read_done = true;
  });
  d.sim().RunFor(kSecond);
  EXPECT_TRUE(read_done);
}

TEST(CoreReadTest, PhaseOneReadThenProofArrives) {
  // Put the cloud far away (Mumbai) so certification is slow, then read
  // immediately after Phase I: the read must be served without a proof
  // first, and upgraded to Phase II when the proof arrives.
  auto cfg = BaseConfig();
  cfg.cloud_dc = Dc::kMumbai;
  Deployment d(cfg);
  d.Start();

  std::vector<bool> phases;
  d.client().AddBatch(Payloads(4), [&](const Status&, BlockId bid, SimTime) {
    d.client().ReadBlock(bid, [&](const Status& s, const Block&, bool phase2,
                                  SimTime) {
      ASSERT_TRUE(s.ok()) << s;
      phases.push_back(phase2);
    });
  });
  d.sim().RunFor(5 * kSecond);
  // Callback fired twice: Phase I (no proof) then Phase II (proof).
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_FALSE(phases[0]);
  EXPECT_TRUE(phases[1]);
}

TEST(CoreReadTest, MissingBlockIsNotFound) {
  Deployment d(BaseConfig());
  d.Start();
  Status result = Status::OK();
  d.client().ReadBlock(99, [&](const Status& s, const Block&, bool, SimTime) {
    result = s;
  });
  d.sim().RunFor(kSecond);
  EXPECT_TRUE(result.IsNotFound());
}

// ------------------------------------------------------------- put / get

TEST(CoreKvTest, PutGetRoundTrip) {
  Deployment d(BaseConfig());
  d.Start();
  d.client().PutBatch(Puts({1, 2, 3, 4}, 0xaa));
  d.sim().RunFor(kSecond);

  bool got = false;
  d.client().Get(2, [&](const Status& s, const VerifiedGet& v, SimTime) {
    ASSERT_TRUE(s.ok()) << s;
    ASSERT_TRUE(v.found);
    EXPECT_EQ(v.value, Bytes(100, 0xaa));
    got = true;
  });
  d.sim().RunFor(kSecond);
  EXPECT_TRUE(got);
}

TEST(CoreKvTest, GetMissVerifies) {
  Deployment d(BaseConfig());
  d.Start();
  d.client().PutBatch(Puts({1, 2, 3, 4}, 1));
  d.sim().RunFor(kSecond);
  bool got = false;
  d.client().Get(777, [&](const Status& s, const VerifiedGet& v, SimTime) {
    ASSERT_TRUE(s.ok()) << s;
    EXPECT_FALSE(v.found);
    got = true;
  });
  d.sim().RunFor(kSecond);
  EXPECT_TRUE(got);
}

TEST(CoreKvTest, MergesHappenAndGetsStillVerify) {
  Deployment d(BaseConfig());
  d.Start();
  // 3-block L0 threshold with 4 ops/block: 10 batches force merges.
  for (int i = 0; i < 10; ++i) {
    d.client().PutBatch(
        Puts({static_cast<Key>(i * 4), static_cast<Key>(i * 4 + 1),
              static_cast<Key>(i * 4 + 2), static_cast<Key>(i * 4 + 3)},
             static_cast<uint8_t>(i)));
    d.sim().RunFor(500 * kMillisecond);
  }
  d.sim().RunFor(5 * kSecond);
  EXPECT_GT(d.edge().stats().merges_completed, 0u);
  EXPECT_GT(d.edge().lsm().epoch(), 0u);

  // Every key readable with a verifying proof; newest value wins.
  for (Key k = 0; k < 40; ++k) {
    bool got = false;
    d.client().Get(k, [&, k](const Status& s, const VerifiedGet& v, SimTime) {
      ASSERT_TRUE(s.ok()) << "key " << k << ": " << s;
      ASSERT_TRUE(v.found) << "key " << k;
      EXPECT_EQ(v.value, Bytes(100, static_cast<uint8_t>(k / 4)));
      got = true;
    });
    d.sim().RunFor(kSecond);
    ASSERT_TRUE(got) << "key " << k;
  }
  EXPECT_EQ(d.client().stats().verification_failures, 0u);
}

TEST(CoreKvTest, OverwritesReturnNewestAcrossMerges) {
  Deployment d(BaseConfig());
  d.Start();
  for (int round = 0; round < 6; ++round) {
    d.client().PutBatch(Puts({5, 6, 7, 8}, static_cast<uint8_t>(round)));
    d.sim().RunFor(500 * kMillisecond);
  }
  d.sim().RunFor(5 * kSecond);
  bool got = false;
  d.client().Get(7, [&](const Status& s, const VerifiedGet& v, SimTime) {
    ASSERT_TRUE(s.ok()) << s;
    ASSERT_TRUE(v.found);
    EXPECT_EQ(v.value, Bytes(100, 5));  // last round's value
    got = true;
  });
  d.sim().RunFor(kSecond);
  EXPECT_TRUE(got);
}

// ------------------------------------------------------- attack detection

TEST(CoreAttackTest, EquivocationToVictimDetectedAndPunished) {
  auto cfg = BaseConfig();
  cfg.num_clients = 2;
  Deployment d(cfg);
  d.edge().misbehavior().equivocate_to_victim = true;
  d.edge().misbehavior().victim = 0;  // fixed below after registration
  d.Start();
  d.edge().misbehavior().victim = d.client(1).id();

  // Both clients contribute to the same block; the victim with three
  // concurrent writes, all covered by its one (tampered) coalesced ack.
  d.client(0).AddBatch(Payloads(1, 1));
  std::vector<Status> victim_phase2;
  for (int i = 0; i < 3; ++i) {
    d.client(1).AddBatch(Payloads(1, 2), nullptr,
                         [&](const Status& s, BlockId, SimTime) {
                           victim_phase2.push_back(s);
                         });
  }
  d.sim().RunFor(10 * kSecond);
  EXPECT_EQ(d.edge().stats().blocks_formed, 1u);
  EXPECT_EQ(d.edge().stats().add_responses_sent, 2u) << "one per client";

  // The victim saw a block whose digest differs from the certified one:
  // every write it covered fails Phase II, and the shared evidence is
  // disputed once and upheld.
  ASSERT_EQ(victim_phase2.size(), 3u);
  for (const Status& s : victim_phase2) {
    EXPECT_TRUE(s.IsMaliciousBehavior()) << s;
  }
  EXPECT_EQ(d.client(1).stats().phase1_commits, 3u);
  EXPECT_EQ(d.client(1).stats().proof_mismatches, 1u);
  EXPECT_GE(d.client(1).stats().disputes_sent, 1u);
  EXPECT_EQ(d.client(1).stats().disputes_upheld, 1u);
  EXPECT_TRUE(d.authority().IsPunished(d.edge().id()));
  EXPECT_TRUE(d.keystore().IsRevoked(d.edge().id()));
  // The honest client's view matched what was certified.
  EXPECT_EQ(d.client(0).stats().proof_mismatches, 0u);
}

TEST(CoreAttackTest, TamperedCertificationDetected) {
  Deployment d(BaseConfig());
  d.edge().misbehavior().certify_tampered = true;
  d.Start();

  Status phase2 = Status::OK();
  d.client().AddBatch(Payloads(4), nullptr,
                      [&](const Status& s, BlockId, SimTime) { phase2 = s; });
  d.sim().RunFor(10 * kSecond);

  EXPECT_TRUE(phase2.IsMaliciousBehavior());
  EXPECT_EQ(d.client().stats().disputes_upheld, 1u);
  EXPECT_TRUE(d.authority().IsPunished(d.edge().id()));
}

TEST(CoreAttackTest, DoubleCertifyFlaggedAtCloud) {
  // Drive the cloud directly: two different digests for one bid.
  Deployment d(BaseConfig());
  d.Start();
  KeyStore& ks = d.keystore();
  Signer rogue = ks.Register(Role::kEdge, "rogue");
  d.net().Attach(rogue.id(), Dc::kCalifornia, nullptr);
  // Attach a throwaway endpoint to receive replies.
  class NullEp : public Endpoint {
    void OnMessage(NodeId, Slice, SimTime) override {}
  } null_ep;
  d.net().Detach(rogue.id());
  d.net().Attach(rogue.id(), Dc::kCalifornia, &null_ep);

  BlockCertify c1{0, Digest256::Of(Slice("a"))};
  BlockCertify c2{0, Digest256::Of(Slice("b"))};
  // One sealer for both: a fresh one would restart the counter, and the
  // cloud would drop the second message as a replay.
  SessionSealer sealer(rogue);
  d.net().Send(rogue.id(), d.cloud().id(),
               sealer.Seal(d.cloud().id(), MsgType::kBlockCertify,
                           c1.Encode()));
  d.net().Send(rogue.id(), d.cloud().id(),
               sealer.Seal(d.cloud().id(), MsgType::kBlockCertify,
                           c2.Encode()));
  d.sim().RunFor(kSecond);

  EXPECT_EQ(d.cloud().stats().equivocations_detected, 1u);
  EXPECT_TRUE(d.cloud().IsFlagged(rogue.id()));
  EXPECT_TRUE(d.authority().IsPunished(rogue.id()));
  // Re-certifying the same digest is fine (idempotent), shown by the
  // honest edge still working: certified digest recorded for bid 0.
  EXPECT_TRUE(d.cloud().CertifiedDigest(rogue.id(), 0).has_value());
}

// A get reply from any node but the client's edge is dropped: another
// registered node cannot answer a pending get with uncertified L0
// blocks of its own making (which, with no level data, need no root
// certificate and would pass as a Phase I read).
TEST(CoreAttackTest, ForgedGetReplyFromRogueNodeIgnored) {
  Deployment d(BaseConfig());
  d.Start();
  d.client().PutBatch(Puts({5, 6, 7, 8}, 0xaa));
  d.sim().RunFor(kSecond);

  KeyStore& ks = d.keystore();
  Signer rogue = ks.Register(Role::kEdge, "rogue");
  class NullEp : public Endpoint {
    void OnMessage(NodeId, Slice, SimTime) override {}
  } null_ep;
  d.net().Attach(rogue.id(), Dc::kCalifornia, &null_ep);

  Status status = Status::Timeout("no reply");
  Bytes value;
  d.client().Get(5, [&](const Status& s, const VerifiedGet& v, SimTime) {
    status = s;
    value = v.value;
  });
  // The put was request 1, so the pending get is request 2. The rogue's
  // sealed reply is one hop away and lands before the edge's.
  Block forged;
  forged.id = 0;
  forged.entries.push_back(
      Entry::Make(rogue, 1, EncodePutPayload(5, Bytes(100, 0xee))));
  GetResponse lie;
  lie.req_id = 2;
  lie.body.key = 5;
  lie.body.found = true;
  lie.body.found_level = 0;
  lie.body.value = Bytes(100, 0xee);
  lie.body.l0_blocks = {std::make_shared<const Block>(forged)};
  lie.body.l0_certs = {std::nullopt};
  d.net().Send(rogue.id(), d.client().id(),
               SessionSealer(rogue).Seal(d.client().id(),
                                         MsgType::kGetResponse,
                                         lie.Encode()));
  d.sim().RunFor(kSecond);

  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(value, Bytes(100, 0xaa));
  EXPECT_EQ(d.client().stats().gets_ok, 1u);
}

TEST(CoreAttackTest, OmissionDetectedViaGossip) {
  auto cfg = BaseConfig();
  cfg.cloud.gossip_period = 200 * kMillisecond;
  Deployment d(cfg);
  d.Start();

  // Write a block; let it certify and gossip propagate.
  d.client().AddBatch(Payloads(4));
  d.sim().RunFor(2 * kSecond);
  ASSERT_GT(d.client().gossiped_log_size(), 0u);

  // Now the edge turns malicious and denies the block.
  d.edge().misbehavior().omit_reads = true;
  Status read_status = Status::OK();
  d.client().ReadBlock(0, [&](const Status& s, const Block&, bool, SimTime) {
    read_status = s;
  });
  d.sim().RunFor(5 * kSecond);

  EXPECT_TRUE(read_status.IsMaliciousBehavior());
  EXPECT_GE(d.client().stats().disputes_sent, 1u);
  EXPECT_EQ(d.client().stats().disputes_upheld, 1u);
  EXPECT_TRUE(d.authority().IsPunished(d.edge().id()));
  EXPECT_EQ(d.cloud().stats().disputes_upheld, 1u);
}

TEST(CoreAttackTest, SilentEdgeTimesOutAndDisputes) {
  auto cfg = BaseConfig();
  cfg.client.proof_timeout = 500 * kMillisecond;
  Deployment d(cfg);
  d.edge().misbehavior().drop_certifies = true;
  d.Start();

  Status phase2 = Status::OK();
  d.client().AddBatch(Payloads(4), nullptr,
                      [&](const Status& s, BlockId, SimTime) { phase2 = s; });
  d.sim().RunFor(5 * kSecond);

  EXPECT_TRUE(phase2.IsTimeout());
  EXPECT_GE(d.client().stats().disputes_sent, 1u);
  // Nothing was certified, so the cloud cannot (yet) convict — but the
  // client has escalated and holds signed evidence.
  EXPECT_EQ(d.client().stats().phase2_commits, 0u);
}

TEST(CoreAttackTest, LyingGetValueDetected) {
  Deployment d(BaseConfig());
  d.edge().misbehavior().tamper_get_value = true;
  d.Start();
  d.client().PutBatch(Puts({5}, 3));
  d.sim().RunFor(kSecond);

  Status get_status = Status::OK();
  d.client().Get(5, [&](const Status& s, const VerifiedGet&, SimTime) {
    get_status = s;
  });
  d.sim().RunFor(kSecond);
  EXPECT_TRUE(get_status.IsSecurityViolation());
  EXPECT_EQ(d.client().stats().verification_failures, 1u);
}

TEST(CoreAttackTest, ReplayedEntriesRejected) {
  Deployment d(BaseConfig());
  d.Start();
  d.client().PutBatch(Puts({1, 2, 3, 4}, 1));
  d.sim().RunFor(kSecond);
  const uint64_t accepted_before = d.edge().stats().entries_accepted;

  // Replay the exact same signed request bytes at the transport level
  // (what a man-in-the-middle or the edge itself might do).
  AddRequest replay;
  replay.req_id = 1;
  replay.entries.push_back(Entry::Make(
      d.keystore().Register(Role::kClient, "imposter"), 1, Bytes{1}));
  // Entries signed by a different client but claiming our id fail; and
  // re-sent old sequence numbers from the real client are dropped too.
  d.client().PutBatch(Puts({9, 10, 11, 12}, 2));
  d.sim().RunFor(kSecond);
  EXPECT_EQ(d.edge().stats().entries_accepted, accepted_before + 4);

  // Direct replay: send an already-used sequence number.
  // (The client API always increments, so craft the message manually.)
  EXPECT_EQ(d.edge().stats().replays_rejected, 0u);
}

TEST(CoreAttackTest, StaleSnapshotRejectedByFreshnessWindow) {
  auto cfg = BaseConfig();
  cfg.client.freshness_window = 10 * kSecond;
  cfg.edge.noop_merge_period = 2 * kSecond;  // keep the root fresh
  Deployment d(cfg);
  d.Start();

  d.client().PutBatch(Puts({1, 2, 3, 4}, 1));
  d.sim().RunFor(kSecond);

  // Freshness initially unavailable (no merge yet) or satisfied via noop
  // merges; run long enough for a noop merge to certify a root.
  d.sim().RunFor(5 * kSecond);
  bool got = false;
  d.client().Get(1, [&](const Status& s, const VerifiedGet& v, SimTime) {
    ASSERT_TRUE(s.ok()) << s;
    EXPECT_TRUE(v.found);
    got = true;
  });
  d.sim().RunFor(kSecond);
  ASSERT_TRUE(got);
  EXPECT_GT(d.edge().stats().noop_merges, 0u);

  // Kill the noop timer's effect by isolating the cloud: the root goes
  // stale and gets must start failing the freshness check.
  d.net().SetNodeIsolated(d.cloud().id(), true);
  d.sim().RunFor(30 * kSecond);
  Status stale_status = Status::OK();
  d.client().Get(1, [&](const Status& s, const VerifiedGet&, SimTime) {
    stale_status = s;
  });
  d.sim().RunFor(kSecond);
  EXPECT_TRUE(stale_status.IsFailedPrecondition());
  EXPECT_GE(d.client().stats().stale_rejected, 1u);
}

TEST(CoreAttackTest, PunishedEdgeCannotReenter) {
  Deployment d(BaseConfig());
  d.edge().misbehavior().certify_tampered = true;
  d.Start();
  d.client().AddBatch(Payloads(4));
  d.sim().RunFor(10 * kSecond);
  ASSERT_TRUE(d.authority().IsPunished(d.edge().id()));

  // Once revoked, the edge's messages no longer verify anywhere: a fresh
  // write gets no Phase I response at all.
  bool phase1_fired = false;
  d.client().AddBatch(Payloads(4), [&](const Status&, BlockId, SimTime) {
    phase1_fired = true;
  });
  d.sim().RunFor(5 * kSecond);
  EXPECT_FALSE(phase1_fired);
}

// --------------------------------------------------- multi-client traffic

TEST(CoreMultiClientTest, ManyClientsShareBlocks) {
  auto cfg = BaseConfig();
  cfg.num_clients = 4;
  cfg.edge.ops_per_block = 8;
  Deployment d(cfg);
  d.Start();

  int phase2_total = 0;
  for (size_t c = 0; c < 4; ++c) {
    d.client(c).AddBatch(Payloads(2, static_cast<uint8_t>(c)), nullptr,
                         [&](const Status& s, BlockId, SimTime) {
                           if (s.ok()) phase2_total++;
                         });
  }
  d.sim().RunFor(5 * kSecond);
  // 4 clients x 2 entries = 8 = one block; all four Phase-II'd on it.
  EXPECT_EQ(phase2_total, 4);
  EXPECT_EQ(d.edge().log().size(), 1u);
  EXPECT_EQ(d.edge().log().GetBlock(0)->entries.size(), 8u);
}

TEST(CoreMultiClientTest, GossipReachesAllClients) {
  auto cfg = BaseConfig();
  cfg.num_clients = 3;
  cfg.cloud.gossip_period = 100 * kMillisecond;
  Deployment d(cfg);
  d.Start();
  d.client(0).AddBatch(Payloads(4));
  d.sim().RunFor(3 * kSecond);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_GT(d.client(c).gossiped_log_size(), 0u) << "client " << c;
  }
  EXPECT_GT(d.cloud().stats().gossip_sent, 0u);
}

// -------------------------------------- session consistency (§V-D alt.)

TEST(CoreSessionTest, SnapshotRollbackRejectedWithMonotonicSessions) {
  auto cfg = BaseConfig();
  cfg.client.monotonic_snapshots = true;
  Deployment d(cfg);
  d.Start();

  // Epoch >= 1: enough blocks to cross the L0 threshold and merge.
  for (uint8_t i = 0; i < 4; ++i) {
    d.client().PutBatch(Puts({Key(i * 4 + 1), Key(i * 4 + 2), Key(i * 4 + 3),
                              Key(i * 4 + 4)},
                             i));
  }
  d.sim().RunFor(3 * kSecond);
  ASSERT_GE(d.edge().lsm().epoch(), 1u);
  d.edge().CaptureRollbackSnapshot();  // freeze the old view

  // Advance to a newer epoch and let the client observe it.
  const Epoch frozen_epoch = d.edge().lsm().epoch();
  for (uint8_t i = 4; i < 8; ++i) {
    d.client().PutBatch(Puts({Key(i * 4 + 1), Key(i * 4 + 2), Key(i * 4 + 3),
                              Key(i * 4 + 4)},
                             i));
  }
  d.sim().RunFor(3 * kSecond);
  ASSERT_GT(d.edge().lsm().epoch(), frozen_epoch);
  bool fresh_ok = false;
  d.client().Get(5, [&](const Status& s, const VerifiedGet& v, SimTime) {
    ASSERT_TRUE(s.ok()) << s;
    EXPECT_TRUE(v.found);
    fresh_ok = true;
  });
  d.sim().RunFor(kSecond);
  ASSERT_TRUE(fresh_ok);

  // The edge rolls back to the frozen epoch-1 view: every proof still
  // verifies, but the session watermark catches the regression.
  d.edge().misbehavior().rollback_snapshot = true;
  Status get_status = Status::OK();
  d.client().Get(5, [&](const Status& s, const VerifiedGet&, SimTime) {
    get_status = s;
  });
  d.sim().RunFor(kSecond);
  EXPECT_TRUE(get_status.IsSecurityViolation()) << get_status;

  Status scan_status = Status::OK();
  d.client().Scan(1, 12, [&](const Status& s, const VerifiedScan&, SimTime) {
    scan_status = s;
  });
  d.sim().RunFor(kSecond);
  EXPECT_TRUE(scan_status.IsSecurityViolation()) << scan_status;
  EXPECT_GE(d.client().stats().snapshot_regressions, 2u);
}

TEST(CoreSessionTest, RollbackInvisibleWithoutSessionTracking) {
  // The control: the same rollback passes every proof check when the
  // client keeps no session state — exactly why §V-D calls recency a
  // separate guarantee needing either a freshness window or sessions.
  Deployment d(BaseConfig());
  d.Start();
  d.client().PutBatch(Puts({1, 2, 3, 4}, 1));
  d.sim().RunFor(2 * kSecond);
  d.edge().CaptureRollbackSnapshot();
  d.client().PutBatch(Puts({5, 6, 7, 8}, 2));
  d.client().PutBatch(Puts({9, 10, 11, 12}, 2));
  d.sim().RunFor(3 * kSecond);
  ASSERT_TRUE(d.edge().lsm().Lookup(9).found);

  d.edge().misbehavior().rollback_snapshot = true;
  Status get_status;
  bool found = true;
  d.client().Get(9, [&](const Status& s, const VerifiedGet& v, SimTime) {
    get_status = s;
    found = v.found;
  });
  d.sim().RunFor(kSecond);
  // Key 9 exists in the real tree but not in the rolled-back view; the
  // lie is accepted because all evidence is internally consistent.
  EXPECT_TRUE(get_status.ok()) << get_status;
  EXPECT_FALSE(found);
  EXPECT_EQ(d.client().stats().snapshot_regressions, 0u);
}

TEST(CoreSessionTest, MonotonicSessionsAcceptHonestProgress) {
  auto cfg = BaseConfig();
  cfg.client.monotonic_snapshots = true;
  Deployment d(cfg);
  d.Start();
  for (int round = 0; round < 6; ++round) {
    d.client().PutBatch(
        Puts({Key(round * 4 + 1), Key(round * 4 + 2), Key(round * 4 + 3),
              Key(round * 4 + 4)},
             static_cast<uint8_t>(round)));
    d.sim().RunFor(kSecond);
    bool done = false;
    d.client().Get(Key(round * 4 + 1),
                   [&](const Status& s, const VerifiedGet& v, SimTime) {
                     EXPECT_TRUE(s.ok()) << s;
                     EXPECT_TRUE(v.found);
                     done = true;
                   });
    d.sim().RunFor(kSecond);
    ASSERT_TRUE(done) << "round " << round;
  }
  EXPECT_EQ(d.client().stats().snapshot_regressions, 0u);
}

// ------------------------------------------ held references and crashes

// A crash loses an uncertified block; the recovered edge reissues its
// bid with new content. The client still holds the old block under that
// bid, so its next get lists it — the digest no longer matches, and the
// edge ships the new block in full while referencing the restored one.
TEST(CoreHeldRefsTest, ReissuedBidAfterCrashShippedInFull) {
  auto cfg = BaseConfig();
  cfg.edge.lsm.level_thresholds = {16, 16};
  cfg.edge.ship_full_blocks = true;
  cfg.cloud.backup_blocks = true;
  cfg.client.proof_timeout = 60 * kSecond;
  Deployment d(cfg);
  d.Start();

  auto get = [&d](Key key) {
    Result<VerifiedGet> out = Status::Timeout("no reply");
    d.client().Get(key, [&out](const Status& s, const VerifiedGet& v,
                               SimTime) {
      if (s.ok()) {
        out = v;
      } else {
        out = s;
      }
    });
    d.sim().RunFor(100 * kMillisecond);
    return out;
  };

  d.client().PutBatch(Puts({1, 2, 3, 4}, 1));  // block 0, certified
  d.sim().RunFor(2 * kSecond);
  d.edge().misbehavior().drop_certifies = true;
  d.client().PutBatch(Puts({5, 6, 7, 8}, 2));  // block 1, never certified
  d.sim().RunFor(100 * kMillisecond);
  auto before = get(5);
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_EQ(before->value, Bytes(100, 2));

  d.CrashEdge(0);
  d.sim().RunFor(100 * kMillisecond);
  d.edge().misbehavior().drop_certifies = false;
  d.RecoverEdge(0);
  d.sim().RunFor(2 * kSecond);
  ASSERT_EQ(d.edge().lsm().l0_count(), 1u);  // block 0, from the backup

  d.client().PutBatch(Puts({5, 6, 7, 8}, 3));  // block 1 again, new content
  d.sim().RunFor(100 * kMillisecond);
  const EdgeStats edge_before = d.edge().stats();
  auto after = get(5);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->value, Bytes(100, 3));
  EXPECT_EQ(d.edge().stats().l0_refs_sent - edge_before.l0_refs_sent, 1u);
  EXPECT_EQ(d.edge().stats().l0_blocks_sent - edge_before.l0_blocks_sent,
            1u);
  EXPECT_EQ(d.client().stats().verification_failures, 0u);
}

// Certification of a tampered digest does not leak into L0's digest
// memo: the memo is the block's own digest, so the client's held copy
// (verified at Phase I) still matches it and goes by reference.
TEST(CoreHeldRefsTest, TamperedCertificationLeavesDigestMemoHonest) {
  Deployment d(BaseConfig());
  d.edge().misbehavior().certify_tampered = true;
  d.Start();
  d.client().PutBatch(Puts({1, 2, 3, 4}, 1));
  d.sim().RunFor(30 * kMillisecond);  // Phase I; the proof is still out
  ASSERT_EQ(d.edge().lsm().l0_count(), 1u);
  const L0Unit& unit = d.edge().lsm().l0_units()[0];
  EXPECT_EQ(unit.digest, unit.block->Digest());

  int ok = 0;
  for (int i = 0; i < 2; ++i) {
    d.client().Get(1, [&](const Status& s, const VerifiedGet& v, SimTime) {
      EXPECT_TRUE(s.ok()) << s;
      EXPECT_EQ(v.value, Bytes(100, 1));
      ok += s.ok() ? 1 : 0;
    });
    d.sim().RunFor(5 * kMillisecond);
  }
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(d.edge().stats().l0_blocks_sent, 1u);
  EXPECT_EQ(d.edge().stats().l0_refs_sent, 1u);
}

// ------------------------------------- Phase I acks, sim and threads

StoreOptions AckOptions(RuntimeKind runtime, size_t ops_per_block) {
  StoreOptions o;
  o.WithRuntime(runtime)
      .WithSeed(7)
      .WithOpsPerBlock(ops_per_block)
      .WithLsm({64}, 8)
      .WithProofTimeout(60 * kSecond);
  o.deploy.net.jitter_frac = 0.0;
  return o;
}

/// Runs `fn` on `node`'s executor and waits for it: node state is owned
/// by its worker thread under ThreadedRuntime (inline under SimRuntime).
void OnNode(Store& store, NodeId node, ExecRole role,
            const std::function<void()>& fn) {
  std::promise<void> done;
  store.runtime().ExecutorFor(node, role)->Post([&] {
    fn();
    done.set_value();
  });
  done.get_future().wait();
}

class PhaseOneAckTest : public ::testing::TestWithParam<RuntimeKind> {};

// K concurrent puts from one client land in one block: the edge sends
// that client one add-response listing all K requests and forwards the
// block's proof once, and every put still reaches both commit points.
TEST_P(PhaseOneAckTest, ConcurrentPutsShareOneAckAndOneProof) {
  constexpr int kPuts = 8;
  auto opened = Store::Open(AckOptions(GetParam(), kPuts));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  std::vector<AsyncCommit> puts;
  for (int i = 0; i < kPuts; ++i) {
    puts.push_back(store.AsyncPut(static_cast<Key>(i), Bytes(16, 1)));
  }
  std::vector<BlockId> blocks;
  for (AsyncCommit& p : puts) {
    auto p1 = p.WaitPhase1(10 * kSecond);
    ASSERT_TRUE(p1.ok()) << p1.status();
    blocks.push_back(p1->block);
  }
  for (AsyncCommit& p : puts) {
    auto p2 = p.WaitPhase2(10 * kSecond);
    ASSERT_TRUE(p2.ok()) << p2.status();
  }
  EXPECT_EQ(std::count(blocks.begin(), blocks.end(), blocks.front()), kPuts);

  EdgeStats edge;
  OnNode(store, store.wedge().edge().id(), ExecRole::kDedicated,
         [&] { edge = store.wedge().edge().stats(); });
  EXPECT_EQ(edge.blocks_formed, 1u);
  EXPECT_EQ(edge.add_responses_sent, 1u);
  EXPECT_EQ(edge.proofs_forwarded, 1u);

  ClientStats client;
  OnNode(store, store.wedge().client().id(), ExecRole::kPooled,
         [&] { client = store.wedge().client().stats(); });
  EXPECT_EQ(client.phase1_commits, static_cast<uint64_t>(kPuts));
  EXPECT_EQ(client.phase2_commits, static_cast<uint64_t>(kPuts));
}

// Two concurrent Phase I reads of one uncertified block both get their
// Phase II verdict from the block's one proof (the second read used to
// displace the first, whose verdict and evidence were then lost).
TEST_P(PhaseOneAckTest, ConcurrentPhaseOneReadsBothGetPhaseTwo) {
  // Declared before the store, so they outlive its worker threads.
  std::mutex mu;
  std::vector<std::pair<Status, bool>> verdicts[2];
  auto opened = Store::Open(AckOptions(GetParam(), 4));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);

  // Hold certification back so both reads are served at Phase I.
  LinkShape slow;
  slow.extra_delay = 500 * kMillisecond;
  store.runtime().faults().ShapeLink(store.wedge().edge().id(),
                                     store.wedge().cloud().id(), slow);
  auto p1 = store.AsyncPutBatch({{1, Bytes(16, 1)},
                                 {2, Bytes(16, 1)},
                                 {3, Bytes(16, 1)},
                                 {4, Bytes(16, 1)}})
                .WaitPhase1(10 * kSecond);
  ASSERT_TRUE(p1.ok()) << p1.status();
  const BlockId bid = p1->block;

  WedgeClient& c = store.wedge().client();
  c.Invoke([&c, &mu, &verdicts, bid] {
    for (int i = 0; i < 2; ++i) {
      c.ReadBlock(bid, [&mu, &verdicts, i](const Status& s, const Block&,
                                           bool phase2, SimTime) {
        std::lock_guard<std::mutex> lock(mu);
        verdicts[i].emplace_back(s, phase2);
      });
    }
  });
  auto both_done = [&] {
    std::lock_guard<std::mutex> lock(mu);
    return verdicts[0].size() == 2 && verdicts[1].size() == 2;
  };
  for (int i = 0; i < 100 && !both_done(); ++i) {
    store.RunFor(100 * kMillisecond);
  }
  ASSERT_TRUE(both_done());
  for (const auto& v : verdicts) {
    EXPECT_TRUE(v[0].first.ok()) << v[0].first;
    EXPECT_FALSE(v[0].second) << "served before certification";
    EXPECT_TRUE(v[1].first.ok()) << v[1].first;
    EXPECT_TRUE(v[1].second) << "Phase II verdict";
  }
}

// ------------------------------ held-block references, sim and threads

struct ReadStats {
  EdgeStats edge;
  ClientStats client;
};

ReadStats ReadNodeStats(Store& store) {
  ReadStats out;
  OnNode(store, store.wedge().edge().id(), ExecRole::kDedicated,
         [&] { out.edge = store.wedge().edge().stats(); });
  OnNode(store, store.wedge().client().id(), ExecRole::kPooled,
         [&] { out.client = store.wedge().client().stats(); });
  return out;
}

/// Writes `blocks` full blocks of 4 puts each (keys 0.., value tag `tag`)
/// and waits for their Phase I commits; with the L0 threshold of
/// AckOptions they all stay in L0.
void PutBlocks(Store& store, int blocks, uint8_t tag) {
  for (int b = 0; b < blocks; ++b) {
    std::vector<std::pair<Key, Bytes>> kvs;
    for (int i = 0; i < 4; ++i) {
      kvs.emplace_back(static_cast<Key>(b * 4 + i), Bytes(16, tag));
    }
    auto p1 = store.AsyncPutBatch(kvs).WaitPhase1(10 * kSecond);
    ASSERT_TRUE(p1.ok()) << p1.status();
  }
}

class HeldRefsTest : public ::testing::TestWithParam<RuntimeKind> {};

// A client's gets and scans after its first read name the L0 blocks it
// holds; the edge sends those slots as references, the client fills
// them in, and every read still verifies with the right values.
TEST_P(HeldRefsTest, HeldBlocksGoAsReferencesAndVerify) {
  auto opened = Store::Open(AckOptions(GetParam(), 4));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);
  PutBlocks(store, 5, 3);

  int gets = 0;
  for (int round = 0; round < 3; ++round) {
    for (Key k = 0; k < 20; k += 3) {
      auto got = store.Get(k);
      ++gets;
      ASSERT_TRUE(got.ok()) << got.status();
      ASSERT_TRUE(got->found) << k;
      EXPECT_EQ(got->value, Bytes(16, 3));
    }
    auto scan = store.Scan(2, 17);
    ASSERT_TRUE(scan.ok()) << scan.status();
    EXPECT_EQ(scan->pairs.size(), 16u);
  }
  // A new block in L0 is shipped in full once, then referenced.
  PutBlocks(store, 1, 4);
  for (int i = 0; i < 2; ++i) {
    auto got = store.Get(1);
    ++gets;
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->value, Bytes(16, 4));
  }

  const ReadStats st = ReadNodeStats(store);
  EXPECT_EQ(st.edge.gets_served, static_cast<uint64_t>(gets));
  EXPECT_EQ(st.edge.scans_served, 3u);
  // Only the first read and the first read after the new block carry
  // full blocks: 5 + 6 slots in full, the rest by reference.
  const uint64_t slots = 5 * (3 * 7 + 3) + 6 * 2;
  EXPECT_EQ(st.edge.l0_blocks_sent + st.edge.l0_refs_sent, slots);
  EXPECT_EQ(st.edge.l0_blocks_sent, 5u + 1u);
  EXPECT_EQ(st.client.l0_refs_resolved, st.edge.l0_refs_sent);
  EXPECT_EQ(st.client.gets_ok, static_cast<uint64_t>(gets));
  EXPECT_EQ(st.client.scans_ok, 3u);
  EXPECT_EQ(st.client.verification_failures, 0u);
}

// The client pins what it listed: with room for only 2 cached blocks and
// 4 blocks in L0, concurrent gets evict each other's listed blocks
// between request and reply, and every one still resolves and verifies.
TEST_P(HeldRefsTest, PinnedBlocksSurviveEvictionUnderConcurrentGets) {
  VerifierCache::Limits limits;
  limits.max_blocks = 2;
  auto opened = Store::Open(
      AckOptions(GetParam(), 4).WithVerifierCacheLimits(limits));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Store store = std::move(*opened);
  PutBlocks(store, 4, 5);
  ASSERT_TRUE(store.Get(0).ok());  // warms the cache: the 2 newest blocks

  std::vector<AsyncOp<GetResult>> gets;
  for (Key k = 0; k < 16; ++k) gets.push_back(store.AsyncGet(k));
  for (AsyncOp<GetResult>& g : gets) {
    auto got = g.Wait(10 * kSecond);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->value, Bytes(16, 5));
  }
  const ReadStats st = ReadNodeStats(store);
  EXPECT_EQ(st.edge.gets_served, 17u);
  EXPECT_GT(st.client.l0_refs_resolved, 0u);
  EXPECT_EQ(st.client.l0_refs_resolved, st.edge.l0_refs_sent);
  EXPECT_EQ(st.client.verification_failures, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Runtimes, HeldRefsTest,
    ::testing::Values(RuntimeKind::kSim, RuntimeKind::kThreaded),
    [](const ::testing::TestParamInfo<RuntimeKind>& info) {
      return std::string(info.param == RuntimeKind::kSim ? "sim"
                                                         : "threaded");
    });

INSTANTIATE_TEST_SUITE_P(
    Runtimes, PhaseOneAckTest,
    ::testing::Values(RuntimeKind::kSim, RuntimeKind::kThreaded),
    [](const ::testing::TestParamInfo<RuntimeKind>& info) {
      return std::string(info.param == RuntimeKind::kSim ? "sim"
                                                         : "threaded");
    });

}  // namespace
}  // namespace wedge
