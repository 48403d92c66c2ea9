// Resilience and extension tests: reservations (§IV-E), multi-edge
// partitioning (§III), cloud outages (lazy trust keeps the edge serving),
// and end-to-end determinism of the simulation.

#include <gtest/gtest.h>

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
  cfg.edge.partial_flush_delay = 30 * kMillisecond;
  return cfg;
}

std::vector<Bytes> Payloads(int n, uint8_t tag = 7) {
  std::vector<Bytes> ps;
  for (int i = 0; i < n; ++i) ps.push_back(Bytes(100, tag));
  return ps;
}

// ---------------------------------------------------------- reservations

TEST(ReservationTest, ReservedAddCommitsAtReservedPosition) {
  Deployment d(BaseConfig());
  d.Start();

  Status p1 = Status::Internal("not fired");
  Status p2 = Status::Internal("not fired");
  BlockId bid = 999;
  d.client().AddReserved(
      Bytes{'r', 'e', 's'},
      [&](const Status& s, BlockId b, SimTime) {
        p1 = s;
        bid = b;
      },
      [&](const Status& s, BlockId, SimTime) { p2 = s; });
  d.sim().RunFor(2 * kSecond);

  EXPECT_TRUE(p1.ok()) << p1;
  EXPECT_TRUE(p2.ok()) << p2;
  EXPECT_EQ(bid, 0u);
  // The entry carries its reservation and sits at the reserved slot.
  Block b = *d.edge().log().GetBlock(0);
  ASSERT_FALSE(b.entries.empty());
  EXPECT_TRUE(b.entries[0].has_reservation);
  EXPECT_EQ(b.entries[0].reserved_bid, 0u);
  EXPECT_EQ(b.entries[0].reserved_slot, 0u);
  EXPECT_TRUE(b.ValidateReservations().ok());
}

TEST(ReservationTest, MisplacedReservedEntryFailsValidation) {
  KeyStore ks;
  Signer client = ks.Register(Role::kClient, "c");
  Block b;
  b.id = 5;
  b.entries.push_back(
      Entry::MakeReserved(client, 1, Bytes{1}, /*bid=*/5, /*slot=*/0));
  EXPECT_TRUE(b.ValidateReservations().ok());

  // Replayed into a different block: caught.
  Block other = b;
  other.id = 6;
  EXPECT_TRUE(other.ValidateReservations().IsSecurityViolation());

  // Shifted to a different slot: caught.
  Block shifted;
  shifted.id = 5;
  shifted.entries.push_back(Entry::Make(client, 2, Bytes{9}));
  shifted.entries.push_back(
      Entry::MakeReserved(client, 3, Bytes{1}, /*bid=*/5, /*slot=*/0));
  EXPECT_TRUE(shifted.ValidateReservations().IsSecurityViolation());
}

TEST(ReservationTest, EdgeDropsEntryForStaleReservation) {
  Deployment d(BaseConfig());
  d.Start();
  // Fill slot 0 before the reserved entry arrives: reserve, then let
  // another write take the slot.
  KeyStore& ks = d.keystore();
  Signer rogue = ks.Register(Role::kClient, "late");
  class NullEp : public Endpoint {
    void OnMessage(NodeId, Slice, SimTime) override {}
  } null_ep;
  d.net().Attach(rogue.id(), Dc::kCalifornia, &null_ep);

  // Entry reserved for (block 7, slot 3) while the log is at (0, 0).
  Entry stale = Entry::MakeReserved(rogue, 1, Bytes{1}, 7, 3);
  AddRequest req;
  req.req_id = 1;
  req.entries.push_back(stale);
  d.net().Send(rogue.id(), d.edge().id(),
               SessionSealer(rogue).Seal(d.edge().id(), MsgType::kAddRequest,
                                         req.Encode()));
  d.sim().RunFor(kSecond);
  EXPECT_EQ(d.edge().stats().reservation_misses, 1u);
  EXPECT_EQ(d.edge().stats().entries_accepted, 0u);
}

TEST(ReservationTest, ReservedEntryCodecRoundTrip) {
  KeyStore ks;
  Signer client = ks.Register(Role::kClient, "c");
  Entry e = Entry::MakeReserved(client, 9, Bytes{1, 2}, 3, 4);
  Encoder enc;
  e.EncodeTo(&enc);
  Decoder dec(enc.buffer());
  Entry back = *Entry::DecodeFrom(&dec);
  EXPECT_EQ(back, e);
  EXPECT_TRUE(back.Validate(ks).ok());
  // Tampering with the reserved position invalidates the signature.
  back.reserved_slot = 5;
  EXPECT_TRUE(back.Validate(ks).IsSecurityViolation());
}

// ------------------------------------------------------------ multi-edge

TEST(MultiEdgeTest, PartitionsAreIndependent) {
  auto cfg = BaseConfig();
  cfg.num_edges = 3;
  cfg.num_clients = 3;
  Deployment d(cfg);
  d.Start();

  // Each client writes to its own partition; block ids restart per edge
  // (unique per edge node, not across edge nodes — §III).
  int phase2 = 0;
  for (size_t c = 0; c < 3; ++c) {
    d.client(c).AddBatch(Payloads(4, static_cast<uint8_t>(c)), nullptr,
                         [&](const Status& s, BlockId bid, SimTime) {
                           if (s.ok() && bid == 0) phase2++;
                         });
  }
  d.sim().RunFor(5 * kSecond);
  EXPECT_EQ(phase2, 3);
  for (size_t e = 0; e < 3; ++e) {
    EXPECT_EQ(d.edge(e).log().size(), 1u) << "edge " << e;
    EXPECT_TRUE(d.edge(e).log().IsCertified(0)) << "edge " << e;
  }
  // The cloud tracked three distinct (edge, bid=0) certifications.
  EXPECT_EQ(d.cloud().stats().certified_blocks, 3u);
}

TEST(MultiEdgeTest, OneMaliciousEdgeDoesNotAffectOthers) {
  auto cfg = BaseConfig();
  cfg.num_edges = 2;
  cfg.num_clients = 2;
  Deployment d(cfg);
  d.edge(1).misbehavior().certify_tampered = true;
  d.Start();

  Status honest_p2 = Status::Internal("not fired");
  Status victim_p2 = Status::Internal("not fired");
  d.client(0).AddBatch(Payloads(4), nullptr,
                       [&](const Status& s, BlockId, SimTime) {
                         honest_p2 = s;
                       });
  d.client(1).AddBatch(Payloads(4), nullptr,
                       [&](const Status& s, BlockId, SimTime) {
                         victim_p2 = s;
                       });
  d.sim().RunFor(10 * kSecond);

  EXPECT_TRUE(honest_p2.ok()) << honest_p2;
  EXPECT_TRUE(victim_p2.IsMaliciousBehavior()) << victim_p2;
  EXPECT_FALSE(d.authority().IsPunished(d.edge(0).id()));
  EXPECT_TRUE(d.authority().IsPunished(d.edge(1).id()));
}

// ----------------------------------------------------------- cloud outage

TEST(OutageTest, EdgeKeepsCommittingThroughCloudOutage) {
  auto cfg = BaseConfig();
  cfg.client.proof_timeout = 60 * kSecond;  // don't dispute during outage
  Deployment d(cfg);
  d.Start();

  // Cut the cloud off entirely.
  d.net().SetNodeIsolated(d.cloud().id(), true);

  int phase1 = 0, phase2 = 0;
  for (int i = 0; i < 5; ++i) {
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
  d.sim().RunFor(2 * kSecond);

  // Lazy trust: Phase I never needed the cloud.
  EXPECT_EQ(phase1, 5);
  EXPECT_EQ(phase2, 0);
  EXPECT_EQ(d.edge().log().size(), 5u);
  EXPECT_EQ(d.edge().log().certified_count(), 0u);
}

TEST(OutageTest, CertificationCatchesUpAfterHeal) {
  auto cfg = BaseConfig();
  cfg.client.proof_timeout = 120 * kSecond;
  Deployment d(cfg);
  d.Start();
  d.net().SetNodeIsolated(d.cloud().id(), true);

  int phase2 = 0;
  for (int i = 0; i < 3; ++i) {
    d.client().AddBatch(Payloads(4), nullptr,
                        [&](const Status& s, BlockId, SimTime) {
                          if (s.ok()) phase2++;
                        });
    d.sim().RunFor(100 * kMillisecond);
  }
  d.sim().RunFor(kSecond);
  EXPECT_EQ(phase2, 0);

  // Heal. The certify messages were dropped during the outage, so the
  // edge re-certifies on the next write; prior blocks stay Phase I until
  // then (an honest production edge would also retry on a timer).
  d.net().SetNodeIsolated(d.cloud().id(), false);
  d.client().AddBatch(Payloads(4), nullptr,
                      [&](const Status& s, BlockId, SimTime) {
                        if (s.ok()) phase2++;
                      });
  d.sim().RunFor(5 * kSecond);
  EXPECT_GE(phase2, 1);  // post-heal block certifies normally
  EXPECT_TRUE(d.edge().log().IsCertified(3));
}

// ----------------------------------------------------------- determinism

TEST(DeterminismTest, IdenticalSeedsProduceIdenticalRuns) {
  auto run = [](uint64_t seed) {
    auto cfg = BaseConfig();
    cfg.seed = seed;
    cfg.net.jitter_frac = 0.02;  // jitter on — still deterministic
    cfg.num_clients = 2;
    Deployment d(cfg);
    d.Start();
    std::vector<SimTime> times;
    for (int i = 0; i < 4; ++i) {
      d.client(i % 2).PutBatch(
          {{static_cast<Key>(i), Bytes(50, 1)},
           {static_cast<Key>(i + 100), Bytes(50, 2)},
           {static_cast<Key>(i + 200), Bytes(50, 3)},
           {static_cast<Key>(i + 300), Bytes(50, 4)}},
          [&](const Status&, BlockId, SimTime t) { times.push_back(t); },
          [&](const Status&, BlockId, SimTime t) { times.push_back(t); });
      d.sim().RunFor(300 * kMillisecond);
    }
    d.sim().RunFor(3 * kSecond);
    times.push_back(static_cast<SimTime>(d.net().stats().bytes));
    times.push_back(static_cast<SimTime>(d.sim().executed_events()));
    return times;
  };

  auto a = run(777);
  auto b = run(777);
  auto c = run(778);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // different seed, different jitter/keys
}

}  // namespace
}  // namespace wedge
