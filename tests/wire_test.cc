// Tests for the wire layer: envelope sealing/opening, MAC and counter
// checks, and round-trips of every protocol message body.

#include <gtest/gtest.h>

#include "wire/message.h"
#include "wire/protocol.h"
#include "wire/session.h"

namespace wedge {
namespace {

class WireTest : public ::testing::Test {
 protected:
  WireTest()
      : client_(keystore_.Register(Role::kClient, "client")),
        edge_(keystore_.Register(Role::kEdge, "edge")),
        cloud_(keystore_.Register(Role::kCloud, "cloud")) {}

  Entry MakeEntry(SeqNum seq) {
    return Entry::Make(client_, seq, Bytes{1, 2, 3});
  }

  Block MakeBlock(BlockId id, int n = 2) {
    Block b;
    b.id = id;
    b.created_at = 5;
    for (int i = 0; i < n; ++i) b.entries.push_back(MakeEntry(seq_++));
    return b;
  }

  KeyStore keystore_;
  Signer client_, edge_, cloud_;
  SeqNum seq_ = 0;
};

// --------------------------------------------------------------- Envelope

TEST_F(WireTest, SealOpenRoundTrip) {
  AddRequest req;
  req.req_id = 9;
  req.entries.push_back(MakeEntry(0));
  SessionSealer sealer(client_);
  Bytes wire = sealer.Seal(edge_.id(), MsgType::kAddRequest, req.Encode());

  auto env = Envelope::Open(keystore_, wire);
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  EXPECT_EQ(env->type, MsgType::kAddRequest);
  EXPECT_EQ(env->sender, client_.id());
  EXPECT_EQ(env->receiver, edge_.id());
  EXPECT_EQ(env->raw, wire);

  auto body = AddRequest::Decode(env->body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body->req_id, 9u);
  ASSERT_EQ(body->entries.size(), 1u);
}

TEST_F(WireTest, TypeSubstitutionRejected) {
  // Flipping the type byte invalidates the MAC (the type is covered).
  SessionSealer sealer(client_);
  Bytes wire = sealer.Seal(edge_.id(), MsgType::kReadRequest,
                           ReadRequest{1, 2}.Encode());
  wire[1] = static_cast<uint8_t>(MsgType::kGetRequest);
  auto env = Envelope::Open(keystore_, wire);
  ASSERT_FALSE(env.ok());
  EXPECT_TRUE(env.status().IsSecurityViolation());
  SessionOpener opener(&keystore_, edge_.id());
  EXPECT_TRUE(opener.Open(wire).status().IsSecurityViolation());
}

TEST_F(WireTest, UnknownTypeByteRejected) {
  SessionSealer sealer(client_);
  Bytes wire = sealer.Seal(edge_.id(), MsgType::kReadRequest,
                           ReadRequest{1, 2}.Encode());
  wire[1] = 200;
  EXPECT_TRUE(Envelope::Open(keystore_, wire).status().IsCorruption());
  wire[1] = 0;
  EXPECT_TRUE(Envelope::Open(keystore_, wire).status().IsCorruption());
}

// The identity-signed layout, [type u8][body][signer u32][tag32] with
// the tag an identity-key MAC over (type || body), binds no receiver
// and no counter. No opener accepts it, however validly it is signed.
TEST_F(WireTest, IdentitySignedEnvelopeIsCorruption) {
  Encoder signed_part;
  signed_part.PutU8(static_cast<uint8_t>(MsgType::kReadRequest));
  signed_part.PutBytes(ReadRequest{1, 2}.Encode());
  Encoder out;
  out.PutRaw(signed_part.buffer());
  client_.Sign(signed_part.buffer()).EncodeTo(&out);
  const Bytes wire = out.TakeBuffer();

  EXPECT_TRUE(Envelope::Open(keystore_, wire).status().IsCorruption());
  EXPECT_TRUE(
      Envelope::OpenHistorical(keystore_, wire).status().IsCorruption());
  SessionOpener opener(&keystore_, edge_.id());
  EXPECT_TRUE(opener.Open(wire).status().IsCorruption());
}

TEST_F(WireTest, MsgTypeNamesComplete) {
  for (uint8_t t = 1; t <= static_cast<uint8_t>(MsgType::kMaxMsgType); ++t) {
    EXPECT_NE(MsgTypeToString(static_cast<MsgType>(t)), "Unknown")
        << "type " << static_cast<int>(t);
  }
}

// ---------------------------------------------------- Session envelopes

TEST_F(WireTest, SessionSealOpenRoundTrip) {
  SessionSealer sealer(client_);
  SessionOpener opener(&keystore_, edge_.id());
  ReadRequest req{1, 2};
  Bytes wire = sealer.Seal(edge_.id(), MsgType::kReadRequest, req.Encode());
  EXPECT_EQ(wire[0], kSessionEnvelopeMagic);

  auto env = opener.Open(wire);
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  EXPECT_EQ(env->type, MsgType::kReadRequest);
  EXPECT_EQ(env->sender, client_.id());
  EXPECT_EQ(env->receiver, edge_.id());
  EXPECT_EQ(env->counter, 1u);
  auto body = ReadRequest::Decode(env->body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body->bid, 2u);
}

TEST_F(WireTest, SessionCountersAdvancePerReceiver) {
  SessionSealer sealer(client_);
  SessionOpener edge_opener(&keystore_, edge_.id());
  SessionOpener cloud_opener(&keystore_, cloud_.id());
  Bytes b = ReadRequest{1, 2}.Encode();
  // Counters are per channel: each receiver sees 1, 2, ... from this peer.
  EXPECT_EQ(edge_opener.Open(sealer.Seal(edge_.id(), MsgType::kReadRequest, b))
                ->counter,
            1u);
  EXPECT_EQ(
      cloud_opener.Open(sealer.Seal(cloud_.id(), MsgType::kReadRequest, b))
          ->counter,
      1u);
  EXPECT_EQ(edge_opener.Open(sealer.Seal(edge_.id(), MsgType::kReadRequest, b))
                ->counter,
            2u);
}

TEST_F(WireTest, SessionTamperedMacRejected) {
  SessionSealer sealer(client_);
  SessionOpener opener(&keystore_, edge_.id());
  Bytes wire = sealer.Seal(edge_.id(), MsgType::kReadRequest,
                           ReadRequest{1, 2}.Encode());
  wire.back() ^= 0x01;  // flip a MAC bit
  EXPECT_TRUE(opener.Open(wire).status().IsSecurityViolation());
}

TEST_F(WireTest, SessionTamperedBodyRejected) {
  SessionSealer sealer(client_);
  SessionOpener opener(&keystore_, edge_.id());
  Bytes wire = sealer.Seal(edge_.id(), MsgType::kReadRequest,
                           ReadRequest{1, 2}.Encode());
  wire[wire.size() - 40] ^= 0xff;  // inside the body, MAC untouched
  EXPECT_FALSE(opener.Open(wire).ok());
  EXPECT_FALSE(Envelope::Open(keystore_, wire).ok());
}

TEST_F(WireTest, SessionReplayRejected) {
  SessionSealer sealer(client_);
  SessionOpener opener(&keystore_, edge_.id());
  Bytes wire = sealer.Seal(edge_.id(), MsgType::kReadRequest,
                           ReadRequest{1, 2}.Encode());
  ASSERT_TRUE(opener.Open(wire).ok());
  EXPECT_TRUE(opener.Open(wire).status().IsSecurityViolation());
}

TEST_F(WireTest, SessionCounterRollbackRejected) {
  SessionSealer sealer(client_);
  SessionOpener opener(&keystore_, edge_.id());
  Bytes b = ReadRequest{1, 2}.Encode();
  Bytes first = sealer.Seal(edge_.id(), MsgType::kReadRequest, b);
  Bytes second = sealer.Seal(edge_.id(), MsgType::kReadRequest, b);
  ASSERT_TRUE(opener.Open(second).ok());
  // An older (lower-counter) message after a newer one is a replay.
  EXPECT_TRUE(opener.Open(first).status().IsSecurityViolation());
}

TEST_F(WireTest, SessionForwardGapAllowed) {
  // The fault plane drops messages; the opener must accept counter gaps.
  SessionSealer sealer(client_);
  SessionOpener opener(&keystore_, edge_.id());
  Bytes b = ReadRequest{1, 2}.Encode();
  Bytes first = sealer.Seal(edge_.id(), MsgType::kReadRequest, b);
  (void)sealer.Seal(edge_.id(), MsgType::kReadRequest, b);  // lost
  Bytes third = sealer.Seal(edge_.id(), MsgType::kReadRequest, b);
  ASSERT_TRUE(opener.Open(first).ok());
  auto env = opener.Open(third);
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env->counter, 3u);
}

TEST_F(WireTest, SessionWrongReceiverRejected) {
  SessionSealer sealer(client_);
  SessionOpener opener(&keystore_, cloud_.id());  // not the addressee
  Bytes wire = sealer.Seal(edge_.id(), MsgType::kReadRequest,
                           ReadRequest{1, 2}.Encode());
  EXPECT_TRUE(opener.Open(wire).status().IsSecurityViolation());
}

TEST_F(WireTest, SessionRevokedSenderRejected) {
  SessionSealer sealer(edge_);
  SessionOpener opener(&keystore_, cloud_.id());
  Bytes wire = sealer.Seal(cloud_.id(), MsgType::kGossip,
                           Gossip{edge_.id(), 1, 2}.Encode());
  ASSERT_TRUE(keystore_.Revoke(edge_.id()).ok());
  EXPECT_TRUE(opener.Open(wire).status().IsFailedPrecondition());
}

TEST_F(WireTest, SessionEnvelopeOpenHistorical) {
  // Dispute evidence sealed under a session key stays verifiable after
  // revocation: the trusted directory re-derives the key statelessly.
  SessionSealer sealer(edge_);
  Bytes wire = sealer.Seal(cloud_.id(), MsgType::kGossip,
                           Gossip{edge_.id(), 1, 2}.Encode());
  ASSERT_TRUE(keystore_.Revoke(edge_.id()).ok());
  EXPECT_TRUE(Envelope::Open(keystore_, wire).status().IsFailedPrecondition());
  auto env = Envelope::OpenHistorical(keystore_, wire);
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  EXPECT_EQ(env->sender, edge_.id());
}

TEST_F(WireTest, SessionTruncatedIsCorruption) {
  SessionSealer sealer(client_);
  SessionOpener opener(&keystore_, edge_.id());
  Bytes wire = sealer.Seal(edge_.id(), MsgType::kReadRequest,
                           ReadRequest{1, 2}.Encode());
  wire.resize(wire.size() - 5);
  EXPECT_FALSE(opener.Open(wire).ok());
  EXPECT_TRUE(Envelope::Open(keystore_, wire).status().IsCorruption());
}

// ------------------------------------------------------- Message bodies

TEST_F(WireTest, AddRequestRoundTrip) {
  AddRequest m;
  m.req_id = 77;
  m.entries = {MakeEntry(0), MakeEntry(1), MakeEntry(2)};
  auto back = *AddRequest::Decode(m.Encode());
  EXPECT_EQ(back.req_id, m.req_id);
  EXPECT_EQ(back.entries, m.entries);
}

TEST_F(WireTest, AddResponseRoundTrip) {
  AddResponse m;
  m.req_id = 3;
  m.bid = 12;
  m.block = MakeBlock(12);
  auto back = *AddResponse::Decode(m.Encode());
  EXPECT_EQ(back.req_id, 3u);
  EXPECT_EQ(back.bid, 12u);
  EXPECT_EQ(back.block, m.block);
  EXPECT_TRUE(back.other_req_ids.empty());

  // A coalesced ack lists the client's other requests in the block.
  m.other_req_ids = {4, 9, 1ull << 40};
  Bytes wire = m.Encode();
  back = *AddResponse::Decode(wire);
  EXPECT_EQ(back.req_id, 3u);
  EXPECT_EQ(back.other_req_ids, m.other_req_ids);
  EXPECT_EQ(back.block, m.block);

  // A trailer cut short, or claiming more ids than it carries, fails.
  wire.resize(wire.size() - 1);
  EXPECT_FALSE(AddResponse::Decode(wire).ok());
}

TEST_F(WireTest, ReadResponseWithProofRoundTrip) {
  ReadResponse m;
  m.req_id = 4;
  m.bid = 2;
  m.available = true;
  m.block = MakeBlock(2);
  m.proof = BlockCertificate::Make(cloud_, edge_.id(), 2, m.block.Digest(), 9);
  auto back = *ReadResponse::Decode(m.Encode());
  EXPECT_TRUE(back.available);
  EXPECT_EQ(back.block, m.block);
  ASSERT_TRUE(back.proof.has_value());
  EXPECT_EQ(*back.proof, *m.proof);
}

TEST_F(WireTest, NegativeReadResponseRoundTrip) {
  ReadResponse m;
  m.req_id = 4;
  m.bid = 9;
  m.available = false;
  auto back = *ReadResponse::Decode(m.Encode());
  EXPECT_FALSE(back.available);
  EXPECT_FALSE(back.proof.has_value());
  EXPECT_EQ(back.bid, 9u);
}

TEST_F(WireTest, BlockCertifyRoundTrip) {
  BlockCertify m{42, Digest256::Of(Slice("d"))};
  auto back = *BlockCertify::Decode(m.Encode());
  EXPECT_EQ(back.bid, 42u);
  EXPECT_EQ(back.digest, m.digest);
  EXPECT_FALSE(back.is_kv);
}

TEST_F(WireTest, BlockCertifyKvFlagRoundTrips) {
  BlockCertify m;
  m.bid = 7;
  m.digest = Digest256::Of(Slice("d"));
  m.is_kv = true;
  auto back = *BlockCertify::Decode(m.Encode());
  EXPECT_TRUE(back.is_kv);
}

TEST_F(WireTest, BackupFetchRoundTrip) {
  BackupFetch m;
  m.from_bid = 12;
  m.max_blocks = 3;
  auto back = *BackupFetch::Decode(m.Encode());
  EXPECT_EQ(back.from_bid, 12u);
  EXPECT_EQ(back.max_blocks, 3u);
}

TEST_F(WireTest, BackupBlocksRoundTrip) {
  Block b;
  b.id = 4;
  b.created_at = 99;
  b.entries.push_back(Entry::Make(client_, 1, Bytes{1, 2, 3}));
  BackupBlocks m;
  m.from_bid = 4;
  m.complete = false;
  BackupItem item;
  item.block = b;
  item.is_kv = true;
  item.cert = BlockCertificate::Make(cloud_, edge_.id(), 4, b.Digest(), 50);
  m.items.push_back(item);

  auto back = *BackupBlocks::Decode(m.Encode());
  EXPECT_EQ(back.from_bid, 4u);
  EXPECT_FALSE(back.complete);
  ASSERT_EQ(back.items.size(), 1u);
  EXPECT_EQ(back.items[0].block, b);
  EXPECT_TRUE(back.items[0].is_kv);
  EXPECT_EQ(back.items[0].cert, item.cert);
}

TEST_F(WireTest, ScanRequestRoundTrip) {
  ScanRequest m;
  m.req_id = 5;
  m.lo = 100;
  m.hi = 200;
  auto back = *ScanRequest::Decode(m.Encode());
  EXPECT_EQ(back.req_id, 5u);
  EXPECT_EQ(back.lo, 100u);
  EXPECT_EQ(back.hi, 200u);
}

TEST_F(WireTest, ScanResponseRoundTrip) {
  ScanResponse m;
  m.req_id = 6;
  m.body.lo = 1;
  m.body.hi = 50;
  m.body.pairs.push_back({7, Bytes{9}, 42});
  m.body.level_roots.push_back(Digest256::Of(Slice("r")));
  m.body.root_cert = RootCertificate::Make(cloud_, edge_.id(), 2,
                                           Digest256::Of(Slice("g")), 11);
  ScanLevelRun run;
  run.level = 1;
  Page p;
  p.min_key = kMinKey;
  p.max_key = kMaxKey;
  p.pairs.push_back({7, Bytes{9}, 42});
  run.pages.push_back(std::make_shared<const Page>(std::move(p)));
  run.proofs.push_back(MerkleProof{0, 1, {}});
  m.body.runs.push_back(run);

  auto back = *ScanResponse::Decode(m.Encode());
  EXPECT_EQ(back.req_id, 6u);
  EXPECT_EQ(back.body.pairs, m.body.pairs);
  ASSERT_EQ(back.body.runs.size(), 1u);
  EXPECT_EQ(back.body.runs[0], run);
  EXPECT_EQ(back.body.root_cert, m.body.root_cert);
}

TEST_F(WireTest, ScanTruncationDisputeKindRoundTrips) {
  Dispute m;
  m.kind = DisputeKind::kScanTruncation;
  m.edge = edge_.id();
  m.evidence = Bytes{1, 2, 3};
  auto back = *Dispute::Decode(m.Encode());
  EXPECT_EQ(back.kind, DisputeKind::kScanTruncation);
  EXPECT_EQ(back.evidence, m.evidence);
  EXPECT_TRUE(back.blocks.empty());

  // The blocks a scan reply referenced travel next to the envelope.
  m.blocks = {MakeBlock(3), MakeBlock(4)};
  Bytes wire = m.Encode();
  back = *Dispute::Decode(wire);
  EXPECT_EQ(back.evidence, m.evidence);
  EXPECT_EQ(back.blocks, m.blocks);
  wire.resize(wire.size() - 1);
  EXPECT_FALSE(Dispute::Decode(wire).ok());
}

TEST_F(WireTest, BlockProofRoundTrip) {
  BlockProof m;
  m.cert =
      BlockCertificate::Make(cloud_, edge_.id(), 1, Digest256::Of(Slice("x")), 7);
  auto back = *BlockProof::Decode(m.Encode());
  EXPECT_EQ(back.cert, m.cert);
}

TEST_F(WireTest, CertifyRejectRoundTrip) {
  CertifyReject m{5, Digest256::Of(Slice("a")), Digest256::Of(Slice("b"))};
  auto back = *CertifyReject::Decode(m.Encode());
  EXPECT_EQ(back.bid, 5u);
  EXPECT_EQ(back.offered, m.offered);
  EXPECT_EQ(back.certified, m.certified);
}

TEST_F(WireTest, GetRequestResponseRoundTrip) {
  GetRequest gr{11, 0xdeadULL, {}};
  auto back = *GetRequest::Decode(gr.Encode());
  EXPECT_EQ(back.key, 0xdeadULL);

  GetResponse resp;
  resp.req_id = 11;
  resp.body.key = 0xdeadULL;
  resp.body.found = true;
  resp.body.value = Bytes{9, 9};
  resp.body.level_roots = {Digest256(), Digest256::Of(Slice("r"))};
  auto rback = *GetResponse::Decode(resp.Encode());
  EXPECT_EQ(rback.body.key, 0xdeadULL);
  EXPECT_EQ(rback.body.level_roots.size(), 2u);
}

// The held trailer of get and scan requests: (bid, digest) pairs, newest
// first, round-trip in order; a cut-short trailer fails cleanly.
TEST_F(WireTest, HeldTrailerRoundTrips) {
  const std::vector<BlockRef> held = {{9, Digest256::Of(Slice("b9"))},
                                      {8, Digest256::Of(Slice("b8"))},
                                      {7, Digest256::Of(Slice("b7"))}};
  GetRequest get{4, 77, held};
  Bytes wire = get.Encode();
  auto back = *GetRequest::Decode(wire);
  EXPECT_EQ(back.key, 77u);
  EXPECT_EQ(back.held, held);
  EXPECT_TRUE(GetRequest::Decode(GetRequest{4, 77, {}}.Encode())->held.empty());

  ScanRequest scan{5, 10, 20, held};
  auto sback = *ScanRequest::Decode(scan.Encode());
  EXPECT_EQ(sback.lo, 10u);
  EXPECT_EQ(sback.hi, 20u);
  EXPECT_EQ(sback.held, held);

  // Cut inside the last pair, or before it: the count promises more.
  for (size_t cut : {size_t{1}, size_t{40}}) {
    Bytes short_wire(wire.begin(), wire.end() - static_cast<long>(cut));
    EXPECT_FALSE(GetRequest::Decode(short_wire).ok()) << cut;
  }
  // A request without a trailer at all (the count missing) fails too.
  Encoder bare;
  bare.PutU64(4);
  bare.PutU64(77);
  EXPECT_FALSE(GetRequest::Decode(bare.TakeBuffer()).ok());
}

// A reply's L0 slots may mix full blocks and references; both survive the
// round trip with their certificates, and a reference decodes as a null
// block plus its (bid, digest).
TEST_F(WireTest, ReferenceSlotsRoundTrip) {
  const Block b0 = MakeBlock(20), b1 = MakeBlock(21), b2 = MakeBlock(22);
  const BlockCertificate cert =
      BlockCertificate::Make(cloud_, edge_.id(), 21, b1.Digest(), 3);
  GetResponse resp;
  resp.req_id = 6;
  resp.body.key = 5;
  resp.body.l0_blocks = {std::make_shared<const Block>(b0), nullptr,
                         std::make_shared<const Block>(b2)};
  resp.body.l0_certs = {std::nullopt, cert, std::nullopt};
  resp.body.l0_refs = {std::nullopt, BlockRef{21, b1.Digest()},
                       std::nullopt};
  Bytes wire = resp.Encode();
  auto back = *GetResponse::Decode(wire);
  ASSERT_EQ(back.body.l0_blocks.size(), 3u);
  EXPECT_EQ(*back.body.l0_blocks[0], b0);
  EXPECT_EQ(back.body.l0_blocks[1], nullptr);
  EXPECT_EQ(*back.body.l0_blocks[2], b2);
  EXPECT_EQ(back.body.l0_refs[1], (BlockRef{21, b1.Digest()}));
  EXPECT_FALSE(back.body.l0_refs[0].has_value());
  EXPECT_EQ(back.body.l0_certs, resp.body.l0_certs);
  // The reference replaces the block's bytes with 40 (bid + digest).
  GetResponse full = resp;
  full.body.l0_blocks[1] = std::make_shared<const Block>(b1);
  full.body.l0_refs.clear();
  EXPECT_EQ(wire.size() + b1.Encode().size(), full.Encode().size() + 40);

  ScanResponse scan;
  scan.req_id = 7;
  scan.body.lo = 1;
  scan.body.hi = 9;
  scan.body.l0_blocks = resp.body.l0_blocks;
  scan.body.l0_certs = resp.body.l0_certs;
  scan.body.l0_refs = resp.body.l0_refs;
  auto sback = *ScanResponse::Decode(scan.Encode());
  EXPECT_EQ(sback.body.l0_refs, scan.body.l0_refs);
  EXPECT_EQ(sback.body.l0_blocks[1], nullptr);
  EXPECT_EQ(*sback.body.l0_blocks[2], b2);

  // Every cut of the reply fails cleanly rather than half-decoding.
  for (size_t len = 0; len < wire.size(); len += 7) {
    EXPECT_FALSE(GetResponse::Decode(Slice(wire.data(), len)).ok()) << len;
  }
}

TEST_F(WireTest, MergeRequestRoundTrip) {
  MergeRequest m;
  m.from_level = 0;
  m.cur_epoch = 3;
  m.l0_blocks = {MakeBlock(0), MakeBlock(1)};
  Page p;
  p.min_key = 0;
  p.max_key = kMaxKey;
  p.pairs = {KvPair{5, Bytes{1}, 100}};
  m.to_pages = {p};
  auto back = *MergeRequest::Decode(m.Encode());
  EXPECT_EQ(back.l0_blocks.size(), 2u);
  EXPECT_EQ(back.to_pages.size(), 1u);
  EXPECT_EQ(back.to_pages[0], p);
  EXPECT_GT(m.ByteSize(), 0u);
}

TEST_F(WireTest, MergeResponseRoundTrip) {
  MergeResponse m;
  m.from_level = 1;
  m.consumed_l0 = 0;
  Page p;
  p.min_key = 0;
  p.max_key = kMaxKey;
  m.merged = {p};
  m.root_cert = RootCertificate::Make(cloud_, edge_.id(), 4,
                                      Digest256::Of(Slice("g")), 100);
  auto back = *MergeResponse::Decode(m.Encode());
  EXPECT_EQ(back.from_level, 1u);
  EXPECT_EQ(back.merged.size(), 1u);
  EXPECT_EQ(back.root_cert, m.root_cert);
}

TEST_F(WireTest, GossipRoundTrip) {
  Gossip m{edge_.id(), 500, 123456};
  auto back = *Gossip::Decode(m.Encode());
  EXPECT_EQ(back.edge, edge_.id());
  EXPECT_EQ(back.log_size, 500u);
  EXPECT_EQ(back.cloud_time, 123456);
}

TEST_F(WireTest, DisputeRoundTrip) {
  Dispute m;
  m.kind = DisputeKind::kReadMismatch;
  m.edge = edge_.id();
  m.bid = 7;
  m.evidence = Bytes{1, 2, 3, 4};
  auto back = *Dispute::Decode(m.Encode());
  EXPECT_EQ(back.kind, DisputeKind::kReadMismatch);
  EXPECT_EQ(back.evidence, m.evidence);
}

TEST_F(WireTest, DisputeVerdictRoundTrip) {
  DisputeVerdict m;
  m.edge = edge_.id();
  m.bid = 3;
  m.edge_guilty = true;
  m.has_certified_digest = true;
  m.certified_digest = Digest256::Of(Slice("d"));
  auto back = *DisputeVerdict::Decode(m.Encode());
  EXPECT_TRUE(back.edge_guilty);
  EXPECT_EQ(back.certified_digest, m.certified_digest);
}

TEST_F(WireTest, ReserveRoundTrip) {
  auto back = *ReserveResponse::Decode(ReserveResponse{1, 9, 3}.Encode());
  EXPECT_EQ(back.bid, 9u);
  EXPECT_EQ(back.slot, 3u);
}

TEST_F(WireTest, CloudWriteRoundTrip) {
  CloudWriteRequest m;
  m.req_id = 1;
  m.is_kv = true;
  m.entries = {MakeEntry(0)};
  auto back = *CloudWriteRequest::Decode(m.Encode());
  EXPECT_TRUE(back.is_kv);
  EXPECT_EQ(back.entries, m.entries);

  auto rback = *CloudWriteResponse::Decode(CloudWriteResponse{1, 8}.Encode());
  EXPECT_EQ(rback.bid, 8u);
}

TEST_F(WireTest, CloudReadRoundTrip) {
  auto back = *CloudReadRequest::Decode(CloudReadRequest{2, 99}.Encode());
  EXPECT_EQ(back.key, 99u);
  CloudReadResponse r{2, true, Bytes{7}};
  auto rback = *CloudReadResponse::Decode(r.Encode());
  EXPECT_TRUE(rback.found);
  EXPECT_EQ(rback.value, Bytes{7});
}

TEST_F(WireTest, EbCertifyRoundTrip) {
  EbCertify m;
  m.block = MakeBlock(3);
  auto back = *EbCertify::Decode(m.Encode());
  EXPECT_EQ(back.block, m.block);
}

TEST_F(WireTest, EbCertifyResponseRoundTrip) {
  EbCertifyResponse m;
  Block b = MakeBlock(3);
  m.block_cert =
      BlockCertificate::Make(cloud_, edge_.id(), 3, b.Digest(), 50);
  EbCertifyResponse::AppliedMerge am;
  am.from_level = 0;
  am.consumed_l0 = 3;
  Page p;
  p.min_key = 0;
  p.max_key = kMaxKey;
  am.merged = {p};
  m.merges.push_back(am);
  m.root_cert = RootCertificate::Make(cloud_, edge_.id(), 1,
                                      Digest256::Of(Slice("gr")), 50);
  auto back = *EbCertifyResponse::Decode(m.Encode());
  EXPECT_EQ(back.block_cert, m.block_cert);
  ASSERT_EQ(back.merges.size(), 1u);
  EXPECT_EQ(back.merges[0].consumed_l0, 3u);
  EXPECT_EQ(back.merges[0].merged.size(), 1u);
  EXPECT_EQ(back.root_cert, m.root_cert);
}

TEST_F(WireTest, DecodeRejectsTrailingGarbage) {
  Bytes enc = ReadRequest{1, 2}.Encode();
  enc.push_back(0);
  EXPECT_TRUE(ReadRequest::Decode(enc).status().IsCorruption());
}

}  // namespace
}  // namespace wedge
