// Property-based tests: randomized workloads checked against reference
// models and structural invariants, swept over seeds and configurations
// with TEST_P.
//
//  - end-to-end: a random put/get/scan workload through the full
//    deployment must agree with a std::map model, with zero
//    verification failures and zero punishments;
//  - LSMerkle: the level range invariant, version monotonicity, and
//    model agreement must hold after every merge;
//  - record log: arbitrary payload-size sequences round-trip exactly;
//  - storage: crash at a random point recovers a consistent prefix whose
//    tree matches its certified root;
//  - codec: decoding corrupted/truncated bytes fails cleanly, never
//    crashes or over-reads.

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "core/deployment.h"
#include "core/read_service.h"
#include "lsmerkle/merge.h"
#include "storage/edge_storage.h"
#include "storage/env.h"
#include "storage/record_log.h"
#include "wire/protocol.h"
#include "wire/session.h"

namespace wedge {
namespace {

// --------------------------------------------------- end-to-end vs model

struct E2EParam {
  uint64_t seed;
  size_t ops_per_block;
  size_t key_space;
};

class EndToEndModelTest : public ::testing::TestWithParam<E2EParam> {};

TEST_P(EndToEndModelTest, RandomWorkloadAgreesWithModel) {
  const E2EParam param = GetParam();
  DeploymentConfig cfg;
  cfg.seed = param.seed;
  cfg.net.jitter_frac = 0.1;
  cfg.edge.ops_per_block = param.ops_per_block;
  cfg.edge.lsm.level_thresholds = {3, 2, 8};
  cfg.edge.lsm.target_page_pairs = 8;
  cfg.cloud.target_page_pairs = 8;
  Deployment d(cfg);
  d.Start();

  Rng rng(param.seed * 31 + 7);
  std::map<Key, Bytes> model;
  for (int round = 0; round < 12; ++round) {
    std::vector<std::pair<Key, Bytes>> kvs;
    for (size_t i = 0; i < param.ops_per_block; ++i) {
      Key k = rng.NextBelow(param.key_space);
      Bytes v(1 + rng.NextBelow(40), static_cast<uint8_t>(rng.NextU64()));
      kvs.emplace_back(k, v);
      model[k] = v;  // last write wins
    }
    d.client().PutBatch(kvs);
    d.sim().RunFor(300 * kMillisecond);
  }
  d.sim().RunFor(5 * kSecond);

  // Gets agree with the model (hits and misses alike).
  int checked = 0;
  for (Key k = 0; k < param.key_space && checked < 40; ++k, ++checked) {
    bool done = false;
    d.client().Get(k, [&, k](const Status& s, const VerifiedGet& got,
                             SimTime) {
      ASSERT_TRUE(s.ok()) << "get(" << k << "): " << s;
      auto it = model.find(k);
      ASSERT_EQ(got.found, it != model.end()) << "key " << k;
      if (got.found) {
        EXPECT_EQ(got.value, it->second) << "key " << k;
      }
      done = true;
    });
    d.sim().RunFor(50 * kMillisecond);
    ASSERT_TRUE(done) << "get(" << k << ") never completed";
  }

  // Scans agree with the model.
  const Key lo = param.key_space / 4;
  const Key hi = (3 * param.key_space) / 4;
  bool scanned = false;
  d.client().Scan(lo, hi, [&](const Status& s, const VerifiedScan& scan,
                              SimTime) {
    ASSERT_TRUE(s.ok()) << s;
    std::map<Key, Bytes> expect;
    for (const auto& [k, v] : model) {
      if (k >= lo && k <= hi) expect[k] = v;
    }
    ASSERT_EQ(scan.pairs.size(), expect.size());
    auto it = expect.begin();
    for (const auto& p : scan.pairs) {
      EXPECT_EQ(p.key, it->first);
      EXPECT_EQ(p.value, it->second);
      ++it;
    }
    scanned = true;
  });
  d.sim().RunFor(kSecond);
  ASSERT_TRUE(scanned);

  // An honest run convicts no one and fails no verification.
  EXPECT_EQ(d.client().stats().verification_failures, 0u);
  EXPECT_EQ(d.client().stats().disputes_sent, 0u);
  EXPECT_TRUE(d.authority().records().empty());
  EXPECT_FALSE(d.cloud().IsFlagged(d.edge().id()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EndToEndModelTest,
    ::testing::Values(E2EParam{1, 4, 50}, E2EParam{2, 4, 500},
                      E2EParam{3, 8, 50}, E2EParam{4, 8, 2000},
                      E2EParam{5, 16, 200}),
    [](const ::testing::TestParamInfo<E2EParam>& info) {
      return "seed" + std::to_string(info.param.seed) + "_ops" +
             std::to_string(info.param.ops_per_block) + "_keys" +
             std::to_string(info.param.key_space);
    });

// ----------------------------------------------- LSMerkle invariants

class LsmInvariantTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  LsmInvariantTest()
      : client_(ks_.Register(Role::kClient, "c")),
        cloud_(ks_.Register(Role::kCloud, "l")),
        edge_(ks_.Register(Role::kEdge, "e")) {}

  KeyStore ks_;
  Signer client_;
  Signer cloud_;
  Signer edge_;
};

TEST_P(LsmInvariantTest, InvariantsHoldThroughRandomMerges) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  LsmConfig cfg;
  cfg.level_thresholds = {2, 2, 4};
  cfg.target_page_pairs = 1 + rng.NextBelow(8);
  LsmerkleTree tree(cfg);
  std::map<Key, std::pair<Bytes, uint64_t>> model;  // key -> (value, ver)
  SeqNum seq = 0;
  BlockId bid = 0;

  for (int round = 0; round < 30; ++round) {
    // Apply a random block.
    Block b;
    b.id = bid++;
    const size_t ops = 1 + rng.NextBelow(6);
    for (size_t i = 0; i < ops; ++i) {
      Key k = rng.NextBelow(64);
      Bytes v(4, static_cast<uint8_t>(rng.NextU64()));
      b.entries.push_back(
          Entry::Make(client_, seq++, EncodePutPayload(k, v)));
      model[k] = {v, MakeVersion(b.id, static_cast<uint32_t>(i))};
    }
    ASSERT_TRUE(tree.ApplyBlock(b).ok());

    // Run any needed merges (cascading), acting as both edge and cloud.
    while (auto level = tree.NeedsMerge()) {
      std::vector<KvPair> newer;
      size_t consumed = 0;
      std::vector<Page> lower;
      if (*level == 0) {
        for (const auto& unit : tree.l0_units()) {
          newer.insert(newer.end(), unit.pairs.begin(), unit.pairs.end());
        }
        consumed = tree.l0_count();
      } else {
        for (const Page& p : tree.level(*level).pages()) {
          newer.insert(newer.end(), p.pairs.begin(), p.pairs.end());
        }
      }
      if (*level + 1 < tree.level_count()) {
        lower = tree.level(*level + 1).pages();
      }
      auto merged = MergeIntoPages(std::move(newer), lower,
                                   cfg.target_page_pairs, 1000 + round);
      ASSERT_TRUE(merged.ok());
      ASSERT_TRUE(tree.InstallMergeRaw(*level, consumed, *merged).ok());
      const Epoch e = tree.epoch() + 1;
      auto cert = RootCertificate::Make(
          cloud_, edge_.id(), e, ComputeGlobalRoot(e, tree.LevelRoots()),
          1000 + round);
      ASSERT_TRUE(tree.SetEpochAndCert(cert).ok());

      // Invariant: every level tiles the key space with sorted pages.
      for (size_t lvl = 1; lvl < tree.level_count(); ++lvl) {
        ASSERT_TRUE(
            CheckLevelRangeInvariant(tree.level(lvl).pages()).ok())
            << "level " << lvl << " after merge at round " << round;
      }
      // Invariant: the root certificate reproduces the recomputed root.
      ASSERT_EQ(tree.root_cert()->global_root, tree.GlobalRoot());
    }

    // Invariant: lookups agree with the model (value and version).
    for (Key k = 0; k < 64; ++k) {
      auto r = tree.Lookup(k);
      auto it = model.find(k);
      ASSERT_EQ(r.found, it != model.end())
          << "key " << k << " at round " << round;
      if (r.found) {
        EXPECT_EQ(r.pair.value, it->second.first) << "key " << k;
        EXPECT_EQ(r.pair.version, it->second.second) << "key " << k;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LsmInvariantTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// ------------------------------------------------- record log roundtrip

class RecordLogPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RecordLogPropertyTest, ArbitrarySizeSequencesRoundTrip) {
  Rng rng(GetParam());
  MemEnv env;
  std::vector<Bytes> payloads;
  {
    auto file = env.NewWritableFile("log");
    ASSERT_TRUE(file.ok());
    RecordLogWriter writer(file->get());
    for (int i = 0; i < 60; ++i) {
      // Sizes biased toward boundaries: 0, tiny, near block size, multi-
      // block.
      size_t size = 0;
      switch (rng.NextBelow(4)) {
        case 0: size = rng.NextBelow(16); break;
        case 1: size = rng.NextBelow(4096); break;
        case 2:
          size = RecordLogFormat::kBlockSize -
                 RecordLogFormat::kHeaderSize - 4 + rng.NextBelow(8);
          break;
        default:
          size = RecordLogFormat::kBlockSize +
                 rng.NextBelow(2 * RecordLogFormat::kBlockSize);
      }
      Bytes payload(size);
      for (auto& byte : payload) byte = static_cast<uint8_t>(rng.NextU64());
      ASSERT_TRUE(writer.AddRecord(Slice(payload)).ok());
      payloads.push_back(std::move(payload));
    }
    ASSERT_TRUE(writer.Sync().ok());
  }

  auto file = env.NewRandomAccessFile("log");
  ASSERT_TRUE(file.ok());
  RecordLogReader reader(file->get());
  Bytes record;
  for (size_t i = 0; i < payloads.size(); ++i) {
    auto more = reader.ReadRecord(&record);
    ASSERT_TRUE(more.ok() && *more) << "record " << i;
    ASSERT_EQ(record, payloads[i]) << "record " << i;
  }
  auto more = reader.ReadRecord(&record);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
  EXPECT_EQ(reader.corruption_events(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecordLogPropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

// ------------------------------------------------ storage crash property

class CrashRecoveryPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(CrashRecoveryPropertyTest, RandomCrashRecoversConsistentPrefix) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  MemEnv env;
  DeploymentConfig cfg;
  cfg.seed = seed;
  cfg.edge.ops_per_block = 4;
  cfg.edge.lsm.level_thresholds = {2, 2, 8};
  cfg.edge.lsm.target_page_pairs = 8;
  cfg.cloud.target_page_pairs = 8;

  size_t blocks_before = 0;
  {
    Deployment d(cfg);
    EdgeStorageOptions opts;
    opts.block_store.sync_every_block = rng.NextBelow(2) == 0;
    auto storage = EdgeStorage::Open(
        &env, "edge0", cfg.edge.lsm.level_thresholds.size(), opts);
    ASSERT_TRUE(storage.ok());
    d.edge().AttachStorage(storage->get());
    d.Start();

    const int rounds = 2 + static_cast<int>(rng.NextBelow(8));
    for (int i = 0; i < rounds; ++i) {
      std::vector<std::pair<Key, Bytes>> kvs;
      for (int j = 0; j < 4; ++j) {
        kvs.emplace_back(rng.NextBelow(100),
                         Bytes(8, static_cast<uint8_t>(rng.NextU64())));
      }
      d.client().PutBatch(kvs);
      d.sim().RunFor(200 * kMillisecond);
    }
    // Crash at a random quiescence point (mid-protocol states are
    // exercised by the varying round counts and sync policies).
    d.sim().RunFor(rng.NextBelow(3) * kSecond);
    blocks_before = d.edge().log().size();
  }
  env.DropUnsynced();

  auto rec = EdgeStorage::Recover(&env, "edge0", cfg.edge.lsm);
  ASSERT_TRUE(rec.ok()) << rec.status();
  // The recovered log is a prefix of what existed.
  EXPECT_LE(rec->log.size(), blocks_before);
  // Every recovered block's certificate (if any) matches its body — the
  // EdgeLog checked that during replay; spot-check the tree root against
  // the manifest's certificate when one exists.
  if (rec->tree.root_cert().has_value()) {
    EXPECT_EQ(rec->tree.root_cert()->global_root, rec->tree.GlobalRoot());
  }
  // L0 only holds kv blocks past the consumed prefix.
  EXPECT_LE(rec->tree.l0_count() + rec->l0_blocks_consumed,
            rec->blocks_in_log + rec->log_behind_manifest +
                rec->l0_blocks_consumed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashRecoveryPropertyTest,
                         ::testing::Values(7, 17, 27, 37, 47, 57, 67, 87));

// ----------------------------------------------------- codec robustness

class CodecFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodecFuzzTest, CorruptedMessagesFailCleanly) {
  Rng rng(GetParam());
  KeyStore ks;
  Signer client = ks.Register(Role::kClient, "c");
  Signer cloud = ks.Register(Role::kCloud, "l");
  Signer edge = ks.Register(Role::kEdge, "e");

  // A corpus of realistic encoded messages.
  std::vector<Bytes> corpus;
  {
    Block b;
    b.id = 3;
    b.entries.push_back(Entry::Make(client, 1, EncodePutPayload(9, Bytes{1})));
    AddResponse ar;
    ar.req_id = 1;
    ar.bid = 3;
    ar.block = b;
    corpus.push_back(ar.Encode());
    ar.other_req_ids = {2, 5};  // a coalesced ack's request-id trailer
    corpus.push_back(ar.Encode());
    BlockProof bp;
    bp.cert = BlockCertificate::Make(cloud, edge.id(), 3, b.Digest(), 50);
    corpus.push_back(bp.Encode());
    corpus.push_back(SessionSealer(edge).Seal(
        client.id(), MsgType::kAddResponse, ar.Encode()));
    GetResponse gr;
    gr.req_id = 2;
    gr.body.key = 9;
    corpus.push_back(gr.Encode());
    // Held trailers and reference slots: a request listing held blocks,
    // and replies whose L0 mixes a reference with a full block.
    const std::vector<BlockRef> held = {{4, b.Digest()}, {3, b.Digest()}};
    corpus.push_back(GetRequest{2, 9, held}.Encode());
    corpus.push_back(ScanRequest{3, 1, 9, held}.Encode());
    gr.body.l0_blocks = {nullptr, std::make_shared<const Block>(b)};
    gr.body.l0_certs = {std::nullopt, bp.cert};
    gr.body.l0_refs = {BlockRef{2, b.Digest()}, std::nullopt};
    corpus.push_back(gr.Encode());
    ScanResponse sr;
    sr.req_id = 3;
    sr.body.lo = 1;
    sr.body.hi = 9;
    sr.body.l0_blocks = gr.body.l0_blocks;
    sr.body.l0_certs = gr.body.l0_certs;
    sr.body.l0_refs = gr.body.l0_refs;
    corpus.push_back(sr.Encode());
    Dispute dispute;
    dispute.kind = DisputeKind::kScanTruncation;
    dispute.evidence = sr.Encode();
    dispute.blocks = {b};
    corpus.push_back(dispute.Encode());
    BackupBlocks bb;
    bb.from_bid = 0;
    bb.items.push_back({b, true, bp.cert});
    corpus.push_back(bb.Encode());
  }

  for (const Bytes& original : corpus) {
    for (int trial = 0; trial < 200; ++trial) {
      Bytes mutated = original;
      switch (rng.NextBelow(3)) {
        case 0:  // truncate
          mutated.resize(rng.NextBelow(mutated.size() + 1));
          break;
        case 1:  // flip bytes
          for (int flips = 0; flips < 3 && !mutated.empty(); ++flips) {
            mutated[rng.NextBelow(mutated.size())] ^=
                static_cast<uint8_t>(1 + rng.NextBelow(255));
          }
          break;
        default:  // extend with garbage
          for (int extra = 0; extra < 8; ++extra) {
            mutated.push_back(static_cast<uint8_t>(rng.NextU64()));
          }
      }
      // Decoding must terminate without crashing; success or a clean
      // error Status are both acceptable outcomes.
      (void)AddResponse::Decode(Slice(mutated));
      (void)BlockProof::Decode(Slice(mutated));
      (void)GetRequest::Decode(Slice(mutated));
      (void)ScanRequest::Decode(Slice(mutated));
      (void)Dispute::Decode(Slice(mutated));
      (void)GetResponse::Decode(Slice(mutated));
      (void)BackupBlocks::Decode(Slice(mutated));
      (void)ScanResponse::Decode(Slice(mutated));
      (void)MergeResponse::Decode(Slice(mutated));
      auto env = Envelope::Open(ks, Slice(mutated));
      if (env.ok()) {
        // If an envelope still opens, the signature must genuinely match
        // the (possibly mutated) bytes — i.e. the mutation was a no-op
        // on the signed region or produced the same bytes.
        EXPECT_EQ(mutated, original);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzzTest,
                         ::testing::Values(1001, 2002, 3003));

}  // namespace
}  // namespace wedge
