#include "core/cloud_node.h"

#include "common/logging.h"
#include "lsmerkle/level.h"
#include "lsmerkle/merge.h"

namespace wedge {

CloudNode::CloudNode(Executor* exec, Transport* net,
                     const KeyStore* keystore, TrustAuthority* authority,
                     Signer signer, Dc location, CloudConfig config,
                     CostModel costs)
    : exec_(exec),
      net_(net),
      keystore_(keystore),
      authority_(authority),
      signer_(std::move(signer)),
      sealer_(signer_),
      opener_(keystore, signer_.id()),
      location_(location),
      config_(config),
      costs_(costs),
      cert_lane_(exec->MakeLane()),
      merge_lane_(exec->MakeLane()) {}

void CloudNode::Start() {
  net_->Attach(id(), location_, this);
  if (config_.gossip_period > 0) {
    exec_->After(config_.gossip_period, [this] { GossipTick(); });
  }
}

void CloudNode::SubscribeGossip(NodeId client, NodeId edge) {
  gossip_subs_.emplace(edge, client);
}

void CloudNode::RestoreState(CloudStorage::RecoveredState state) {
  edges_.clear();
  for (auto& [edge, recovered] : state.edges) {
    EdgeRecord& rec = edges_[edge];
    rec.certified = std::move(recovered.certified);
    rec.level_roots = std::move(recovered.level_roots);
    rec.epoch = recovered.epoch;
    rec.backup = std::move(recovered.backup);
    AdvanceContiguous(&rec);
  }
  flagged_ = std::move(state.flagged);
  // Punishments persist beyond a cloud restart (§II-D assumption 2).
  for (NodeId edge : flagged_) {
    authority_->Punish(edge, "restored malicious flag", 0);
  }
}

void CloudNode::SendSealed(NodeId to, MsgType type, Bytes body) {
  net_->Send(id(), to, sealer_.Seal(to, type, body));
}

CloudNode::EdgeRecord& CloudNode::RecordFor(NodeId edge) {
  return edges_[edge];
}

void CloudNode::MaybeBackup(NodeId edge, EdgeRecord* rec, const Block& block,
                            bool is_kv) {
  if (!config_.backup_blocks) return;
  if (rec->backup.count(block.id) != 0) return;
  rec->backup.emplace(block.id, std::make_pair(block, is_kv));
  stats_.backup_blocks_stored++;
  if (storage_ != nullptr &&
      !storage_->PersistBackupBlock(edge, block, is_kv).ok()) {
    stats_.storage_errors++;
  }
}

std::optional<Digest256> CloudNode::CertifiedDigest(NodeId edge,
                                                    BlockId bid) const {
  auto eit = edges_.find(edge);
  if (eit == edges_.end()) return std::nullopt;
  auto bit = eit->second.certified.find(bid);
  if (bit == eit->second.certified.end()) return std::nullopt;
  return bit->second;
}

void CloudNode::AdvanceContiguous(EdgeRecord* rec) {
  while (rec->certified.count(rec->contiguous) != 0) rec->contiguous++;
}

void CloudNode::OnMessage(NodeId from, Slice payload, SimTime now) {
  auto env = opener_.Open(payload);
  if (!env.ok()) {
    WLOG_DEBUG << "cloud: rejecting message: " << env.status();
    return;
  }
  switch (env->type) {
    case MsgType::kBlockCertify: {
      auto msg = BlockCertify::Decode(env->body);
      if (!msg.ok()) return;
      if (!keystore_->HasRole(from, Role::kEdge)) return;
      // Data-free: cost is size-independent. With the ablation's full
      // block attached, the cloud must hash/verify the data too.
      SimTime cost = costs_.cloud_cert_fixed;
      if (msg->full_block.has_value()) {
        if (msg->full_block->Digest() != msg->digest) {
          FlagMalicious(from, "full block does not match offered digest",
                        now);
          return;
        }
        cost += static_cast<SimTime>(
            costs_.cloud_merge_per_byte *
            static_cast<double>(msg->full_block->ByteSize()));
      }
      cert_lane_->Execute(cost, [this, from, m = *msg] {
        HandleBlockCertify(from, m, exec_->Now());
      });
      break;
    }
    case MsgType::kMergeRequest: {
      auto msg = MergeRequest::Decode(env->body);
      if (!msg.ok()) return;
      if (!keystore_->HasRole(from, Role::kEdge)) return;
      const SimTime cost = costs_.CloudMerge(msg->ByteSize());
      merge_lane_->Execute(cost, [this, from, m = std::move(*msg)] {
        HandleMergeRequest(from, m, exec_->Now());
      });
      break;
    }
    case MsgType::kDispute: {
      auto msg = Dispute::Decode(env->body);
      if (!msg.ok()) return;
      if (!keystore_->HasRole(from, Role::kClient)) return;
      merge_lane_->Execute(costs_.cloud_cert_fixed,
                          [this, from, m = std::move(*msg)] {
                            HandleDispute(from, m, exec_->Now());
                          });
      break;
    }
    case MsgType::kBackupFetch: {
      auto msg = BackupFetch::Decode(env->body);
      if (!msg.ok()) return;
      if (!keystore_->HasRole(from, Role::kEdge)) return;
      merge_lane_->Execute(costs_.cloud_cert_fixed, [this, from, m = *msg] {
        HandleBackupFetch(from, m, exec_->Now());
      });
      break;
    }
    case MsgType::kCloudGetRequest: {
      auto msg = CloudGetRequest::Decode(env->body);
      if (!msg.ok()) return;
      if (!keystore_->HasRole(from, Role::kClient)) return;
      merge_lane_->Execute(costs_.cloud_cert_fixed, [this, from, m = *msg] {
        HandleCloudGet(from, m, exec_->Now());
      });
      break;
    }
    default:
      WLOG_DEBUG << "cloud: unexpected message type "
                 << MsgTypeToString(env->type);
  }
}

void CloudNode::HandleBlockCertify(NodeId edge, const BlockCertify& msg,
                                   SimTime now) {
  EdgeRecord& rec = RecordFor(edge);
  // Backup before the digest record: the digest's sync then also makes
  // the backup body durable, so a recovered registry never knows about a
  // block whose backup was lost.
  if (msg.full_block.has_value() && msg.full_block->Digest() == msg.digest) {
    MaybeBackup(edge, &rec, *msg.full_block, msg.is_kv);
  }
  auto it = rec.certified.find(msg.bid);
  if (it != rec.certified.end()) {
    if (it->second != msg.digest) {
      // Two different digests for one bid: equivocation, the exact attack
      // agreement rules out (paper Def. 2).
      stats_.equivocations_detected++;
      FlagMalicious(edge, "equivocation on block " + std::to_string(msg.bid),
                    now);
      CertifyReject reject{msg.bid, msg.digest, it->second};
      SendSealed(edge, MsgType::kCertifyReject, reject.Encode());
      return;
    }
    // Same digest again: idempotent re-certify; resend the proof.
    stats_.duplicate_certifies++;
  } else {
    rec.certified.emplace(msg.bid, msg.digest);
    AdvanceContiguous(&rec);
    stats_.certified_blocks++;
    if (storage_ != nullptr &&
        !storage_->PersistDigest(edge, msg.bid, msg.digest).ok()) {
      stats_.storage_errors++;
    }
  }
  BlockProof proof;
  proof.cert = BlockCertificate::Make(signer_, edge, msg.bid, msg.digest, now);
  SendSealed(edge, MsgType::kBlockProof, proof.Encode());
}

void CloudNode::HandleMergeRequest(NodeId edge, const MergeRequest& msg,
                                   SimTime now) {
  EdgeRecord& rec = RecordFor(edge);

  auto fail = [&](const std::string& why) {
    FlagMalicious(edge, "bad merge request: " + why, now);
  };

  // Mirror the edge's fixed level structure. The structure must not
  // change across merges; a change would alter global-root computation.
  if (rec.level_roots.empty()) {
    rec.level_roots.resize(msg.num_levels);
  } else if (rec.level_roots.size() != msg.num_levels) {
    fail("level structure changed across merges");
    return;
  }
  if (msg.from_level + 1 > msg.num_levels) {
    fail("merge past the last level");
    return;
  }
  const size_t nlevels = rec.level_roots.size();

  // --- Verify the inputs are the state this cloud previously certified.
  std::vector<KvPair> newer;
  if (msg.from_level == 0) {
    // Digest the whole L0 run in one multi-buffer batch.
    const std::vector<Digest256> l0_digests = Block::DigestMany(msg.l0_blocks);
    for (size_t bi = 0; bi < msg.l0_blocks.size(); ++bi) {
      const Block& blk = msg.l0_blocks[bi];
      auto cert = rec.certified.find(blk.id);
      const Digest256& digest = l0_digests[bi];
      if (cert != rec.certified.end()) {
        if (!cert->second.CryptoEquals(digest)) {
          fail("L0 block " + std::to_string(blk.id) +
               " does not match certified digest");
          return;
        }
      } else {
        // Certify-on-merge: first sighting of this block's digest. The
        // regular block-certify will be treated as a duplicate.
        rec.certified.emplace(blk.id, digest);
        AdvanceContiguous(&rec);
        stats_.certified_blocks++;
        if (storage_ != nullptr &&
            !storage_->PersistDigest(edge, blk.id, digest).ok()) {
          stats_.storage_errors++;
        }
        BlockProof proof;
        proof.cert =
            BlockCertificate::Make(signer_, edge, blk.id, digest, now);
        SendSealed(edge, MsgType::kBlockProof, proof.Encode());
      }
      // Merge requests are the one place data-free certification shows
      // the cloud full L0 bodies: capture them for backup.
      MaybeBackup(edge, &rec, blk, /*is_kv=*/true);
      // Content-defined extraction (same rule as the edge and the client
      // verifier): raw append entries contribute no pairs.
      for (auto& p : ExtractKvPairs(blk)) newer.push_back(std::move(p));
    }
  } else {
    // Verify the source level pages against the recorded root. The
    // page digests run as one multi-buffer batch (SealAll), and the
    // root comparison is constant-time: this is a verification of
    // attacker-controllable input.
    Page::SealAll(msg.from_pages);
    std::vector<Digest256> leaves;
    for (const Page& p : msg.from_pages) leaves.push_back(p.Digest());
    Digest256 root = MerkleTree::ComputeRoot(std::move(leaves));
    Digest256 expected = msg.from_level <= nlevels
                             ? rec.level_roots[msg.from_level - 1]
                             : Digest256();
    if (!root.CryptoEquals(expected)) {
      fail("source level pages do not match certified root");
      return;
    }
    for (const Page& p : msg.from_pages) {
      for (const auto& kv : p.pairs) newer.push_back(kv);
    }
  }
  {
    Page::SealAll(msg.to_pages);
    std::vector<Digest256> leaves;
    for (const Page& p : msg.to_pages) leaves.push_back(p.Digest());
    Digest256 root = MerkleTree::ComputeRoot(std::move(leaves));
    Digest256 expected = msg.from_level + 1 <= nlevels
                             ? rec.level_roots[msg.from_level]
                             : Digest256();
    if (!root.CryptoEquals(expected)) {
      fail("target level pages do not match certified root");
      return;
    }
  }

  // --- Merge and re-sign.
  auto merged = MergeIntoPages(std::move(newer), msg.to_pages,
                               config_.target_page_pairs, now);
  if (!merged.ok()) {
    fail("merge failed: " + merged.status().ToString());
    return;
  }

  {
    Page::SealAll(*merged);
    std::vector<Digest256> leaves;
    for (const Page& p : *merged) leaves.push_back(p.Digest());
    rec.level_roots[msg.from_level] = MerkleTree::ComputeRoot(leaves);
  }
  if (msg.from_level > 0) {
    rec.level_roots[msg.from_level - 1] = Digest256();
  }
  rec.epoch++;
  stats_.merges_performed++;
  if (storage_ != nullptr &&
      !storage_->PersistMergeState(edge, rec.epoch, rec.level_roots).ok()) {
    stats_.storage_errors++;
  }

  MergeResponse resp;
  resp.from_level = msg.from_level;
  resp.consumed_l0 = static_cast<uint32_t>(msg.l0_blocks.size());
  resp.merged = std::move(*merged);
  resp.root_cert = RootCertificate::Make(
      signer_, edge, rec.epoch,
      ComputeGlobalRoot(rec.epoch, rec.level_roots), now);
  SendSealed(edge, MsgType::kMergeResponse, resp.Encode());
}

namespace {

/// Fills each reference slot of a disputed scan response with a supplied
/// block whose digest equals the one the edge sealed. A reference with
/// no such block stays unresolved.
void ResolveSuppliedRefs(const std::vector<Block>& supplied,
                         ScanResponseBody* body) {
  const std::vector<Digest256> digests = Block::DigestMany(supplied);
  for (size_t i = 0; i < body->l0_refs.size(); ++i) {
    if (!body->l0_refs[i]) continue;
    const BlockRef& ref = *body->l0_refs[i];
    for (size_t j = 0; j < supplied.size(); ++j) {
      if (supplied[j].id == ref.bid && digests[j].CryptoEquals(ref.digest)) {
        body->l0_blocks[i] = std::make_shared<const Block>(supplied[j]);
        break;
      }
    }
  }
}

}  // namespace

void CloudNode::HandleDispute(NodeId client, const Dispute& msg,
                              SimTime now) {
  stats_.disputes_received++;
  DisputeVerdict verdict;
  verdict.edge = msg.edge;
  verdict.bid = msg.bid;

  auto certified = CertifiedDigest(msg.edge, msg.bid);
  if (certified.has_value()) {
    verdict.has_certified_digest = true;
    verdict.certified_digest = *certified;
  }

  // Evidence must be an envelope genuinely signed by the accused edge
  // (historical: the edge may already be revoked).
  auto env = Envelope::OpenHistorical(*keystore_, msg.evidence);
  if (env.ok() && env->sender == msg.edge) {
    switch (msg.kind) {
      case DisputeKind::kAddMismatch: {
        auto resp = AddResponse::Decode(env->body);
        if (resp.ok() && env->type == MsgType::kAddResponse &&
            resp->bid == msg.bid && certified.has_value() &&
            resp->block.Digest() != *certified) {
          verdict.edge_guilty = true;
        }
        break;
      }
      case DisputeKind::kReadMismatch: {
        auto resp = ReadResponse::Decode(env->body);
        if (resp.ok() && env->type == MsgType::kReadResponse &&
            resp->available && resp->bid == msg.bid &&
            certified.has_value() &&
            resp->block.Digest() != *certified) {
          verdict.edge_guilty = true;
        }
        break;
      }
      case DisputeKind::kOmission: {
        auto resp = ReadResponse::Decode(env->body);
        if (resp.ok() && env->type == MsgType::kReadResponse &&
            !resp->available && resp->bid == msg.bid &&
            certified.has_value()) {
          // The edge signed "not available" for a block it certified.
          verdict.edge_guilty = true;
        }
        break;
      }
      case DisputeKind::kScanTruncation: {
        // Re-run the completeness verifier on the edge's own signed scan
        // response, its reference slots filled from the supplied blocks.
        // A reference no supplied block fills is set aside: the verdict
        // then rests on the checks its content cannot change. Only a
        // genuine inconsistency (never mere Phase-I-ness or staleness,
        // never an unresolvable reference alone) verdicts as
        // SecurityViolation.
        auto resp = ScanResponse::Decode(env->body);
        if (resp.ok() && env->type == MsgType::kScanResponse) {
          ResolveSuppliedRefs(msg.blocks, &resp->body);
          GetVerifyOptions opts;
          opts.set_aside_unresolved = true;
          auto reverify =
              VerifyScanResponse(*keystore_, msg.edge, resp->body.lo,
                                 resp->body.hi, resp->body, opts);
          if (!reverify.ok() &&
              reverify.status().IsSecurityViolation()) {
            verdict.edge_guilty = true;
          }
        }
        break;
      }
    }
  }

  if (verdict.edge_guilty) {
    stats_.disputes_upheld++;
    FlagMalicious(msg.edge, "dispute upheld for block " +
                                std::to_string(msg.bid),
                  now);
  }
  SendSealed(client, MsgType::kDisputeVerdict, verdict.Encode());
}

void CloudNode::HandleBackupFetch(NodeId edge, const BackupFetch& msg,
                                  SimTime now) {
  stats_.backup_fetches_served++;
  BackupBlocks resp;
  resp.from_bid = msg.from_bid;
  auto eit = edges_.find(edge);
  if (eit != edges_.end()) {
    for (auto it = eit->second.backup.lower_bound(msg.from_bid);
         it != eit->second.backup.end(); ++it) {
      if (msg.max_blocks > 0 && resp.items.size() >= msg.max_blocks) {
        resp.complete = false;
        break;
      }
      BackupItem item;
      item.block = it->second.first;
      item.is_kv = it->second.second;
      // A fresh certificate: the edge (and its clients) verify the body
      // against the certified digest with no extra round trip.
      item.cert = BlockCertificate::Make(signer_, edge, it->first,
                                         item.block.Digest(), now);
      resp.items.push_back(std::move(item));
    }
  }
  SendSealed(edge, MsgType::kBackupBlocks, resp.Encode());
}

void CloudNode::HandleCloudGet(NodeId client, const CloudGetRequest& msg,
                               SimTime now) {
  stats_.failover_gets_served++;
  CloudGetResponse resp;
  resp.req_id = msg.req_id;
  auto eit = edges_.find(msg.edge);
  if (eit != edges_.end()) {
    // Newest wins: scan the backup from the highest block id down and
    // return the first kv block containing the key. The client verifies
    // the certificate and extracts the newest version itself.
    for (auto it = eit->second.backup.rbegin();
         it != eit->second.backup.rend(); ++it) {
      const auto& [block, is_kv] = it->second;
      if (!is_kv) continue;
      bool has_key = false;
      for (const KvPair& p : ExtractKvPairs(block)) {
        if (p.key == msg.key) {
          has_key = true;
          break;
        }
      }
      if (!has_key) continue;
      resp.found = true;
      resp.block = block;
      resp.cert = BlockCertificate::Make(signer_, msg.edge, it->first,
                                         block.Digest(), now);
      break;
    }
  }
  SendSealed(client, MsgType::kCloudGetResponse, resp.Encode());
}

void CloudNode::GossipTick() {
  for (auto& [edge, rec] : edges_) {
    Gossip g{edge, rec.contiguous, exec_->Now()};
    Bytes body = g.Encode();
    auto range = gossip_subs_.equal_range(edge);
    for (auto it = range.first; it != range.second; ++it) {
      SendSealed(it->second, MsgType::kGossip, body);
      stats_.gossip_sent++;
    }
  }
  exec_->After(config_.gossip_period, [this] { GossipTick(); });
}

void CloudNode::FlagMalicious(NodeId edge, const std::string& reason,
                              SimTime now) {
  if (flagged_.insert(edge).second) {
    WLOG_INFO << "cloud: flagging edge " << edge << " as malicious: "
              << reason;
    authority_->Punish(edge, reason, now);
    if (storage_ != nullptr && !storage_->PersistFlagged(edge).ok()) {
      stats_.storage_errors++;
    }
  }
}

}  // namespace wedge
