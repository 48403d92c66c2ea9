#include "core/client.h"

#include <algorithm>

#include "common/logging.h"
#include "lsmerkle/merge.h"

namespace wedge {

WedgeClient::WedgeClient(Executor* exec, Transport* net,
                         const KeyStore* keystore, Signer signer, NodeId edge,
                         NodeId cloud, Dc location, ClientConfig config,
                         CostModel costs)
    : exec_(exec),
      net_(net),
      keystore_(keystore),
      signer_(std::move(signer)),
      sealer_(signer_),
      opener_(keystore, signer_.id()),
      edge_(edge),
      cloud_(cloud),
      location_(location),
      config_(config),
      costs_(costs),
      verifier_cache_(config.verify_cache_limits) {}

void WedgeClient::SendSealed(NodeId to, MsgType type, Bytes body) {
  net_->Send(id(), to, sealer_.Seal(to, type, body));
}

void WedgeClient::AddBatch(std::vector<Bytes> payloads, Phase1Cb on_phase1,
                           Phase2Cb on_phase2) {
  std::vector<Entry> entries;
  entries.reserve(payloads.size());
  for (auto& p : payloads) {
    entries.push_back(Entry::Make(signer_, next_entry_seq_++, std::move(p)));
  }
  SendWrite(MsgType::kAddRequest, std::move(entries), std::move(on_phase1),
            std::move(on_phase2));
}

void WedgeClient::PutBatch(const std::vector<std::pair<Key, Bytes>>& kvs,
                           Phase1Cb on_phase1, Phase2Cb on_phase2) {
  std::vector<Entry> entries;
  entries.reserve(kvs.size());
  for (const auto& [k, v] : kvs) {
    entries.push_back(Entry::Make(signer_, next_entry_seq_++,
                                  EncodePutPayload(k, v)));
  }
  SendWrite(MsgType::kPutRequest, std::move(entries), std::move(on_phase1),
            std::move(on_phase2));
}

void WedgeClient::SendWrite(MsgType type, std::vector<Entry> entries,
                            Phase1Cb cb1, Phase2Cb cb2) {
  AddRequest req;
  req.req_id = next_req_id_++;
  PendingWrite pending;
  pending.sent_at = exec_->Now();
  pending.on_phase1 = std::move(cb1);
  pending.on_phase2 = std::move(cb2);
  for (const auto& e : entries) {
    pending.remaining_entries.emplace_back(e.client, e.seq);
  }
  req.entries = std::move(entries);
  pending_writes_.emplace(req.req_id, std::move(pending));
  // Signing cost is charged as send latency.
  Bytes body = req.Encode();
  exec_->Charge(costs_.client_sign, [this, type, b = std::move(body)]() mutable {
    SendSealed(edge_, type, std::move(b));
  });
}

void WedgeClient::AddReserved(Bytes payload, Phase1Cb on_phase1,
                              Phase2Cb on_phase2) {
  ReserveRequest req;
  req.req_id = next_req_id_++;
  PendingReserve pending;
  pending.payload = std::move(payload);
  pending.on_phase1 = std::move(on_phase1);
  pending.on_phase2 = std::move(on_phase2);
  pending_reserves_.emplace(req.req_id, std::move(pending));
  SendSealed(edge_, MsgType::kReserveRequest, req.Encode());
}

void WedgeClient::ReadBlock(BlockId bid, ReadCb cb) {
  ReadRequest req;
  req.req_id = next_req_id_++;
  req.bid = bid;
  PendingRead pending;
  pending.sent_at = exec_->Now();
  pending.bid = bid;
  pending.cb = std::move(cb);
  pending_reads_.emplace(req.req_id, std::move(pending));
  SendSealed(edge_, MsgType::kReadRequest, req.Encode());
}

std::vector<BlockRef> WedgeClient::PinHeldBlocks(HeldEntries* pinned) {
  if (!config_.verify_cache) return {};
  *pinned = verifier_cache_.HeldBlocks(edge_, held_floor_, kMaxHeldBlocks);
  std::vector<BlockRef> held;
  held.reserve(pinned->size());
  for (const auto& e : *pinned) held.push_back({e->block->id, e->digest});
  return held;
}

void WedgeClient::Get(Key key, GetCb cb) {
  GetRequest req;
  req.req_id = next_req_id_++;
  req.key = key;
  PendingGet pending;
  pending.sent_at = exec_->Now();
  pending.key = key;
  pending.cb = std::move(cb);
  req.held = PinHeldBlocks(&pending.held);
  pending_gets_.emplace(req.req_id, std::move(pending));
  SendSealed(edge_, MsgType::kGetRequest, req.Encode());
}

void WedgeClient::GetFromCloud(Key key, GetCb cb) {
  CloudGetRequest req;
  req.req_id = next_req_id_++;
  req.edge = edge_;
  req.key = key;
  PendingCloudGet pending;
  pending.sent_at = exec_->Now();
  pending.key = key;
  pending.edge = edge_;
  pending.cb = std::move(cb);
  pending_cloud_gets_.emplace(req.req_id, std::move(pending));
  SendSealed(cloud_, MsgType::kCloudGetRequest, req.Encode());
}

void WedgeClient::Scan(Key lo, Key hi, ScanCb cb) {
  ScanRequest req;
  req.req_id = next_req_id_++;
  req.lo = lo;
  req.hi = hi;
  PendingScan pending;
  pending.sent_at = exec_->Now();
  pending.lo = lo;
  pending.hi = hi;
  pending.cb = std::move(cb);
  req.held = PinHeldBlocks(&pending.held);
  pending_scans_.emplace(req.req_id, std::move(pending));
  SendSealed(edge_, MsgType::kScanRequest, req.Encode());
}

void WedgeClient::OnMessage(NodeId from, Slice payload, SimTime now) {
  auto env = opener_.Open(payload);
  if (!env.ok()) {
    WLOG_DEBUG << "client " << id() << ": dropping message: " << env.status();
    return;
  }
  switch (env->type) {
    case MsgType::kAddResponse:
      HandleAddResponse(from, *env, now);
      break;
    case MsgType::kBlockProof: {
      auto proof = BlockProof::Decode(env->body);
      if (proof.ok()) HandleBlockProof(*proof, now);
      break;
    }
    case MsgType::kReadResponse:
      HandleReadResponse(from, *env, now);
      break;
    case MsgType::kGetResponse:
      if (from != edge_) break;
      HandleGetResponse(*env, now);
      break;
    case MsgType::kCloudGetResponse:
      if (from != cloud_) break;
      HandleCloudGetResponse(*env, now);
      break;
    case MsgType::kScanResponse:
      if (from != edge_) break;
      HandleScanResponse(*env, now);
      break;
    case MsgType::kGossip: {
      if (from != cloud_) break;
      auto g = Gossip::Decode(env->body);
      if (g.ok() && g->edge == edge_ && g->log_size > gossiped_log_size_) {
        gossiped_log_size_ = g->log_size;
      }
      break;
    }
    case MsgType::kReserveResponse: {
      if (from != edge_) break;
      auto resp = ReserveResponse::Decode(env->body);
      if (!resp.ok()) break;
      auto it = pending_reserves_.find(resp->req_id);
      if (it == pending_reserves_.end()) break;
      PendingReserve pending = std::move(it->second);
      pending_reserves_.erase(it);
      // Sign the entry for exactly the reserved position and submit it.
      // Best-effort semantics (§IV-E): a missed slot surfaces through the
      // proof-timeout path and the caller re-reserves.
      Entry e = Entry::MakeReserved(signer_, next_entry_seq_++,
                                    pending.payload, resp->bid, resp->slot);
      AddRequest req;
      req.req_id = next_req_id_++;
      PendingWrite write;
      write.sent_at = now;
      write.remaining_entries.emplace_back(e.client, e.seq);
      write.on_phase1 = std::move(pending.on_phase1);
      write.on_phase2 = std::move(pending.on_phase2);
      req.entries.push_back(std::move(e));
      pending_writes_.emplace(req.req_id, std::move(write));
      Bytes body = req.Encode();
      exec_->Charge(costs_.client_sign,
                    [this, b = std::move(body)]() mutable {
                      SendSealed(edge_, MsgType::kAddRequest, std::move(b));
                    });
      break;
    }
    case MsgType::kDisputeVerdict: {
      if (from != cloud_) break;
      auto v = DisputeVerdict::Decode(env->body);
      if (v.ok() && v->edge_guilty) stats_.disputes_upheld++;
      break;
    }
    default:
      break;
  }
}

void WedgeClient::HandleAddResponse(NodeId from, const Envelope& env,
                                    SimTime now) {
  if (from != edge_) return;
  auto resp = AddResponse::Decode(env.body);
  if (!resp.ok()) return;
  // One response covers all our requests in the block: open, decode and
  // digest it once, and share the signed envelope as every covered
  // write's dispute evidence for this block.
  const Digest256 digest = resp->block.Digest();
  auto evidence = std::make_shared<const Bytes>(env.raw);
  ApplyAddResponse(resp->req_id, *resp, digest, evidence, now);
  for (SeqNum req_id : resp->other_req_ids) {
    ApplyAddResponse(req_id, *resp, digest, evidence, now);
  }
}

void WedgeClient::ApplyAddResponse(
    SeqNum req_id, const AddResponse& resp, const Digest256& digest,
    const std::shared_ptr<const Bytes>& evidence, SimTime now) {
  auto it = pending_writes_.find(req_id);
  if (it == pending_writes_.end() || it->second.phase1_done) return;
  PendingWrite& pending = it->second;

  // Cross off the entries this block covers (Algorithm 1 line 4).
  size_t before = pending.remaining_entries.size();
  std::erase_if(pending.remaining_entries,
                [&](const std::pair<NodeId, SeqNum>& id) {
                  return resp.block.Contains(id.first, id.second);
                });
  if (pending.remaining_entries.size() == before) {
    // A response that advances nothing is a lie (our entries are absent).
    stats_.verification_failures++;
    if (pending.on_phase1) {
      pending.on_phase1(
          Status::SecurityViolation("entry missing from echoed block"),
          resp.bid, now);
    }
    pending_writes_.erase(it);
    return;
  }
  if (pending.block_digests.empty()) pending.first_bid = resp.bid;
  pending.block_digests[resp.bid] = digest;
  pending.evidence[resp.bid] = evidence;
  write_by_bid_[resp.bid].push_back(req_id);

  if (!pending.remaining_entries.empty()) return;  // more blocks to come

  pending.phase1_done = true;
  stats_.phase1_commits++;

  Phase1Cb cb = pending.on_phase1;
  BlockId bid = pending.first_bid;
  if (cb) {
    // Stamp the commit when the callback actually fires: under the
    // simulator that is exactly now + client_verify_add; under threads
    // the charge is a pass-through and pre-adding the modeled cost
    // would stamp Phase I later than a soon-after Phase II.
    Executor* exec = exec_;
    exec_->Charge(costs_.client_verify_add,
                  [cb, bid, exec] { cb(Status::OK(), bid, exec->Now()); });
  }
  ArmProofTimeout(req_id, bid);
}

void WedgeClient::ArmProofTimeout(SeqNum req_id, BlockId bid) {
  if (config_.proof_timeout <= 0) return;
  exec_->After(config_.proof_timeout, [this, req_id, bid] {
    auto it = pending_writes_.find(req_id);
    if (it == pending_writes_.end()) return;  // Phase II already done
    // Proofs still outstanding: escalate each unproven block to the cloud
    // with our signed evidence.
    for (const auto& [b, ev] : it->second.evidence) {
      RaiseDispute(DisputeKind::kAddMismatch, b, *ev);
      // Deregister only this write's interest: concurrent writes sharing
      // the block keep waiting for its proof.
      auto bit = write_by_bid_.find(b);
      if (bit != write_by_bid_.end()) {
        auto& reqs = bit->second;
        reqs.erase(std::remove(reqs.begin(), reqs.end(), req_id), reqs.end());
        if (reqs.empty()) write_by_bid_.erase(bit);
      }
    }
    if (it->second.on_phase2) {
      it->second.on_phase2(
          Status::Timeout("no block-proof before timeout; dispute raised"),
          bid, exec_->Now());
    }
    pending_writes_.erase(it);
  });
}

void WedgeClient::HandleBlockProof(const BlockProof& proof, SimTime now) {
  if (!proof.cert.Validate(*keystore_).ok() || proof.cert.edge != edge_) {
    return;
  }
  // Writes waiting on this block — all of them: concurrent writes from
  // this client share blocks, and one certification proof commits every
  // write whose entries it covers.
  auto wit = write_by_bid_.find(proof.cert.bid);
  if (wit != write_by_bid_.end()) {
    const std::vector<SeqNum> reqs = std::move(wit->second);
    write_by_bid_.erase(wit);
    bool disputed = false;
    for (SeqNum req : reqs) {
      auto pit = pending_writes_.find(req);
      if (pit == pending_writes_.end()) continue;
      PendingWrite& pending = pit->second;
      auto dit = pending.block_digests.find(proof.cert.bid);
      if (dit == pending.block_digests.end()) continue;
      if (proof.cert.digest == dit->second) {
        pending.block_digests.erase(dit);
        pending.evidence.erase(proof.cert.bid);
        if (pending.phase1_done && pending.block_digests.empty()) {
          // Every involved block certified: Phase II commit.
          stats_.phase2_commits++;
          if (pending.on_phase2) {
            pending.on_phase2(Status::OK(), proof.cert.bid, now);
          }
          pending_writes_.erase(pit);
        }
      } else {
        // The cloud certified a different block for this bid: the edge
        // lied to us at Phase I. Our signed evidence convicts it; the
        // writes in this block share one ack, so one dispute suffices.
        if (!disputed) {
          disputed = true;
          stats_.proof_mismatches++;
          RaiseDispute(DisputeKind::kAddMismatch, proof.cert.bid,
                       *pending.evidence[proof.cert.bid]);
        }
        if (pending.on_phase2) {
          pending.on_phase2(
              Status::MaliciousBehavior("certified digest mismatch"),
              proof.cert.bid, now);
        }
        pending_writes_.erase(pit);
      }
    }
  }
  // Phase I reads waiting on this block — all of them, as for writes.
  auto rit = read_by_bid_.find(proof.cert.bid);
  if (rit != read_by_bid_.end()) {
    const std::vector<SeqNum> reads = std::move(rit->second);
    read_by_bid_.erase(rit);
    for (SeqNum req : reads) {
      auto pit = pending_reads_.find(req);
      if (pit == pending_reads_.end()) continue;
      PendingRead& pending = pit->second;
      if (proof.cert.digest == pending.block_digest) {
        stats_.reads_ok++;
        if (pending.cb) {
          pending.cb(Status::OK(), pending.block, /*phase2=*/true, now);
        }
      } else {
        stats_.proof_mismatches++;
        RaiseDispute(DisputeKind::kReadMismatch, proof.cert.bid,
                     pending.evidence);
        if (pending.cb) {
          pending.cb(Status::MaliciousBehavior("read block not certified"),
                     pending.block, false, now);
        }
      }
      pending_reads_.erase(pit);
    }
  }
}

void WedgeClient::HandleReadResponse(NodeId from, const Envelope& env,
                                     SimTime now) {
  if (from != edge_) return;
  auto resp = ReadResponse::Decode(env.body);
  if (!resp.ok()) return;
  auto it = pending_reads_.find(resp->req_id);
  if (it == pending_reads_.end()) return;
  PendingRead& pending = it->second;

  if (!resp->available) {
    // Omission check (§IV-E): gossip told us the log is larger.
    if (gossiped_log_size_ > pending.bid) {
      RaiseDispute(DisputeKind::kOmission, pending.bid, env.raw);
      if (pending.cb) {
        pending.cb(Status::MaliciousBehavior(
                       "edge denies a block the cloud certified"),
                   Block{}, false, now);
      }
    } else if (pending.cb) {
      pending.cb(Status::NotFound("block not available"), Block{}, false, now);
    }
    pending_reads_.erase(it);
    return;
  }

  if (resp->block.id != pending.bid ||
      !resp->block.ValidateReservations().ok()) {
    stats_.verification_failures++;
    if (pending.cb) {
      pending.cb(Status::SecurityViolation(
                     "response block id/reservation check failed"),
                 Block{}, false, now);
    }
    pending_reads_.erase(it);
    return;
  }

  const SimTime verified_at = now + costs_.client_verify_read;
  if (resp->proof.has_value()) {
    // Phase II read: check the cloud signature and the digest.
    Status st = resp->proof->Validate(*keystore_);
    if (st.ok() && resp->proof->edge == edge_ &&
        resp->proof->bid == resp->block.id &&
        resp->proof->digest == resp->block.Digest()) {
      stats_.reads_ok++;
      ReadCb cb = pending.cb;
      Block block = resp->block;
      exec_->Charge(costs_.client_verify_read, [cb, block, verified_at] {
        if (cb) cb(Status::OK(), block, true, verified_at);
      });
    } else {
      stats_.verification_failures++;
      if (pending.cb) {
        pending.cb(Status::SecurityViolation("invalid read proof"), Block{},
                   false, now);
      }
    }
    pending_reads_.erase(it);
    return;
  }

  // Phase I read: deliver now, keep evidence, wait for the proof.
  pending.phase1_done = true;
  pending.block = resp->block;
  pending.block_digest = resp->block.Digest();
  pending.evidence = env.raw;
  read_by_bid_[pending.bid].push_back(resp->req_id);
  ReadCb cb = pending.cb;
  Block block = resp->block;
  exec_->Charge(costs_.client_verify_read, [cb, block, verified_at] {
    if (cb) cb(Status::OK(), block, false, verified_at);
  });
  // The same callback fires again at Phase II (or on mismatch).
}

Status WedgeClient::CheckSnapshotMonotonic(Epoch epoch) {
  if (!config_.monotonic_snapshots) return Status::OK();
  if (epoch < last_snapshot_epoch_) {
    stats_.snapshot_regressions++;
    return Status::SecurityViolation(
        "snapshot regressed: epoch " + std::to_string(epoch) +
        " after observing " + std::to_string(last_snapshot_epoch_));
  }
  last_snapshot_epoch_ = epoch;
  return Status::OK();
}

Status WedgeClient::ResolveHeldRefs(
    const HeldEntries& held, const std::vector<std::optional<BlockRef>>& refs,
    std::vector<std::shared_ptr<const Block>>* blocks) {
  auto resolved = VerifierCache::ResolveHeldRefs(held, refs, blocks);
  if (!resolved.ok()) return resolved.status();
  stats_.l0_refs_resolved += *resolved;
  return Status::OK();
}

void WedgeClient::AdvanceHeldFloor(
    const std::vector<std::shared_ptr<const Block>>& l0_blocks) {
  if (l0_blocks.empty()) {
    held_floor_ = std::max(held_floor_, l0_end_);
    return;
  }
  held_floor_ = std::max(held_floor_, l0_blocks.front()->id);
  l0_end_ = std::max(l0_end_, l0_blocks.back()->id + 1);
}

void WedgeClient::HandleScanResponse(const Envelope& env, SimTime now) {
  auto resp = ScanResponse::Decode(env.body);
  if (!resp.ok()) return;
  auto it = pending_scans_.find(resp->req_id);
  if (it == pending_scans_.end()) return;
  PendingScan pending = std::move(it->second);
  pending_scans_.erase(it);

  const SimTime verified_at = now + costs_.client_verify_read;
  GetVerifyOptions opts;
  opts.now = now;
  opts.freshness_window = config_.freshness_window;
  opts.cache = config_.verify_cache ? &verifier_cache_ : nullptr;
  ScanResponseBody& body = resp->body;
  const Status resolved =
      ResolveHeldRefs(pending.held, body.l0_refs, &body.l0_blocks);
  Result<VerifiedScan> verified =
      resolved.ok() ? VerifyScanResponse(*keystore_, edge_, pending.lo,
                                         pending.hi, body, opts)
                    : Result<VerifiedScan>(resolved);
  ScanCb cb = pending.cb;
  if (verified.ok()) {
    AdvanceHeldFloor(body.l0_blocks);
    const Epoch epoch = resp->body.root_cert.has_value()
                            ? resp->body.root_cert->epoch
                            : 0;
    if (Status mono = CheckSnapshotMonotonic(epoch); !mono.ok()) {
      exec_->Charge(costs_.client_verify_read, [cb, mono, verified_at] {
        if (cb) cb(mono, VerifiedScan{}, verified_at);
      });
      return;
    }
    stats_.scans_ok++;
    VerifiedScan v = std::move(*verified);
    exec_->Charge(costs_.client_verify_read, [cb, v, verified_at] {
      if (cb) cb(Status::OK(), v, verified_at);
    });
  } else {
    if (verified.status().IsFailedPrecondition()) {
      stats_.stale_rejected++;
    } else {
      stats_.verification_failures++;
      // The signed response, plus the held blocks its references name,
      // is self-convicting evidence: the cloud can re-run the
      // completeness verifier on it (the dispute pattern of paper
      // section IV-E, extended to scans). A reference the client could
      // not resolve goes without its block; the cloud sets that slot
      // aside and still convicts on what the rest proves.
      std::vector<Block> referenced;
      for (size_t i = 0; i < body.l0_refs.size(); ++i) {
        if (body.l0_refs[i] && body.l0_blocks[i] != nullptr) {
          referenced.push_back(*body.l0_blocks[i]);
        }
      }
      RaiseDispute(DisputeKind::kScanTruncation, 0, env.raw,
                   std::move(referenced));
    }
    Status st = verified.status();
    exec_->Charge(costs_.client_verify_read, [cb, st, verified_at] {
      if (cb) cb(st, VerifiedScan{}, verified_at);
    });
  }
}

void WedgeClient::HandleGetResponse(const Envelope& env, SimTime now) {
  auto resp = GetResponse::Decode(env.body);
  if (!resp.ok()) return;
  auto it = pending_gets_.find(resp->req_id);
  if (it == pending_gets_.end()) return;
  PendingGet pending = std::move(it->second);
  pending_gets_.erase(it);

  const SimTime verified_at = now + costs_.client_verify_read;
  GetVerifyOptions opts;
  opts.now = now;
  opts.freshness_window = config_.freshness_window;
  opts.cache = config_.verify_cache ? &verifier_cache_ : nullptr;
  GetResponseBody& body = resp->body;
  const Status resolved =
      ResolveHeldRefs(pending.held, body.l0_refs, &body.l0_blocks);
  Result<VerifiedGet> verified =
      resolved.ok()
          ? VerifyGetResponse(*keystore_, edge_, pending.key, body, opts)
          : Result<VerifiedGet>(resolved);
  GetCb cb = pending.cb;
  if (verified.ok()) {
    AdvanceHeldFloor(body.l0_blocks);
    const Epoch epoch = resp->body.root_cert.has_value()
                            ? resp->body.root_cert->epoch
                            : 0;
    if (Status mono = CheckSnapshotMonotonic(epoch); !mono.ok()) {
      exec_->Charge(costs_.client_verify_read, [cb, mono, verified_at] {
        if (cb) cb(mono, VerifiedGet{}, verified_at);
      });
      return;
    }
    stats_.gets_ok++;
    VerifiedGet v = *verified;
    exec_->Charge(costs_.client_verify_read, [cb, v, verified_at] {
      if (cb) cb(Status::OK(), v, verified_at);
    });
  } else {
    if (verified.status().IsFailedPrecondition()) {
      stats_.stale_rejected++;
    } else {
      stats_.verification_failures++;
    }
    Status st = verified.status();
    exec_->Charge(costs_.client_verify_read, [cb, st, verified_at] {
      if (cb) cb(st, VerifiedGet{}, verified_at);
    });
  }
}

void WedgeClient::HandleCloudGetResponse(const Envelope& env, SimTime now) {
  auto resp = CloudGetResponse::Decode(env.body);
  if (!resp.ok()) return;
  auto it = pending_cloud_gets_.find(resp->req_id);
  if (it == pending_cloud_gets_.end()) return;
  PendingCloudGet pending = std::move(it->second);
  pending_cloud_gets_.erase(it);

  const SimTime verified_at = now + costs_.client_verify_read;
  GetCb cb = pending.cb;
  auto finish = [this, cb, verified_at](const Status& st, VerifiedGet v) {
    exec_->Charge(costs_.client_verify_read, [cb, st, v, verified_at] {
      if (cb) cb(st, v, verified_at);
    });
  };

  if (!resp->found) {
    // Honest miss as far as the cloud knows — but carries no proof of
    // absence (the backup may lag the edge), so it stays unverified.
    finish(Status::OK(), VerifiedGet{});
    return;
  }

  // Trust but verify: the certificate must be the cloud's, must name the
  // edge we asked about, and must pin exactly this block body.
  if (!resp->cert.Validate(*keystore_).ok() ||
      resp->cert.edge != pending.edge || resp->cert.bid != resp->block.id ||
      resp->cert.digest != resp->block.Digest()) {
    stats_.verification_failures++;
    finish(Status::SecurityViolation(
               "cloud get response certificate does not pin the block"),
           VerifiedGet{});
    return;
  }

  // The verified block in hand, extract the newest put of the key
  // ourselves — the cloud's claim that the block answers the get is
  // never trusted bare.
  VerifiedGet v;
  for (const KvPair& p : ExtractKvPairs(resp->block)) {
    if (p.key == pending.key && (!v.found || p.version >= v.version)) {
      v.found = true;
      v.value = p.value;
      v.version = p.version;
    }
  }
  // The body is cloud-certified, so a hit counts as Phase II.
  v.phase2 = v.found;
  if (v.found) stats_.gets_ok++;
  finish(Status::OK(), v);
}

ClientStats& ClientStats::operator+=(const ClientStats& other) {
  phase1_commits += other.phase1_commits;
  phase2_commits += other.phase2_commits;
  reads_ok += other.reads_ok;
  gets_ok += other.gets_ok;
  scans_ok += other.scans_ok;
  proof_mismatches += other.proof_mismatches;
  disputes_sent += other.disputes_sent;
  disputes_upheld += other.disputes_upheld;
  verification_failures += other.verification_failures;
  stale_rejected += other.stale_rejected;
  snapshot_regressions += other.snapshot_regressions;
  l0_refs_resolved += other.l0_refs_resolved;
  return *this;
}

void WedgeClient::RaiseDispute(DisputeKind kind, BlockId bid, Bytes evidence,
                               std::vector<Block> blocks) {
  stats_.disputes_sent++;
  Dispute d;
  d.kind = kind;
  d.edge = edge_;
  d.bid = bid;
  d.evidence = std::move(evidence);
  d.blocks = std::move(blocks);
  SendSealed(cloud_, MsgType::kDispute, d.Encode());
}

}  // namespace wedge
