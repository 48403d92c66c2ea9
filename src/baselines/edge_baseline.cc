#include "baselines/edge_baseline.h"

#include "common/logging.h"
#include "lsmerkle/merge.h"

namespace wedge {

// ------------------------------------------------------------------ cloud

EbCloud::EbCloud(Executor* exec, Transport* net, const KeyStore* keystore,
                 Signer signer, Dc location, LsmConfig lsm_config,
                 CostModel costs)
    : exec_(exec),
      net_(net),
      keystore_(keystore),
      signer_(std::move(signer)),
      sealer_(signer_),
      opener_(keystore, signer_.id()),
      location_(location),
      lsm_config_(lsm_config),
      costs_(costs),
      merge_lane_(exec->MakeLane()) {}

void EbCloud::OnMessage(NodeId from, Slice payload, SimTime now) {
  auto env = opener_.Open(payload);
  if (!env.ok()) return;
  if (env->type != MsgType::kEbCertify) return;
  if (!keystore_->HasRole(from, Role::kEdge)) return;
  auto msg = EbCertify::Decode(env->body);
  if (!msg.ok()) return;
  const SimTime cost = costs_.CloudMerge(msg->block.ByteSize());
  merge_lane_->Execute(cost, [this, from, m = std::move(*msg)]() mutable {
    HandleCertify(from, std::move(m), exec_->Now());
  });
  (void)now;
}

void EbCloud::HandleCertify(NodeId edge, EbCertify msg, SimTime now) {
  auto [it, inserted] = edges_.try_emplace(edge, lsm_config_);
  EdgeState& state = it->second;

  EbCertifyResponse resp;
  resp.block_cert = BlockCertificate::Make(signer_, edge, msg.block.id,
                                           msg.block.Digest(), now);
  blocks_certified_++;

  // Every block enters the authoritative mLSM (kv-ness is content-
  // defined; raw appends become pair-less L0 units that keep the block
  // id stream contiguous for read proofs).
  if (auto st = state.tree.ApplyBlock(msg.block); !st.ok()) {
    WLOG_WARN << "eb-cloud: apply failed: " << st;
    return;
  }

  // Cascade merges locally; each one adds transfer bytes to the response
  // (the bandwidth amplification WedgeChain avoids).
  size_t merge_bytes = 0;
  while (auto lvl = state.tree.NeedsMerge()) {
    std::vector<KvPair> newer;
    size_t consumed_l0 = 0;
    if (*lvl == 0) {
      consumed_l0 = state.tree.l0_count();
      for (const auto& unit : state.tree.l0_units()) {
        for (const auto& p : unit.pairs) newer.push_back(p);
      }
    } else {
      for (const auto& page : state.tree.level(*lvl).pages()) {
        for (const auto& p : page.pairs) newer.push_back(p);
      }
    }
    auto merged = MergeIntoPages(std::move(newer),
                                 *lvl + 1 < state.tree.level_count()
                                     ? state.tree.level(*lvl + 1).pages()
                                     : std::vector<Page>{},
                                 lsm_config_.target_page_pairs, now);
    if (!merged.ok()) {
      WLOG_WARN << "eb-cloud: merge failed: " << merged.status();
      return;
    }
    EbCertifyResponse::AppliedMerge am;
    am.from_level = static_cast<uint32_t>(*lvl);
    am.consumed_l0 = static_cast<uint32_t>(consumed_l0);
    am.merged = *merged;
    for (const auto& p : am.merged) merge_bytes += p.ByteSize();
    if (auto st = state.tree.InstallMergeRaw(*lvl, consumed_l0,
                                             std::move(*merged));
        !st.ok()) {
      WLOG_WARN << "eb-cloud: install failed: " << st;
      return;
    }
    merges_performed_++;
    resp.merges.push_back(std::move(am));
  }

  // Re-sign the root after every write (vanilla Merkle-style publication;
  // the root covers the post-merge state).
  state.epoch++;
  state.tree.set_epoch(state.epoch);
  resp.root_cert = RootCertificate::Make(
      signer_, edge, state.epoch,
      ComputeGlobalRoot(state.epoch, state.tree.LevelRoots()), now);
  (void)merge_bytes;  // transfer cost is paid on the wire (response size)

  net_->Send(id(), edge, sealer_.Seal(edge, MsgType::kEbCertifyResponse, resp.Encode()));
}

// ------------------------------------------------------------------- edge

EbEdge::EbEdge(Executor* exec, Transport* net, const KeyStore* keystore,
               Signer signer, NodeId cloud, Dc location, EdgeConfig config,
               CostModel costs)
    : exec_(exec),
      net_(net),
      keystore_(keystore),
      signer_(std::move(signer)),
      sealer_(signer_),
      opener_(keystore, signer_.id()),
      cloud_(cloud),
      location_(location),
      config_(config),
      costs_(costs),
      fg_(exec->MakeLane()),
      lsm_(config.lsm) {}

void EbEdge::OnMessage(NodeId from, Slice payload, SimTime now) {
  auto env = opener_.Open(payload);
  if (!env.ok()) return;
  switch (env->type) {
    case MsgType::kEbWriteRequest: {
      auto req = AddRequest::Decode(env->body);
      if (!req.ok()) return;
      // Writes are admitted immediately: edge-side processing pipelines.
      const SimTime serial = costs_.EdgeBatchSerial(req->entries.size());
      fg_->ExecuteAfter(serial, costs_.edge_batch_parallel,
                        [this, from, r = std::move(*req)]() mutable {
                          HandleWrite(from, std::move(r), exec_->Now());
                        });
      break;
    }
    case MsgType::kReadRequest: {
      auto req = ReadRequest::Decode(env->body);
      if (!req.ok()) return;
      DeferOrRun([this, from, r = *req] {
        fg_->Execute(costs_.edge_read_serial, [this, from, r] {
          HandleReadBlock(from, r, exec_->Now());
        });
      });
      break;
    }
    case MsgType::kGetRequest: {
      auto req = GetRequest::Decode(env->body);
      if (!req.ok()) return;
      DeferOrRun([this, from, r = *req] {
        fg_->Execute(costs_.edge_read_serial, [this, from, r] {
          HandleGet(from, r, exec_->Now());
        });
      });
      break;
    }
    case MsgType::kScanRequest: {
      auto req = ScanRequest::Decode(env->body);
      if (!req.ok()) return;
      DeferOrRun([this, from, r = *req] {
        fg_->Execute(costs_.edge_read_serial, [this, from, r] {
          HandleScan(from, r, exec_->Now());
        });
      });
      break;
    }
    case MsgType::kEbCertifyResponse: {
      if (from != cloud_) return;
      auto resp = EbCertifyResponse::Decode(env->body);
      if (!resp.ok()) return;
      // Installing the returned pages costs CPU proportional to bytes.
      const SimTime cost = costs_.EbInstall(resp->ByteSize());
      fg_->Execute(cost, [this, r = std::move(*resp)]() mutable {
        HandleCertifyResponse(std::move(r), exec_->Now());
      });
      break;
    }
    default:
      break;
  }
  (void)now;
}

void EbEdge::HandleWrite(NodeId from, AddRequest req, SimTime now) {
  Block block;
  block.id = next_bid_++;
  block.created_at = now;
  for (const Entry& e : req.entries) {
    if (e.client != from || !e.Validate(*keystore_).ok()) continue;
    block.entries.push_back(e);
  }
  certify_queue_.push_back(PendingWrite{from, req.req_id, std::move(block)});
  TrySendNextCertify();
}

void EbEdge::DeferOrRun(std::function<void()> work) {
  if (certify_in_flight_) {
    deferred_reads_.push_back(std::move(work));
  } else {
    work();
  }
}

void EbEdge::TrySendNextCertify() {
  if (certify_in_flight_ || certify_queue_.empty()) return;
  certify_in_flight_ = true;
  in_flight_ = std::move(certify_queue_.front());
  certify_queue_.pop_front();
  EbCertify msg;
  msg.block = in_flight_->block;
  net_->Send(id(), cloud_, sealer_.Seal(cloud_, MsgType::kEbCertify, msg.Encode()));
}

void EbEdge::HandleCertifyResponse(EbCertifyResponse resp, SimTime now) {
  if (!in_flight_.has_value()) return;
  if (resp.block_cert.bid != in_flight_->block.id) return;
  PendingWrite pending = std::move(*in_flight_);
  in_flight_.reset();

  if (!resp.block_cert.Validate(*keystore_).ok()) {
    WLOG_WARN << "eb-edge: invalid block certificate";
    certify_in_flight_ = false;
    DrainDeferredReads();
    TrySendNextCertify();
    return;
  }

  // Mirror the cloud's state transitions: block first, then the merges it
  // triggered, then the fresh root certificate.
  (void)log_.Append(pending.block);
  (void)log_.SetCertificate(resp.block_cert);
  if (auto st = lsm_.ApplyBlock(pending.block); !st.ok()) {
    WLOG_WARN << "eb-edge: apply failed: " << st;
  }
  writes_committed_++;

  for (auto& am : resp.merges) {
    if (auto st = lsm_.InstallMergeRaw(am.from_level, am.consumed_l0,
                                       std::move(am.merged));
        !st.ok()) {
      WLOG_WARN << "eb-edge: install failed: " << st;
    }
  }
  if (auto st = lsm_.SetEpochAndCert(resp.root_cert); !st.ok()) {
    WLOG_WARN << "eb-edge: root cert mismatch: " << st;
  }

  AddResponse ack;
  ack.req_id = pending.req_id;
  ack.bid = pending.block.id;
  net_->Send(id(), pending.client, sealer_.Seal(pending.client, MsgType::kEbWriteResponse, ack.Encode()));

  certify_in_flight_ = false;
  // Deferred reads run against the freshly installed state; the next
  // queued certification then re-locks.
  DrainDeferredReads();
  TrySendNextCertify();
  (void)now;
}

void EbEdge::DrainDeferredReads() {
  std::deque<std::function<void()>> work;
  work.swap(deferred_reads_);
  for (auto& fn : work) fn();
}

void EbEdge::HandleGet(NodeId from, const GetRequest& req, SimTime now) {
  gets_served_++;
  GetResponse resp;
  resp.req_id = req.req_id;
  resp.body = AssembleGetResponse(lsm_, log_, req.key);
  net_->Send(id(), from, sealer_.Seal(from, MsgType::kGetResponse, resp.Encode()));
  (void)now;
}

void EbEdge::HandleScan(NodeId from, const ScanRequest& req, SimTime now) {
  scans_served_++;
  ScanResponse resp;
  resp.req_id = req.req_id;
  resp.body = AssembleScanResponse(lsm_, log_, req.lo, req.hi);
  net_->Send(id(), from, sealer_.Seal(from, MsgType::kScanResponse, resp.Encode()));
  (void)now;
}

void EbEdge::HandleReadBlock(NodeId from, const ReadRequest& req,
                             SimTime now) {
  block_reads_served_++;
  ReadResponse resp;
  resp.req_id = req.req_id;
  resp.bid = req.bid;
  auto block = log_.GetBlock(req.bid);
  if (block.ok()) {
    resp.available = true;
    resp.block = std::move(*block);
    // Synchronous certification: every logged block has its certificate.
    resp.proof = log_.GetCertificate(req.bid);
  }
  net_->Send(id(), from, sealer_.Seal(from, MsgType::kReadResponse, resp.Encode()));
  (void)now;
}

// ----------------------------------------------------------------- client

EbClient::EbClient(Executor* exec, Transport* net, const KeyStore* keystore,
                   Signer signer, NodeId edge, Dc location, CostModel costs,
                   ClientConfig config)
    : exec_(exec),
      net_(net),
      keystore_(keystore),
      signer_(std::move(signer)),
      sealer_(signer_),
      opener_(keystore, signer_.id()),
      edge_(edge),
      location_(location),
      costs_(costs),
      config_(config),
      verifier_cache_(config.verify_cache_limits) {}

void EbClient::SendWrite(MsgType type, std::vector<Entry> entries,
                         WriteCb cb) {
  AddRequest req;
  req.req_id = next_req_++;
  req.entries = std::move(entries);
  pending_writes_[req.req_id] = std::move(cb);
  Bytes body = req.Encode();
  exec_->Charge(costs_.client_sign, [this, type, b = std::move(body)]() mutable {
    net_->Send(id(), edge_, sealer_.Seal(edge_, type, b));
  });
}

void EbClient::WriteBatch(const std::vector<std::pair<Key, Bytes>>& kvs,
                          WriteCb cb) {
  std::vector<Entry> entries;
  entries.reserve(kvs.size());
  for (const auto& [k, v] : kvs) {
    entries.push_back(
        Entry::Make(signer_, next_entry_seq_++, EncodePutPayload(k, v)));
  }
  SendWrite(MsgType::kEbWriteRequest, std::move(entries), std::move(cb));
}

void EbClient::AppendBatch(std::vector<Bytes> payloads, WriteCb cb) {
  std::vector<Entry> entries;
  entries.reserve(payloads.size());
  for (auto& p : payloads) {
    entries.push_back(Entry::Make(signer_, next_entry_seq_++, std::move(p)));
  }
  // Same wire message as puts: kv-ness is content-defined, so raw
  // entries are certified and logged but contribute no kv pairs.
  SendWrite(MsgType::kEbWriteRequest, std::move(entries), std::move(cb));
}

void EbClient::ReadBlock(BlockId bid, ReadBlockCb cb) {
  ReadRequest req;
  req.req_id = next_req_++;
  req.bid = bid;
  pending_block_reads_[req.req_id] = {bid, std::move(cb)};
  net_->Send(id(), edge_, sealer_.Seal(edge_, MsgType::kReadRequest, req.Encode()));
}

void EbClient::Get(Key key, GetCb cb) {
  GetRequest req{next_req_++, key, {}};
  pending_gets_[req.req_id] = {key, std::move(cb)};
  net_->Send(id(), edge_, sealer_.Seal(edge_, MsgType::kGetRequest, req.Encode()));
}

void EbClient::Scan(Key lo, Key hi, ScanCb cb) {
  ScanRequest req{next_req_++, lo, hi, {}};
  pending_scans_[req.req_id] = {lo, hi, std::move(cb)};
  net_->Send(id(), edge_, sealer_.Seal(edge_, MsgType::kScanRequest, req.Encode()));
}

void EbClient::OnMessage(NodeId from, Slice payload, SimTime now) {
  if (from != edge_) return;
  auto env = opener_.Open(payload);
  if (!env.ok()) return;
  switch (env->type) {
    case MsgType::kEbWriteResponse: {
      auto resp = AddResponse::Decode(env->body);
      if (!resp.ok()) return;
      auto it = pending_writes_.find(resp->req_id);
      if (it == pending_writes_.end()) return;
      WriteCb cb = std::move(it->second);
      pending_writes_.erase(it);
      if (cb) cb(Status::OK(), resp->bid, now);
      break;
    }
    case MsgType::kReadResponse: {
      auto resp = ReadResponse::Decode(env->body);
      if (!resp.ok()) return;
      auto it = pending_block_reads_.find(resp->req_id);
      if (it == pending_block_reads_.end()) return;
      auto [bid, cb] = std::move(it->second);
      pending_block_reads_.erase(it);
      if (!resp->available) {
        if (cb) cb(Status::NotFound("block not available"), Block{}, now);
        break;
      }
      // Certified synchronously at commit: the proof must be present,
      // valid, for this edge, and match the shipped block.
      Status st = Status::OK();
      if (resp->block.id != bid ||
          !resp->block.ValidateReservations().ok()) {
        st = Status::SecurityViolation("block id/reservation check failed");
      } else if (!resp->proof.has_value()) {
        st = Status::SecurityViolation("certified read without a proof");
      } else if (!resp->proof->Validate(*keystore_).ok() ||
                 resp->proof->edge != edge_ || resp->proof->bid != bid ||
                 resp->proof->digest != resp->block.Digest()) {
        st = Status::SecurityViolation("invalid read proof");
      }
      const SimTime verified_at = now + costs_.client_verify_read;
      Block block = st.ok() ? std::move(resp->block) : Block{};
      exec_->Charge(costs_.client_verify_read,
                    [cb = std::move(cb), st, b = std::move(block),
                     verified_at] {
                      if (cb) cb(st, b, verified_at);
                    });
      break;
    }
    case MsgType::kGetResponse: {
      auto resp = GetResponse::Decode(env->body);
      if (!resp.ok()) return;
      auto it = pending_gets_.find(resp->req_id);
      if (it == pending_gets_.end()) return;
      auto [key, cb] = std::move(it->second);
      pending_gets_.erase(it);
      const SimTime verified_at = now + costs_.client_verify_read;
      GetVerifyOptions opts;
      opts.now = now;
      opts.cache = config_.verify_cache ? &verifier_cache_ : nullptr;
      auto verified =
          VerifyGetResponse(*keystore_, edge_, key, resp->body, opts);
      if (verified.ok()) {
        VerifiedGet v = *verified;
        exec_->Charge(costs_.client_verify_read, [cb, v, verified_at] {
          if (cb) cb(Status::OK(), v, verified_at);
        });
      } else {
        Status st = verified.status();
        exec_->Charge(costs_.client_verify_read, [cb, st, verified_at] {
          if (cb) cb(st, VerifiedGet{}, verified_at);
        });
      }
      break;
    }
    case MsgType::kScanResponse: {
      auto resp = ScanResponse::Decode(env->body);
      if (!resp.ok()) return;
      auto it = pending_scans_.find(resp->req_id);
      if (it == pending_scans_.end()) return;
      PendingScan pending = std::move(it->second);
      pending_scans_.erase(it);
      const SimTime verified_at = now + costs_.client_verify_read;
      GetVerifyOptions opts;
      opts.now = now;
      opts.cache = config_.verify_cache ? &verifier_cache_ : nullptr;
      auto verified = VerifyScanResponse(*keystore_, edge_, pending.lo,
                                         pending.hi, resp->body, opts);
      ScanCb cb = std::move(pending.cb);
      if (verified.ok()) {
        VerifiedScan v = std::move(*verified);
        exec_->Charge(costs_.client_verify_read, [cb, v, verified_at] {
          if (cb) cb(Status::OK(), v, verified_at);
        });
      } else {
        Status st = verified.status();
        exec_->Charge(costs_.client_verify_read, [cb, st, verified_at] {
          if (cb) cb(st, VerifiedScan{}, verified_at);
        });
      }
      break;
    }
    default:
      break;
  }
}

}  // namespace wedge
