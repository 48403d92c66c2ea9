#include "core/edge_node.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "core/read_service.h"

namespace wedge {

EdgeNode::EdgeNode(Executor* exec, Transport* net, const KeyStore* keystore,
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
      bg_(exec->MakeLane()),
      builder_(config.ops_per_block, 0),
      lsm_(config.lsm) {}

void EdgeNode::Start() {
  net_->Attach(id(), location_, this);
  log_.SetRetention(config_.log_retention_blocks);
  ScheduleNoopTimer();
}

void EdgeNode::RestoreState(EdgeStorage::RecoveredState state) {
  log_ = std::move(state.log);
  lsm_ = std::move(state.tree);
  last_seq_ = std::move(state.last_seq);
  l0_blocks_consumed_ = state.l0_blocks_consumed;
  l0_blocks_seen_ = state.blocks_in_log;
  builder_ = BlockBuilder(config_.ops_per_block,
                          static_cast<BlockId>(log_.size()));
}

void EdgeNode::SendSealed(NodeId to, MsgType type, Bytes body) {
  net_->Send(id(), to, sealer_.Seal(to, type, body));
}

void EdgeNode::OnMessage(NodeId from, Slice payload, SimTime now) {
  auto env = opener_.Open(payload);
  if (!env.ok()) {
    WLOG_DEBUG << "edge " << id() << ": dropping message: " << env.status();
    return;
  }
  switch (env->type) {
    case MsgType::kAddRequest:
    case MsgType::kPutRequest: {
      auto req = AddRequest::Decode(env->body);
      if (!req.ok()) return;
      const bool is_kv = env->type == MsgType::kPutRequest;
      // Foreground lane: serialized batch handling + parallelizable tail.
      const SimTime serial = costs_.EdgeBatchSerial(req->entries.size());
      fg_->ExecuteAfter(serial, costs_.edge_batch_parallel,
                        [this, from, r = std::move(*req), is_kv] {
                          HandleWrite(from, r, is_kv, exec_->Now());
                        });
      break;
    }
    case MsgType::kReadRequest: {
      auto req = ReadRequest::Decode(env->body);
      if (!req.ok()) return;
      fg_->Execute(costs_.edge_read_serial, [this, from, r = *req] {
        HandleRead(from, r, exec_->Now());
      });
      break;
    }
    case MsgType::kGetRequest: {
      auto req = GetRequest::Decode(env->body);
      if (!req.ok()) return;
      fg_->Execute(costs_.edge_read_serial, [this, from, r = *req] {
        HandleGet(from, r, exec_->Now());
      });
      break;
    }
    case MsgType::kScanRequest: {
      auto req = ScanRequest::Decode(env->body);
      if (!req.ok()) return;
      fg_->Execute(costs_.edge_read_serial, [this, from, r = *req] {
        HandleScan(from, r, exec_->Now());
      });
      break;
    }
    case MsgType::kReserveRequest: {
      auto req = ReserveRequest::Decode(env->body);
      if (!req.ok()) return;
      fg_->Execute(costs_.edge_read_serial, [this, from, r = *req] {
        HandleReserve(from, r, exec_->Now());
      });
      break;
    }
    case MsgType::kBlockProof: {
      if (from != cloud_) return;
      auto proof = BlockProof::Decode(env->body);
      if (!proof.ok()) return;
      HandleBlockProof(*proof, now);
      break;
    }
    case MsgType::kCertifyReject: {
      // The cloud has flagged us. An honest edge never receives this.
      WLOG_WARN << "edge " << id() << ": certification rejected by cloud";
      break;
    }
    case MsgType::kMergeResponse: {
      if (from != cloud_) return;
      auto resp = MergeResponse::Decode(env->body);
      if (!resp.ok()) return;
      HandleMergeResponse(std::move(*resp), now);
      break;
    }
    case MsgType::kBackupBlocks: {
      if (from != cloud_) return;
      auto resp = BackupBlocks::Decode(env->body);
      if (!resp.ok()) return;
      HandleBackupBlocks(std::move(*resp), now);
      break;
    }
    default:
      WLOG_DEBUG << "edge " << id() << ": unexpected "
                 << MsgTypeToString(env->type);
  }
}

void EdgeNode::HandleWrite(NodeId from, const AddRequest& req, bool is_kv,
                           SimTime now) {
  // A kv/raw transition flushes the current buffer so a block is never
  // mixed (L0 pages must parse as puts).
  if (builder_.pending() > 0 && buffer_is_kv_ != is_kv) {
    FormBlock(buffer_is_kv_, now);
  }
  buffer_is_kv_ = is_kv;

  for (const Entry& e : req.entries) {
    // Validity: signed by a registered client, and the signer is the
    // connection peer.
    if (e.client != from || !e.Validate(*keystore_).ok()) {
      stats_.replays_rejected++;
      continue;
    }
    // Replay protection: client sequence numbers must increase.
    auto it = last_seq_.find(e.client);
    if (it != last_seq_.end() && e.seq <= it->second) {
      stats_.replays_rejected++;
      continue;
    }
    // Reserved entries only fit their exact position (best-effort
    // reservations, §IV-E: a missed slot means the client re-reserves).
    if (e.has_reservation && (e.reserved_bid != builder_.next_bid() ||
                              e.reserved_slot != builder_.pending())) {
      stats_.reservation_misses++;
      continue;
    }
    last_seq_[e.client] = e.seq;
    buffer_contribs_.push_back({from, req.req_id});
    stats_.entries_accepted++;
    auto block = builder_.Add(e, now);
    if (block.has_value()) {
      // Finish inline: a large request may span several blocks, each with
      // its own response/certification round.
      FinishBlock(std::move(*block), is_kv, now);
    }
  }
  if (builder_.pending() > 0) {
    ScheduleFlushTimer();
  }
}

void EdgeNode::FormBlock(bool is_kv, SimTime now) {
  auto block = builder_.Flush(now);
  if (!block.has_value()) return;
  FinishBlock(std::move(*block), is_kv, now);
}

void EdgeNode::FinishBlock(Block block, bool is_kv, SimTime now) {
  flush_generation_++;
  const BlockId bid = block.id;
  (void)log_.Append(block);
  stats_.blocks_formed++;

  // Durability before the Phase I promise: the signed add-response must
  // never outlive the block it vouches for.
  if (storage_ != nullptr) {
    if (storage_->PersistBlock(block, is_kv).ok()) {
      stats_.storage_writes++;
    } else {
      stats_.storage_errors++;
    }
  }

  // Every block enters L0 (raw appends as pair-less units): the L0 id
  // stream must stay contiguous for read proofs even on mixed
  // put/append logs. The frontier counter therefore counts all blocks.
  l0_blocks_seen_++;
  if (auto st = lsm_.ApplyBlock(block); !st.ok()) {
    WLOG_WARN << "edge " << id() << ": apply block failed: " << st;
  }
  // ApplyBlock hashed the block for L0's digest memo; certification
  // reuses that one hash.
  const Digest256 digest = lsm_.l0_units().back().digest;

  // Group the contributions by client (a client may have several entries
  // and several requests in the block) and send each client the signed
  // block once, listing all its requests: Phase I commit. A request's
  // entries are buffered back to back, so its id repeats only in a run.
  std::vector<std::pair<NodeId, std::vector<SeqNum>>> by_client;
  for (const auto& c : buffer_contribs_) {
    auto it = std::find_if(by_client.begin(), by_client.end(),
                           [&](const auto& g) { return g.first == c.client; });
    if (it == by_client.end()) {
      by_client.push_back({c.client, {c.req_id}});
    } else if (it->second.back() != c.req_id) {
      it->second.push_back(c.req_id);
    }
  }
  buffer_contribs_.clear();
  AddResponse resp;
  resp.bid = bid;
  resp.block = block;
  std::set<NodeId>& waiters = proof_waiters_[bid];
  for (auto& [client, req_ids] : by_client) {
    resp.req_id = req_ids.front();
    resp.other_req_ids.assign(req_ids.begin() + 1, req_ids.end());
    if (misbehavior_.equivocate_to_victim && client == misbehavior_.victim &&
        !block.entries.empty()) {
      // Give the victim an inconsistent view: same bid, tampered payload.
      AddResponse lie = resp;
      lie.block.entries[0].payload.push_back(0xee);
      SendSealed(client, MsgType::kAddResponse, lie.Encode());
    } else {
      SendSealed(client, MsgType::kAddResponse, resp.Encode());
    }
    stats_.add_responses_sent++;
    waiters.insert(client);
  }

  // Background: lazy (asynchronous) certification — digest only.
  Digest256 certified = digest;
  if (misbehavior_.certify_tampered) {
    Block tampered = block;
    if (!tampered.entries.empty()) tampered.entries[0].payload.push_back(0xbb);
    certified = tampered.Digest();
  }
  if (!misbehavior_.drop_certifies) {
    const SimTime cost = costs_.EdgeCert(block.ByteSize());
    std::optional<Block> full;
    if (config_.ship_full_blocks) full = block;
    pending_certify_[bid] = PendingCertify{certified, is_kv};
    bg_->Execute(cost, [this, bid, certified, is_kv, full = std::move(full)] {
      BlockCertify msg;
      msg.bid = bid;
      msg.digest = certified;
      msg.is_kv = is_kv;
      msg.full_block = full;
      SendSealed(cloud_, MsgType::kBlockCertify, msg.Encode());
      stats_.certifies_sent++;
    });
    ScheduleCertifyRetry();
  }

  MaybeStartMerge(now, /*noop=*/false);
}

void EdgeNode::HandleRead(NodeId from, const ReadRequest& req, SimTime now) {
  stats_.reads_served++;
  ReadResponse resp;
  resp.req_id = req.req_id;
  resp.bid = req.bid;
  if (misbehavior_.omit_reads || !log_.HasBlock(req.bid)) {
    if (!misbehavior_.omit_reads && config_.backup_fetch) {
      // Read repair: park the reader and fetch the block (evicted or
      // crash-lost) from the cloud's backup instead of answering "not
      // available" — which a gossip-armed client would dispute.
      repair_waiters_[req.bid].push_back({from, req.req_id});
      BackupFetch fetch;
      fetch.from_bid = req.bid;
      fetch.max_blocks = 1;
      SendSealed(cloud_, MsgType::kBackupFetch, fetch.Encode());
      stats_.backup_fetches_sent++;
      return;
    }
    resp.available = false;
    SendSealed(from, MsgType::kReadResponse, resp.Encode());
    return;
  }
  resp.available = true;
  resp.block = *log_.GetBlock(req.bid);
  resp.proof = log_.GetCertificate(req.bid);
  if (!resp.proof.has_value()) {
    // Phase I read: remember the reader so the proof can be forwarded.
    proof_waiters_[req.bid].insert(from);
  }
  SendSealed(from, MsgType::kReadResponse, resp.Encode());
  (void)now;
}

namespace {

/// The request's held hint, capped at the protocol limit.
std::span<const BlockRef> HeldHint(const std::vector<BlockRef>& held) {
  return std::span<const BlockRef>(held).first(
      std::min(held.size(), kMaxHeldBlocks));
}

}  // namespace

void EdgeNode::CountL0Slots(const std::vector<std::optional<BlockRef>>& refs) {
  const auto n = static_cast<uint64_t>(std::count_if(
      refs.begin(), refs.end(), [](const auto& r) { return r.has_value(); }));
  stats_.l0_refs_sent += n;
  stats_.l0_blocks_sent += refs.size() - n;
}

void EdgeNode::HandleGet(NodeId from, const GetRequest& req, SimTime now) {
  stats_.gets_served++;
  GetResponse resp;
  resp.req_id = req.req_id;
  resp.body = AssembleGetResponse(req.key, HeldHint(req.held));
  if (misbehavior_.tamper_get_value && resp.body.found) {
    resp.body.value.push_back(0xdd);
  }
  CountL0Slots(resp.body.l0_refs);
  SendSealed(from, MsgType::kGetResponse, resp.Encode());
  (void)now;
}

void EdgeNode::HandleScan(NodeId from, const ScanRequest& req, SimTime now) {
  stats_.scans_served++;
  ScanResponse resp;
  resp.req_id = req.req_id;
  const bool rollback =
      misbehavior_.rollback_snapshot && rollback_state_.has_value();
  resp.body = AssembleScanResponse(
      rollback ? rollback_state_->first : lsm_,
      rollback ? rollback_state_->second : log_, req.lo, req.hi,
      misbehavior_.truncate_scans, HeldHint(req.held));
  CountL0Slots(resp.body.l0_refs);
  SendSealed(from, MsgType::kScanResponse, resp.Encode());
  (void)now;
}

void EdgeNode::HandleReserve(NodeId from, const ReserveRequest& req,
                             SimTime now) {
  // Best-effort reservation (§IV-E): the next slot in the buffer.
  ReserveResponse resp;
  resp.req_id = req.req_id;
  resp.bid = builder_.next_bid();
  resp.slot = static_cast<uint32_t>(builder_.pending());
  SendSealed(from, MsgType::kReserveResponse, resp.Encode());
  (void)now;
}

void EdgeNode::CaptureRollbackSnapshot() {
  rollback_state_.emplace(lsm_, log_);
}

GetResponseBody EdgeNode::AssembleGetResponse(
    Key key, std::span<const BlockRef> held) const {
  if (misbehavior_.rollback_snapshot && rollback_state_.has_value()) {
    return wedge::AssembleGetResponse(rollback_state_->first,
                                      rollback_state_->second, key,
                                      misbehavior_.serve_stale_gets, held);
  }
  return wedge::AssembleGetResponse(lsm_, log_, key,
                                    misbehavior_.serve_stale_gets, held);
}

void EdgeNode::HandleBlockProof(const BlockProof& proof, SimTime now) {
  if (proof.cert.Validate(*keystore_).ok() && proof.cert.edge == id()) {
    // Proof arrival is progress: stop retrying this block and reset the
    // backoff (the cloud is reachable again).
    if (pending_certify_.erase(proof.cert.bid) != 0) {
      retry_backoff_ = config_.certify_retry.initial_backoff;
      retry_attempts_ = 0;
    }
    if (log_.SetCertificate(proof.cert).ok()) {
      stats_.proofs_received++;
      if (storage_ != nullptr) {
        if (storage_->PersistCertificate(proof.cert).ok()) {
          stats_.storage_writes++;
        } else {
          stats_.storage_errors++;
        }
      }
    }
  }
  // Forward to Phase I writers and readers of this block regardless, once
  // per client; the clients verify the certificate themselves.
  auto wit = proof_waiters_.find(proof.cert.bid);
  if (wit != proof_waiters_.end()) {
    Bytes body = proof.Encode();
    for (NodeId client : wit->second) {
      SendSealed(client, MsgType::kBlockProof, body);
      stats_.proofs_forwarded++;
    }
    proof_waiters_.erase(wit);
  }
  (void)now;
}

void EdgeNode::RequestBackupSync() {
  BackupFetch fetch;
  fetch.from_bid = log_.size();
  fetch.max_blocks = 0;  // everything the cloud has
  SendSealed(cloud_, MsgType::kBackupFetch, fetch.Encode());
  stats_.backup_fetches_sent++;
}

void EdgeNode::HandleBackupBlocks(const BackupBlocks& resp, SimTime now) {
  for (const BackupItem& item : resp.items) {
    // Trust but verify: the certificate must be the cloud's and must pin
    // exactly this body.
    if (!item.cert.Validate(*keystore_).ok() || item.cert.edge != id() ||
        item.cert.bid != item.block.id ||
        item.cert.digest != item.block.Digest()) {
      WLOG_WARN << "edge " << id() << ": rejecting bad backup item for block "
                << item.block.id;
      continue;
    }

    if (item.block.id == log_.size()) {
      // Tail repair: extend the log with the recovered block — but only
      // while the builder is idle. Entries already buffered are destined
      // for block id == current log end; appending under them would
      // shift the numbering out from under the next flush. (Parked
      // readers below are still served from the verified copy.)
      if (builder_.pending() > 0) continue;
      if (!log_.Append(item.block).ok()) continue;
      (void)log_.SetCertificate(item.cert);
      stats_.backup_blocks_restored++;
      if (storage_ != nullptr) {
        if (storage_->PersistBlock(item.block, item.is_kv).ok() &&
            storage_->PersistCertificate(item.cert).ok()) {
          stats_.storage_writes++;
        } else {
          stats_.storage_errors++;
        }
      }
      // A restored block belongs in L0 only when its ordinal is past
      // the manifest's merge frontier; earlier ones were consumed by
      // merges and already live (durably) in the levels. Raw appends
      // count too — they occupy L0 slots (pair-less).
      l0_blocks_seen_++;
      if (l0_blocks_seen_ > l0_blocks_consumed_) {
        if (auto st = lsm_.ApplyBlock(item.block); !st.ok()) {
          WLOG_WARN << "edge " << id()
                    << ": backup block failed L0 apply: " << st;
        }
      }
      builder_ = BlockBuilder(config_.ops_per_block,
                              static_cast<BlockId>(log_.size()));
    }

    // Serve any reads parked on this block, straight from the verified
    // copy (evicted blocks are served without re-inserting them).
    auto wit = repair_waiters_.find(item.block.id);
    if (wit != repair_waiters_.end()) {
      for (const auto& [client, req_id] : wit->second) {
        ReadResponse out;
        out.req_id = req_id;
        out.bid = item.block.id;
        out.available = true;
        out.block = item.block;
        out.proof = item.cert;
        SendSealed(client, MsgType::kReadResponse, out.Encode());
        stats_.repaired_reads++;
      }
      repair_waiters_.erase(wit);
    }
  }

  // Parked readers whose block this response proves the cloud lacks get
  // the honest negative answer. The covered range is [from_bid, last
  // returned bid] — or everything past from_bid when the response was
  // not truncated by max_blocks.
  const BlockId covered_to =
      resp.complete ? std::numeric_limits<BlockId>::max()
                    : (resp.items.empty() ? resp.from_bid
                                          : resp.items.back().block.id);
  std::vector<BlockId> still_missing;
  for (const auto& [bid, waiters] : repair_waiters_) {
    if (bid >= resp.from_bid && bid <= covered_to && !log_.HasBlock(bid)) {
      still_missing.push_back(bid);
    }
  }
  for (BlockId bid : still_missing) {
    for (const auto& [client, req_id] : repair_waiters_[bid]) {
      ReadResponse out;
      out.req_id = req_id;
      out.bid = bid;
      out.available = false;
      SendSealed(client, MsgType::kReadResponse, out.Encode());
    }
    repair_waiters_.erase(bid);
  }
  (void)now;
}

void EdgeNode::MaybeStartMerge(SimTime now, bool noop) {
  if (lsm_.merge_in_flight()) return;
  auto level = lsm_.NeedsMerge();
  if (!level.has_value()) {
    if (!noop) return;
    level = 0;  // freshness no-op merge: re-sign the (possibly empty) state
    stats_.noop_merges++;
  }
  lsm_.set_merge_in_flight(true);

  MergeRequest req;
  req.from_level = static_cast<uint32_t>(*level);
  req.num_levels = static_cast<uint32_t>(lsm_.level_count() - 1);
  req.cur_epoch = lsm_.epoch();
  if (*level == 0) {
    for (const auto& unit : lsm_.l0_units()) {
      req.l0_blocks.push_back(*unit.block);
    }
  } else {
    req.from_pages = lsm_.level(*level).pages();
  }
  if (*level + 1 < lsm_.level_count()) {
    req.to_pages = lsm_.level(*level + 1).pages();
  }

  // Preparing and shipping the merge runs on the background lane.
  const SimTime cost = costs_.EdgeCert(req.ByteSize());
  bg_->Execute(cost, [this, r = std::move(req)] {
    SendSealed(cloud_, MsgType::kMergeRequest, r.Encode());
  });
  (void)now;
}

void EdgeNode::HandleMergeResponse(const MergeResponse& resp, SimTime now) {
  if (!resp.root_cert.Validate(*keystore_).ok() ||
      resp.root_cert.edge != id()) {
    WLOG_WARN << "edge " << id() << ": invalid merge response";
    lsm_.set_merge_in_flight(false);
    return;
  }
  Status st = lsm_.InstallMergeResult(resp.from_level, resp.consumed_l0,
                                      resp.merged, resp.root_cert);
  lsm_.set_merge_in_flight(false);
  if (!st.ok()) {
    WLOG_WARN << "edge " << id() << ": merge install failed: " << st;
    return;
  }
  stats_.merges_completed++;
  last_merge_time_ = now;

  if (storage_ != nullptr) {
    // The manifest wants every level the install touched: the target
    // level always, and the emptied source level when it was not L0.
    if (resp.from_level == 0) l0_blocks_consumed_ += resp.consumed_l0;
    std::vector<std::pair<size_t, std::vector<Page>>> changed;
    if (resp.from_level >= 1) changed.emplace_back(resp.from_level,
                                                   std::vector<Page>{});
    changed.emplace_back(resp.from_level + 1,
                         lsm_.level(resp.from_level + 1).pages());
    if (storage_->PersistMerge(changed, resp.root_cert,
                               l0_blocks_consumed_).ok()) {
      stats_.storage_writes++;
    } else {
      stats_.storage_errors++;
    }
  }

  // Cascade if the next level overflowed.
  MaybeStartMerge(now, /*noop=*/false);
}

void EdgeNode::ScheduleFlushTimer() {
  if (config_.partial_flush_delay <= 0) return;
  const uint64_t gen = flush_generation_;
  exec_->After(config_.partial_flush_delay, [this, gen] {
    // Only flush if no block has formed since the timer was armed.
    if (flush_generation_ == gen && builder_.pending() > 0) {
      fg_->Execute(costs_.EdgeBatchSerial(0), [this] {
        FormBlock(buffer_is_kv_, exec_->Now());
      });
    }
  });
}

void EdgeNode::ScheduleCertifyRetry() {
  const RetryPolicy& policy = config_.certify_retry;
  if (!policy.enabled || retry_timer_armed_ || pending_certify_.empty()) {
    return;
  }
  if (policy.max_attempts > 0 && retry_attempts_ >= policy.max_attempts) {
    return;
  }
  if (retry_backoff_ <= 0) retry_backoff_ = policy.initial_backoff;
  retry_timer_armed_ = true;
  const uint64_t gen = restart_generation_;
  exec_->After(retry_backoff_, [this, gen] {
    if (gen != restart_generation_) return;  // crashed since arming
    retry_timer_armed_ = false;
    if (pending_certify_.empty()) return;  // proofs arrived in time
    retry_attempts_++;
    ResendPendingCertifies();
    retry_backoff_ = std::min<SimTime>(
        config_.certify_retry.max_backoff,
        static_cast<SimTime>(static_cast<double>(retry_backoff_) *
                             config_.certify_retry.multiplier));
    ScheduleCertifyRetry();
  });
}

void EdgeNode::ResendPendingCertifies() {
  for (const auto& [bid, pending] : pending_certify_) {
    BlockCertify msg;
    msg.bid = bid;
    msg.digest = pending.digest;
    msg.is_kv = pending.is_kv;
    if (config_.ship_full_blocks && log_.HasBlock(bid)) {
      msg.full_block = *log_.GetBlock(bid);
    }
    SendSealed(cloud_, MsgType::kBlockCertify, msg.Encode());
    stats_.certify_retries++;
  }
}

void EdgeNode::DropVolatileState() {
  log_ = EdgeLog();
  log_.SetRetention(config_.log_retention_blocks);
  lsm_ = LsmerkleTree(config_.lsm);
  builder_ = BlockBuilder(config_.ops_per_block, 0);
  buffer_contribs_.clear();
  proof_waiters_.clear();
  repair_waiters_.clear();
  rollback_state_.reset();
  last_seq_.clear();
  pending_certify_.clear();
  buffer_is_kv_ = false;
  flush_generation_++;
  restart_generation_++;
  retry_backoff_ = 0;
  retry_attempts_ = 0;
  retry_timer_armed_ = false;
  l0_blocks_consumed_ = 0;
  l0_blocks_seen_ = 0;
  last_merge_time_ = 0;
  stats_.state_drops++;
}

void EdgeNode::ScheduleNoopTimer() {
  if (config_.noop_merge_period <= 0) return;
  exec_->After(config_.noop_merge_period, [this] {
    if (exec_->Now() - last_merge_time_ >= config_.noop_merge_period) {
      MaybeStartMerge(exec_->Now(), /*noop=*/true);
    }
    ScheduleNoopTimer();
  });
}

}  // namespace wedge
