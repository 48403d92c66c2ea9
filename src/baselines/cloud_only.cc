#include "baselines/cloud_only.h"

#include <algorithm>

#include "common/logging.h"

namespace wedge {

CloudOnlyServer::CloudOnlyServer(Executor* exec, Transport* net,
                                 const KeyStore* keystore, Signer signer,
                                 Dc location, CostModel costs)
    : exec_(exec),
      net_(net),
      keystore_(keystore),
      signer_(std::move(signer)),
      sealer_(signer_),
      opener_(keystore, signer_.id()),
      location_(location),
      costs_(costs),
      fg_(exec->MakeLane()) {}

void CloudOnlyServer::OnMessage(NodeId from, Slice payload, SimTime now) {
  auto env = opener_.Open(payload);
  if (!env.ok()) return;
  switch (env->type) {
    case MsgType::kCloudWriteRequest: {
      auto req = CloudWriteRequest::Decode(env->body);
      if (!req.ok()) return;
      const SimTime serial = costs_.CloudBatchSerial(req->entries.size());
      fg_->ExecuteAfter(serial, costs_.cloud_batch_parallel,
                        [this, from, r = std::move(*req)] {
                          HandleWrite(from, r, exec_->Now());
                        });
      break;
    }
    case MsgType::kCloudReadRequest: {
      auto req = CloudReadRequest::Decode(env->body);
      if (!req.ok()) return;
      fg_->Execute(costs_.cloud_read_serial, [this, from, r = *req] {
        HandleRead(from, r, exec_->Now());
      });
      break;
    }
    case MsgType::kScanRequest: {
      auto req = ScanRequest::Decode(env->body);
      if (!req.ok()) return;
      fg_->Execute(costs_.cloud_read_serial, [this, from, r = *req] {
        HandleScan(from, r, exec_->Now());
      });
      break;
    }
    case MsgType::kReadRequest: {
      auto req = ReadRequest::Decode(env->body);
      if (!req.ok()) return;
      fg_->Execute(costs_.cloud_read_serial, [this, from, r = *req] {
        HandleReadBlock(from, r, exec_->Now());
      });
      break;
    }
    default:
      break;
  }
  (void)now;
}

void CloudOnlyServer::HandleWrite(NodeId from, const CloudWriteRequest& req,
                                  SimTime now) {
  Block block;
  block.id = next_bid_++;
  block.created_at = now;
  for (const Entry& e : req.entries) {
    if (!e.Validate(*keystore_).ok()) continue;
    // Content-defined kv-ness, the same rule as the edge systems: an
    // entry is a put iff its payload decodes as one, regardless of the
    // request's (advisory) is_kv flag — so the identical call sequence
    // yields identical results on every backend.
    auto op = DecodePutPayload(e.payload);
    if (op.ok()) kv_[op->key] = op->value;
    block.entries.push_back(e);
  }
  (void)log_.Append(block);
  blocks_committed_++;
  CloudWriteResponse resp{req.req_id, block.id};
  net_->Send(id(), from, sealer_.Seal(from, MsgType::kCloudWriteResponse, resp.Encode()));
}

void CloudOnlyServer::HandleRead(NodeId from, const CloudReadRequest& req,
                                 SimTime now) {
  reads_served_++;
  CloudReadResponse resp;
  resp.req_id = req.req_id;
  auto it = kv_.find(req.key);
  if (it != kv_.end()) {
    resp.found = true;
    resp.value = it->second;
  }
  net_->Send(id(), from, sealer_.Seal(from, MsgType::kCloudReadResponse, resp.Encode()));
  (void)now;
}

void CloudOnlyServer::HandleReadBlock(NodeId from, const ReadRequest& req,
                                      SimTime now) {
  block_reads_served_++;
  ReadResponse resp;
  resp.req_id = req.req_id;
  resp.bid = req.bid;
  auto block = log_.GetBlock(req.bid);
  if (block.ok()) {
    resp.available = true;
    resp.block = std::move(*block);
    // Trusted server: no certificate needed (and none exists).
  }
  net_->Send(id(), from, sealer_.Seal(from, MsgType::kReadResponse, resp.Encode()));
  (void)now;
}

void CloudOnlyServer::HandleScan(NodeId from, const ScanRequest& req,
                                 SimTime now) {
  scans_served_++;
  CloudScanResponse resp;
  resp.req_id = req.req_id;
  for (const auto& [key, value] : kv_) {
    if (key >= req.lo && key <= req.hi) resp.pairs.push_back({key, value, 0});
  }
  std::sort(resp.pairs.begin(), resp.pairs.end(),
            [](const KvPair& a, const KvPair& b) { return a.key < b.key; });
  net_->Send(id(), from, sealer_.Seal(from, MsgType::kCloudScanResponse, resp.Encode()));
  (void)now;
}

CloudOnlyClient::CloudOnlyClient(Executor* exec, Transport* net,
                                 const KeyStore* keystore, Signer signer,
                                 NodeId server, Dc location, CostModel costs)
    : exec_(exec),
      net_(net),
      keystore_(keystore),
      signer_(std::move(signer)),
      sealer_(signer_),
      opener_(keystore, signer_.id()),
      server_(server),
      location_(location),
      costs_(costs) {}

void CloudOnlyClient::SendWrite(bool is_kv, std::vector<Entry> entries,
                                WriteCb cb) {
  CloudWriteRequest req;
  req.req_id = next_req_++;
  req.is_kv = is_kv;
  req.entries = std::move(entries);
  pending_writes_[req.req_id] = std::move(cb);
  Bytes body = req.Encode();
  exec_->Charge(costs_.client_sign, [this, b = std::move(body)]() mutable {
    net_->Send(id(), server_, sealer_.Seal(server_, MsgType::kCloudWriteRequest, b));
  });
}

void CloudOnlyClient::WriteBatch(const std::vector<std::pair<Key, Bytes>>& kvs,
                                 WriteCb cb) {
  std::vector<Entry> entries;
  entries.reserve(kvs.size());
  for (const auto& [k, v] : kvs) {
    entries.push_back(
        Entry::Make(signer_, next_entry_seq_++, EncodePutPayload(k, v)));
  }
  SendWrite(/*is_kv=*/true, std::move(entries), std::move(cb));
}

void CloudOnlyClient::AppendBatch(std::vector<Bytes> payloads, WriteCb cb) {
  std::vector<Entry> entries;
  entries.reserve(payloads.size());
  for (auto& p : payloads) {
    entries.push_back(Entry::Make(signer_, next_entry_seq_++, std::move(p)));
  }
  SendWrite(/*is_kv=*/false, std::move(entries), std::move(cb));
}

void CloudOnlyClient::ReadBlock(BlockId bid, ReadBlockCb cb) {
  ReadRequest req;
  req.req_id = next_req_++;
  req.bid = bid;
  pending_block_reads_[req.req_id] = std::move(cb);
  net_->Send(id(), server_, sealer_.Seal(server_, MsgType::kReadRequest, req.Encode()));
}

void CloudOnlyClient::Read(Key key, ReadCb cb) {
  CloudReadRequest req{next_req_++, key};
  pending_reads_[req.req_id] = std::move(cb);
  net_->Send(id(), server_, sealer_.Seal(server_, MsgType::kCloudReadRequest, req.Encode()));
}

void CloudOnlyClient::Scan(Key lo, Key hi, ScanCb cb) {
  ScanRequest req{next_req_++, lo, hi, {}};
  pending_scans_[req.req_id] = std::move(cb);
  net_->Send(id(), server_, sealer_.Seal(server_, MsgType::kScanRequest, req.Encode()));
}

void CloudOnlyClient::OnMessage(NodeId from, Slice payload, SimTime now) {
  if (from != server_) return;
  auto env = opener_.Open(payload);
  if (!env.ok()) return;
  switch (env->type) {
    case MsgType::kCloudWriteResponse: {
      auto resp = CloudWriteResponse::Decode(env->body);
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
      ReadBlockCb cb = std::move(it->second);
      pending_block_reads_.erase(it);
      // Trusted result, like key reads: no verification.
      if (!resp->available) {
        if (cb) cb(Status::NotFound("block not available"), Block{}, now);
      } else if (cb) {
        cb(Status::OK(), resp->block, now);
      }
      break;
    }
    case MsgType::kCloudReadResponse: {
      auto resp = CloudReadResponse::Decode(env->body);
      if (!resp.ok()) return;
      auto it = pending_reads_.find(resp->req_id);
      if (it == pending_reads_.end()) return;
      ReadCb cb = std::move(it->second);
      pending_reads_.erase(it);
      // Trusted result: no verification cost (Fig. 5d).
      if (cb) cb(Status::OK(), resp->found, resp->value, now);
      break;
    }
    case MsgType::kCloudScanResponse: {
      auto resp = CloudScanResponse::Decode(env->body);
      if (!resp.ok()) return;
      auto it = pending_scans_.find(resp->req_id);
      if (it == pending_scans_.end()) return;
      ScanCb cb = std::move(it->second);
      pending_scans_.erase(it);
      // Trusted result, like reads: no verification.
      if (cb) cb(Status::OK(), resp->pairs, now);
      break;
    }
    default:
      break;
  }
}

}  // namespace wedge
