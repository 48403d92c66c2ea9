// CloudNode: the trusted cloud of WedgeChain (paper §III, §IV).
//
// Responsibilities:
//  - certify block digests (at most one digest per (edge, bid): the
//    agreement guarantee), flagging equivocators;
//  - run LSMerkle merges on behalf of edges and sign the resulting roots;
//  - adjudicate disputes from clients and punish lying edges;
//  - gossip signed per-edge log sizes to clients (omission mitigation).
//
// The cloud never stores block *contents* for WedgeChain edges — only
// digests (data-free certification). Merge requests do carry data, which
// the cloud verifies against previously certified digests/roots before
// trusting it.

#pragma once

#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "core/trust_authority.h"
#include "crypto/signature.h"
#include "runtime/runtime.h"
#include "simnet/cost_model.h"
#include "storage/cloud_storage.h"
#include "wire/message.h"
#include "wire/protocol.h"
#include "wire/session.h"

namespace wedge {

struct CloudStats {
  uint64_t certified_blocks = 0;
  uint64_t duplicate_certifies = 0;
  uint64_t equivocations_detected = 0;
  uint64_t merges_performed = 0;
  uint64_t disputes_received = 0;
  uint64_t disputes_upheld = 0;
  uint64_t gossip_sent = 0;
  uint64_t backup_blocks_stored = 0;
  uint64_t backup_fetches_served = 0;
  uint64_t failover_gets_served = 0;
  uint64_t storage_errors = 0;
};

class CloudNode : public Endpoint {
 public:
  CloudNode(Executor* exec, Transport* net, const KeyStore* keystore,
            TrustAuthority* authority, Signer signer, Dc location,
            CloudConfig config, CostModel costs);

  /// Attaches to the network and starts the gossip timer.
  void Start();

  /// Attaches durable storage (non-owning; must outlive the node). The
  /// certification registry, merge-state mirror, flag set, and backup
  /// blocks are persisted as they change. Call before Start().
  void AttachStorage(CloudStorage* storage) { storage_ = storage; }

  /// Adopts a recovered registry after a restart. Call before Start().
  void RestoreState(CloudStorage::RecoveredState state);

  NodeId id() const { return signer_.id(); }

  /// Registers a client to receive gossip about `edge`.
  void SubscribeGossip(NodeId client, NodeId edge);

  void OnMessage(NodeId from, Slice payload, SimTime now) override;

  const CloudStats& stats() const { return stats_; }

  /// The digest this cloud certified for (edge, bid), if any.
  std::optional<Digest256> CertifiedDigest(NodeId edge, BlockId bid) const;

  bool IsFlagged(NodeId edge) const { return flagged_.count(edge) != 0; }

 private:
  struct EdgeRecord {
    std::map<BlockId, Digest256> certified;
    /// Number of leading certified bids (0..contiguous-1 all certified);
    /// this is the "log size" gossip advertises.
    uint64_t contiguous = 0;
    /// LSMerkle state mirror: per-level Merkle roots + epoch, updated on
    /// every merge this cloud signs.
    std::vector<Digest256> level_roots;
    Epoch epoch = 0;
    /// Full backup blocks (§II-A), kept only when config.backup_blocks:
    /// populated from merge requests and full-block certifies — the only
    /// times data-free certification lets the cloud see block bodies.
    std::map<BlockId, std::pair<Block, bool>> backup;
  };

  EdgeRecord& RecordFor(NodeId edge);
  void AdvanceContiguous(EdgeRecord* rec);

  /// Stores `block` in the edge's backup (and persists it) if backups
  /// are enabled and the block is new.
  void MaybeBackup(NodeId edge, EdgeRecord* rec, const Block& block,
                   bool is_kv);

  void HandleBlockCertify(NodeId edge, const BlockCertify& msg, SimTime now);
  void HandleMergeRequest(NodeId edge, const MergeRequest& msg, SimTime now);
  void HandleDispute(NodeId client, const Dispute& msg, SimTime now);
  void HandleBackupFetch(NodeId edge, const BackupFetch& msg, SimTime now);
  void HandleCloudGet(NodeId client, const CloudGetRequest& msg, SimTime now);
  void GossipTick();

  void FlagMalicious(NodeId edge, const std::string& reason, SimTime now);

  void SendSealed(NodeId to, MsgType type, Bytes body);

  Executor* exec_;
  Transport* net_;
  const KeyStore* keystore_;
  TrustAuthority* authority_;
  Signer signer_;
  // Session channels (wire/session.h). Initialized from signer_/keystore_;
  // counters are durable identity state, not volatile protocol state.
  SessionSealer sealer_;
  SessionOpener opener_;
  Dc location_;
  CloudConfig config_;
  CostModel costs_;

  std::unique_ptr<Lane> cert_lane_;   // digest certification (data-free)
  std::unique_ptr<Lane> merge_lane_;  // merges & dispute adjudication

  std::unordered_map<NodeId, EdgeRecord> edges_;
  std::set<NodeId> flagged_;
  std::multimap<NodeId, NodeId> gossip_subs_;  // edge -> clients
  /// Optional durability (null = in-memory only, the paper's setting).
  CloudStorage* storage_ = nullptr;
  CloudStats stats_;
};

}  // namespace wedge
