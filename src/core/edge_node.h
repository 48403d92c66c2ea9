// EdgeNode: the (untrusted) edge node of WedgeChain (paper §III–§V).
//
// Request path (foreground lane): batch add/put entries into blocks,
// append to the log, answer immediately with the signed block — Phase I
// commit, no cloud involvement. Serve reads/gets locally with proofs.
//
// Certification path (background lane): send the block *digest* to the
// cloud (data-free), receive the block-proof, forward it to contributing
// clients — Phase II commit. Trigger LSMerkle merges when level
// thresholds are exceeded.
//
// Misbehaviour injection (EdgeMisbehavior) turns this honest
// implementation into each of the §IV-E attackers for tests and examples.

#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "crypto/signature.h"
#include "log/block_builder.h"
#include "log/edge_log.h"
#include "lsmerkle/lsmerkle_tree.h"
#include "runtime/runtime.h"
#include "simnet/cost_model.h"
#include "storage/edge_storage.h"
#include "wire/message.h"
#include "wire/protocol.h"
#include "wire/session.h"

namespace wedge {

struct EdgeStats {
  uint64_t blocks_formed = 0;
  uint64_t entries_accepted = 0;
  uint64_t replays_rejected = 0;
  uint64_t reads_served = 0;
  uint64_t gets_served = 0;
  uint64_t scans_served = 0;
  uint64_t certifies_sent = 0;
  uint64_t proofs_received = 0;
  /// Phase I acks: one per (client, block), however many of the client's
  /// requests the block covers.
  uint64_t add_responses_sent = 0;
  /// Block-proofs forwarded to clients: one per (client, block).
  uint64_t proofs_forwarded = 0;
  /// L0 slots of get and scan replies sent as references (the client
  /// listed the block as held) and in full.
  uint64_t l0_refs_sent = 0;
  uint64_t l0_blocks_sent = 0;
  uint64_t merges_completed = 0;
  uint64_t noop_merges = 0;
  uint64_t reservation_misses = 0;
  uint64_t storage_writes = 0;
  uint64_t storage_errors = 0;
  uint64_t backup_fetches_sent = 0;
  uint64_t backup_blocks_restored = 0;
  uint64_t repaired_reads = 0;
  uint64_t certify_retries = 0;
  uint64_t state_drops = 0;
};

class EdgeNode : public Endpoint {
 public:
  EdgeNode(Executor* exec, Transport* net, const KeyStore* keystore,
           Signer signer, NodeId cloud, Dc location, EdgeConfig config,
           CostModel costs);

  /// Attaches to the network and starts maintenance timers.
  void Start();

  /// Attaches durable storage (non-owning; must outlive the node). Every
  /// formed block is persisted before its add-response is sent, so a
  /// Phase I promise survives an edge crash; certificates and merges are
  /// logged as they arrive. Call before Start().
  void AttachStorage(EdgeStorage* storage) { storage_ = storage; }

  /// Adopts recovered state after a restart: the durable log, the
  /// LSMerkle tree, replay-protection watermarks, and the consumed-block
  /// counter. The block builder continues from the recovered log end.
  /// Call before Start(). In-flight per-client bookkeeping (proof
  /// forwarding, read waiters) is intentionally not restored — affected
  /// clients recover via their dispute path, fetching certificates from
  /// the cloud after the proof timeout.
  void RestoreState(EdgeStorage::RecoveredState state);

  /// Asks the cloud for backed-up blocks past the local log end, to
  /// repair a tail lost in a crash. Call after Start() when recovery
  /// reported damage (dropped bytes / blocks beyond a gap), and let it
  /// complete BEFORE serving new writes: a new block formed first would
  /// reuse a lost (but cloud-certified) block id with different content
  /// — indistinguishable from equivocation, and punished as such.
  /// Repaired kv blocks past the consumed prefix are re-applied to L0.
  void RequestBackupSync();

  /// Simulates the memory loss of a fail-stop crash: wipes the log, the
  /// LSMerkle tree, buffered entries, per-client bookkeeping and replay
  /// watermarks, leaving the node object constructed and attached. Any
  /// armed timers from before the drop are neutralized (generation
  /// guard). Recovery afterwards is either RestoreState (durable
  /// storage) or RequestBackupSync (full replay of the cloud's backup
  /// log — rebuilds L0 only, so an edge with completed merges must
  /// restore its levels from durable storage first). Must run on the
  /// node's executor.
  void DropVolatileState();

  /// Saves a copy of the current tree+log; with
  /// misbehavior().rollback_snapshot set, gets and scans are then served
  /// from this old-but-internally-valid view (the snapshot-rollback
  /// attacker that session consistency catches). Test/example hook.
  void CaptureRollbackSnapshot();

  NodeId id() const { return signer_.id(); }
  Dc location() const { return location_; }

  void OnMessage(NodeId from, Slice payload, SimTime now) override;

  const EdgeStats& stats() const { return stats_; }
  const EdgeLog& log() const { return log_; }
  const LsmerkleTree& lsm() const { return lsm_; }
  EdgeMisbehavior& misbehavior() { return misbehavior_; }

 private:
  struct Contribution {
    NodeId client;
    SeqNum req_id;
  };

  void HandleWrite(NodeId from, const AddRequest& req, bool is_kv,
                   SimTime now);
  void FormBlock(bool is_kv, SimTime now);
  void FinishBlock(Block block, bool is_kv, SimTime now);
  void HandleRead(NodeId from, const ReadRequest& req, SimTime now);
  void HandleGet(NodeId from, const GetRequest& req, SimTime now);
  void HandleScan(NodeId from, const ScanRequest& req, SimTime now);
  void HandleReserve(NodeId from, const ReserveRequest& req, SimTime now);
  void HandleBlockProof(const BlockProof& proof, SimTime now);
  void HandleMergeResponse(const MergeResponse& resp, SimTime now);
  void HandleBackupBlocks(const BackupBlocks& resp, SimTime now);
  void MaybeStartMerge(SimTime now, bool noop);
  void ScheduleFlushTimer();
  void ScheduleNoopTimer();
  void ScheduleCertifyRetry();
  void ResendPendingCertifies();

  GetResponseBody AssembleGetResponse(Key key,
                                      std::span<const BlockRef> held) const;
  void CountL0Slots(const std::vector<std::optional<BlockRef>>& refs);

  void SendSealed(NodeId to, MsgType type, Bytes body);

  Executor* exec_;
  Transport* net_;
  const KeyStore* keystore_;
  Signer signer_;
  // Session channels (wire/session.h). Initialized from signer_/keystore_;
  // counters are durable identity state, not volatile protocol state.
  SessionSealer sealer_;
  SessionOpener opener_;
  NodeId cloud_;
  Dc location_;
  EdgeConfig config_;
  CostModel costs_;
  EdgeMisbehavior misbehavior_;

  std::unique_ptr<Lane> fg_;  // request path
  std::unique_ptr<Lane> bg_;  // certification pipeline + merge prep

  BlockBuilder builder_;
  EdgeLog log_;
  LsmerkleTree lsm_;

  /// Contributors of the block currently being buffered.
  std::vector<Contribution> buffer_contribs_;
  /// Clients awaiting each block's proof: its Phase I writers and
  /// readers. A set, so each client is forwarded each proof once.
  std::unordered_map<BlockId, std::set<NodeId>> proof_waiters_;
  /// Reads parked on a backup fetch of a missing block: bid -> readers.
  std::unordered_map<BlockId, std::vector<std::pair<NodeId, SeqNum>>>
      repair_waiters_;
  /// Frozen (tree, log) copy for the rollback-snapshot attacker.
  std::optional<std::pair<LsmerkleTree, EdgeLog>> rollback_state_;
  /// Replay protection: highest sequence number seen per client.
  std::unordered_map<NodeId, SeqNum> last_seq_;
  /// Whether the buffered entries are puts (kv) or raw adds. Mixed
  /// buffers are flushed on transition.
  bool buffer_is_kv_ = false;

  uint64_t flush_generation_ = 0;
  SimTime last_merge_time_ = 0;

  /// Blocks certified but not yet proven: digest+kind per block id, so a
  /// retry can reconstruct the exact BlockCertify it first sent (the
  /// cloud punishes a changed digest as equivocation).
  struct PendingCertify {
    Digest256 digest;
    bool is_kv = false;
  };
  std::map<BlockId, PendingCertify> pending_certify_;
  SimTime retry_backoff_ = 0;
  uint32_t retry_attempts_ = 0;
  bool retry_timer_armed_ = false;
  /// Bumped by DropVolatileState so timers armed pre-crash no-op.
  uint64_t restart_generation_ = 0;

  /// Optional durability (null = in-memory only, the paper's setting).
  EdgeStorage* storage_ = nullptr;
  /// Cumulative blocks consumed from L0 by merges (manifest counter).
  /// Counts every block — raw appends occupy L0 slots too, as pair-less
  /// units, so the proof-visible block id stream stays contiguous.
  uint64_t l0_blocks_consumed_ = 0;
  /// Total blocks ever appended to the log; a block's ordinal decides
  /// whether it belongs in L0 (ordinal > consumed) when restored from
  /// backup.
  uint64_t l0_blocks_seen_ = 0;

  EdgeStats stats_;
};

}  // namespace wedge
