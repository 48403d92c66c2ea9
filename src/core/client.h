// WedgeClient: the authenticated client of WedgeChain (paper §III, §IV-D).
//
// The client signs every entry it proposes, tracks Phase I / Phase II
// commits per request, keeps the edge's signed responses as dispute
// evidence, verifies block-proofs and get-proofs, and escalates to the
// cloud when the edge lies or goes silent past the proof timeout.

#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "crypto/signature.h"
#include "lsmerkle/kv.h"
#include "lsmerkle/read_proof.h"
#include "lsmerkle/verifier_cache.h"
#include "runtime/runtime.h"
#include "simnet/cost_model.h"
#include "wire/message.h"
#include "wire/protocol.h"
#include "wire/session.h"

namespace wedge {

struct ClientStats {
  uint64_t phase1_commits = 0;
  uint64_t phase2_commits = 0;
  uint64_t reads_ok = 0;
  uint64_t gets_ok = 0;
  uint64_t scans_ok = 0;
  uint64_t proof_mismatches = 0;
  uint64_t disputes_sent = 0;
  uint64_t disputes_upheld = 0;
  uint64_t verification_failures = 0;
  uint64_t stale_rejected = 0;
  /// Responses anchored to an older certified epoch than one already
  /// observed (monotonic_snapshots session check, §V-D alternative).
  uint64_t snapshot_regressions = 0;
  /// L0 slots of get and scan replies the edge sent as references and
  /// this client filled in from its verifier cache.
  uint64_t l0_refs_resolved = 0;

  /// Accumulates another client's counters — the aggregation a sharded
  /// deployment needs, where one logical client is backed by a physical
  /// client per shard.
  ClientStats& operator+=(const ClientStats& other);
};

class WedgeClient : public Endpoint {
 public:
  /// Called at Phase I commit: (status, block id, phase1 time).
  using Phase1Cb = std::function<void(const Status&, BlockId, SimTime)>;
  /// Called at Phase II commit (or on a detected lie / unresolved
  /// timeout): (status, block id, phase2 time).
  using Phase2Cb = std::function<void(const Status&, BlockId, SimTime)>;
  using ReadCb =
      std::function<void(const Status&, const Block&, bool phase2, SimTime)>;
  using GetCb = std::function<void(const Status&, const VerifiedGet&, SimTime)>;
  using ScanCb =
      std::function<void(const Status&, const VerifiedScan&, SimTime)>;

  WedgeClient(Executor* exec, Transport* net, const KeyStore* keystore,
              Signer signer, NodeId edge, NodeId cloud, Dc location,
              ClientConfig config, CostModel costs);

  void Start() { net_->Attach(id(), location_, this); }

  NodeId id() const { return signer_.id(); }

  /// Runs `fn` on this client's executor — the entry hop the synchronous
  /// facade uses so every operation starts on the client's serialized
  /// executor (inline under the simulator, posted under threads).
  void Invoke(std::function<void()> fn) { exec_->Post(std::move(fn)); }

  /// The edge node this client is pinned to — in a sharded deployment,
  /// the edge hosting this physical client's shard.
  NodeId edge() const { return edge_; }

  /// Appends a batch of raw log entries. Phase I on add-response, Phase II
  /// on block-proof.
  void AddBatch(std::vector<Bytes> payloads, Phase1Cb on_phase1 = nullptr,
                Phase2Cb on_phase2 = nullptr);

  /// Applies a batch of key-value puts through the LSMerkle path.
  void PutBatch(const std::vector<std::pair<Key, Bytes>>& kvs,
                Phase1Cb on_phase1 = nullptr, Phase2Cb on_phase2 = nullptr);

  /// Reserved add (§IV-E): first reserves a log position at the edge, then
  /// signs the entry for exactly that position and submits it. An entry
  /// replayed anywhere else is rejected by every verifier. Best-effort:
  /// if the slot was taken meanwhile, the add retries with a fresh
  /// reservation (up to 3 attempts).
  void AddReserved(Bytes payload, Phase1Cb on_phase1 = nullptr,
                   Phase2Cb on_phase2 = nullptr);

  /// Reads log block `bid`.
  void ReadBlock(BlockId bid, ReadCb cb);

  /// Gets `key` with proof verification.
  void Get(Key key, GetCb cb);

  /// Failure-aware fallback: gets `key` from the cloud's backup of this
  /// client's edge instead of the edge itself (used when the edge is
  /// crashed or partitioned away). The response carries the newest
  /// backed-up block containing the key plus a cloud certificate; the
  /// value is verified against the certified digest before delivery, so
  /// a hit is as trustworthy as an edge-served Phase II read. A miss is
  /// NOT a proof of absence — the backup may lag the edge. Requires the
  /// cloud to run with backup_blocks (and full bodies to reach it:
  /// edge ship_full_blocks or merge traffic).
  void GetFromCloud(Key key, GetCb cb);

  /// Scans [lo, hi] with completeness-proof verification: the verified
  /// result is rebuilt from evidence, so a truncated or tampered scan
  /// surfaces as a SecurityViolation, never as silently missing keys.
  void Scan(Key lo, Key hi, ScanCb cb);

  const ClientStats& stats() const { return stats_; }

  /// The verified-material cache (ClientConfig::verify_cache). Exposed
  /// for stats and tests.
  const VerifierCache& verifier_cache() const { return verifier_cache_; }

  /// Re-sizes the verifier cache; the sharded routing layer keeps cache
  /// budgets proportional to the key-span this client's shard owns.
  void ResizeVerifierCache(const VerifierCache::Limits& limits) {
    verifier_cache_.Resize(limits);
  }

  /// Drops cached proof material covering [lo, hi] — called when a
  /// resharding epoch migrates the range away from this client's edge.
  void InvalidateVerifierRange(Key lo, Key hi) {
    verifier_cache_.InvalidateRange(lo, hi);
  }

  /// The largest log size learned from cloud gossip (omission detection).
  uint64_t gossiped_log_size() const { return gossiped_log_size_; }

  void OnMessage(NodeId from, Slice payload, SimTime now) override;

 private:
  struct PendingWrite {
    SimTime sent_at = 0;
    /// Entries not yet seen in any responded block. A large request can
    /// span several blocks; Phase I completes when this empties.
    std::vector<std::pair<NodeId, SeqNum>> remaining_entries;
    Phase1Cb on_phase1;
    Phase2Cb on_phase2;
    bool phase1_done = false;
    BlockId first_bid = 0;
    /// Per involved block: the digest the edge promised, plus the signed
    /// response kept as dispute evidence (shared by every write the one
    /// response covers). Phase II completes when every involved block's
    /// proof matched.
    std::map<BlockId, Digest256> block_digests;
    std::map<BlockId, std::shared_ptr<const Bytes>> evidence;
  };
  struct PendingRead {
    SimTime sent_at = 0;
    BlockId bid = 0;
    ReadCb cb;
    bool phase1_done = false;
    Digest256 block_digest;
    Block block;
    Bytes evidence;
  };
  /// Cache entries a get or scan listed as held, pinned until its reply
  /// is verified.
  using HeldEntries = std::vector<std::shared_ptr<VerifierCache::BlockEntry>>;

  struct PendingGet {
    SimTime sent_at = 0;
    Key key = 0;
    GetCb cb;
    HeldEntries held;
  };
  struct PendingCloudGet {
    SimTime sent_at = 0;
    Key key = 0;
    /// The edge whose backup we asked about; the returned certificate
    /// must name it.
    NodeId edge = kInvalidNodeId;
    GetCb cb;
  };
  struct PendingScan {
    SimTime sent_at = 0;
    Key lo = 0;
    Key hi = 0;
    ScanCb cb;
    HeldEntries held;
  };
  struct PendingReserve {
    Bytes payload;
    Phase1Cb on_phase1;
    Phase2Cb on_phase2;
    int attempts_left = 3;
  };

  void SendWrite(MsgType type, std::vector<Entry> entries, Phase1Cb cb1,
                 Phase2Cb cb2);
  void HandleAddResponse(NodeId from, const Envelope& env, SimTime now);
  /// Applies one (coalesced) add-response to the pending write `req_id`.
  void ApplyAddResponse(SeqNum req_id, const AddResponse& resp,
                        const Digest256& digest,
                        const std::shared_ptr<const Bytes>& evidence,
                        SimTime now);
  void HandleBlockProof(const BlockProof& proof, SimTime now);
  void HandleReadResponse(NodeId from, const Envelope& env, SimTime now);
  void HandleGetResponse(const Envelope& env, SimTime now);
  void HandleCloudGetResponse(const Envelope& env, SimTime now);
  void HandleScanResponse(const Envelope& env, SimTime now);
  /// Pins the cached blocks of edge_ not yet known merged, newest first
  /// and capped at kMaxHeldBlocks, and returns their held-list entries.
  std::vector<BlockRef> PinHeldBlocks(HeldEntries* pinned);
  /// The resolve step shared by get and scan replies: fills the
  /// reference slots from the request's pinned entries.
  Status ResolveHeldRefs(const HeldEntries& held,
                         const std::vector<std::optional<BlockRef>>& refs,
                         std::vector<std::shared_ptr<const Block>>* blocks);
  /// Advances the held floor past blocks a verified reply shows merged.
  void AdvanceHeldFloor(
      const std::vector<std::shared_ptr<const Block>>& l0_blocks);
  void ArmProofTimeout(SeqNum req_id, BlockId bid);
  void RaiseDispute(DisputeKind kind, BlockId bid, Bytes evidence,
                    std::vector<Block> blocks = {});

  void SendSealed(NodeId to, MsgType type, Bytes body);

  Executor* exec_;
  Transport* net_;
  const KeyStore* keystore_;
  Signer signer_;
  // Session channels (wire/session.h). Initialized from signer_/keystore_;
  // counters are durable identity state, not volatile protocol state.
  SessionSealer sealer_;
  SessionOpener opener_;
  NodeId edge_;
  NodeId cloud_;
  Dc location_;
  ClientConfig config_;
  CostModel costs_;

  SeqNum next_req_id_ = 1;
  SeqNum next_entry_seq_ = 1;

  std::unordered_map<SeqNum, PendingWrite> pending_writes_;   // by req_id
  /// Writes awaiting a block's certification proof, by block id. A
  /// vector, not a single req: concurrent writes from this client
  /// (async surface) routinely share a block, and every one of them
  /// Phase-II-commits on that block's proof.
  std::unordered_map<BlockId, std::vector<SeqNum>> write_by_bid_;
  std::unordered_map<SeqNum, PendingRead> pending_reads_;     // by req_id
  /// Phase I reads awaiting a block's proof, by block id. A vector for
  /// the same reason: concurrent reads of one uncertified block each get
  /// their Phase II verdict from its one proof.
  std::unordered_map<BlockId, std::vector<SeqNum>> read_by_bid_;
  std::unordered_map<SeqNum, PendingGet> pending_gets_;
  std::unordered_map<SeqNum, PendingCloudGet> pending_cloud_gets_;
  std::unordered_map<SeqNum, PendingScan> pending_scans_;
  std::unordered_map<SeqNum, PendingReserve> pending_reserves_;

  /// Highest certified LSMerkle epoch observed in any verified get/scan
  /// (session state for the monotonic_snapshots check).
  Epoch last_snapshot_epoch_ = 0;

  /// Held-list floor: cached blocks below it are known merged out of L0
  /// and are not listed. It is the first L0 bid of the newest verified
  /// reply, or, after a reply with an empty L0, one past every L0 bid
  /// seen so far (`l0_end_`). Monotonic.
  BlockId held_floor_ = 0;
  BlockId l0_end_ = 0;

  /// Applies the session-consistency check to a verified response
  /// anchored at `epoch`; OK (and advances the watermark) unless the
  /// snapshot regressed.
  Status CheckSnapshotMonotonic(Epoch epoch);

  uint64_t gossiped_log_size_ = 0;
  ClientStats stats_;
  VerifierCache verifier_cache_;
};

}  // namespace wedge
