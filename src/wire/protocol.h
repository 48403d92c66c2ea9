// Bodies of all protocol messages. Each struct provides EncodeTo /
// DecodeFrom plus Encode()/Decode() helpers; the envelope (message.h)
// handles signing.

#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "common/codec.h"
#include "common/types.h"
#include "log/block.h"
#include "log/certificate.h"
#include "log/entry.h"
#include "lsmerkle/page.h"
#include "lsmerkle/read_proof.h"
#include "lsmerkle/scan_proof.h"
#include "lsmerkle/root_certificate.h"

namespace wedge {

namespace wire_internal {
template <typename T>
Bytes EncodeMsg(const T& msg) {
  Encoder enc;
  msg.EncodeTo(&enc);
  return enc.TakeBuffer();
}
template <typename T>
Result<T> DecodeMsg(Slice wire) {
  Decoder dec(wire);
  auto msg = T::DecodeFrom(&dec);
  if (!msg.ok()) return msg.status();
  WEDGE_RETURN_NOT_OK(dec.ExpectDone());
  return msg;
}
}  // namespace wire_internal

#define WEDGE_MSG_HELPERS(T)                                   \
  Bytes Encode() const { return wire_internal::EncodeMsg(*this); } \
  static Result<T> Decode(Slice wire) {                        \
    return wire_internal::DecodeMsg<T>(wire);                  \
  }

// ---------------------------------------------------------------- logging

/// Client -> edge: a batch of signed entries to append (add or put; the
/// MsgType distinguishes them). `req_id` correlates the response.
struct AddRequest {
  SeqNum req_id = 0;
  std::vector<Entry> entries;

  void EncodeTo(Encoder* enc) const {
    enc->PutU64(req_id);
    enc->PutU32(static_cast<uint32_t>(entries.size()));
    for (const auto& e : entries) e.EncodeTo(enc);
  }
  static Result<AddRequest> DecodeFrom(Decoder* dec) {
    AddRequest m;
    WEDGE_ASSIGN_OR_RETURN(m.req_id, dec->GetU64());
    uint32_t n = 0;
    WEDGE_ASSIGN_OR_RETURN(n, dec->GetU32());
    for (uint32_t i = 0; i < n; ++i) {
      auto e = Entry::DecodeFrom(dec);
      if (!e.ok()) return e.status();
      m.entries.push_back(std::move(*e));
    }
    return m;
  }
  WEDGE_MSG_HELPERS(AddRequest)
};

/// Edge -> client: the block that contains the client's entries. This
/// signed response is the client's Phase I evidence (temporary proof).
/// One response covers every request of the client with entries in the
/// block: `req_id` plus `other_req_ids`. The ids only route the ack to
/// the client's pending writes; the evidence is the block itself.
struct AddResponse {
  SeqNum req_id = 0;
  BlockId bid = 0;
  Block block;
  std::vector<SeqNum> other_req_ids;

  void EncodeTo(Encoder* enc) const {
    enc->PutU64(req_id);
    enc->PutU64(bid);
    block.EncodeTo(enc);
    enc->PutU32(static_cast<uint32_t>(other_req_ids.size()));
    for (SeqNum id : other_req_ids) enc->PutU64(id);
  }
  static Result<AddResponse> DecodeFrom(Decoder* dec) {
    AddResponse m;
    WEDGE_ASSIGN_OR_RETURN(m.req_id, dec->GetU64());
    WEDGE_ASSIGN_OR_RETURN(m.bid, dec->GetU64());
    WEDGE_ASSIGN_OR_RETURN(m.block, Block::DecodeFrom(dec));
    uint32_t n = 0;
    WEDGE_ASSIGN_OR_RETURN(n, dec->GetU32());
    m.other_req_ids.reserve(std::min<size_t>(n, dec->remaining() / 8));
    for (uint32_t i = 0; i < n; ++i) {
      SeqNum id = 0;
      WEDGE_ASSIGN_OR_RETURN(id, dec->GetU64());
      m.other_req_ids.push_back(id);
    }
    return m;
  }
  WEDGE_MSG_HELPERS(AddResponse)
};

/// Client -> edge: read block `bid`.
struct ReadRequest {
  SeqNum req_id = 0;
  BlockId bid = 0;

  void EncodeTo(Encoder* enc) const {
    enc->PutU64(req_id);
    enc->PutU64(bid);
  }
  static Result<ReadRequest> DecodeFrom(Decoder* dec) {
    ReadRequest m;
    WEDGE_ASSIGN_OR_RETURN(m.req_id, dec->GetU64());
    WEDGE_ASSIGN_OR_RETURN(m.bid, dec->GetU64());
    return m;
  }
  WEDGE_MSG_HELPERS(ReadRequest)
};

/// Edge -> client: the block, with the cloud's proof when available
/// (Phase II read) or without it (Phase I read). `available == false` is
/// the signed "block not available" answer — evidence in omission
/// disputes.
struct ReadResponse {
  SeqNum req_id = 0;
  BlockId bid = 0;
  bool available = false;
  Block block;                            // valid iff available
  std::optional<BlockCertificate> proof;  // Phase II iff present

  void EncodeTo(Encoder* enc) const {
    enc->PutU64(req_id);
    enc->PutU64(bid);
    enc->PutBool(available);
    if (available) block.EncodeTo(enc);
    enc->PutBool(proof.has_value());
    if (proof.has_value()) proof->EncodeTo(enc);
  }
  static Result<ReadResponse> DecodeFrom(Decoder* dec) {
    ReadResponse m;
    WEDGE_ASSIGN_OR_RETURN(m.req_id, dec->GetU64());
    WEDGE_ASSIGN_OR_RETURN(m.bid, dec->GetU64());
    WEDGE_ASSIGN_OR_RETURN(m.available, dec->GetBool());
    if (m.available) {
      WEDGE_ASSIGN_OR_RETURN(m.block, Block::DecodeFrom(dec));
    }
    bool has_proof = false;
    WEDGE_ASSIGN_OR_RETURN(has_proof, dec->GetBool());
    if (has_proof) {
      auto c = BlockCertificate::DecodeFrom(dec);
      if (!c.ok()) return c.status();
      m.proof = std::move(*c);
    }
    return m;
  }
  WEDGE_MSG_HELPERS(ReadResponse)
};

/// Edge -> cloud: certify block `bid` with this digest. Data-free: the
/// block itself never travels. (`full_block` exists only for the
/// ablation benchmark that measures what data-free certification saves;
/// the cloud ignores the block beyond a digest cross-check.)
struct BlockCertify {
  BlockId bid = 0;
  Digest256 digest;
  /// Whether the block carries key-value puts (L0 material). The cloud
  /// records this so backups can rebuild L0 correctly after an edge
  /// restart.
  bool is_kv = false;
  std::optional<Block> full_block;

  void EncodeTo(Encoder* enc) const {
    enc->PutU64(bid);
    digest.EncodeTo(enc);
    enc->PutBool(is_kv);
    enc->PutBool(full_block.has_value());
    if (full_block.has_value()) full_block->EncodeTo(enc);
  }
  static Result<BlockCertify> DecodeFrom(Decoder* dec) {
    BlockCertify m;
    WEDGE_ASSIGN_OR_RETURN(m.bid, dec->GetU64());
    WEDGE_ASSIGN_OR_RETURN(m.digest, Digest256::DecodeFrom(dec));
    WEDGE_ASSIGN_OR_RETURN(m.is_kv, dec->GetBool());
    bool has_block = false;
    WEDGE_ASSIGN_OR_RETURN(has_block, dec->GetBool());
    if (has_block) {
      auto b = Block::DecodeFrom(dec);
      if (!b.ok()) return b.status();
      m.full_block = std::move(*b);
    }
    return m;
  }
  WEDGE_MSG_HELPERS(BlockCertify)
};

/// Cloud -> edge (forwarded to clients): the block-proof.
struct BlockProof {
  BlockCertificate cert;

  void EncodeTo(Encoder* enc) const { cert.EncodeTo(enc); }
  static Result<BlockProof> DecodeFrom(Decoder* dec) {
    BlockProof m;
    WEDGE_ASSIGN_OR_RETURN(m.cert, BlockCertificate::DecodeFrom(dec));
    return m;
  }
  WEDGE_MSG_HELPERS(BlockProof)
};

/// Cloud -> edge: certification refused (a different digest was already
/// certified for this bid). The edge is now flagged as malicious.
struct CertifyReject {
  BlockId bid = 0;
  Digest256 offered;
  Digest256 certified;

  void EncodeTo(Encoder* enc) const {
    enc->PutU64(bid);
    offered.EncodeTo(enc);
    certified.EncodeTo(enc);
  }
  static Result<CertifyReject> DecodeFrom(Decoder* dec) {
    CertifyReject m;
    WEDGE_ASSIGN_OR_RETURN(m.bid, dec->GetU64());
    WEDGE_ASSIGN_OR_RETURN(m.offered, Digest256::DecodeFrom(dec));
    WEDGE_ASSIGN_OR_RETURN(m.certified, Digest256::DecodeFrom(dec));
    return m;
  }
  WEDGE_MSG_HELPERS(CertifyReject)
};

// -------------------------------------------------------------- key-value

/// The most held-block entries a get or scan request lists; the edge
/// ignores any beyond this.
inline constexpr size_t kMaxHeldBlocks = 32;

namespace wire_internal {
/// The `held` trailer of get and scan requests: u32 count, then (bid,
/// digest) pairs.
inline void EncodeHeld(Encoder* enc, const std::vector<BlockRef>& held) {
  enc->PutU32(static_cast<uint32_t>(held.size()));
  for (const BlockRef& r : held) r.EncodeTo(enc);
}
inline Result<std::vector<BlockRef>> DecodeHeld(Decoder* dec) {
  uint32_t n = 0;
  WEDGE_ASSIGN_OR_RETURN(n, dec->GetU32());
  std::vector<BlockRef> held;
  held.reserve(std::min<size_t>(n, dec->remaining() / 40));
  for (uint32_t i = 0; i < n; ++i) {
    auto r = BlockRef::DecodeFrom(dec);
    if (!r.ok()) return r.status();
    held.push_back(*r);
  }
  return held;
}
}  // namespace wire_internal

/// Client -> edge: get `key` with proof. `held` names L0 blocks the
/// client already holds verified, newest first: a hint that lets the
/// edge send those slots as references instead of bytes.
struct GetRequest {
  SeqNum req_id = 0;
  Key key = 0;
  std::vector<BlockRef> held;

  void EncodeTo(Encoder* enc) const {
    enc->PutU64(req_id);
    enc->PutU64(key);
    wire_internal::EncodeHeld(enc, held);
  }
  static Result<GetRequest> DecodeFrom(Decoder* dec) {
    GetRequest m;
    WEDGE_ASSIGN_OR_RETURN(m.req_id, dec->GetU64());
    WEDGE_ASSIGN_OR_RETURN(m.key, dec->GetU64());
    WEDGE_ASSIGN_OR_RETURN(m.held, wire_internal::DecodeHeld(dec));
    return m;
  }
  WEDGE_MSG_HELPERS(GetRequest)
};

/// Edge -> client: the proof-carrying get response (lsmerkle/read_proof.h).
struct GetResponse {
  SeqNum req_id = 0;
  GetResponseBody body;

  void EncodeTo(Encoder* enc) const {
    enc->PutU64(req_id);
    body.EncodeTo(enc);
  }
  static Result<GetResponse> DecodeFrom(Decoder* dec) {
    GetResponse m;
    WEDGE_ASSIGN_OR_RETURN(m.req_id, dec->GetU64());
    WEDGE_ASSIGN_OR_RETURN(m.body, GetResponseBody::DecodeFrom(dec));
    return m;
  }
  WEDGE_MSG_HELPERS(GetResponse)
};

/// Edge -> cloud: merge level `from_level` into the next level. Ships the
/// inputs: the L0 blocks (from_level == 0) or the level's pages, plus the
/// target level's pages.
struct MergeRequest {
  uint32_t from_level = 0;
  /// Total Merkle levels (1..num_levels) in the edge's LSMerkle; the
  /// cloud mirrors this in its root bookkeeping.
  uint32_t num_levels = 0;
  Epoch cur_epoch = 0;
  std::vector<Block> l0_blocks;  // from_level == 0 only
  std::vector<Page> from_pages;  // from_level > 0 only
  std::vector<Page> to_pages;

  void EncodeTo(Encoder* enc) const {
    enc->PutU32(from_level);
    enc->PutU32(num_levels);
    enc->PutU64(cur_epoch);
    enc->PutU32(static_cast<uint32_t>(l0_blocks.size()));
    for (const auto& b : l0_blocks) b.EncodeTo(enc);
    enc->PutU32(static_cast<uint32_t>(from_pages.size()));
    for (const auto& p : from_pages) p.EncodeTo(enc);
    enc->PutU32(static_cast<uint32_t>(to_pages.size()));
    for (const auto& p : to_pages) p.EncodeTo(enc);
  }
  static Result<MergeRequest> DecodeFrom(Decoder* dec) {
    MergeRequest m;
    WEDGE_ASSIGN_OR_RETURN(m.from_level, dec->GetU32());
    WEDGE_ASSIGN_OR_RETURN(m.num_levels, dec->GetU32());
    WEDGE_ASSIGN_OR_RETURN(m.cur_epoch, dec->GetU64());
    uint32_t n = 0;
    WEDGE_ASSIGN_OR_RETURN(n, dec->GetU32());
    for (uint32_t i = 0; i < n; ++i) {
      auto b = Block::DecodeFrom(dec);
      if (!b.ok()) return b.status();
      m.l0_blocks.push_back(std::move(*b));
    }
    WEDGE_ASSIGN_OR_RETURN(n, dec->GetU32());
    for (uint32_t i = 0; i < n; ++i) {
      auto p = Page::DecodeFrom(dec);
      if (!p.ok()) return p.status();
      m.from_pages.push_back(std::move(*p));
    }
    WEDGE_ASSIGN_OR_RETURN(n, dec->GetU32());
    for (uint32_t i = 0; i < n; ++i) {
      auto p = Page::DecodeFrom(dec);
      if (!p.ok()) return p.status();
      m.to_pages.push_back(std::move(*p));
    }
    return m;
  }
  WEDGE_MSG_HELPERS(MergeRequest)

  size_t ByteSize() const {
    size_t sz = 4 + 8 + 12;
    for (const auto& b : l0_blocks) sz += b.ByteSize();
    for (const auto& p : from_pages) sz += p.ByteSize();
    for (const auto& p : to_pages) sz += p.ByteSize();
    return sz;
  }
};

/// Cloud -> edge: the merged pages plus the new signed root.
struct MergeResponse {
  uint32_t from_level = 0;
  uint32_t consumed_l0 = 0;
  std::vector<Page> merged;
  RootCertificate root_cert;

  void EncodeTo(Encoder* enc) const {
    enc->PutU32(from_level);
    enc->PutU32(consumed_l0);
    enc->PutU32(static_cast<uint32_t>(merged.size()));
    for (const auto& p : merged) p.EncodeTo(enc);
    root_cert.EncodeTo(enc);
  }
  static Result<MergeResponse> DecodeFrom(Decoder* dec) {
    MergeResponse m;
    WEDGE_ASSIGN_OR_RETURN(m.from_level, dec->GetU32());
    WEDGE_ASSIGN_OR_RETURN(m.consumed_l0, dec->GetU32());
    uint32_t n = 0;
    WEDGE_ASSIGN_OR_RETURN(n, dec->GetU32());
    for (uint32_t i = 0; i < n; ++i) {
      auto p = Page::DecodeFrom(dec);
      if (!p.ok()) return p.status();
      m.merged.push_back(std::move(*p));
    }
    WEDGE_ASSIGN_OR_RETURN(m.root_cert, RootCertificate::DecodeFrom(dec));
    return m;
  }
  WEDGE_MSG_HELPERS(MergeResponse)

  size_t ByteSize() const {
    size_t sz = 12 + 96;
    for (const auto& p : merged) sz += p.ByteSize();
    return sz;
  }
};

// ------------------------------------------------- maintenance & security

/// Cloud -> clients: signed (edge, log size, time). A client learning
/// log_size = N knows every bid < N exists — the omission-attack
/// mitigation (§IV-E).
struct Gossip {
  NodeId edge = kInvalidNodeId;
  uint64_t log_size = 0;
  SimTime cloud_time = 0;

  void EncodeTo(Encoder* enc) const {
    enc->PutU32(edge);
    enc->PutU64(log_size);
    enc->PutI64(cloud_time);
  }
  static Result<Gossip> DecodeFrom(Decoder* dec) {
    Gossip m;
    WEDGE_ASSIGN_OR_RETURN(m.edge, dec->GetU32());
    WEDGE_ASSIGN_OR_RETURN(m.log_size, dec->GetU64());
    WEDGE_ASSIGN_OR_RETURN(m.cloud_time, dec->GetI64());
    return m;
  }
  WEDGE_MSG_HELPERS(Gossip)
};

enum class DisputeKind : uint8_t {
  /// The edge's signed add-response names a block whose certified digest
  /// differs (entry never made it into the certified block).
  kAddMismatch = 0,
  /// The edge's signed read-response carried a block whose digest differs
  /// from the certified one.
  kReadMismatch = 1,
  /// The edge signed "block not available" for a bid the cloud certified.
  kOmission = 2,
  /// The edge's signed scan response fails completeness verification
  /// (truncated/withheld pages, tampered claims). The cloud re-runs the
  /// scan verifier on it, after filling the response's reference slots
  /// from the blocks the dispute supplies; a slot none fills is set
  /// aside, and the verdict rests on what the rest proves.
  kScanTruncation = 3,
};

/// Client -> cloud: evidence is the raw signed envelope received from the
/// edge (AddResponse, ReadResponse, the negative ReadResponse, or a
/// ScanResponse). A scan response whose L0 slots went as references is
/// not self-contained, so `blocks` carries the referenced blocks; the
/// cloud accepts each only if its digest equals the one the edge sealed.
struct Dispute {
  DisputeKind kind = DisputeKind::kAddMismatch;
  NodeId edge = kInvalidNodeId;
  BlockId bid = 0;
  Bytes evidence;  // raw envelope bytes
  std::vector<Block> blocks;

  void EncodeTo(Encoder* enc) const {
    enc->PutU8(static_cast<uint8_t>(kind));
    enc->PutU32(edge);
    enc->PutU64(bid);
    enc->PutBytes(evidence);
    enc->PutU32(static_cast<uint32_t>(blocks.size()));
    for (const Block& b : blocks) b.EncodeTo(enc);
  }
  static Result<Dispute> DecodeFrom(Decoder* dec) {
    Dispute m;
    uint8_t k = 0;
    WEDGE_ASSIGN_OR_RETURN(k, dec->GetU8());
    if (k > static_cast<uint8_t>(DisputeKind::kScanTruncation)) {
      return Status::Corruption("bad dispute kind");
    }
    m.kind = static_cast<DisputeKind>(k);
    WEDGE_ASSIGN_OR_RETURN(m.edge, dec->GetU32());
    WEDGE_ASSIGN_OR_RETURN(m.bid, dec->GetU64());
    WEDGE_ASSIGN_OR_RETURN(m.evidence, dec->GetBytes());
    uint32_t n = 0;
    WEDGE_ASSIGN_OR_RETURN(n, dec->GetU32());
    for (uint32_t i = 0; i < n; ++i) {
      auto b = Block::DecodeFrom(dec);
      if (!b.ok()) return b.status();
      m.blocks.push_back(std::move(*b));
    }
    return m;
  }
  WEDGE_MSG_HELPERS(Dispute)
};

/// Cloud -> client: adjudication result.
struct DisputeVerdict {
  NodeId edge = kInvalidNodeId;
  BlockId bid = 0;
  bool edge_guilty = false;
  /// The certified digest for the disputed block, if any (lets the client
  /// fetch the true block from a recovered replica).
  bool has_certified_digest = false;
  Digest256 certified_digest;

  void EncodeTo(Encoder* enc) const {
    enc->PutU32(edge);
    enc->PutU64(bid);
    enc->PutBool(edge_guilty);
    enc->PutBool(has_certified_digest);
    certified_digest.EncodeTo(enc);
  }
  static Result<DisputeVerdict> DecodeFrom(Decoder* dec) {
    DisputeVerdict m;
    WEDGE_ASSIGN_OR_RETURN(m.edge, dec->GetU32());
    WEDGE_ASSIGN_OR_RETURN(m.bid, dec->GetU64());
    WEDGE_ASSIGN_OR_RETURN(m.edge_guilty, dec->GetBool());
    WEDGE_ASSIGN_OR_RETURN(m.has_certified_digest, dec->GetBool());
    WEDGE_ASSIGN_OR_RETURN(m.certified_digest, Digest256::DecodeFrom(dec));
    return m;
  }
  WEDGE_MSG_HELPERS(DisputeVerdict)
};

/// Client -> edge: reserve the next log position (§IV-E replay hardening).
struct ReserveRequest {
  SeqNum req_id = 0;

  void EncodeTo(Encoder* enc) const { enc->PutU64(req_id); }
  static Result<ReserveRequest> DecodeFrom(Decoder* dec) {
    ReserveRequest m;
    WEDGE_ASSIGN_OR_RETURN(m.req_id, dec->GetU64());
    return m;
  }
  WEDGE_MSG_HELPERS(ReserveRequest)
};

/// Edge -> client: the reserved (block id, slot) position. The client then
/// signs its entry for exactly this position; an entry surfacing anywhere
/// else is invalid.
struct ReserveResponse {
  SeqNum req_id = 0;
  BlockId bid = 0;
  uint32_t slot = 0;

  void EncodeTo(Encoder* enc) const {
    enc->PutU64(req_id);
    enc->PutU64(bid);
    enc->PutU32(slot);
  }
  static Result<ReserveResponse> DecodeFrom(Decoder* dec) {
    ReserveResponse m;
    WEDGE_ASSIGN_OR_RETURN(m.req_id, dec->GetU64());
    WEDGE_ASSIGN_OR_RETURN(m.bid, dec->GetU64());
    WEDGE_ASSIGN_OR_RETURN(m.slot, dec->GetU32());
    return m;
  }
  WEDGE_MSG_HELPERS(ReserveResponse)
};

// ---------------------------------------------------------------- baselines

/// Cloud-only / edge-baseline write: a batch of entries. For edge-baseline
/// the edge forwards the formed block to the cloud inside kEbCertify.
/// `is_kv` is advisory only: kv-ness is content-defined everywhere (an
/// entry is a put iff its payload decodes as one).
struct CloudWriteRequest {
  SeqNum req_id = 0;
  bool is_kv = false;
  std::vector<Entry> entries;

  void EncodeTo(Encoder* enc) const {
    enc->PutU64(req_id);
    enc->PutBool(is_kv);
    enc->PutU32(static_cast<uint32_t>(entries.size()));
    for (const auto& e : entries) e.EncodeTo(enc);
  }
  static Result<CloudWriteRequest> DecodeFrom(Decoder* dec) {
    CloudWriteRequest m;
    WEDGE_ASSIGN_OR_RETURN(m.req_id, dec->GetU64());
    WEDGE_ASSIGN_OR_RETURN(m.is_kv, dec->GetBool());
    uint32_t n = 0;
    WEDGE_ASSIGN_OR_RETURN(n, dec->GetU32());
    for (uint32_t i = 0; i < n; ++i) {
      auto e = Entry::DecodeFrom(dec);
      if (!e.ok()) return e.status();
      m.entries.push_back(std::move(*e));
    }
    return m;
  }
  WEDGE_MSG_HELPERS(CloudWriteRequest)
};

struct CloudWriteResponse {
  SeqNum req_id = 0;
  BlockId bid = 0;

  void EncodeTo(Encoder* enc) const {
    enc->PutU64(req_id);
    enc->PutU64(bid);
  }
  static Result<CloudWriteResponse> DecodeFrom(Decoder* dec) {
    CloudWriteResponse m;
    WEDGE_ASSIGN_OR_RETURN(m.req_id, dec->GetU64());
    WEDGE_ASSIGN_OR_RETURN(m.bid, dec->GetU64());
    return m;
  }
  WEDGE_MSG_HELPERS(CloudWriteResponse)
};

struct CloudReadRequest {
  SeqNum req_id = 0;
  Key key = 0;

  void EncodeTo(Encoder* enc) const {
    enc->PutU64(req_id);
    enc->PutU64(key);
  }
  static Result<CloudReadRequest> DecodeFrom(Decoder* dec) {
    CloudReadRequest m;
    WEDGE_ASSIGN_OR_RETURN(m.req_id, dec->GetU64());
    WEDGE_ASSIGN_OR_RETURN(m.key, dec->GetU64());
    return m;
  }
  WEDGE_MSG_HELPERS(CloudReadRequest)
};

/// Trusted read served by the cloud itself: no proof needed.
struct CloudReadResponse {
  SeqNum req_id = 0;
  bool found = false;
  Bytes value;

  void EncodeTo(Encoder* enc) const {
    enc->PutU64(req_id);
    enc->PutBool(found);
    enc->PutBytes(value);
  }
  static Result<CloudReadResponse> DecodeFrom(Decoder* dec) {
    CloudReadResponse m;
    WEDGE_ASSIGN_OR_RETURN(m.req_id, dec->GetU64());
    WEDGE_ASSIGN_OR_RETURN(m.found, dec->GetBool());
    WEDGE_ASSIGN_OR_RETURN(m.value, dec->GetBytes());
    return m;
  }
  WEDGE_MSG_HELPERS(CloudReadResponse)
};

/// Cloud-only scan: the trusted server's answer to a kScanRequest —
/// newest value per key in [lo, hi], ascending, no proofs (the client
/// fully trusts the cloud).
struct CloudScanResponse {
  SeqNum req_id = 0;
  std::vector<KvPair> pairs;

  void EncodeTo(Encoder* enc) const {
    enc->PutU64(req_id);
    enc->PutU32(static_cast<uint32_t>(pairs.size()));
    for (const auto& p : pairs) p.EncodeTo(enc);
  }
  static Result<CloudScanResponse> DecodeFrom(Decoder* dec) {
    CloudScanResponse m;
    WEDGE_ASSIGN_OR_RETURN(m.req_id, dec->GetU64());
    uint32_t n = 0;
    WEDGE_ASSIGN_OR_RETURN(n, dec->GetU32());
    m.pairs.reserve(std::min<size_t>(n, dec->remaining()));
    for (uint32_t i = 0; i < n; ++i) {
      auto p = KvPair::DecodeFrom(dec);
      if (!p.ok()) return p.status();
      m.pairs.push_back(std::move(*p));
    }
    return m;
  }
  WEDGE_MSG_HELPERS(CloudScanResponse)
};

/// Edge-baseline edge -> cloud: the full block (not just a digest — this
/// is precisely what data-free certification avoids). Kv-ness is
/// content-defined (an entry is a put iff its payload decodes as one),
/// so raw log appends travel the same message and simply contribute no
/// pairs to the cloud's authoritative mLSM.
struct EbCertify {
  Block block;

  void EncodeTo(Encoder* enc) const { block.EncodeTo(enc); }
  static Result<EbCertify> DecodeFrom(Decoder* dec) {
    EbCertify m;
    WEDGE_ASSIGN_OR_RETURN(m.block, Block::DecodeFrom(dec));
    return m;
  }
  WEDGE_MSG_HELPERS(EbCertify)
};

/// Edge-baseline cloud -> edge: block certificate, plus the merged pages
/// and fresh root when this write triggered a compaction at the cloud.
struct EbCertifyResponse {
  BlockCertificate block_cert;
  /// Merges applied at the cloud as a result of this write, innermost
  /// first. Each entry mirrors a MergeResponse.
  struct AppliedMerge {
    uint32_t from_level = 0;
    uint32_t consumed_l0 = 0;
    std::vector<Page> merged;
  };
  std::vector<AppliedMerge> merges;
  RootCertificate root_cert;

  void EncodeTo(Encoder* enc) const {
    block_cert.EncodeTo(enc);
    enc->PutU32(static_cast<uint32_t>(merges.size()));
    for (const auto& m : merges) {
      enc->PutU32(m.from_level);
      enc->PutU32(m.consumed_l0);
      enc->PutU32(static_cast<uint32_t>(m.merged.size()));
      for (const auto& p : m.merged) p.EncodeTo(enc);
    }
    root_cert.EncodeTo(enc);
  }
  static Result<EbCertifyResponse> DecodeFrom(Decoder* dec) {
    EbCertifyResponse m;
    WEDGE_ASSIGN_OR_RETURN(m.block_cert, BlockCertificate::DecodeFrom(dec));
    uint32_t nm = 0;
    WEDGE_ASSIGN_OR_RETURN(nm, dec->GetU32());
    for (uint32_t i = 0; i < nm; ++i) {
      AppliedMerge am;
      WEDGE_ASSIGN_OR_RETURN(am.from_level, dec->GetU32());
      WEDGE_ASSIGN_OR_RETURN(am.consumed_l0, dec->GetU32());
      uint32_t np = 0;
      WEDGE_ASSIGN_OR_RETURN(np, dec->GetU32());
      for (uint32_t j = 0; j < np; ++j) {
        auto p = Page::DecodeFrom(dec);
        if (!p.ok()) return p.status();
        am.merged.push_back(std::move(*p));
      }
      m.merges.push_back(std::move(am));
    }
    WEDGE_ASSIGN_OR_RETURN(m.root_cert, RootCertificate::DecodeFrom(dec));
    return m;
  }
  WEDGE_MSG_HELPERS(EbCertifyResponse)

  size_t ByteSize() const {
    size_t sz = 96 + 4 + 96;
    for (const auto& m : merges) {
      sz += 12;
      for (const auto& p : m.merged) sz += p.ByteSize();
    }
    return sz;
  }
};

// ------------------------------------------- cloud backup & read repair

/// Edge -> cloud: request backed-up blocks starting at `from_bid`. Used
/// by a recovering edge to re-fetch blocks lost to a crash, and by the
/// read path to repair a retention-evicted block on demand.
struct BackupFetch {
  BlockId from_bid = 0;
  /// Upper bound on blocks returned (0 = no limit).
  uint32_t max_blocks = 0;

  void EncodeTo(Encoder* enc) const {
    enc->PutU64(from_bid);
    enc->PutU32(max_blocks);
  }
  static Result<BackupFetch> DecodeFrom(Decoder* dec) {
    BackupFetch m;
    WEDGE_ASSIGN_OR_RETURN(m.from_bid, dec->GetU64());
    WEDGE_ASSIGN_OR_RETURN(m.max_blocks, dec->GetU32());
    return m;
  }
  WEDGE_MSG_HELPERS(BackupFetch)
};

/// One backed-up block plus a fresh cloud certificate over its digest,
/// so the receiving edge (and any client it serves) can verify the body
/// against the certified digest without further round trips.
struct BackupItem {
  Block block;
  bool is_kv = false;
  BlockCertificate cert;

  void EncodeTo(Encoder* enc) const {
    block.EncodeTo(enc);
    enc->PutBool(is_kv);
    cert.EncodeTo(enc);
  }
  static Result<BackupItem> DecodeFrom(Decoder* dec) {
    BackupItem m;
    auto b = Block::DecodeFrom(dec);
    if (!b.ok()) return b.status();
    m.block = std::move(*b);
    WEDGE_ASSIGN_OR_RETURN(m.is_kv, dec->GetBool());
    WEDGE_ASSIGN_OR_RETURN(m.cert, BlockCertificate::DecodeFrom(dec));
    return m;
  }
};

/// Cloud -> edge: the backed-up blocks it holds in [from_bid, ...),
/// ascending by block id (gaps possible: the cloud only backs up blocks
/// it saw in full — via merges or full-block certifies).
struct BackupBlocks {
  BlockId from_bid = 0;
  /// True when the response reaches the end of the cloud's backup (it
  /// was not cut short by the fetch's max_blocks): the receiver may then
  /// treat any absent bid >= from_bid as not backed up at all.
  bool complete = true;
  std::vector<BackupItem> items;

  void EncodeTo(Encoder* enc) const {
    enc->PutU64(from_bid);
    enc->PutBool(complete);
    enc->PutU32(static_cast<uint32_t>(items.size()));
    for (const auto& it : items) it.EncodeTo(enc);
  }
  static Result<BackupBlocks> DecodeFrom(Decoder* dec) {
    BackupBlocks m;
    WEDGE_ASSIGN_OR_RETURN(m.from_bid, dec->GetU64());
    WEDGE_ASSIGN_OR_RETURN(m.complete, dec->GetBool());
    uint32_t n = 0;
    WEDGE_ASSIGN_OR_RETURN(n, dec->GetU32());
    m.items.reserve(std::min<size_t>(n, dec->remaining()));
    for (uint32_t i = 0; i < n; ++i) {
      auto it = BackupItem::DecodeFrom(dec);
      if (!it.ok()) return it.status();
      m.items.push_back(std::move(*it));
    }
    return m;
  }
  WEDGE_MSG_HELPERS(BackupBlocks)

  size_t ByteSize() const {
    size_t sz = 12;
    for (const auto& it : items) sz += it.block.ByteSize() + 1 + 96;
    return sz;
  }
};

/// Client -> cloud: serve a get for `key` from the cloud's backup of
/// `edge`'s blocks. Failure-aware routing sends this when the home edge
/// is crashed or partitioned away: slower (WAN round trip) but still
/// verified, since the response carries a certificate over the block.
struct CloudGetRequest {
  SeqNum req_id = 0;
  NodeId edge = kInvalidNodeId;
  Key key = 0;

  void EncodeTo(Encoder* enc) const {
    enc->PutU64(req_id);
    enc->PutU32(edge);
    enc->PutU64(key);
  }
  static Result<CloudGetRequest> DecodeFrom(Decoder* dec) {
    CloudGetRequest m;
    WEDGE_ASSIGN_OR_RETURN(m.req_id, dec->GetU64());
    WEDGE_ASSIGN_OR_RETURN(m.edge, dec->GetU32());
    WEDGE_ASSIGN_OR_RETURN(m.key, dec->GetU64());
    return m;
  }
  WEDGE_MSG_HELPERS(CloudGetRequest)
};

/// Cloud -> client: the newest backed-up kv block containing the key,
/// plus a fresh certificate pinning its digest — the client verifies the
/// body and extracts the newest put itself (the cloud's answer is never
/// trusted bare). found=false is NOT a proof of absence: the backup may
/// lag the edge, and carries no Merkle structure to prove a miss.
struct CloudGetResponse {
  SeqNum req_id = 0;
  bool found = false;
  Block block;
  BlockCertificate cert;

  void EncodeTo(Encoder* enc) const {
    enc->PutU64(req_id);
    enc->PutBool(found);
    block.EncodeTo(enc);
    cert.EncodeTo(enc);
  }
  static Result<CloudGetResponse> DecodeFrom(Decoder* dec) {
    CloudGetResponse m;
    WEDGE_ASSIGN_OR_RETURN(m.req_id, dec->GetU64());
    WEDGE_ASSIGN_OR_RETURN(m.found, dec->GetBool());
    auto b = Block::DecodeFrom(dec);
    if (!b.ok()) return b.status();
    m.block = std::move(*b);
    WEDGE_ASSIGN_OR_RETURN(m.cert, BlockCertificate::DecodeFrom(dec));
    return m;
  }
  WEDGE_MSG_HELPERS(CloudGetResponse)
};

// ------------------------------------------------ verifiable range scan

/// Client -> edge: scan [lo, hi]. `held` as in GetRequest.
struct ScanRequest {
  SeqNum req_id = 0;
  Key lo = 0;
  Key hi = 0;
  std::vector<BlockRef> held;

  void EncodeTo(Encoder* enc) const {
    enc->PutU64(req_id);
    enc->PutU64(lo);
    enc->PutU64(hi);
    wire_internal::EncodeHeld(enc, held);
  }
  static Result<ScanRequest> DecodeFrom(Decoder* dec) {
    ScanRequest m;
    WEDGE_ASSIGN_OR_RETURN(m.req_id, dec->GetU64());
    WEDGE_ASSIGN_OR_RETURN(m.lo, dec->GetU64());
    WEDGE_ASSIGN_OR_RETURN(m.hi, dec->GetU64());
    WEDGE_ASSIGN_OR_RETURN(m.held, wire_internal::DecodeHeld(dec));
    return m;
  }
  WEDGE_MSG_HELPERS(ScanRequest)
};

/// Edge -> client: the proof-carrying scan result (scan_proof.h).
struct ScanResponse {
  SeqNum req_id = 0;
  ScanResponseBody body;

  void EncodeTo(Encoder* enc) const {
    enc->PutU64(req_id);
    body.EncodeTo(enc);
  }
  static Result<ScanResponse> DecodeFrom(Decoder* dec) {
    ScanResponse m;
    WEDGE_ASSIGN_OR_RETURN(m.req_id, dec->GetU64());
    auto b = ScanResponseBody::DecodeFrom(dec);
    if (!b.ok()) return b.status();
    m.body = std::move(*b);
    return m;
  }
  WEDGE_MSG_HELPERS(ScanResponse)
};

#undef WEDGE_MSG_HELPERS

}  // namespace wedge
