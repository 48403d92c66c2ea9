// Block: a batch of entries, the unit of logging and certification.
//
// Block ids are unique monotonic numbers assigned by the edge node (unique
// per edge node, not globally — paper §III). The block digest covers both
// the id and the content, so certifying the digest pins both.

#pragma once

#include <algorithm>
#include <vector>

#include "common/codec.h"
#include "common/types.h"
#include "crypto/digest.h"
#include "log/entry.h"

namespace wedge {

struct Block {
  BlockId id = 0;
  /// Edge-assigned creation timestamp (virtual time).
  SimTime created_at = 0;
  std::vector<Entry> entries;

  void EncodeTo(Encoder* enc) const {
    enc->PutU64(id);
    enc->PutI64(created_at);
    enc->PutU32(static_cast<uint32_t>(entries.size()));
    for (const Entry& e : entries) e.EncodeTo(enc);
  }

  static Result<Block> DecodeFrom(Decoder* dec) {
    Block b;
    WEDGE_ASSIGN_OR_RETURN(b.id, dec->GetU64());
    WEDGE_ASSIGN_OR_RETURN(b.created_at, dec->GetI64());
    uint32_t n = 0;
    WEDGE_ASSIGN_OR_RETURN(n, dec->GetU32());
    // A corrupted count must not drive a huge allocation: each entry
    // consumes at least one input byte, so `remaining()` bounds it.
    b.entries.reserve(std::min<size_t>(n, dec->remaining()));
    for (uint32_t i = 0; i < n; ++i) {
      auto e = Entry::DecodeFrom(dec);
      if (!e.ok()) return e.status();
      b.entries.push_back(std::move(*e));
    }
    return b;
  }

  Bytes Encode() const {
    Encoder enc;
    EncodeTo(&enc);
    return enc.TakeBuffer();
  }

  /// The one-way digest certified by the cloud. Covers id + content
  /// (paper §IV-B: "the digest of the block (that contains both the
  /// content and the block id)").
  Digest256 Digest() const { return Digest256::Of(Encode()); }

  /// Batch digests: out[i] = blocks[i].Digest(), computed through the
  /// multi-buffer hasher so independent blocks share lanes. The cloud's
  /// merge handler and the client's verifier both digest whole runs of
  /// L0 blocks at once.
  static std::vector<Digest256> DigestMany(const std::vector<Block>& blocks) {
    std::vector<Bytes> encoded;
    encoded.reserve(blocks.size());
    for (const Block& b : blocks) encoded.push_back(b.Encode());
    return DigestManyEncoded(encoded);
  }

  /// Same, over pre-encoded block bytes.
  static std::vector<Digest256> DigestManyEncoded(
      const std::vector<Bytes>& encoded) {
    std::vector<Slice> msgs;
    msgs.reserve(encoded.size());
    for (const Bytes& b : encoded) msgs.emplace_back(b.data(), b.size());
    std::vector<Sha256Digest> raw(msgs.size());
    Sha256::HashMany(msgs.data(), raw.data(), msgs.size());
    std::vector<Digest256> out;
    out.reserve(raw.size());
    for (const Sha256Digest& d : raw) out.emplace_back(d);
    return out;
  }

  /// Approximate wire size, used by the cost model.
  size_t ByteSize() const {
    size_t sz = 8 + 8 + 4;
    for (const Entry& e : entries) sz += 4 + 8 + 4 + e.payload.size() + 36;
    return sz;
  }

  /// True if an entry with this (client, seq) is present.
  bool Contains(NodeId client, SeqNum seq) const {
    for (const Entry& e : entries) {
      if (e.client == client && e.seq == seq) return true;
    }
    return false;
  }

  /// Every reserved entry must sit exactly at its reserved (bid, slot);
  /// an entry surfacing anywhere else is a replay (§IV-E).
  Status ValidateReservations() const {
    for (uint32_t i = 0; i < entries.size(); ++i) {
      const Entry& e = entries[i];
      if (e.has_reservation &&
          (e.reserved_bid != id || e.reserved_slot != i)) {
        return Status::SecurityViolation(
            "entry reserved for block " + std::to_string(e.reserved_bid) +
            " slot " + std::to_string(e.reserved_slot) +
            " appears at block " + std::to_string(id) + " slot " +
            std::to_string(i));
      }
    }
    return Status::OK();
  }

  bool operator==(const Block& other) const {
    return id == other.id && created_at == other.created_at &&
           entries == other.entries;
  }
};

/// A block named by id and digest instead of its bytes: an entry of a
/// read request's held list, and a reply slot standing in for a block
/// the client listed. The digest pins the content, since a bid alone can
/// name different blocks across an edge crash.
struct BlockRef {
  BlockId bid = 0;
  Digest256 digest;

  void EncodeTo(Encoder* enc) const {
    enc->PutU64(bid);
    digest.EncodeTo(enc);
  }
  static Result<BlockRef> DecodeFrom(Decoder* dec) {
    BlockRef r;
    WEDGE_ASSIGN_OR_RETURN(r.bid, dec->GetU64());
    WEDGE_ASSIGN_OR_RETURN(r.digest, Digest256::DecodeFrom(dec));
    return r;
  }
  bool operator==(const BlockRef& o) const {
    return bid == o.bid && digest == o.digest;
  }
};

}  // namespace wedge
