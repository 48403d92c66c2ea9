// Message types and the sealed envelope.
//
// Every WedgeChain message travels inside an Envelope — the paper
// requires all message exchanges to be authenticated by their sender
// (§IV-A). The raw envelope bytes double as dispute evidence: a client
// that kept an edge's sealed response can later prove exactly what the
// edge said.
//
// One wire format:
//   [0xD2][type u8][sender u32][receiver u32][counter u64][body][mac32]
// The tag is a MAC under the directed per-(sender, receiver) session key
// (see KeyStore::SessionKeyFor) over everything before it. The counter
// is per-connection monotonic: SessionOpener rejects any counter <= the
// last accepted one, which excludes replay and rollback while tolerating
// drops (forward gaps are legitimate — the fault plane loses messages).
// The leading magic byte lies above kMaxMsgType, so bytes in any other
// layout, such as one that starts with its type byte, fail as Corruption
// before any field is read.

#pragma once

#include <cstdint>
#include <string_view>

#include "common/codec.h"
#include "common/result.h"
#include "crypto/signature.h"

namespace wedge {

enum class MsgType : uint8_t {
  // -------- WedgeChain logging (§IV) --------
  kAddRequest = 1,
  kAddResponse = 2,
  kReadRequest = 3,
  kReadResponse = 4,
  kBlockCertify = 5,   // edge -> cloud (digest only: data-free)
  kBlockProof = 6,     // cloud -> edge -> clients
  kCertifyReject = 7,  // cloud -> edge: equivocation detected

  // -------- LSMerkle key-value (§V) --------
  kPutRequest = 8,   // same body as kAddRequest; payloads encode puts
  kGetRequest = 9,
  kGetResponse = 10,
  kMergeRequest = 11,   // edge -> cloud (ships pages: the amortized cost)
  kMergeResponse = 12,  // cloud -> edge

  // -------- maintenance & security (§IV-E, §V-D) --------
  kGossip = 13,           // cloud -> clients: signed (edge, log size, time)
  kDispute = 14,          // client -> cloud, with evidence
  kDisputeVerdict = 15,   // cloud -> client
  kReserveRequest = 16,   // client -> edge: reserve a log position
  kReserveResponse = 17,  // edge -> client

  // -------- baselines (§II-C, §VI) --------
  kCloudWriteRequest = 18,   // cloud-only: client -> cloud
  kCloudWriteResponse = 19,
  kCloudReadRequest = 20,
  kCloudReadResponse = 21,
  kEbWriteRequest = 22,   // edge-baseline: client -> edge
  kEbWriteResponse = 23,
  kEbCertify = 24,          // edge-baseline: edge -> cloud (full data)
  kEbCertifyResponse = 25,  // cloud -> edge (certs + merged pages)

  // -------- cloud backup & read repair (§II-A backup note) --------
  kBackupFetch = 26,   // edge -> cloud: blocks lost/evicted at the edge
  kBackupBlocks = 27,  // cloud -> edge: backed-up blocks + certificates

  // -------- verifiable range scans (extension) --------
  kScanRequest = 28,   // client -> edge (also client -> cloud-only server)
  kScanResponse = 29,  // edge -> client, proof-carrying
  kCloudScanResponse = 30,  // cloud-only: trusted scan result, no proofs

  // -------- failure-aware routing (fault plane) --------
  kCloudGetRequest = 31,   // client -> cloud: get served from the backup
  kCloudGetResponse = 32,  // cloud -> client: newest backed-up block + cert

  // Keep in sync when adding values: Parse() rejects type bytes above
  // this bound.
  kMaxMsgType = kCloudGetResponse,
};

std::string_view MsgTypeToString(MsgType type);

/// First byte of every envelope. Above kMaxMsgType by a wide margin, so
/// bytes that start with a type byte cannot pass for an envelope.
inline constexpr uint8_t kSessionEnvelopeMagic = 0xD2;

/// A parsed envelope. `raw` holds the exact bytes received, suitable for
/// storage as dispute evidence. Envelopes are sealed by SessionSealer
/// (wire/session.h).
struct Envelope {
  MsgType type = MsgType::kAddRequest;
  NodeId sender = kInvalidNodeId;
  NodeId receiver = kInvalidNodeId;
  uint64_t counter = 0;
  Bytes body;
  Bytes raw;

  /// Parses and verifies an envelope: checks the session MAC and sender
  /// revocation but holds no connection state — replay/counter
  /// enforcement needs SessionOpener. SecurityViolation on a bad tag;
  /// Corruption on malformed bytes.
  static Result<Envelope> Open(const KeyStore& keystore, Slice wire);

  /// Parses an envelope without verifying the tag.
  static Result<Envelope> OpenUnverified(Slice wire);

  /// Like Open but accepts tags from revoked identities; used when
  /// adjudicating dispute evidence sealed before a revocation. The
  /// evidence embeds (sender, receiver), so the directory can re-derive
  /// the session key without any connection state.
  static Result<Envelope> OpenHistorical(const KeyStore& keystore,
                                         Slice wire);
};

}  // namespace wedge
