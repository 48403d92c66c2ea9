// Verifiable range scans over LSMerkle (an extension beyond the paper's
// get/put interface, enabled by the same §V-B range invariant).
//
// scan(lo, hi) returns every key in [lo, hi] with its newest value, from
// one consistent snapshot, plus a proof of *completeness*: because level
// pages tile the key space (px.max = py.min - 1), a contiguous run of
// verified pages whose ends cover lo and hi provably includes every page
// of that level intersecting the range — the edge cannot silently drop a
// page in the middle (adjacency breaks) or at the ends (coverage
// breaks). L0 completeness follows from block-id contiguity, exactly as
// in gets.

#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "crypto/signature.h"
#include "log/block.h"
#include "log/certificate.h"
#include "lsmerkle/page.h"
#include "lsmerkle/read_proof.h"
#include "lsmerkle/root_certificate.h"
#include "merkle/merkle_tree.h"

namespace wedge {

/// One level's contribution to a scan proof: the contiguous run of pages
/// intersecting the scanned range, each with a Merkle membership proof.
/// Pages are shared (never null): the edge aliases its level pages
/// instead of copying them into every response.
struct ScanLevelRun {
  uint32_t level = 0;  // 1-based
  std::vector<std::shared_ptr<const Page>> pages;
  std::vector<MerkleProof> proofs;  // parallel to pages

  void EncodeTo(Encoder* enc) const;
  static Result<ScanLevelRun> DecodeFrom(Decoder* dec);
  bool operator==(const ScanLevelRun& o) const {
    if (level != o.level || pages.size() != o.pages.size() ||
        proofs != o.proofs) {
      return false;
    }
    for (size_t i = 0; i < pages.size(); ++i) {
      if (!(*pages[i] == *o.pages[i])) return false;
    }
    return true;
  }
};

/// The body of a scan response.
struct ScanResponseBody {
  Key lo = 0;
  Key hi = 0;
  /// The claimed result: newest version per key, sorted ascending by key.
  std::vector<KvPair> pairs;

  /// One slot per L0 block, oldest first, with optional certificates;
  /// a slot may go as a reference, exactly as in GetResponseBody.
  std::vector<std::shared_ptr<const Block>> l0_blocks;
  std::vector<std::optional<BlockCertificate>> l0_certs;
  std::vector<std::optional<BlockRef>> l0_refs;

  /// One run per non-empty level 1..n.
  std::vector<ScanLevelRun> runs;

  /// Merkle roots of all levels 1..n (zero digest = empty level).
  std::vector<Digest256> level_roots;
  std::optional<RootCertificate> root_cert;

  void EncodeTo(Encoder* enc) const;
  static Result<ScanResponseBody> DecodeFrom(Decoder* dec);
};

/// Outcome of verifying a scan response.
struct VerifiedScan {
  /// Newest version per key in [lo, hi], ascending by key, rebuilt from
  /// the evidence (never trusted from the claim).
  std::vector<KvPair> pairs;
  /// True when every L0 block carried a certificate (Phase II scan).
  bool phase2 = false;
};

/// Verifies a scan response. Same error taxonomy as VerifyGetResponse:
/// SecurityViolation when any proof fails or the claim contradicts the
/// evidence; FailedPrecondition when the snapshot is stale.
Result<VerifiedScan> VerifyScanResponse(const KeyStore& keystore, NodeId edge,
                                        Key lo, Key hi,
                                        const ScanResponseBody& resp,
                                        const GetVerifyOptions& opts = {});

}  // namespace wedge
