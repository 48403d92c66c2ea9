// Get-response proofs and their client-side verification (paper §V-B
// "Reading").
//
// A get response carries everything a client needs to check — against
// cloud-signed roots only — that the returned value is the newest version
// in the snapshot:
//   - every L0 block (any of them may hold a newer version), with its
//     block certificate where available (Phase I reads may lack some).
//     A block the client listed as held goes as a reference (bid +
//     digest) instead of its bytes; the client fills it in from its
//     cache before verifying;
//   - for each level between 1 and the level of the hit (all levels on a
//     miss), the unique page whose range covers the key plus its Merkle
//     membership proof against the level root;
//   - the list of level roots and the cloud-signed root certificate that
//     binds them via the global root.
//
// The range invariant (page.min <= key <= page.max, ranges tile the key
// space) is what turns "this page does not contain the key" into "this
// *level* does not contain the key".

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
#include "lsmerkle/root_certificate.h"
#include "merkle/merkle_tree.h"

namespace wedge {

class VerifierCache;

/// The never-null placeholder for default-constructed parts/pages: one
/// process-wide allocation instead of one per decoded part.
inline const std::shared_ptr<const Page>& EmptySharedPage() {
  static const std::shared_ptr<const Page> kEmpty =
      std::make_shared<const Page>();
  return kEmpty;
}

/// One level's contribution to a get proof. The page is shared, not
/// owned: at the edge it aliases the level's immutable page vector
/// (zero-copy assembly), at the client it owns the decoded page.
struct GetLevelPart {
  uint32_t level = 0;  // 1-based level index
  std::shared_ptr<const Page> page = EmptySharedPage();
  MerkleProof proof;

  void EncodeTo(Encoder* enc) const;
  static Result<GetLevelPart> DecodeFrom(Decoder* dec);
  bool operator==(const GetLevelPart& o) const {
    return level == o.level && *page == *o.page && proof == o.proof;
  }
};

/// The body of a get response.
struct GetResponseBody {
  Key key = 0;
  bool found = false;
  /// 0 = found in L0; else the level of the hit. Meaningless when !found.
  uint32_t found_level = 0;
  Bytes value;        // claimed value (empty when !found)
  uint64_t version = 0;

  /// One slot per L0 block, oldest first, with optional certificates
  /// (parallel vector; an empty optional means the block is only Phase I
  /// committed). Shared: the edge aliases its log blocks instead of
  /// copying them into every response. A slot sent as a reference has a
  /// null block and its `l0_refs` entry set, until the client resolves
  /// it from its cache; the verifier rejects any slot left null.
  std::vector<std::shared_ptr<const Block>> l0_blocks;
  std::vector<std::optional<BlockCertificate>> l0_certs;
  /// Parallel to l0_blocks (or empty: no references).
  std::vector<std::optional<BlockRef>> l0_refs;

  /// Intersecting page per level (1..found_level, or all non-empty levels
  /// on a miss).
  std::vector<GetLevelPart> parts;

  /// Merkle roots of all levels 1..n (zero digest = empty level).
  std::vector<Digest256> level_roots;

  /// Cloud-signed global root; absent only while no merge has happened.
  std::optional<RootCertificate> root_cert;

  void EncodeTo(Encoder* enc) const;
  static Result<GetResponseBody> DecodeFrom(Decoder* dec);
};

/// Codec of the L0 slot list shared by get and scan bodies: a u32
/// count, then per slot a kind byte (0 block, 1 reference), the block
/// or its reference, and the optional certificate.
void EncodeL0Slots(Encoder* enc,
                   const std::vector<std::shared_ptr<const Block>>& blocks,
                   const std::vector<std::optional<BlockCertificate>>& certs,
                   const std::vector<std::optional<BlockRef>>& refs);
Status DecodeL0Slots(Decoder* dec,
                     std::vector<std::shared_ptr<const Block>>* blocks,
                     std::vector<std::optional<BlockCertificate>>* certs,
                     std::vector<std::optional<BlockRef>>* refs);

struct GetVerifyOptions {
  /// Client's current time, for the freshness check.
  SimTime now = 0;
  /// Maximum acceptable age of the root certificate (§V-D). Negative
  /// disables the check.
  SimTime freshness_window = -1;
  /// When non-null, verification consults and fills this cache: root
  /// certificates, block certificates and level-part proofs already
  /// verified (by content) are not re-verified. Freshness and snapshot
  /// checks are unaffected. See lsmerkle/verifier_cache.h.
  VerifierCache* cache = nullptr;
  /// Scans only, for the cloud's dispute check: a reference slot left
  /// unresolved is set aside instead of rejected. Its bid still counts
  /// for contiguity, its content for nothing. Every other check runs,
  /// and every key the rest of the evidence holds must be claimed (a
  /// block can replace a key's pair, never remove the key). When all of
  /// that holds, the result is NotFound: the claim stays unchecked.
  bool set_aside_unresolved = false;
};

/// Outcome of verifying a get response.
struct VerifiedGet {
  bool found = false;
  Bytes value;
  uint64_t version = 0;
  /// True when every component was cloud-certified (Phase II read);
  /// false when some L0 block awaits certification (Phase I read).
  bool phase2 = false;
};

/// Verifies a get response against the keystore. Returns the verified
/// value, or:
///  - SecurityViolation: a proof/signature/range check failed, or the
///    response's claim contradicts its own evidence (edge lied);
///  - FailedPrecondition: the snapshot is older than the freshness window.
Result<VerifiedGet> VerifyGetResponse(const KeyStore& keystore, NodeId edge,
                                      Key key, const GetResponseBody& resp,
                                      const GetVerifyOptions& opts = {});

}  // namespace wedge
