#include "lsmerkle/read_proof.h"

#include <algorithm>

#include "lsmerkle/verifier_cache.h"

namespace wedge {

void GetLevelPart::EncodeTo(Encoder* enc) const {
  enc->PutU32(level);
  page->EncodeTo(enc);
  proof.EncodeTo(enc);
}

Result<GetLevelPart> GetLevelPart::DecodeFrom(Decoder* dec) {
  GetLevelPart part;
  WEDGE_ASSIGN_OR_RETURN(part.level, dec->GetU32());
  auto page = Page::DecodeFrom(dec);
  if (!page.ok()) return page.status();
  part.page = std::make_shared<const Page>(std::move(*page));
  WEDGE_ASSIGN_OR_RETURN(part.proof, MerkleProof::DecodeFrom(dec));
  return part;
}

void EncodeL0Slots(Encoder* enc,
                   const std::vector<std::shared_ptr<const Block>>& blocks,
                   const std::vector<std::optional<BlockCertificate>>& certs,
                   const std::vector<std::optional<BlockRef>>& refs) {
  enc->PutU32(static_cast<uint32_t>(blocks.size()));
  for (size_t i = 0; i < blocks.size(); ++i) {
    const bool is_ref = i < refs.size() && refs[i].has_value();
    enc->PutBool(is_ref);
    if (is_ref) {
      refs[i]->EncodeTo(enc);
    } else {
      blocks[i]->EncodeTo(enc);
    }
    const bool has_cert = i < certs.size() && certs[i].has_value();
    enc->PutBool(has_cert);
    if (has_cert) certs[i]->EncodeTo(enc);
  }
}

Status DecodeL0Slots(Decoder* dec,
                     std::vector<std::shared_ptr<const Block>>* blocks,
                     std::vector<std::optional<BlockCertificate>>* certs,
                     std::vector<std::optional<BlockRef>>* refs) {
  uint32_t n = 0;
  WEDGE_ASSIGN_OR_RETURN(n, dec->GetU32());
  for (uint32_t i = 0; i < n; ++i) {
    bool is_ref = false;
    WEDGE_ASSIGN_OR_RETURN(is_ref, dec->GetBool());
    if (is_ref) {
      auto ref = BlockRef::DecodeFrom(dec);
      if (!ref.ok()) return ref.status();
      blocks->push_back(nullptr);
      refs->push_back(*ref);
    } else {
      auto blk = Block::DecodeFrom(dec);
      if (!blk.ok()) return blk.status();
      blocks->push_back(std::make_shared<const Block>(std::move(*blk)));
      refs->emplace_back(std::nullopt);
    }
    bool has_cert = false;
    WEDGE_ASSIGN_OR_RETURN(has_cert, dec->GetBool());
    if (has_cert) {
      auto cert = BlockCertificate::DecodeFrom(dec);
      if (!cert.ok()) return cert.status();
      certs->push_back(std::move(*cert));
    } else {
      certs->emplace_back(std::nullopt);
    }
  }
  return Status::OK();
}

void GetResponseBody::EncodeTo(Encoder* enc) const {
  enc->PutU64(key);
  enc->PutBool(found);
  enc->PutU32(found_level);
  enc->PutBytes(value);
  enc->PutU64(version);
  EncodeL0Slots(enc, l0_blocks, l0_certs, l0_refs);
  enc->PutU32(static_cast<uint32_t>(parts.size()));
  for (const auto& p : parts) p.EncodeTo(enc);
  enc->PutU32(static_cast<uint32_t>(level_roots.size()));
  for (const auto& r : level_roots) r.EncodeTo(enc);
  enc->PutBool(root_cert.has_value());
  if (root_cert.has_value()) root_cert->EncodeTo(enc);
}

Result<GetResponseBody> GetResponseBody::DecodeFrom(Decoder* dec) {
  GetResponseBody b;
  WEDGE_ASSIGN_OR_RETURN(b.key, dec->GetU64());
  WEDGE_ASSIGN_OR_RETURN(b.found, dec->GetBool());
  WEDGE_ASSIGN_OR_RETURN(b.found_level, dec->GetU32());
  WEDGE_ASSIGN_OR_RETURN(b.value, dec->GetBytes());
  WEDGE_ASSIGN_OR_RETURN(b.version, dec->GetU64());
  WEDGE_RETURN_NOT_OK(
      DecodeL0Slots(dec, &b.l0_blocks, &b.l0_certs, &b.l0_refs));
  uint32_t nparts = 0;
  WEDGE_ASSIGN_OR_RETURN(nparts, dec->GetU32());
  for (uint32_t i = 0; i < nparts; ++i) {
    auto part = GetLevelPart::DecodeFrom(dec);
    if (!part.ok()) return part.status();
    b.parts.push_back(std::move(*part));
  }
  uint32_t nroots = 0;
  WEDGE_ASSIGN_OR_RETURN(nroots, dec->GetU32());
  for (uint32_t i = 0; i < nroots; ++i) {
    auto root = Digest256::DecodeFrom(dec);
    if (!root.ok()) return root.status();
    b.level_roots.push_back(*root);
  }
  bool has_root_cert = false;
  WEDGE_ASSIGN_OR_RETURN(has_root_cert, dec->GetBool());
  if (has_root_cert) {
    auto cert = RootCertificate::DecodeFrom(dec);
    if (!cert.ok()) return cert.status();
    b.root_cert = std::move(*cert);
  }
  return b;
}

namespace {

Status Violation(const std::string& what) {
  return Status::SecurityViolation("get response: " + what);
}

}  // namespace

Result<VerifiedGet> VerifyGetResponse(const KeyStore& keystore, NodeId edge,
                                      Key key, const GetResponseBody& resp,
                                      const GetVerifyOptions& opts) {
  if (resp.key != key) return Violation("answers a different key");

  // --- Root certificate binds the level roots. ---
  const bool any_level_nonempty = std::any_of(
      resp.level_roots.begin(), resp.level_roots.end(),
      [](const Digest256& d) { return !d.IsZero(); });
  if (resp.root_cert.has_value()) {
    WEDGE_RETURN_NOT_OK(VerifierCache::VerifyPresentedRoot(
        keystore, edge, *resp.root_cert, resp.level_roots, opts.cache));
  } else if (any_level_nonempty || !resp.parts.empty()) {
    // Level pages only exist after a merge, and merges always produce a
    // signed root. Claiming level data without a cert is a lie.
    return Violation("level data presented without a root certificate");
  }

  // --- Freshness window (§V-D). Never cached: a replayed old-but-valid
  // certificate must keep failing here. ---
  if (opts.freshness_window >= 0) {
    if (!resp.root_cert.has_value()) {
      return Status::FailedPrecondition(
          "freshness required but no root certificate yet");
    }
    if (opts.now - resp.root_cert->cloud_time > opts.freshness_window) {
      return Status::FailedPrecondition(
          "snapshot older than the freshness window");
    }
  }

  // --- L0 blocks: contiguous ids, valid certificates where present. ---
  if (resp.l0_certs.size() != resp.l0_blocks.size()) {
    return Violation("l0 certificate vector size mismatch");
  }
  bool all_l0_certified = true;
  for (size_t i = 0; i < resp.l0_blocks.size(); ++i) {
    if (resp.l0_blocks[i] == nullptr) {
      return Violation("unresolved L0 block reference");
    }
    if (i > 0 && resp.l0_blocks[i]->id != resp.l0_blocks[i - 1]->id + 1) {
      return Violation("L0 block ids are not contiguous");
    }
    if (!resp.l0_certs[i].has_value()) all_l0_certified = false;
  }
  // Cache-missed blocks are digested together in one multi-buffer batch.
  auto l0_verified = VerifierCache::VerifyPresentedL0Blocks(
      keystore, edge, resp.l0_blocks, resp.l0_certs, opts.cache);
  if (!l0_verified.ok()) return l0_verified.status();
  std::vector<std::shared_ptr<VerifierCache::BlockEntry>> l0_entries =
      std::move(*l0_verified);

  // --- Newest version in L0, from the blocks themselves. ---
  bool l0_found = false;
  KvPair l0_hit;
  for (size_t i = resp.l0_blocks.size(); i-- > 0 && !l0_found;) {
    if (l0_entries[i] != nullptr) {
      // Cached index: one probe instead of decoding every payload.
      auto hit = l0_entries[i]->newest.find(key);
      if (hit != l0_entries[i]->newest.end()) {
        l0_found = true;
        l0_hit = hit->second;
      }
      continue;
    }
    const Block& blk = *resp.l0_blocks[i];
    for (uint32_t idx = static_cast<uint32_t>(blk.entries.size());
         idx-- > 0;) {
      // Lazy early-exit copy of the content-defined rule (canonical
      // form: ExtractKvPairs): raw append entries are skipped. The
      // certified digest pins the bytes, so the edge cannot reclassify
      // a put as an append without breaking the digest. The key peek
      // keeps the hundreds of non-matching entries from paying the
      // value copy.
      auto k = DecodePutKey(blk.entries[idx].payload);
      if (!k.ok() || *k != key) continue;
      auto op = DecodePutPayload(blk.entries[idx].payload);
      if (!op.ok()) continue;
      l0_found = true;
      l0_hit.key = key;
      l0_hit.value = std::move(op->value);
      l0_hit.version = MakeVersion(blk.id, idx);
      break;
    }
  }

  // --- Level parts: verify each against its level root; determine the
  // newest level hit. ---
  const size_t nlevels = resp.level_roots.size();
  std::vector<bool> level_covered(nlevels + 1, false);
  bool part_found = false;
  KvPair part_hit;
  uint32_t part_hit_level = 0;
  std::vector<const GetLevelPart*> fresh_parts;  // cache misses, to verify
  for (const auto& part : resp.parts) {
    if (part.level == 0 || part.level > nlevels) {
      return Violation("part level out of range");
    }
    if (level_covered[part.level]) return Violation("duplicate level part");
    level_covered[part.level] = true;
    const Digest256& root = resp.level_roots[part.level - 1];
    if (root.IsZero()) return Violation("part for an empty level");
    const Page& page = *part.page;
    if (!page.Covers(key)) {
      return Violation("part page range does not cover the key");
    }
    // Either cache can vouch: parts (recorded by gets) or runs
    // (recorded by scans over the same level root).
    if (opts.cache == nullptr ||
        (!opts.cache->IsPartVerified(root, page, part.proof) &&
         !opts.cache->IsRunVerified(root, page, part.proof))) {
      fresh_parts.push_back(&part);
    }
    auto hit = page.Find(key);
    if (hit.has_value() && (!part_found || part.level < part_hit_level)) {
      part_found = true;
      part_hit = *hit;
      part_hit_level = part.level;
    }
  }
  // Missed pages are hashed in one multi-buffer batch; the per-part
  // proof walk then reuses each memoized digest.
  if (!fresh_parts.empty()) {
    std::vector<std::shared_ptr<const Page>> to_seal;
    to_seal.reserve(fresh_parts.size());
    for (const GetLevelPart* part : fresh_parts) to_seal.push_back(part->page);
    Page::SealAll(to_seal);
    for (const GetLevelPart* part : fresh_parts) {
      const Digest256& root = resp.level_roots[part->level - 1];
      WEDGE_RETURN_NOT_OK(part->page->CheckWellFormed());
      WEDGE_RETURN_NOT_OK(
          MerkleTree::Verify(root, part->page->Digest(), part->proof));
      if (opts.cache != nullptr) {
        opts.cache->RecordPart(root, part->page, part->proof);
      }
    }
  }

  // --- Completeness: every non-empty level newer than the hit must have
  // presented its covering page (it could have held a newer version). ---
  uint32_t newest_needed;  // levels 1..newest_needed must be covered
  if (l0_found) {
    newest_needed = 0;  // L0 shadows all levels
  } else if (part_found) {
    newest_needed = part_hit_level;
  } else {
    newest_needed = static_cast<uint32_t>(nlevels);
  }
  for (uint32_t lvl = 1; lvl <= newest_needed; ++lvl) {
    if (!resp.level_roots[lvl - 1].IsZero() && !level_covered[lvl]) {
      return Violation("missing page for non-empty level " +
                       std::to_string(lvl));
    }
  }

  // --- The response's claim must match the evidence. ---
  VerifiedGet out;
  out.phase2 = all_l0_certified;
  if (l0_found) {
    out.found = true;
    out.value = l0_hit.value;
    out.version = l0_hit.version;
    if (!resp.found || resp.found_level != 0 || resp.value != out.value) {
      return Violation("claim contradicts L0 evidence");
    }
  } else if (part_found) {
    out.found = true;
    out.value = part_hit.value;
    out.version = part_hit.version;
    if (!resp.found || resp.found_level != part_hit_level ||
        resp.value != out.value) {
      return Violation("claim contradicts level evidence");
    }
  } else {
    out.found = false;
    if (resp.found) return Violation("claims a value but evidence shows none");
  }
  return out;
}

}  // namespace wedge
