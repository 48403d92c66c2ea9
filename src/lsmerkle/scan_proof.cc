#include "lsmerkle/scan_proof.h"

#include <algorithm>
#include <map>
#include <set>

#include "lsmerkle/merge.h"
#include "lsmerkle/verifier_cache.h"

namespace wedge {

void ScanLevelRun::EncodeTo(Encoder* enc) const {
  enc->PutU32(level);
  enc->PutU32(static_cast<uint32_t>(pages.size()));
  for (const auto& p : pages) p->EncodeTo(enc);
  enc->PutU32(static_cast<uint32_t>(proofs.size()));
  for (const MerkleProof& p : proofs) p.EncodeTo(enc);
}

Result<ScanLevelRun> ScanLevelRun::DecodeFrom(Decoder* dec) {
  ScanLevelRun run;
  WEDGE_ASSIGN_OR_RETURN(run.level, dec->GetU32());
  uint32_t npages = 0;
  WEDGE_ASSIGN_OR_RETURN(npages, dec->GetU32());
  run.pages.reserve(std::min<size_t>(npages, dec->remaining()));
  for (uint32_t i = 0; i < npages; ++i) {
    auto p = Page::DecodeFrom(dec);
    if (!p.ok()) return p.status();
    run.pages.push_back(std::make_shared<const Page>(std::move(*p)));
  }
  uint32_t nproofs = 0;
  WEDGE_ASSIGN_OR_RETURN(nproofs, dec->GetU32());
  run.proofs.reserve(std::min<size_t>(nproofs, dec->remaining()));
  for (uint32_t i = 0; i < nproofs; ++i) {
    auto p = MerkleProof::DecodeFrom(dec);
    if (!p.ok()) return p.status();
    run.proofs.push_back(std::move(*p));
  }
  return run;
}

void ScanResponseBody::EncodeTo(Encoder* enc) const {
  enc->PutU64(lo);
  enc->PutU64(hi);
  enc->PutU32(static_cast<uint32_t>(pairs.size()));
  for (const KvPair& p : pairs) p.EncodeTo(enc);
  EncodeL0Slots(enc, l0_blocks, l0_certs, l0_refs);
  enc->PutU32(static_cast<uint32_t>(runs.size()));
  for (const auto& r : runs) r.EncodeTo(enc);
  enc->PutU32(static_cast<uint32_t>(level_roots.size()));
  for (const auto& r : level_roots) r.EncodeTo(enc);
  enc->PutBool(root_cert.has_value());
  if (root_cert.has_value()) root_cert->EncodeTo(enc);
}

Result<ScanResponseBody> ScanResponseBody::DecodeFrom(Decoder* dec) {
  ScanResponseBody b;
  WEDGE_ASSIGN_OR_RETURN(b.lo, dec->GetU64());
  WEDGE_ASSIGN_OR_RETURN(b.hi, dec->GetU64());
  uint32_t npairs = 0;
  WEDGE_ASSIGN_OR_RETURN(npairs, dec->GetU32());
  b.pairs.reserve(std::min<size_t>(npairs, dec->remaining()));
  for (uint32_t i = 0; i < npairs; ++i) {
    auto p = KvPair::DecodeFrom(dec);
    if (!p.ok()) return p.status();
    b.pairs.push_back(std::move(*p));
  }
  WEDGE_RETURN_NOT_OK(
      DecodeL0Slots(dec, &b.l0_blocks, &b.l0_certs, &b.l0_refs));
  uint32_t nruns = 0;
  WEDGE_ASSIGN_OR_RETURN(nruns, dec->GetU32());
  for (uint32_t i = 0; i < nruns; ++i) {
    auto run = ScanLevelRun::DecodeFrom(dec);
    if (!run.ok()) return run.status();
    b.runs.push_back(std::move(*run));
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
  return Status::SecurityViolation("scan response: " + what);
}

}  // namespace

Result<VerifiedScan> VerifyScanResponse(const KeyStore& keystore, NodeId edge,
                                        Key lo, Key hi,
                                        const ScanResponseBody& resp,
                                        const GetVerifyOptions& opts) {
  if (lo > hi) return Status::InvalidArgument("scan range is empty");
  if (resp.lo != lo || resp.hi != hi) {
    return Violation("answers a different range");
  }

  // --- Root certificate binds the level roots (as in gets). ---
  const bool any_level_nonempty = std::any_of(
      resp.level_roots.begin(), resp.level_roots.end(),
      [](const Digest256& d) { return !d.IsZero(); });
  if (resp.root_cert.has_value()) {
    WEDGE_RETURN_NOT_OK(VerifierCache::VerifyPresentedRoot(
        keystore, edge, *resp.root_cert, resp.level_roots, opts.cache));
  } else if (any_level_nonempty || !resp.runs.empty()) {
    return Violation("level data presented without a root certificate");
  }

  // --- Freshness window (§V-D). ---
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

  // --- L0 blocks: contiguous, certified where claimed. ---
  if (resp.l0_certs.size() != resp.l0_blocks.size()) {
    return Violation("l0 certificate vector size mismatch");
  }
  bool all_l0_certified = true;
  size_t set_aside = 0;
  auto slot_bid = [&resp](size_t i) {
    return resp.l0_blocks[i] != nullptr ? resp.l0_blocks[i]->id
                                        : resp.l0_refs[i]->bid;
  };
  for (size_t i = 0; i < resp.l0_blocks.size(); ++i) {
    if (resp.l0_blocks[i] == nullptr) {
      if (!opts.set_aside_unresolved || i >= resp.l0_refs.size() ||
          !resp.l0_refs[i].has_value()) {
        return Violation("unresolved L0 block reference");
      }
      set_aside++;
    }
    if (i > 0 && slot_bid(i) != slot_bid(i - 1) + 1) {
      return Violation("L0 block ids are not contiguous");
    }
    if (!resp.l0_certs[i].has_value()) all_l0_certified = false;
  }
  // Cache-missed blocks are digested together in one multi-buffer batch.
  std::vector<std::shared_ptr<VerifierCache::BlockEntry>> l0_entries;
  if (set_aside == 0) {
    auto l0_verified = VerifierCache::VerifyPresentedL0Blocks(
        keystore, edge, resp.l0_blocks, resp.l0_certs, opts.cache);
    if (!l0_verified.ok()) return l0_verified.status();
    l0_entries = std::move(*l0_verified);
  } else {
    // Only the blocks in hand are checked; their pairs are then
    // extracted below without the cache's index.
    std::vector<std::shared_ptr<const Block>> blocks;
    std::vector<std::optional<BlockCertificate>> certs;
    for (size_t i = 0; i < resp.l0_blocks.size(); ++i) {
      if (resp.l0_blocks[i] == nullptr) continue;
      blocks.push_back(resp.l0_blocks[i]);
      certs.push_back(resp.l0_certs[i]);
    }
    auto l0_verified = VerifierCache::VerifyPresentedL0Blocks(
        keystore, edge, blocks, certs, opts.cache);
    if (!l0_verified.ok()) return l0_verified.status();
    l0_entries.resize(resp.l0_blocks.size());
  }

  // --- Rebuild the result from evidence: newest version per key. ---
  std::map<Key, KvPair> newest;  // key -> newest pair seen so far

  // L0 first (newest data); within L0, higher version wins.
  for (size_t i = 0; i < resp.l0_blocks.size(); ++i) {
    if (resp.l0_blocks[i] == nullptr) continue;  // set aside
    if (l0_entries[i] != nullptr) {
      // Cached per-block index: already newest-per-key within the block.
      for (const auto& [k, pair] : l0_entries[i]->newest) {
        if (k < lo || k > hi) continue;
        auto it = newest.find(k);
        if (it == newest.end() || it->second.version < pair.version) {
          newest[k] = pair;
        }
      }
      continue;
    }
    // Cache off: derive pairs with the shared content-defined rule.
    for (auto& pair : ExtractKvPairs(*resp.l0_blocks[i])) {
      if (pair.key < lo || pair.key > hi) continue;
      auto it = newest.find(pair.key);
      if (it == newest.end() || it->second.version < pair.version) {
        newest[pair.key] = std::move(pair);
      }
    }
  }
  // Key set settled by L0 entries; levels only add keys L0 lacks.
  const auto l0_keys = newest;

  // --- Level runs: verified, adjacent, and covering [lo, hi].
  // Processed in ascending level order (lower level = newer data), so a
  // key present at several levels resolves to its newest version no
  // matter how the response ordered the runs. ---
  const size_t nlevels = resp.level_roots.size();
  std::vector<bool> level_presented(nlevels + 1, false);
  std::vector<const ScanLevelRun*> by_level(nlevels + 1, nullptr);
  for (const auto& run : resp.runs) {
    if (run.level == 0 || run.level > nlevels) {
      return Violation("run level out of range");
    }
    if (level_presented[run.level]) return Violation("duplicate level run");
    level_presented[run.level] = true;
    by_level[run.level] = &run;
  }
  for (uint32_t lvl = 1; lvl <= nlevels; ++lvl) {
    if (by_level[lvl] == nullptr) continue;
    const ScanLevelRun& run = *by_level[lvl];
    const Digest256& root = resp.level_roots[run.level - 1];
    if (root.IsZero()) return Violation("run for an empty level");
    if (run.pages.empty()) return Violation("empty run for non-empty level");
    if (run.proofs.size() != run.pages.size()) {
      return Violation("run proof count mismatch");
    }
    // Ends must cover the scanned range...
    if (!run.pages.front()->Covers(lo) || !run.pages.back()->Covers(hi)) {
      return Violation("run does not cover the scanned range");
    }
    // First pass: adjacency, and which pages the run cache cannot vouch
    // for. An adjacent earlier scan that verified an overlapping run
    // makes the overlap a run hit — only the new tail pages get hashed.
    std::vector<size_t> fresh;
    for (size_t i = 0; i < run.pages.size(); ++i) {
      const Page& page = *run.pages[i];
      // ...and interior pages must be adjacent: a withheld middle page
      // would leave a hole here.
      if (i > 0 && run.pages[i - 1]->max_key != page.min_key - 1) {
        return Violation("run pages are not adjacent");
      }
      if (opts.cache == nullptr ||
          !opts.cache->IsRunVerified(root, page, run.proofs[i])) {
        fresh.push_back(i);
      }
    }
    // Missed pages are hashed in one multi-buffer batch, then each walks
    // its proof against the memoized digest.
    if (!fresh.empty()) {
      std::vector<std::shared_ptr<const Page>> to_seal;
      to_seal.reserve(fresh.size());
      for (size_t i : fresh) to_seal.push_back(run.pages[i]);
      Page::SealAll(to_seal);
      for (size_t i : fresh) {
        WEDGE_RETURN_NOT_OK(run.pages[i]->CheckWellFormed());
        WEDGE_RETURN_NOT_OK(
            MerkleTree::Verify(root, run.pages[i]->Digest(), run.proofs[i]));
      }
    }
    if (opts.cache != nullptr) {
      opts.cache->RecordRun(root, run.pages, run.proofs);
    }
    for (size_t i = 0; i < run.pages.size(); ++i) {
      for (const KvPair& kv : run.pages[i]->pairs) {
        if (kv.key < lo || kv.key > hi) continue;
        // Lower levels are newer: only fill keys not seen yet. L0 keys
        // always shadow level keys.
        if (l0_keys.count(kv.key) != 0) continue;
        newest.emplace(kv.key, kv);  // first (newest) level wins
      }
    }
  }

  // --- Completeness: every non-empty level must have presented a run
  // (any level could contribute keys anywhere in the range). ---
  for (uint32_t lvl = 1; lvl <= nlevels; ++lvl) {
    if (!resp.level_roots[lvl - 1].IsZero() && !level_presented[lvl]) {
      return Violation("missing run for non-empty level " +
                       std::to_string(lvl));
    }
  }

  if (set_aside > 0) {
    // A set-aside block may replace any pair of the evidence, but it
    // cannot remove a key: each one must still be claimed.
    std::set<Key> claimed;
    for (const KvPair& p : resp.pairs) claimed.insert(p.key);
    for (const auto& [key, pair] : newest) {
      if (claimed.count(key) == 0) {
        return Violation("claim omits key " + std::to_string(key));
      }
    }
    return Status::NotFound(std::to_string(set_aside) +
                            " L0 block(s) set aside: the claim stays "
                            "unchecked");
  }

  // --- Claim must equal evidence. ---
  VerifiedScan out;
  out.phase2 = all_l0_certified;
  out.pairs.reserve(newest.size());
  for (auto& [key, pair] : newest) out.pairs.push_back(std::move(pair));
  if (out.pairs.size() != resp.pairs.size()) {
    return Violation("claimed pair count contradicts evidence");
  }
  for (size_t i = 0; i < out.pairs.size(); ++i) {
    if (!(out.pairs[i] == resp.pairs[i])) {
      return Violation("claimed pair contradicts evidence at index " +
                       std::to_string(i));
    }
  }
  return out;
}

}  // namespace wedge
