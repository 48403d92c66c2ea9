#include "core/read_service.h"

#include <algorithm>
#include <map>

namespace wedge {

namespace {

/// Emits one slot per L0 block, with its certificate: a reference when
/// `held` names the block by bid and digest, else the block itself
/// (shared from the tree, not copied, until encoded onto the wire).
template <typename Body>
void AddL0Slots(const LsmerkleTree& lsm, const EdgeLog& log,
                std::span<const BlockRef> held, Body* body) {
  for (const L0Unit& unit : lsm.l0_units()) {
    const BlockRef ref{unit.block->id, unit.digest};
    const bool is_held =
        std::find(held.begin(), held.end(), ref) != held.end();
    body->l0_blocks.push_back(is_held ? nullptr : unit.block);
    body->l0_refs.push_back(is_held ? std::optional<BlockRef>(ref)
                                    : std::nullopt);
    body->l0_certs.push_back(log.GetCertificate(unit.block->id));
  }
}

}  // namespace

GetResponseBody AssembleGetResponse(const LsmerkleTree& lsm,
                                    const EdgeLog& log, Key key,
                                    bool hide_l0,
                                    std::span<const BlockRef> held) {
  GetResponseBody body;
  body.key = key;

  LsmerkleTree::FindResult r;
  if (hide_l0) {
    for (size_t i = 1; i < lsm.level_count(); ++i) {
      const LevelState& level = lsm.level(i);
      if (level.empty()) continue;
      auto idx = level.FindPageIndex(key);
      if (!idx.ok()) continue;
      auto hit = level.pages()[*idx].Find(key);
      if (hit.has_value()) {
        r.found = true;
        r.pair = *hit;
        r.level = static_cast<uint32_t>(i);
        break;
      }
    }
  } else {
    r = lsm.Lookup(key);
  }
  body.found = r.found;
  body.found_level = r.level;
  if (r.found) {
    body.value = r.pair.value;
    body.version = r.pair.version;
  }

  if (!hide_l0) AddL0Slots(lsm, log, held, &body);

  const uint32_t deepest =
      r.found ? r.level : static_cast<uint32_t>(lsm.level_count() - 1);
  for (uint32_t lvl = 1; lvl <= deepest; ++lvl) {
    const LevelState& level = lsm.level(lvl);
    if (level.empty()) continue;
    auto idx = level.FindPageIndex(key);
    if (!idx.ok()) continue;
    GetLevelPart part;
    part.level = lvl;
    part.page = level.SharedPage(*idx);          // zero-copy
    part.proof = *level.ProvePage(*idx);         // precomputed at SetPages
    body.parts.push_back(std::move(part));
  }
  body.level_roots = lsm.LevelRoots();
  if (lsm.root_cert().has_value()) body.root_cert = lsm.root_cert();
  return body;
}

ScanResponseBody AssembleScanResponse(const LsmerkleTree& lsm,
                                      const EdgeLog& log, Key lo, Key hi,
                                      bool drop_last_run_page,
                                      std::span<const BlockRef> held) {
  ScanResponseBody body;
  body.lo = lo;
  body.hi = hi;

  // Evidence: a slot per L0 block (any may hold range keys), plus per
  // level the adjacent page run covering [lo, hi].
  AddL0Slots(lsm, log, held, &body);
  std::map<Key, KvPair> newest;
  for (const auto& unit : lsm.l0_units()) {
    for (const KvPair& kv : unit.pairs) {
      if (kv.key < lo || kv.key > hi) continue;
      auto it = newest.find(kv.key);
      if (it == newest.end() || it->second.version < kv.version) {
        newest[kv.key] = kv;
      }
    }
  }
  const auto l0_keys = newest;

  for (uint32_t lvl = 1; lvl < lsm.level_count(); ++lvl) {
    const LevelState& level = lsm.level(lvl);
    if (level.empty()) continue;
    auto start = level.FindPageIndex(lo);
    if (!start.ok()) continue;
    ScanLevelRun run;
    run.level = lvl;
    for (size_t idx = *start; idx < level.page_count(); ++idx) {
      const Page& page = level.pages()[idx];
      if (page.min_key > hi) break;
      run.pages.push_back(level.SharedPage(idx));  // zero-copy
      run.proofs.push_back(*level.ProvePage(idx));
      for (const KvPair& kv : page.pairs) {
        if (kv.key < lo || kv.key > hi) continue;
        if (l0_keys.count(kv.key) != 0) continue;
        newest.emplace(kv.key, kv);  // lower level = newer, first wins
      }
    }
    if (drop_last_run_page && run.pages.size() > 1) {
      run.pages.pop_back();
      run.proofs.pop_back();
    }
    body.runs.push_back(std::move(run));
  }

  body.pairs.reserve(newest.size());
  for (auto& [key, pair] : newest) body.pairs.push_back(pair);
  body.level_roots = lsm.LevelRoots();
  if (lsm.root_cert().has_value()) body.root_cert = lsm.root_cert();
  return body;
}

}  // namespace wedge
