#include "lsmerkle/lsmerkle_tree.h"

namespace wedge {

LsmerkleTree::LsmerkleTree(LsmConfig config) : config_(std::move(config)) {
  if (config_.level_thresholds.size() < 2) {
    config_.level_thresholds = {10, 10};
  }
  levels_.resize(config_.level_thresholds.size() - 1);
}

Status LsmerkleTree::ApplyBlock(Block block) {
  // Content-defined kv extraction: raw append entries contribute no
  // pairs but the block still becomes an L0 unit, keeping the L0 block
  // id stream contiguous — read proofs depend on that even for logs
  // that interleave puts and appends.
  L0Unit unit;
  unit.digest = block.Digest();
  unit.pairs = ExtractKvPairs(block);
  unit.block = std::make_shared<const Block>(std::move(block));
  unit.newest.reserve(unit.pairs.size());
  for (uint32_t i = 0; i < unit.pairs.size(); ++i) {
    unit.newest[unit.pairs[i].key] = i;  // later entries overwrite: newest
  }
  l0_.push_back(std::move(unit));
  return Status::OK();
}

std::optional<size_t> LsmerkleTree::NeedsMerge() const {
  if (l0_.size() > config_.level_thresholds[0]) return 0;
  // The last level has nowhere to merge into — it simply grows past its
  // threshold (the classic LSM bottom level). Proposing a merge from it
  // would be rejected by the cloud as malicious.
  for (size_t i = 0; i + 1 < levels_.size(); ++i) {
    if (levels_[i].page_count() > config_.level_thresholds[i + 1]) {
      return i + 1;
    }
  }
  return std::nullopt;
}

Status LsmerkleTree::InstallMergeRaw(size_t from, size_t consumed_l0,
                                     std::vector<Page> merged) {
  if (from + 1 >= level_count()) {
    return Status::InvalidArgument("cannot merge past the last level");
  }
  if (from == 0) {
    if (consumed_l0 > l0_.size()) {
      return Status::InvalidArgument("merge consumed more L0 blocks than exist");
    }
    l0_.erase(l0_.begin(), l0_.begin() + static_cast<long>(consumed_l0));
  } else {
    WEDGE_RETURN_NOT_OK(levels_[from - 1].SetPages({}));
  }
  return levels_[from].SetPages(std::move(merged));
}

Status LsmerkleTree::SetEpochAndCert(RootCertificate cert) {
  epoch_ = cert.epoch;
  // Consistency check: the certified global root must match our recomputed
  // one; a mismatch means the cloud and edge diverged.
  if (cert.global_root != GlobalRoot()) {
    return Status::Corruption(
        "installed merge result does not reproduce certified global root");
  }
  root_cert_ = std::move(cert);
  return Status::OK();
}

Status LsmerkleTree::InstallMergeResult(size_t from, size_t consumed_l0,
                                        std::vector<Page> merged,
                                        RootCertificate cert) {
  WEDGE_RETURN_NOT_OK(InstallMergeRaw(from, consumed_l0, std::move(merged)));
  return SetEpochAndCert(std::move(cert));
}

Status LsmerkleTree::RestoreLevels(std::vector<std::vector<Page>> levels,
                                   Epoch epoch,
                                   std::optional<RootCertificate> cert) {
  if (levels.size() != levels_.size()) {
    return Status::InvalidArgument(
        "restore level count " + std::to_string(levels.size()) +
        " does not match configured " + std::to_string(levels_.size()));
  }
  for (size_t i = 0; i < levels.size(); ++i) {
    WEDGE_RETURN_NOT_OK(levels_[i].SetPages(std::move(levels[i])));
  }
  epoch_ = epoch;
  if (cert.has_value()) {
    if (cert->global_root != GlobalRoot()) {
      return Status::Corruption(
          "recovered levels do not reproduce the certified global root");
    }
    root_cert_ = std::move(cert);
  }
  return Status::OK();
}

std::vector<Digest256> LsmerkleTree::LevelRoots() const {
  std::vector<Digest256> roots;
  roots.reserve(levels_.size());
  for (const auto& lvl : levels_) roots.push_back(lvl.root());
  return roots;
}

LsmerkleTree::FindResult LsmerkleTree::Lookup(Key key) const {
  FindResult r;
  // L0: newest block first; within a block the per-block index already
  // resolved last-write-wins, so each block costs one hash probe.
  for (auto it = l0_.rbegin(); it != l0_.rend(); ++it) {
    auto hit = it->newest.find(key);
    if (hit != it->newest.end()) {
      r.found = true;
      r.pair = it->pairs[hit->second];
      r.level = 0;
      return r;
    }
  }
  // Levels: lower level index = newer data.
  for (size_t i = 0; i < levels_.size(); ++i) {
    if (levels_[i].empty()) continue;
    auto idx = levels_[i].FindPageIndex(key);
    if (!idx.ok()) continue;
    if (use_bloom_ && !levels_[i].MayContain(*idx, key)) {
      lookup_stats_.bloom_skips++;
      continue;
    }
    lookup_stats_.page_probes++;
    auto hit = levels_[i].pages()[*idx].Find(key);
    if (hit.has_value()) {
      r.found = true;
      r.pair = *hit;
      r.level = static_cast<uint32_t>(i + 1);
      return r;
    }
  }
  return r;
}

size_t LsmerkleTree::ApproxPairCount() const {
  size_t n = 0;
  for (const auto& u : l0_) n += u.pairs.size();
  for (const auto& lvl : levels_) {
    for (const auto& p : lvl.pages()) n += p.pairs.size();
  }
  return n;
}

}  // namespace wedge
