#include "lsmerkle/level.h"

#include <algorithm>

namespace wedge {

Status LevelState::SetPages(std::vector<Page> pages) {
  WEDGE_RETURN_NOT_OK(CheckLevelRangeInvariant(pages));
  auto shared = std::make_shared<std::vector<Page>>(std::move(pages));

  // Seal every page exactly once, in one multi-buffer batch: all later
  // Digest() calls — Merkle leaves here, response assembly, scan
  // proofs — reuse the memo.
  Page::SealAll(*shared);
  std::vector<Digest256> leaves;
  leaves.reserve(shared->size());
  for (const Page& p : *shared) leaves.push_back(p.Digest());
  tree_ = MerkleTree(std::move(leaves));

  proofs_.clear();
  proofs_.reserve(shared->size());
  for (size_t i = 0; i < shared->size(); ++i) {
    proofs_.push_back(*tree_.Prove(i));
  }

  filters_.clear();
  filters_.reserve(shared->size());
  for (const Page& p : *shared) {
    std::vector<Key> keys;
    keys.reserve(p.pairs.size());
    for (const KvPair& kv : p.pairs) keys.push_back(kv.key);
    filters_.push_back(BloomFilter::Build(keys));
  }
  pages_ = std::move(shared);
  return Status::OK();
}

Result<size_t> LevelState::FindPageIndex(Key key) const {
  if (pages_->empty()) return Status::NotFound("level is empty");
  // Binary search on max_key: first page whose max >= key covers it,
  // because ranges tile the key space.
  auto it = std::lower_bound(
      pages_->begin(), pages_->end(), key,
      [](const Page& p, Key k) { return p.max_key < k; });
  if (it == pages_->end() || !it->Covers(key)) {
    return Status::Internal("range invariant violated: no page covers key");
  }
  return static_cast<size_t>(it - pages_->begin());
}

size_t LevelState::ByteSize() const {
  size_t sz = 0;
  for (const Page& p : *pages_) sz += p.ByteSize();
  return sz;
}

}  // namespace wedge
