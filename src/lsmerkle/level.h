// LevelState: one LSMerkle level (1..n): its pages plus the Merkle tree
// over the page digests.
//
// Pages are immutable between merges, so SetPages does all the per-page
// crypto exactly once: it seals each page's digest, builds the Merkle
// tree, and precomputes every page's membership proof. The read path then
// assembles responses from this cached material without hashing anything,
// and shares the pages themselves by pointer (SharedPage) instead of
// copying them into each response.

#pragma once

#include <memory>
#include <vector>

#include "common/result.h"
#include "lsmerkle/bloom.h"
#include "lsmerkle/page.h"
#include "merkle/merkle_tree.h"

namespace wedge {

class LevelState {
 public:
  LevelState()
      : pages_(std::make_shared<const std::vector<Page>>()), tree_({}) {}

  /// Replaces the level's pages (after a merge): seals page digests,
  /// rebuilds the Merkle tree, precomputes per-page proofs and bloom
  /// filters. Fails if the range invariant does not hold.
  Status SetPages(std::vector<Page> pages);

  const std::vector<Page>& pages() const { return *pages_; }
  size_t page_count() const { return pages_->size(); }
  bool empty() const { return pages_->empty(); }

  /// The page at `index`, shared without copying. The returned pointer
  /// keeps the whole page vector alive even across a later SetPages, so
  /// in-flight responses stay valid while the level is replaced.
  std::shared_ptr<const Page> SharedPage(size_t index) const {
    return std::shared_ptr<const Page>(pages_, &(*pages_)[index]);
  }

  /// The level's Merkle root (zero digest when empty).
  const Digest256& root() const { return tree_.Root(); }

  /// Membership proof for the page at `index` — precomputed at SetPages,
  /// so this is a lookup, not a tree walk.
  Result<MerkleProof> ProvePage(size_t index) const {
    if (index >= proofs_.size()) {
      return Status::OutOfRange("no page " + std::to_string(index));
    }
    return proofs_[index];
  }

  /// Index of the unique page whose range covers `key`. NotFound when the
  /// level is empty.
  Result<size_t> FindPageIndex(Key key) const;

  /// Advisory bloom probe: false means page `index` certainly lacks
  /// `key`. Filters are local, rebuilt from page contents — never part
  /// of the certified state, so a wrong filter could only cost latency,
  /// not correctness.
  bool MayContain(size_t index, Key key) const {
    return index < filters_.size() && filters_[index].MayContain(key);
  }

  /// Total payload bytes across pages (cost model input).
  size_t ByteSize() const;

 private:
  /// Shared so responses can alias individual pages zero-copy; replaced
  /// wholesale (never mutated) on merge.
  std::shared_ptr<const std::vector<Page>> pages_;
  std::vector<MerkleProof> proofs_;  // parallel to pages
  std::vector<BloomFilter> filters_;
  MerkleTree tree_;
};

}  // namespace wedge
