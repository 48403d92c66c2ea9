#include "lsmerkle/verifier_cache.h"

#include <algorithm>

#include "lsmerkle/merge.h"

namespace wedge {

namespace {

/// (edge, bid) packed into one map key. NodeIds are 32-bit; block ids are
/// per-edge and far below 2^32 in any realistic run.
uint64_t BlockKey(NodeId edge, BlockId bid) {
  return (static_cast<uint64_t>(edge) << 32) ^ (bid & 0xffffffffull);
}

}  // namespace

bool VerifierCache::IsRootVerified(NodeId edge, const RootCertificate& cert,
                                   const std::vector<Digest256>& level_roots) {
  for (const RootEntry& e : roots_) {
    if (e.edge == edge && e.cert == cert && e.level_roots == level_roots) {
      stats_.root_hits++;
      return true;
    }
  }
  stats_.root_misses++;
  return false;
}

void VerifierCache::RecordRoot(NodeId edge, const RootCertificate& cert,
                               const std::vector<Digest256>& level_roots) {
  roots_.push_back(RootEntry{edge, cert, level_roots});
  while (roots_.size() > limits_.max_roots) roots_.pop_front();
}

std::shared_ptr<VerifierCache::BlockEntry> VerifierCache::FindBlock(
    NodeId edge, BlockId bid) {
  auto it = blocks_.find(BlockKey(edge, bid));
  if (it == blocks_.end()) {
    stats_.block_misses++;
    return nullptr;
  }
  stats_.block_hits++;
  return it->second;
}

std::shared_ptr<VerifierCache::BlockEntry> VerifierCache::RecordBlock(
    NodeId edge, std::shared_ptr<const Block> block, const Digest256& digest,
    std::optional<BlockCertificate> cert,
    std::unordered_map<Key, KvPair> newest) {
  const uint64_t key = BlockKey(edge, block->id);
  auto& slot = blocks_[key];
  if (slot == nullptr) block_order_.push_back(key);
  // A fresh entry, not an update in place: a request that pinned the
  // old entry keeps the block it listed.
  auto entry = std::make_shared<BlockEntry>(
      BlockEntry{edge, std::move(block), digest, std::move(cert),
                 std::move(newest)});
  slot = entry;
  while (blocks_.size() > limits_.max_blocks && !block_order_.empty()) {
    blocks_.erase(block_order_.front());
    block_order_.pop_front();
  }
  // Even if the cap just evicted it from the map, the caller's shared
  // entry stays valid for the current request.
  return entry;
}

std::vector<std::shared_ptr<VerifierCache::BlockEntry>>
VerifierCache::HeldBlocks(NodeId edge, BlockId floor, size_t max) const {
  std::vector<std::shared_ptr<BlockEntry>> held;
  for (const auto& [key, entry] : blocks_) {
    if (entry->edge == edge && entry->block->id >= floor) {
      held.push_back(entry);
    }
  }
  std::sort(held.begin(), held.end(), [](const auto& a, const auto& b) {
    return a->block->id > b->block->id;
  });
  if (held.size() > max) held.resize(max);
  return held;
}

Result<size_t> VerifierCache::ResolveHeldRefs(
    const std::vector<std::shared_ptr<BlockEntry>>& held,
    const std::vector<std::optional<BlockRef>>& refs,
    std::vector<std::shared_ptr<const Block>>* blocks) {
  size_t resolved = 0;
  Status first_violation;
  for (size_t i = 0; i < refs.size() && i < blocks->size(); ++i) {
    if (!refs[i].has_value() || (*blocks)[i] != nullptr) continue;
    const BlockRef& ref = *refs[i];
    auto it = std::find_if(held.begin(), held.end(), [&](const auto& e) {
      return e->block->id == ref.bid;
    });
    Status st;
    if (it == held.end()) {
      st = Status::SecurityViolation(
          "reference to block " + std::to_string(ref.bid) +
          ", which the request did not list");
    } else if (!(*it)->digest.CryptoEquals(ref.digest)) {
      st = Status::SecurityViolation(
          "reference to block " + std::to_string(ref.bid) +
          " carries a digest other than the held copy's");
    } else {
      (*blocks)[i] = (*it)->block;
      resolved++;
    }
    if (first_violation.ok()) first_violation = st;
  }
  if (!first_violation.ok()) return first_violation;
  return resolved;
}

bool VerifierCache::IsPartVerified(const Digest256& level_root,
                                   const Page& page,
                                   const MerkleProof& proof) {
  auto rit = parts_.find(level_root);
  if (rit != parts_.end()) {
    auto pit = rit->second.find(page.min_key);
    if (pit != rit->second.end() && *pit->second.page == page &&
        pit->second.proof == proof) {
      stats_.part_hits++;
      return true;
    }
  }
  stats_.part_misses++;
  return false;
}

void VerifierCache::RecordPart(const Digest256& level_root,
                               std::shared_ptr<const Page> page,
                               const MerkleProof& proof) {
  auto [rit, fresh_root] = parts_.try_emplace(level_root);
  if (fresh_root) part_root_order_.push_back(level_root);
  const Key min_key = page->min_key;
  auto [pit, fresh_part] =
      rit->second.insert_or_assign(min_key, PartEntry{std::move(page), proof});
  (void)pit;
  if (fresh_part) part_count_++;
  while ((parts_.size() > limits_.max_part_roots ||
          part_count_ > limits_.max_parts) &&
         !part_root_order_.empty()) {
    auto evicted = parts_.find(part_root_order_.front());
    if (evicted != parts_.end()) {
      part_count_ -= evicted->second.size();
      parts_.erase(evicted);
    }
    part_root_order_.pop_front();
  }
}

bool VerifierCache::IsRunVerified(const Digest256& level_root,
                                  const Page& page,
                                  const MerkleProof& proof) {
  auto rit = runs_.find(level_root);
  if (rit != runs_.end()) {
    // Floor search: the run starting at or before page.min_key.
    auto it = rit->second.upper_bound(page.min_key);
    if (it != rit->second.begin()) {
      --it;
      if (it->second.hi >= page.min_key) {
        auto pit = it->second.pages.find(page.min_key);
        if (pit != it->second.pages.end() && *pit->second.page == page &&
            pit->second.proof == proof) {
          stats_.run_hits++;
          return true;
        }
      }
    }
  }
  stats_.run_misses++;
  return false;
}

void VerifierCache::RecordRun(
    const Digest256& level_root,
    const std::vector<std::shared_ptr<const Page>>& pages,
    const std::vector<MerkleProof>& proofs) {
  if (pages.empty() || proofs.size() != pages.size()) return;
  auto [rit, fresh_root] = runs_.try_emplace(level_root);
  if (fresh_root) run_root_order_.push_back(level_root);
  auto& root_runs = rit->second;

  Key lo = pages.front()->min_key;
  RunEntry merged;
  merged.hi = pages.back()->max_key;

  // Absorb every existing run that overlaps or touches [lo, hi]: adjacent
  // scans then grow one maximal run instead of fragmenting. (Same level
  // root ⇒ same tree, so a page present in both copies is identical; the
  // union by min_key cannot mix content.)
  auto it = root_runs.lower_bound(lo);
  if (it != root_runs.begin()) {
    auto prev = std::prev(it);
    if (prev->second.hi >= lo || (lo > 0 && prev->second.hi == lo - 1)) {
      it = prev;
    }
  }
  while (it != root_runs.end() &&
         (it->first <= merged.hi ||
          (merged.hi < kMaxKey && it->first == merged.hi + 1))) {
    lo = std::min(lo, it->first);
    merged.hi = std::max(merged.hi, it->second.hi);
    run_page_count_ -= it->second.pages.size();
    for (auto& [k, pe] : it->second.pages) {
      merged.pages.emplace(k, std::move(pe));
    }
    it = root_runs.erase(it);
  }
  for (size_t i = 0; i < pages.size(); ++i) {
    merged.pages.insert_or_assign(pages[i]->min_key,
                                  PartEntry{pages[i], proofs[i]});
  }
  run_page_count_ += merged.pages.size();
  root_runs.insert_or_assign(lo, std::move(merged));
  EvictRunsToLimits();
}

void VerifierCache::EvictRunsToLimits() {
  while ((runs_.size() > limits_.max_run_roots ||
          run_page_count_ > limits_.max_run_pages) &&
         !run_root_order_.empty()) {
    auto evicted = runs_.find(run_root_order_.front());
    if (evicted != runs_.end()) {
      for (const auto& [lo, run] : evicted->second) {
        run_page_count_ -= run.pages.size();
      }
      runs_.erase(evicted);
    }
    run_root_order_.pop_front();
  }
}

Status VerifierCache::VerifyPresentedRoot(
    const KeyStore& keystore, NodeId edge, const RootCertificate& cert,
    const std::vector<Digest256>& level_roots, VerifierCache* cache) {
  if (cache != nullptr && cache->IsRootVerified(edge, cert, level_roots)) {
    return Status::OK();
  }
  WEDGE_RETURN_NOT_OK(cert.Validate(keystore));
  if (cert.edge != edge) {
    return Status::SecurityViolation(
        "root certificate is for a different edge");
  }
  if (!ComputeGlobalRoot(cert.epoch, level_roots)
           .CryptoEquals(cert.global_root)) {
    return Status::SecurityViolation(
        "level roots do not hash to certified global root");
  }
  if (cache != nullptr) cache->RecordRoot(edge, cert, level_roots);
  return Status::OK();
}

Result<std::vector<std::shared_ptr<VerifierCache::BlockEntry>>>
VerifierCache::VerifyPresentedL0Blocks(
    const KeyStore& keystore, NodeId edge,
    const std::vector<std::shared_ptr<const Block>>& blocks,
    const std::vector<std::optional<BlockCertificate>>& certs,
    VerifierCache* cache) {
  auto violation = [](const std::string& what) {
    return Status::SecurityViolation("l0 block: " + what);
  };
  if (certs.size() != blocks.size()) {
    return violation("certificate vector size mismatch");
  }
  std::vector<std::shared_ptr<BlockEntry>> out(blocks.size());

  // Pass 1: serve content-equal cache hits; collect the misses.
  std::vector<size_t> fresh;
  fresh.reserve(blocks.size());
  for (size_t i = 0; i < blocks.size(); ++i) {
    const Block& blk = *blocks[i];
    if (cache != nullptr) {
      std::shared_ptr<BlockEntry> e = cache->FindBlock(edge, blk.id);
      if (e != nullptr && (e->block == blocks[i] || *e->block == blk)) {
        // Content bound by identity with the verified copy (a resolved
        // reference) or by equality with it. Only a certificate this
        // entry has not seen yet needs work — and its digest check is
        // against the cached digest, no re-hash.
        const std::optional<BlockCertificate>& cert = certs[i];
        if (cert.has_value() && !(e->cert.has_value() && *e->cert == *cert)) {
          WEDGE_RETURN_NOT_OK(cert->Validate(keystore));
          if (cert->edge != edge) return violation("cert for wrong edge");
          if (cert->bid != blk.id) return violation("cert for wrong bid");
          if (!cert->digest.CryptoEquals(e->digest)) {
            return violation("digest does not match certificate");
          }
          e->cert = *cert;
        }
        out[i] = std::move(e);
        continue;
      }
    }
    fresh.push_back(i);
  }

  // Pass 2: every missed block that needs a digest (a certificate to
  // check against, or a cache entry to build) is hashed in one
  // multi-buffer batch instead of block-at-a-time.
  std::vector<size_t> hashed;
  std::vector<Bytes> encoded;
  hashed.reserve(fresh.size());
  encoded.reserve(fresh.size());
  for (size_t idx : fresh) {
    if (cache != nullptr || certs[idx].has_value()) {
      hashed.push_back(idx);
      encoded.push_back(blocks[idx]->Encode());
    }
  }
  const std::vector<Digest256> digests = Block::DigestManyEncoded(encoded);

  // Pass 3: the classic per-block checks against the batch digests.
  size_t hashed_at = 0;
  for (size_t idx : fresh) {
    const Block& blk = *blocks[idx];
    const std::optional<BlockCertificate>& cert = certs[idx];
    WEDGE_RETURN_NOT_OK(blk.ValidateReservations());
    Digest256 digest;
    if (hashed_at < hashed.size() && hashed[hashed_at] == idx) {
      digest = digests[hashed_at++];
    }
    if (cert.has_value()) {
      WEDGE_RETURN_NOT_OK(cert->Validate(keystore));
      if (cert->edge != edge) return violation("cert for wrong edge");
      if (cert->bid != blk.id) return violation("cert for wrong bid");
      if (!cert->digest.CryptoEquals(digest)) {
        return violation("digest does not match certificate");
      }
    }
    if (cache == nullptr) continue;

    // Build the per-key index once (the shared content-defined rule);
    // later requests probe instead of decoding every payload again.
    std::unordered_map<Key, KvPair> newest;
    auto pairs = ExtractKvPairs(blk);
    newest.reserve(pairs.size());
    for (auto& p : pairs) {
      newest[p.key] = std::move(p);  // versions rise with entry idx: newest
    }
    out[idx] =
        cache->RecordBlock(edge, blocks[idx], digest, cert, std::move(newest));
  }
  return out;
}

void VerifierCache::Resize(const Limits& limits) {
  limits_ = limits;
  while (roots_.size() > limits_.max_roots) roots_.pop_front();
  while (blocks_.size() > limits_.max_blocks && !block_order_.empty()) {
    blocks_.erase(block_order_.front());
    block_order_.pop_front();
  }
  while ((parts_.size() > limits_.max_part_roots ||
          part_count_ > limits_.max_parts) &&
         !part_root_order_.empty()) {
    auto evicted = parts_.find(part_root_order_.front());
    if (evicted != parts_.end()) {
      part_count_ -= evicted->second.size();
      parts_.erase(evicted);
    }
    part_root_order_.pop_front();
  }
  EvictRunsToLimits();
}

void VerifierCache::InvalidateRange(Key lo, Key hi) {
  for (auto it = blocks_.begin(); it != blocks_.end();) {
    const auto& newest = it->second->newest;
    bool touches = false;
    for (const auto& [k, p] : newest) {
      if (k >= lo && k <= hi) {
        touches = true;
        break;
      }
    }
    if (touches) {
      it = blocks_.erase(it);
    } else {
      ++it;
    }
  }
  // One rebuild instead of a linear order-scan per erased block.
  std::deque<uint64_t> block_order;
  for (uint64_t key : block_order_) {
    if (blocks_.count(key) > 0) block_order.push_back(key);
  }
  block_order_ = std::move(block_order);

  for (auto it = parts_.begin(); it != parts_.end();) {
    auto& pages = it->second;
    for (auto pit = pages.begin(); pit != pages.end();) {
      if (pit->second.page->min_key <= hi && pit->second.page->max_key >= lo) {
        pit = pages.erase(pit);
        part_count_--;
      } else {
        ++pit;
      }
    }
    // Drop emptied roots so their FIFO slots don't later evict nothing.
    if (pages.empty()) {
      it = parts_.erase(it);
    } else {
      ++it;
    }
  }
  std::deque<Digest256> part_order;
  for (const Digest256& root : part_root_order_) {
    if (parts_.count(root) > 0) part_order.push_back(root);
  }
  part_root_order_ = std::move(part_order);

  // Runs: dropping a whole overlapping run is sound (strictly more
  // conservative than trimming) and resharding is rare enough that the
  // lost reuse does not matter.
  for (auto it = runs_.begin(); it != runs_.end();) {
    auto& root_runs = it->second;
    for (auto run = root_runs.begin(); run != root_runs.end();) {
      if (run->first <= hi && run->second.hi >= lo) {
        run_page_count_ -= run->second.pages.size();
        run = root_runs.erase(run);
      } else {
        ++run;
      }
    }
    if (root_runs.empty()) {
      it = runs_.erase(it);
    } else {
      ++it;
    }
  }
  std::deque<Digest256> run_order;
  for (const Digest256& root : run_root_order_) {
    if (runs_.count(root) > 0) run_order.push_back(root);
  }
  run_root_order_ = std::move(run_order);
}

void VerifierCache::Clear() {
  roots_.clear();
  blocks_.clear();
  block_order_.clear();
  parts_.clear();
  part_root_order_.clear();
  part_count_ = 0;
  runs_.clear();
  run_root_order_.clear();
  run_page_count_ = 0;
}

}  // namespace wedge
