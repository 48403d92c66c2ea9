// BoundedMpscQueue: the channel primitive of ThreadedRuntime.
//
// Many producers (other node threads, the facade thread) push tasks into
// one consumer's inbox. The queue is bounded: a full queue blocks the
// producer until the consumer drains — backpressure instead of unbounded
// memory growth when a node falls behind. FIFO order is preserved, which
// is what gives ThreadedTransport its per-sender in-order delivery.
//
// Close() flips the queue into drain mode: pushes are refused (Push
// returns false) but the consumer keeps popping until empty, so work
// already accepted is never silently dropped at shutdown.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace wedge {

template <typename T>
class BoundedMpscQueue {
 public:
  explicit BoundedMpscQueue(size_t capacity) : capacity_(capacity) {}

  BoundedMpscQueue(const BoundedMpscQueue&) = delete;
  BoundedMpscQueue& operator=(const BoundedMpscQueue&) = delete;

  /// Blocks while the queue is full; returns true once `item` is
  /// enqueued, false if the queue was closed first (item dropped).
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed AND empty.
  /// Returns nullopt only in the closed-and-drained case.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    return PopLocked();
  }

  /// Blocks until an item is available, the queue is closed and drained,
  /// `deadline` passes, or Nudge() is called — the latter three all
  /// return nullopt. The consumer uses the nullopt cases to re-examine
  /// its timer heap.
  template <typename TimePoint>
  std::optional<T> PopUntil(TimePoint deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait_until(lock, deadline, [&] {
      return closed_ || nudged_ || !items_.empty();
    });
    nudged_ = false;
    if (items_.empty()) return std::nullopt;
    return PopLocked();
  }

  /// Wakes the consumer out of PopUntil without enqueuing anything
  /// (e.g. a timer earlier than its current wait deadline was armed).
  void Nudge() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      nudged_ = true;
    }
    not_empty_.notify_one();
  }

  /// Refuses all future pushes and releases blocked producers. Items
  /// already queued remain poppable (drain semantics). Idempotent.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  // Requires mu_ held and !items_.empty() unless closed.
  std::optional<T> PopLocked() {
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return item;
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
  bool nudged_ = false;
};

}  // namespace wedge
