// The first-class asynchronous Store surface.
//
// The paper's headline mechanism is *lazy certification*: Phase I acks
// at edge latency while the cloud certifies in the background. Until
// this layer existed the façade still blocked every caller through
// WaitPhase1 — pump-to-completion — so the one thing the system does
// asynchronously could only be *measured* synchronously. AsyncPut /
// AsyncGet / AsyncMultiGet / AsyncScan / AsyncAppend return handles
// whose completions fire on the runtime's executors:
//
//   AsyncCommit c = store.AsyncPut(42, value);
//   c.OnPhase1([](const Status& s, const Commit& p1) { ... });   // edge ack
//   c.OnPhase2([](const Status& s, const Commit& p2) { ... });   // certified
//   AsyncOp<GetResult> g = store.AsyncGet(42, /*client=*/0,
//                                         {.deadline = 50 * kMillisecond});
//   g.Cancel();                           // settles Cancelled if still open
//
// Contracts:
//  - Settle-once: each handle slot (read result; commit phase) settles
//    exactly once — backend completion, deadline expiry, and Cancel
//    race, first wins. Phase I settles before Phase II per handle, even
//    when a deadline/cancel settles both.
//  - Callbacks run on whatever execution context settles the slot (a
//    node executor for backend completions, the control executor for
//    deadline expiries, the caller for Cancel), never under the
//    handle's lock.
//  - Admission: StoreOptions::async_inflight_limit bounds admitted ops
//    between issue and backend completion; excess issues settle
//    ResourceExhausted up front — a slow shard backpressures the issuer
//    instead of ballooning callback memory. Deadline/cancel settle the
//    *handle* early but the admission slot is held until the backend
//    actually completes (the work is still in flight down there).
//  - Wait() / WaitPhaseN() are the synchronous wrappers: they pump the
//    runtime (sim: step events; threads: sleep on the completion
//    condition) until the slot settles, so the sync Store methods are
//    thin shims over this surface.

#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <utility>

#include "api/backend.h"
#include "common/result.h"

namespace wedge {

/// Per-operation knobs of the async surface.
struct AsyncOptions {
  /// Settles the handle with DeadlineExceeded if the operation has not
  /// completed after this much runtime time (virtual under sim, wall
  /// under threads). 0 = no per-op deadline (the handle settles only on
  /// completion or Cancel; a synchronous Wait still has its own budget).
  SimTime deadline = 0;
};

namespace api_internal {

struct StoreCore;

/// Blocks until `done()` holds, bounded by `deadline` (> 0) or the
/// store-wide op_timeout. Defined in store.cc; `done` must read only
/// state written through Runtime::RunOnCompletion.
Status PumpCore(StoreCore& core, const std::function<bool()>& done,
                SimTime deadline);

/// Bounded in-flight admission shared by every async issue (sync reads
/// included). Owned by StoreCore, declared before the backend so it
/// outlives worker-thread teardown: completion wrappers may release
/// slots while the backend shuts down.
class AsyncGate {
 public:
  explicit AsyncGate(size_t limit = 0) : limit_(limit) {}

  void set_limit(size_t limit) { limit_ = limit; }

  /// Admits one operation, or refuses (false) when `limit` admitted ops
  /// are already between issue and backend completion.
  bool TryAdmit() {
    std::lock_guard<std::mutex> lock(mu_);
    if (limit_ > 0 && inflight_ >= limit_) {
      stats_.rejected++;
      return false;
    }
    inflight_++;
    stats_.issued++;
    if (inflight_ > stats_.inflight_peak) stats_.inflight_peak = inflight_;
    return true;
  }

  /// Backend completion arrived for an admitted op. Called exactly once
  /// per admitted op, from the completion wrapper — never from the
  /// deadline or cancel path, which settle the handle but not the slot.
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    if (inflight_ > 0) inflight_--;
    stats_.completed++;
  }

  void CountCancelled() {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.cancelled++;
  }
  void CountDeadlineExpired() {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.deadline_expired++;
  }

  AsyncStats Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    AsyncStats s = stats_;
    s.inflight = inflight_;
    return s;
  }

 private:
  mutable std::mutex mu_;
  size_t limit_;
  uint64_t inflight_ = 0;
  AsyncStats stats_;
};

/// Shared state of a single-completion async read. `settled` guards the
/// slot under `mu`; `done` is the WaitUntil-visible mirror, written only
/// through Runtime::RunOnCompletion (the memory ordering a pumping
/// waiter synchronizes on).
template <typename T>
struct AsyncOpState {
  std::mutex mu;
  bool settled = false;
  Status status;
  T result{};
  std::function<void(const Status&, const T&)> on_done;

  bool done = false;  // RunOnCompletion-published; WaitUntil preds read it

  Runtime* rt = nullptr;
  AsyncGate* gate = nullptr;
};

/// First-wins settle. Returns true iff this call settled the slot; the
/// registered callback (if any) fires outside the lock, on the settling
/// context. `on_claim` runs once the slot is claimed and before anyone
/// can observe the settle (waiters or callbacks), so a deadline or
/// cancel counted there is visible to whoever the settle wakes.
template <typename T>
bool SettleOp(const std::shared_ptr<AsyncOpState<T>>& st, const Status& s,
              T value, const std::function<void()>& on_claim = nullptr) {
  std::function<void(const Status&, const T&)> cb;
  {
    std::lock_guard<std::mutex> lock(st->mu);
    if (st->settled) return false;
    st->settled = true;
    st->status = s;
    st->result = std::move(value);
    cb = std::move(st->on_done);
    st->on_done = nullptr;
  }
  if (on_claim) on_claim();
  st->rt->RunOnCompletion([&] { st->done = true; });
  if (cb) cb(st->status, st->result);
  return true;
}

/// Shared state of a two-phase write handle (AsyncCommit).
struct AsyncCommitState {
  std::mutex mu;
  bool p1_settled = false;
  bool p2_settled = false;
  Status phase1_status;
  Status phase2_status;
  Commit phase1;
  Commit phase2;
  std::function<void(const Status&, const Commit&)> on_phase1;
  std::function<void(const Status&, const Commit&)> on_phase2;

  bool phase1_done = false;  // RunOnCompletion-published mirrors
  bool phase2_done = false;

  Runtime* rt = nullptr;
  AsyncGate* gate = nullptr;
};

/// Settles Phase I (phase2 == false) or Phase II (phase2 == true),
/// first-wins per phase. Settling Phase II force-settles a still-open
/// Phase I with the same outcome first, so the per-handle invariant
/// "Phase I settled before Phase II" holds even on the deadline/cancel
/// paths. Returns true iff any phase settled.
inline bool SettleCommit(const std::shared_ptr<AsyncCommitState>& st,
                         bool phase2, const Status& s, const Commit& c,
                         const std::function<void()>& on_claim = nullptr) {
  std::function<void(const Status&, const Commit&)> cb1, cb2;
  bool fire1 = false, fire2 = false;
  Status s1, s2;
  Commit c1, c2;
  {
    std::lock_guard<std::mutex> lock(st->mu);
    // Phase I settles on its own completion, or is forced by a Phase II
    // settle that found it still open.
    if (!st->p1_settled) {
      st->p1_settled = true;
      st->phase1_status = s;
      st->phase1 = c;
      cb1 = std::move(st->on_phase1);
      st->on_phase1 = nullptr;
      fire1 = true;
    }
    if (phase2 && !st->p2_settled) {
      st->p2_settled = true;
      st->phase2_status = s;
      st->phase2 = c;
      cb2 = std::move(st->on_phase2);
      st->on_phase2 = nullptr;
      fire2 = true;
    }
    s1 = st->phase1_status;
    c1 = st->phase1;
    s2 = st->phase2_status;
    c2 = st->phase2;
  }
  if (!fire1 && !fire2) return false;
  if (on_claim) on_claim();
  st->rt->RunOnCompletion([&] {
    if (fire1) st->phase1_done = true;
    if (fire2) st->phase2_done = true;
  });
  if (fire1 && cb1) cb1(s1, c1);
  if (fire2 && cb2) cb2(s2, c2);
  return true;
}

}  // namespace api_internal

/// Handle to one in-flight single-completion operation (Get / MultiGet /
/// Scan / ReadBlock). Copyable; copies share the state. Keeps the
/// deployment alive (like AsyncCommit); destroying every handle with
/// the op still in flight is safe — the completion settles unobserved.
template <typename T>
class AsyncOp {
 public:
  /// Internal — built by Store's Async* methods.
  AsyncOp(std::shared_ptr<api_internal::StoreCore> core,
          std::shared_ptr<api_internal::AsyncOpState<T>> state)
      : core_(std::move(core)), state_(std::move(state)) {}

  /// True once the handle settled (completion, deadline, or Cancel).
  bool done() const {
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->settled;
  }

  /// Registers the completion callback; fires immediately (on the
  /// caller) when the handle already settled, otherwise once, on the
  /// settling context. At most one callback per handle — a second
  /// registration replaces an unfired first.
  void OnDone(std::function<void(const Status&, const T&)> cb) {
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      if (!state_->settled) {
        state_->on_done = std::move(cb);
        return;
      }
    }
    cb(state_->status, state_->result);
  }

  /// Settles the handle with Cancelled if still open. The backend
  /// request (if admitted) still runs to completion down in the
  /// deployment; only this observation is abandoned.
  void Cancel() {
    api_internal::AsyncGate* gate = state_->gate;
    api_internal::SettleOp<T>(state_, Status::Cancelled("cancelled"), T{},
                              [gate] { gate->CountCancelled(); });
  }

  /// Synchronous wrapper: pumps the runtime until the handle settles
  /// (bounded by `deadline` > 0, else the store-wide op_timeout) and
  /// returns the settled outcome.
  Result<T> Wait(SimTime deadline = 0) {
    auto* st = state_.get();
    WEDGE_RETURN_NOT_OK(
        api_internal::PumpCore(*core_, [st] { return st->done; }, deadline));
    std::lock_guard<std::mutex> lock(state_->mu);
    if (!state_->status.ok()) return state_->status;
    return state_->result;
  }

 private:
  std::shared_ptr<api_internal::StoreCore> core_;
  std::shared_ptr<api_internal::AsyncOpState<T>> state_;
};

/// Handle to one in-flight two-phase write (Put / PutBatch / Append and
/// their Async* forms). Copyable; copies share the state and keep the
/// deployment alive. Phase I settles before Phase II, always.
class AsyncCommit {
 public:
  /// Internal — built by Store's Async* methods.
  AsyncCommit(std::shared_ptr<api_internal::StoreCore> core,
              std::shared_ptr<api_internal::AsyncCommitState> state)
      : core_(std::move(core)), state_(std::move(state)) {}

  bool phase1_done() const {
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->p1_settled;
  }
  bool phase2_done() const {
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->p2_settled;
  }

  /// Registers the Phase I (edge-ack) callback; fires immediately when
  /// that phase already settled.
  void OnPhase1(std::function<void(const Status&, const Commit&)> cb) {
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      if (!state_->p1_settled) {
        state_->on_phase1 = std::move(cb);
        return;
      }
    }
    cb(state_->phase1_status, state_->phase1);
  }

  /// Registers the Phase II (certified) callback; fires immediately
  /// when that phase already settled.
  void OnPhase2(std::function<void(const Status&, const Commit&)> cb) {
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      if (!state_->p2_settled) {
        state_->on_phase2 = std::move(cb);
        return;
      }
    }
    cb(state_->phase2_status, state_->phase2);
  }

  /// Settles every still-open phase with Cancelled (Phase I first).
  void Cancel() {
    api_internal::AsyncGate* gate = state_->gate;
    api_internal::SettleCommit(state_, /*phase2=*/true,
                               Status::Cancelled("cancelled"), Commit{},
                               [gate] { gate->CountCancelled(); });
  }

  /// Pumps the runtime until Phase I commits (temporary, edge-local for
  /// WedgeChain). Returns the commit, or the failure that ended the
  /// phase (DeadlineExceeded if the time budget elapsed first).
  /// `deadline` overrides StoreOptions::op_timeout for this wait; 0
  /// keeps the store-wide budget.
  Result<Commit> WaitPhase1(SimTime deadline = 0) {
    auto* st = state_.get();
    WEDGE_RETURN_NOT_OK(api_internal::PumpCore(
        *core_, [st] { return st->phase1_done; }, deadline));
    std::lock_guard<std::mutex> lock(state_->mu);
    if (!state_->phase1_status.ok()) return state_->phase1_status;
    return state_->phase1;
  }
  /// Pumps the runtime until Phase II commits (cloud-certified). For the
  /// baselines this is the same commit point as Phase I. A lying edge
  /// surfaces here as SecurityViolation / MaliciousBehavior.
  Result<Commit> WaitPhase2(SimTime deadline = 0) {
    auto* st = state_.get();
    WEDGE_RETURN_NOT_OK(api_internal::PumpCore(
        *core_, [st] { return st->phase2_done; }, deadline));
    std::lock_guard<std::mutex> lock(state_->mu);
    if (!state_->phase2_status.ok()) return state_->phase2_status;
    return state_->phase2;
  }

 private:
  std::shared_ptr<api_internal::StoreCore> core_;
  std::shared_ptr<api_internal::AsyncCommitState> state_;
};

}  // namespace wedge
