// wedgebench: the end-to-end benchmark of the threaded WedgeChain store.
//
// Drives a real wedge::Store (WedgeChain backend, ThreadedRuntime, wall
// clock, real crypto) with a single-thread open-loop generator: Poisson
// arrivals drawn from --seed, each op issued through the async surface at
// its intended time, latency measured from that intended time (so a stall
// is charged to every op it delays), at most kMaxInflight ops awaiting
// their answer. Every answer is checked: reads must be proof-verified and
// return values that decode to their own key, scans must be sorted,
// in range and complete, and Phase II must not precede Phase I.
//
//   wedgebench --workload read_hot --seed 1 --seconds 10 --trace 0
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; the line before it is the stamped record with every metric
// and the diagnostics. See README.md for the workloads and metrics.

#include <malloc.h>
#include <sys/prctl.h>
#include <unistd.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "api/store.h"
#include "core/deployment.h"
#include "crypto/sha256.h"
#include "layers.h"

using namespace wedge;
using wedgebench::Fail;
using wedgebench::Metric;
using wedgebench::Metrics;
using wedgebench::OnNode;

namespace {

using SteadyClock = std::chrono::steady_clock;

// ------------------------------------------------------------ workloads

enum OpType : uint8_t { kGet = 0, kPut = 1, kScan = 2 };

struct Workload {
  const char* name;
  double put_frac;
  double scan_frac;  // the rest are gets
  uint64_t keys;
  double zipf;  // 0 = uniform
  double rate;  // Poisson arrivals per second
  bool wan;
  bool socket;
};

// Why these four: see README.md. read_hot fits each client's verifier
// cache; read_cold is the same path over ~2.4x the cache; ingest_wan is
// the paper's IoT write path with a real 61 ms edge-cloud RTT;
// audit_socket mixes reads, writes and scans over TCP.
constexpr Workload kWorkloads[] = {
    {"read_hot", 0.0, 0.0, 10'000, 0.99, 4000, false, false},
    {"read_cold", 0.0, 0.0, 500'000, 0.0, 2000, false, false},
    {"ingest_wan", 0.9, 0.0, 100'000, 0.0, 2000, true, false},
    {"audit_socket", 0.3, 0.1, 100'000, 0.0, 1500, false, true},
};

constexpr size_t kClients = 4;
constexpr size_t kOpsPerBlock = 100;
constexpr size_t kValueBytes = 100;
constexpr Key kScanWidth = 64;
constexpr uint64_t kMaxInflight = 1024;
constexpr size_t kL0Threshold = 10;

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

StoreOptions OptionsFor(const Workload& w) {
  RuntimeConfig rt;
  rt.kind = RuntimeKind::kThreaded;
  // One pool thread: extra pool threads compete with the edge and cloud
  // threads on a 4-core host and make the tail unrepeatable.
  rt.driver_pool_threads = 1;
  StoreOptions o;
  o.WithRuntimeConfig(rt)
      .WithClients(kClients)
      .WithOpsPerBlock(kOpsPerBlock)
      .WithLsm({10, 10, 100, 1000}, 100)
      .WithProofTimeout(10 * kSecond)
      .WithOpTimeout(60 * kSecond);
  if (w.wan) o.WithWan(LatencyMatrix::Paper());
  if (w.socket) o.WithSocketTransport();
  return o;
}

// --------------------------------------------------------------- values

// A value is [key u64][seq u64][filler], the filler a function of both,
// so a returned value proves which key and which write it came from.
uint8_t FillerByte(Key key, uint64_t seq, size_t i) {
  return static_cast<uint8_t>(key * 31 + seq * 7 + i);
}

Bytes MakeValue(Key key, uint64_t seq) {
  Bytes v(kValueBytes);
  std::memcpy(v.data(), &key, 8);
  std::memcpy(v.data() + 8, &seq, 8);
  for (size_t i = 16; i < kValueBytes; ++i) v[i] = FillerByte(key, seq, i);
  return v;
}

bool ValueMatches(const Bytes& v, Key key) {
  if (v.size() != kValueBytes) return false;
  Key k = 0;
  uint64_t seq = 0;
  std::memcpy(&k, v.data(), 8);
  std::memcpy(&seq, v.data() + 8, 8);
  if (k != key) return false;
  for (size_t i = 16; i < kValueBytes; ++i) {
    if (v[i] != FillerByte(key, seq, i)) return false;
  }
  return true;
}

// ----------------------------------------------------------- generation

double UnitDouble(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/// Draws keys uniformly or by Zipf rank; Zipf ranks are scattered over
/// the key space by a seeded permutation so the hot keys do not share
/// pages by construction.
class KeyChooser {
 public:
  KeyChooser(const Workload& w, uint64_t seed) : keys_(w.keys) {
    if (w.zipf <= 0) return;
    cdf_.resize(keys_);
    double sum = 0;
    for (uint64_t r = 0; r < keys_; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), w.zipf);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
    perm_.resize(keys_);
    for (uint64_t k = 0; k < keys_; ++k) perm_[k] = k;
    std::mt19937_64 shuffle(seed ^ 0x7a1f5eedULL);
    for (uint64_t i = keys_ - 1; i > 0; --i) {
      std::swap(perm_[i], perm_[shuffle() % (i + 1)]);
    }
  }

  Key Next(std::mt19937_64& rng) const {
    if (cdf_.empty()) return rng() % keys_;
    const double u = UnitDouble(rng);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const uint64_t rank = std::min<uint64_t>(it - cdf_.begin(), keys_ - 1);
    return perm_[rank];
  }

 private:
  uint64_t keys_;
  std::vector<double> cdf_;
  std::vector<Key> perm_;
};

struct PlannedOp {
  int64_t due_ns = 0;  // intended start, relative to the run's t0
  Key key = 0;
  OpType type = kGet;
};

std::vector<PlannedOp> Plan(const Workload& w, const KeyChooser& chooser,
                            uint64_t seed, double seconds) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<PlannedOp> plan;
  plan.reserve(static_cast<size_t>(w.rate * seconds * 1.1) + 16);
  const double horizon_ns = seconds * 1e9;
  double t = 0;
  for (;;) {
    t += -std::log1p(-UnitDouble(rng)) / w.rate * 1e9;
    if (t >= horizon_ns) break;
    PlannedOp op;
    op.due_ns = static_cast<int64_t>(t);
    const double u = UnitDouble(rng);
    op.type = u < w.put_frac ? kPut : (u < w.put_frac + w.scan_frac ? kScan
                                                                     : kGet);
    op.key = op.type == kScan ? rng() % (w.keys - kScanWidth)
                              : chooser.Next(rng);
    plan.push_back(op);
  }
  return plan;
}

// ---------------------------------------------------------------- setup

double SecondsSince(SteadyClock::time_point t) {
  return std::chrono::duration<double>(SteadyClock::now() - t).count();
}

struct SettleState {
  size_t l0 = 0;
  bool merging = false;
  uint64_t merges_completed = 0;
  uint64_t blocks_formed = 0;
  uint64_t merges_performed = 0;
  uint64_t certified_blocks = 0;

  bool quiescent() const {
    return !merging && merges_completed == merges_performed &&
           blocks_formed == certified_blocks;
  }
};

SettleState ReadSettleState(Store& store) {
  Deployment& d = store.wedge();
  SettleState s = OnNode(store, d.edge().id(), [&d] {
    const EdgeNode& e = d.edge();
    SettleState v;
    v.l0 = e.lsm().l0_count();
    v.merging = e.lsm().merge_in_flight();
    v.merges_completed = e.stats().merges_completed;
    v.blocks_formed = e.stats().blocks_formed;
    return v;
  });
  const auto cloud = OnNode(store, d.cloud().id(), [&d] {
    return std::make_pair(d.cloud().stats().merges_performed,
                          d.cloud().stats().certified_blocks);
  });
  s.merges_performed = cloud.first;
  s.certified_blocks = cloud.second;
  return s;
}

SettleState WaitQuiescent(Store& store) {
  const auto start = SteadyClock::now();
  for (;;) {
    SettleState s = ReadSettleState(store);
    if (s.quiescent()) return s;
    if (SecondsSince(start) > 120) Fail("store never settled");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void PutBlocks(Store& store, Key first, size_t blocks, size_t window) {
  std::vector<AsyncCommit> inflight;
  auto wait_oldest = [&] {
    if (auto c = inflight.front().WaitPhase1(); !c.ok()) {
      Fail("preload put failed: " + c.status().ToString());
    }
    inflight.erase(inflight.begin());
  };
  for (size_t b = 0; b < blocks; ++b) {
    std::vector<std::pair<Key, Bytes>> kvs;
    kvs.reserve(kOpsPerBlock);
    for (size_t i = 0; i < kOpsPerBlock; ++i) {
      const Key k = first + b * kOpsPerBlock + i;
      kvs.emplace_back(k, MakeValue(k, 0));
    }
    inflight.push_back(store.AsyncPutBatch(kvs, b % kClients));
    if (inflight.size() >= window) wait_oldest();
  }
  while (!inflight.empty()) wait_oldest();
}

/// Opens the store, preloads every key once in block-sized batches, then
/// drives it to one canonical state: L0 empty, no merge in flight, every
/// merge the cloud performed installed at the edge, every block
/// certified. Without this the L0 depth left by the last merge race
/// decides how many blocks every get response ships, and the read
/// workloads turn bimodal across runs.
Store SetUp(const Workload& w) {
  auto opened = Store::Open(OptionsFor(w));
  if (!opened.ok()) Fail("Store::Open: " + opened.status().ToString());
  Store store = std::move(*opened);
  PutBlocks(store, 0, w.keys / kOpsPerBlock, 64);
  for (;;) {
    const SettleState s = WaitQuiescent(store);
    if (s.l0 == 0) break;
    // Re-put filler blocks until L0 crosses its threshold; the merge
    // that follows consumes every L0 block at once.
    PutBlocks(store, 0, kL0Threshold + 1 - std::min(s.l0, kL0Threshold), 1);
  }
  return store;
}

/// Pins each of the run's busy threads to its own CPU: the generator,
/// the client pool, the edge, and the cloud with the control plane, so
/// thread placement is the same in every run.
void PinThreads(Store& store) {
  using namespace wedgebench;
  Deployment& d = store.wedge();
  bool ok = PinCurrentThread(kGeneratorCpu);
  for (size_t i = 0; i < d.client_count(); ++i) {
    ok &= OnNode(store, d.client(i).id(), [] { return PinCurrentThread(kClientCpu); });
  }
  ok &= OnNode(store, d.edge().id(), [] { return PinCurrentThread(kEdgeCpu); });
  ok &= OnNode(store, d.cloud().id(), [] { return PinCurrentThread(kCloudCpu); });
  ok &= OnExecutor(store.runtime(), store.runtime().ControlExecutor(),
                   [] { return PinCurrentThread(kCloudCpu); });
  if (!ok) std::fprintf(stderr, "wedgebench: threads left unpinned\n");
}

// ------------------------------------------------------------ the run

enum Outcome : uint8_t { kPending = 0, kOk, kError, kBadOutput, kShed };

struct OpRecord {
  int64_t late_ns = 0;    // issue time minus intended time
  int64_t issue_ns = 0;   // time spent inside the Async* call
  int64_t lat1_ns = -1;   // answer: verified read, or Phase I commit
  int64_t lat2_ns = -1;   // Phase II commit (puts)
  SimTime p1_at = 0;
  SimTime p2_at = 0;
  Outcome outcome1 = kPending;
  Outcome outcome2 = kPending;
};

struct RunState {
  std::vector<PlannedOp> plan;
  std::vector<OpRecord> rec;
  SteadyClock::time_point t0;
  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> finished{0};

  int64_t SinceDue(size_t i) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               SteadyClock::now() - t0)
               .count() -
           plan[i].due_ns;
  }
};

bool ScanMatches(const ScanResult& r, Key lo, Key hi) {
  if (!r.verified || r.pairs.size() != hi - lo + 1) return false;
  Key expect = lo;
  for (const KvPair& p : r.pairs) {
    if (p.key != expect++ || !ValueMatches(p.value, p.key)) return false;
  }
  return true;
}

void Issue(Store& store, const std::shared_ptr<RunState>& run, size_t i) {
  const PlannedOp& op = run->plan[i];
  const size_t client = i % kClients;
  auto answer = [run, i](Outcome o) {
    OpRecord& r = run->rec[i];
    r.lat1_ns = run->SinceDue(i);
    r.outcome1 = o;
    run->answered.fetch_add(1, std::memory_order_release);
  };
  switch (op.type) {
    case kGet: {
      const Key key = op.key;
      store.AsyncGet(key, client)
          .OnDone([run, answer, key](const Status& s, const GetResult& g) {
            answer(!s.ok() ? kError
                   : g.verified && g.found && ValueMatches(g.value, key)
                       ? kOk
                       : kBadOutput);
            run->finished.fetch_add(1, std::memory_order_release);
          });
      break;
    }
    case kScan: {
      const Key lo = op.key, hi = op.key + kScanWidth;
      store.AsyncScan(lo, hi, client)
          .OnDone([run, answer, lo, hi](const Status& s, const ScanResult& r) {
            answer(!s.ok() ? kError : ScanMatches(r, lo, hi) ? kOk : kBadOutput);
            run->finished.fetch_add(1, std::memory_order_release);
          });
      break;
    }
    case kPut: {
      AsyncCommit c = store.AsyncPut(op.key, MakeValue(op.key, i + 1), client);
      c.OnPhase1([run, i, answer](const Status& s, const Commit& p1) {
        run->rec[i].p1_at = p1.at;
        answer(s.ok() ? kOk : kError);
      });
      c.OnPhase2([run, i](const Status& s, const Commit& p2) {
        OpRecord& r = run->rec[i];
        r.lat2_ns = run->SinceDue(i);
        r.p2_at = p2.at;
        r.outcome2 = s.ok() ? kOk : kError;
        run->finished.fetch_add(1, std::memory_order_release);
      });
      break;
    }
  }
}

double ProcessCpuS() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double ThreadCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Snapshot {
  double store_cpu_s = 0;  // process CPU minus the generator thread's
  uint64_t bytes = 0;
  uint64_t messages = 0;
  wedgebench::NodeCounters nodes;  // traced runs only
};

/// Called on the generator thread, whose own CPU is not the store's.
Snapshot TakeSnapshot(Store& store, bool read_nodes) {
  Snapshot s;
  s.store_cpu_s = ProcessCpuS() - ThreadCpuS();
  const TransportStats t = store.stats().transport;
  s.bytes = t.bytes;
  s.messages = t.messages;
  if (read_nodes) s.nodes = wedgebench::ReadNodeCounters(store);
  return s;
}

constexpr int64_t kSliceNs = 1'000'000'000;

struct RunResult {
  std::shared_ptr<RunState> state;
  int64_t window_lo_ns = 0;
  int64_t window_hi_ns = 0;
  /// Snapshots at the window's start and at every 1 s slice boundary
  /// after it; the last one is at the window's end.
  std::vector<Snapshot> marks;
  bool drained = true;

  size_t slices() const { return marks.size() - 1; }
  /// The slice an intended start falls in, or -1 outside the window.
  int SliceOf(int64_t due_ns) const {
    if (due_ns < window_lo_ns || due_ns >= window_hi_ns) return -1;
    return static_cast<int>(
        std::min<int64_t>((due_ns - window_lo_ns) / kSliceNs, slices() - 1));
  }
};

/// Issues `plan` open-loop: warm-in [0, warm), measured window
/// [warm, warm + measure), then the plan's tail as a cool-down so the
/// last measured ops still complete under load. Counters are read at
/// every 1 s slice boundary of the window; a traced run also reads every
/// node's counters at the window's edges.
RunResult Drive(Store& store, std::vector<PlannedOp> plan, double warm_s,
                double measure_s, bool trace) {
  RunResult out;
  auto run = std::make_shared<RunState>();
  run->plan = std::move(plan);
  run->rec.resize(run->plan.size());
  out.state = run;
  out.window_lo_ns = static_cast<int64_t>(warm_s * 1e9);
  out.window_hi_ns = static_cast<int64_t>((warm_s + measure_s) * 1e9);
  std::vector<int64_t> mark_ns;
  for (int64_t t = out.window_lo_ns; t < out.window_hi_ns; t += kSliceNs) {
    mark_ns.push_back(t);
  }
  mark_ns.push_back(out.window_hi_ns);

  auto take_mark = [&] {
    const size_t k = out.marks.size();
    std::this_thread::sleep_until(run->t0 + std::chrono::nanoseconds(mark_ns[k]));
    const bool edge = k == 0 || k + 1 == mark_ns.size();
    out.marks.push_back(TakeSnapshot(store, trace && edge));
  };

  uint64_t issued = 0;
  run->t0 = SteadyClock::now() + std::chrono::milliseconds(5);
  for (size_t i = 0; i < run->plan.size(); ++i) {
    const auto due = run->t0 + std::chrono::nanoseconds(run->plan[i].due_ns);
    while (out.marks.size() < mark_ns.size() &&
           run->plan[i].due_ns >= mark_ns[out.marks.size()]) {
      take_mark();
    }
    if (SteadyClock::now() < due) std::this_thread::sleep_until(due);
    const auto start = SteadyClock::now();
    OpRecord& r = run->rec[i];
    r.late_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(start - due).count();
    if (issued - run->answered.load(std::memory_order_acquire) >=
        kMaxInflight) {
      r.outcome1 = kShed;
      continue;
    }
    issued++;
    Issue(store, run, i);
    r.issue_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     SteadyClock::now() - start)
                     .count();
  }
  while (out.marks.size() < mark_ns.size()) take_mark();

  const auto deadline = SteadyClock::now() + std::chrono::seconds(30);
  while (run->finished.load(std::memory_order_acquire) < issued ||
         run->answered.load(std::memory_order_acquire) < issued) {
    if (SteadyClock::now() > deadline) {
      out.drained = false;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return out;
}

// -------------------------------------------------------------- metrics

struct Summary {
  uint64_t attempted = 0;
  uint64_t errors = 0;
  uint64_t bad_outputs = 0;
  uint64_t shed = 0;
  uint64_t unfinished = 0;
  std::vector<double> lat[3];  // answer latency per OpType (µs)
  std::vector<double> phase2;  // put Phase II latency (µs)
  std::vector<double> all;     // answer latency of every op (µs)
  std::vector<double> late;    // generator lateness (µs)
  std::vector<double> issue;   // time inside the Async* call (µs)
  /// Per 1 s slice of the window: get latencies, every op's latency.
  std::vector<std::vector<double>> get_by_slice;
  std::vector<std::vector<double>> all_by_slice;

  uint64_t failed() const { return errors + bad_outputs + shed + unfinished; }
};

/// Every op whose intended start falls in the measured window counts,
/// whenever it completed.
Summary Summarize(const RunResult& r) {
  Summary s;
  s.get_by_slice.resize(r.slices());
  s.all_by_slice.resize(r.slices());
  const RunState& run = *r.state;
  for (size_t i = 0; i < run.plan.size(); ++i) {
    const PlannedOp& op = run.plan[i];
    const int slice = r.SliceOf(op.due_ns);
    if (slice < 0) continue;
    const OpRecord& rec = run.rec[i];
    s.attempted++;
    s.late.push_back(rec.late_ns / 1e3);
    if (rec.outcome1 == kShed) {
      s.shed++;
      continue;
    }
    s.issue.push_back(rec.issue_ns / 1e3);
    const bool put = op.type == kPut;
    if (rec.outcome1 == kPending || (put && rec.outcome2 == kPending)) {
      s.unfinished++;
    } else if (rec.outcome1 == kError || rec.outcome2 == kError) {
      s.errors++;
    } else if (rec.outcome1 == kBadOutput || (put && rec.p2_at < rec.p1_at)) {
      s.bad_outputs++;
    } else {
      const double us = rec.lat1_ns / 1e3;
      s.lat[op.type].push_back(us);
      s.all.push_back(us);
      s.all_by_slice[slice].push_back(us);
      if (op.type == kGet) s.get_by_slice[slice].push_back(us);
      if (put) s.phase2.push_back(rec.lat2_ns / 1e3);
    }
  }
  return s;
}

/// Median over the window's 1 s slices of each slice's percentile `p`:
/// a burst of host noise moves a few slices, not the reported value.
double SliceMedian(std::vector<std::vector<double>>& slices, double p) {
  std::vector<double> per_slice;
  for (auto& v : slices) {
    if (!v.empty()) per_slice.push_back(wedgebench::Percentile(v, p));
  }
  return wedgebench::Median(per_slice);
}

/// Median over slices of the store's CPU per completed op.
double SliceCpuUsPerOp(const RunResult& r, const Summary& s) {
  std::vector<double> per_slice;
  for (size_t k = 0; k < r.slices(); ++k) {
    if (s.all_by_slice[k].empty()) continue;
    per_slice.push_back((r.marks[k + 1].store_cpu_s - r.marks[k].store_cpu_s) *
                        1e6 / s.all_by_slice[k].size());
  }
  return wedgebench::Median(per_slice);
}

/// Bytes the allocator holds for live objects, over every arena. Unlike
/// RSS it does not move with fragmentation or with which thread freed
/// what, so it tracks the store's footprint run after run.
double HeapInUseMb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

// ---------------------------------------------------------------- output

std::string MetricsJson(const Metrics& ms) {
  std::string out = "{";
  char buf[256];
  for (size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                  ms[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15;
  double warm_s = 3;
  int setups = 3;
  bool trace = false;
  std::string spans_path;
};

template <typename T>
T ParseNumber(const std::string& flag, const std::string& text) {
  try {
    size_t used = 0;
    const T v = std::is_same_v<T, double> ? std::stod(text, &used)
                                          : std::stoull(text, &used);
    if (used == text.size()) return v;
  } catch (const std::exception&) {
  }
  Fail("bad value for " + flag + ": '" + text + "'");
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Fail("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = ParseNumber<uint64_t>(flag, value());
    } else if (flag == "--seconds") {
      a.seconds = ParseNumber<double>(flag, value());
    } else if (flag == "--trace") {
      a.trace = value() != "0";
    } else if (flag == "--spans") {
      a.spans_path = value();
    } else if (flag == "--smoke") {
      smoke = true;
    } else {
      Fail("unknown flag " + flag);
    }
  }
  if (smoke) {
    a.seconds = 2;
    a.warm_s = 1;
    a.setups = 1;
  }
  if (a.seconds <= 0) Fail("--seconds must be positive");
  return a;
}

/// One api.issue span (the Async* call on the generator thread) and one
/// completion span per op, keyed by op id, as JSON lines.
void WriteSpans(const std::string& path, const RunResult& r) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Fail("cannot write spans to " + path);
  static const char* kNames[] = {"get", "put", "scan"};
  const RunState& run = *r.state;
  for (size_t i = 0; i < run.plan.size(); ++i) {
    const OpRecord& rec = run.rec[i];
    if (rec.outcome1 == kShed || rec.outcome1 == kPending) continue;
    const char* type = kNames[run.plan[i].type];
    const double due_us = run.plan[i].due_ns / 1e3;
    std::fprintf(f,
                 "{\"op\": %zu, \"span\": \"api.issue\", \"type\": \"%s\", "
                 "\"start_us\": %.3f, \"dur_us\": %.3f}\n",
                 i, type, due_us + rec.late_ns / 1e3, rec.issue_ns / 1e3);
    std::fprintf(f,
                 "{\"op\": %zu, \"span\": \"complete.%s\", \"parent\": "
                 "\"api.issue\", \"start_us\": %.3f, \"dur_us\": %.3f}\n",
                 i, type, due_us, rec.lat1_ns / 1e3);
    if (rec.lat2_ns >= 0) {
      std::fprintf(f,
                   "{\"op\": %zu, \"span\": \"complete.put_phase2\", "
                   "\"parent\": \"api.issue\", \"start_us\": %.3f, "
                   "\"dur_us\": %.3f}\n",
                   i, due_us, rec.lat2_ns / 1e3);
    }
  }
  if (std::fclose(f) != 0) Fail("cannot write spans to " + path);
}

std::string StampsJson(const Workload& w, const Args& a) {
  const char* commit = std::getenv("WEDGEBENCH_COMMIT");
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"commit\": \"%s\", \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"crypto_backend\": \"%s\", \"crypto_backend_detected\": \"%s\", "
      "\"crypto_backend_forced\": %s, \"nproc\": %u, \"runtime\": "
      "\"threaded\", \"driver_pool_threads\": 1, \"transport\": \"%s\", "
      "\"wan\": \"%s\", \"seed\": %llu, \"warm_s\": %g, \"window_s\": %g, "
      "\"setups\": %d, \"trace\": %s}",
      commit != nullptr ? commit : "unknown", WEDGEBENCH_BUILD_TYPE,
      WEDGEBENCH_COMPILER,
      std::string(Sha256BackendName(Sha256::Backend())).c_str(),
      std::string(Sha256BackendName(Sha256::DetectedBackend())).c_str(),
      Sha256::BackendForced() ? "true" : "false",
      std::thread::hardware_concurrency(),
      w.socket ? "socket_loopback" : "inproc", w.wan ? "paper" : "off",
      static_cast<unsigned long long>(a.seed), a.warm_s, a.seconds, a.setups,
      a.trace ? "true" : "false");
  return buf;
}

}  // namespace

namespace wedgebench {

void Fail(const std::string& what) {
  std::fprintf(stderr, "wedgebench: %s\n", what.c_str());
  std::exit(2);
}

double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + rank, v.end());
  return v[rank];
}

}  // namespace wedgebench

int main(int argc, char** argv) {
  using wedgebench::Median;
  using wedgebench::Percentile;
  const Args args = ParseArgs(argc, argv);
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) Fail("unknown --workload '" + args.workload + "'");
  // The default 50 µs timer slack would show up as generator lateness.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  // Set-up is timed several times and reported as the median; the last
  // store is the one the run uses.
  std::vector<double> setup_times;
  std::unique_ptr<Store> store;
  for (int i = 0; i < args.setups; ++i) {
    store.reset();
    const auto t = SteadyClock::now();
    store = std::make_unique<Store>(SetUp(*w));
    setup_times.push_back(SecondsSince(t));
  }
  PinThreads(*store);

  const KeyChooser chooser(*w, args.seed);
  constexpr double kCoolS = 0.5;
  RunResult r =
      Drive(*store, Plan(*w, chooser, args.seed, args.warm_s + args.seconds + kCoolS),
            args.warm_s, args.seconds, args.trace);
  Summary s = Summarize(r);
  if (!r.drained) std::fprintf(stderr, "wedgebench: ops pending after drain\n");
  if (args.trace && !args.spans_path.empty()) WriteSpans(args.spans_path, r);
  const double ops = std::max<double>(s.all.size(), 1);

  const Snapshot at_lo = r.marks.front();
  const Snapshot at_hi = r.marks.back();
  Metrics e2e = {
      {"get_p50_us", "us", SliceMedian(s.get_by_slice, 50)},
      {"op_p50_us", "us", SliceMedian(s.all_by_slice, 50)},
      {"op_p90_us", "us", SliceMedian(s.all_by_slice, 90)},
      {"cpu_us_per_op", "us", SliceCpuUsPerOp(r, s)},
      {"net_bytes_per_op", "B",
       static_cast<double>(at_hi.bytes - at_lo.bytes) / ops},
  };

  // Rows the run itself yields beyond the gated ones: per-op-type
  // latencies (not every workload has every type), generator health,
  // failure breakdown. Traced runs report them as per-layer metrics.
  Metrics rows = {
      {"api.issue_us", "us", Median(s.issue)},
      {"api.async_rejected", "count",
       static_cast<double>(store->async_stats().rejected)},
      {"gen_late_p50_us", "us", Median(s.late)},
      {"gen_late_p99_us", "us", Percentile(s.late, 99)},
      {"runtime.msgs_per_op", "count",
       static_cast<double>(at_hi.messages - at_lo.messages) / ops},
      {"lat.get_p99_us", "us", Percentile(s.lat[kGet], 99)},
      {"lat.put_phase1_p50_us", "us", Median(s.lat[kPut])},
      {"lat.put_phase1_p99_us", "us", Percentile(s.lat[kPut], 99)},
      {"lat.put_phase2_p50_us", "us", Median(s.phase2)},
      {"lat.put_phase2_p99_us", "us", Percentile(s.phase2, 99)},
      {"lat.scan_p50_us", "us", Median(s.lat[kScan])},
      {"lat.scan_p99_us", "us", Percentile(s.lat[kScan], 99)},
  };
  Metrics diag = {
      {"failed_frac", "ratio",
       static_cast<double>(s.failed()) / std::max<double>(s.attempted, 1)},
      {"errors", "count", static_cast<double>(s.errors)},
      {"bad_outputs", "count", static_cast<double>(s.bad_outputs)},
      {"shed", "count", static_cast<double>(s.shed)},
      {"unfinished", "count", static_cast<double>(s.unfinished)},
      {"achieved_ops_s", "1/s", s.all.size() / args.seconds},
      {"get_p50_whole_us", "us", Median(s.lat[kGet])},
      {"get_p90_whole_us", "us", Percentile(s.lat[kGet], 90)},
      {"op_p90_whole_us", "us", Percentile(s.all, 90)},
      {"samples_get", "count", static_cast<double>(s.lat[kGet].size())},
      {"samples_put", "count", static_cast<double>(s.lat[kPut].size())},
      {"samples_scan", "count", static_cast<double>(s.lat[kScan].size())},
  };
  for (double t : setup_times) diag.push_back({"setup_run_s", "s", t});

  Metrics layers;
  if (args.trace) {
    wedgebench::LayerInputs in;
    std::mt19937_64 rng(args.seed ^ 0x1a7e5ULL);
    for (int i = 0; i < 1000; ++i) in.get_keys.push_back(chooser.Next(rng));
    for (int i = 0; i < 200; ++i) in.scan_los.push_back(rng() % (w->keys - kScanWidth));
    in.scan_width = kScanWidth;
    in.at_lo = at_lo.nodes;
    in.at_hi = at_hi.nodes;
    in.window_s = args.seconds;
    in.get_p50_us = e2e[0].value;
    layers = rows;
    wedgebench::MeasureLayers(*store, in, &layers);
  }

  // Memory last: settle the store, drop the run's own records, then
  // count what the allocator still holds.
  WaitQuiescent(*store);
  const bool correct = s.bad_outputs == 0 && s.errors == 0 && r.drained;
  const uint64_t attempted = s.attempted, failed = s.failed();
  r = RunResult{};
  s = Summary{};
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  e2e.push_back({"mem_mb", "MB", HeapInUseMb()});
  e2e.push_back({"setup_s", "s", Median(setup_times)});
  diag.push_back({"max_rss_mb", "MB", ru.ru_maxrss / 1024.0});

  std::printf(
      "{\"record\": \"wedgebench\", \"workload\": \"%s\", \"stamps\": %s, "
      "\"metrics\": %s, \"rows\": %s, \"diag\": %s%s%s}\n",
      w->name, StampsJson(*w, args).c_str(), MetricsJson(e2e).c_str(),
      MetricsJson(rows).c_str(), MetricsJson(diag).c_str(),
      args.trace ? ", \"layers\": " : "",
      args.trace ? MetricsJson(layers).c_str() : "");
  const Metrics& reported = args.trace ? layers : e2e;
  std::fprintf(stderr, "wedgebench %s seed %llu%s:\n", w->name,
               static_cast<unsigned long long>(args.seed),
               args.trace ? " (traced)" : "");
  for (const Metric& m : reported) {
    std::fprintf(stderr, "  %-32s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed),
      MetricsJson(reported).c_str());
  std::fflush(stdout);
  return correct && failed == 0 ? 0 : 1;
}
