#include "layers.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>

#include "core/read_service.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "lsmerkle/merge.h"
#include "lsmerkle/read_proof.h"
#include "lsmerkle/scan_proof.h"
#include "merkle/merkle_tree.h"
#include "runtime/threaded_runtime.h"
#include "wire/protocol.h"
#include "wire/session.h"

namespace wedgebench {

using namespace wedge;

namespace {

using SteadyClock = std::chrono::steady_clock;

/// Results fold into this so the timed calls cannot be optimized away.
std::atomic<uint64_t> g_sink{0};
void Keep(uint64_t v) { g_sink.fetch_add(v, std::memory_order_relaxed); }

double UsSince(SteadyClock::time_point t) {
  return std::chrono::duration<double, std::micro>(SteadyClock::now() - t)
      .count();
}

/// Times `fn(x)` once per input; median in µs.
template <typename T, typename Fn>
double MedianUs(const std::vector<T>& inputs, Fn fn) {
  std::vector<double> us;
  us.reserve(inputs.size());
  for (const T& x : inputs) {
    const auto t = SteadyClock::now();
    fn(x);
    us.push_back(UsSince(t));
  }
  return Median(us);
}

/// Times `reps` batches of `batch` calls of a sub-microsecond `fn`;
/// median per call in µs.
template <typename Fn>
double MedianBatchedUs(int reps, int batch, Fn fn) {
  std::vector<double> us;
  for (int r = 0; r < reps; ++r) {
    const auto t = SteadyClock::now();
    for (int i = 0; i < batch; ++i) fn();
    us.push_back(UsSince(t) / batch);
  }
  return Median(us);
}

double Ratio(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0 : static_cast<double>(part) / static_cast<double>(whole);
}

/// The edge's tree and log, copied on the edge's executor. Pages and L0
/// blocks are shared immutably with the live tree.
struct EdgeSnapshot {
  LsmerkleTree tree;
  EdgeLog log;
};

/// Pins the thread running `exec` to `cpu`.
void PinExecutor(Runtime& rt, Executor* exec, int cpu) {
  OnExecutor(rt, exec, [cpu] { return PinCurrentThread(cpu); });
}

// ------------------------------------------------------------- runtime

/// Post ping-pong between two dedicated executors of a standalone
/// ThreadedRuntime, pinned like the client pool and the edge: the cost of
/// one cross-thread hop, wake-up included.
double RuntimeHopUs() {
  RuntimeConfig cfg;
  cfg.kind = RuntimeKind::kThreaded;
  ThreadedRuntime rt(cfg);
  Executor* side[2] = {rt.ExecutorFor(1, ExecRole::kDedicated),
                       rt.ExecutorFor(2, ExecRole::kDedicated)};
  PinExecutor(rt, side[0], kClientCpu);
  PinExecutor(rt, side[1], kEdgeCpu);
  constexpr int kHops = 4000;
  std::vector<SteadyClock::time_point> stamps(kHops + 1);
  bool done = false;
  std::function<void(int)> hop = [&](int i) {
    stamps[i] = SteadyClock::now();
    if (i == kHops) {
      rt.RunOnCompletion([&] { done = true; });
      return;
    }
    side[(i + 1) % 2]->Post([&hop, i] { hop(i + 1); });
  };
  side[0]->Post([&hop] { hop(0); });
  if (!rt.WaitUntil(30 * kSecond, [&] { return done; }).ok()) {
    Fail("runtime hop probe timed out");
  }
  rt.Shutdown();
  std::vector<double> us;
  for (int i = 0; i < kHops; ++i) {
    us.push_back(std::chrono::duration<double, std::micro>(stamps[i + 1] -
                                                           stamps[i])
                     .count());
  }
  return Median(us);
}

/// 1 KiB echo over a loopback SocketTransport: every frame crosses a
/// real TCP socket and the link MAC, as on audit_socket.
class EchoEndpoint : public Endpoint {
 public:
  EchoEndpoint(Transport* t, NodeId self) : t_(t), self_(self) {}
  void OnMessage(NodeId from, Slice payload, SimTime) override {
    t_->Send(self_, from, Bytes(payload.data(), payload.data() + payload.size()));
  }

 private:
  Transport* t_;
  NodeId self_;
};

class PingEndpoint : public Endpoint {
 public:
  PingEndpoint(Runtime* rt, NodeId self, NodeId peer, int rounds)
      : rt_(rt), self_(self), peer_(peer), rounds_(rounds) {}

  void Send() {
    sent_ = SteadyClock::now();
    rt_->transport().Send(self_, peer_, Bytes(1024, 0x5a));
  }
  void OnMessage(NodeId, Slice, SimTime) override {
    rtts_.push_back(UsSince(sent_));
    if (static_cast<int>(rtts_.size()) == rounds_) {
      rt_->RunOnCompletion([this] { done_ = true; });
      return;
    }
    Send();
  }
  bool done() const { return done_; }
  std::vector<double>& rtts() { return rtts_; }

 private:
  Runtime* rt_;
  NodeId self_, peer_;
  int rounds_;
  SteadyClock::time_point sent_;
  std::vector<double> rtts_;
  bool done_ = false;
};

double SocketRttUs() {
  constexpr NodeId kPing = 1, kEcho = 2;
  constexpr int kWarm = 100, kRounds = 1000;
  RuntimeConfig cfg;
  cfg.kind = RuntimeKind::kThreaded;
  cfg.socket.enabled = true;
  auto rt = std::make_unique<ThreadedRuntime>(cfg);
  Executor* ping_exec = rt->ExecutorFor(kPing, ExecRole::kDedicated);
  PinExecutor(*rt, ping_exec, kClientCpu);
  PinExecutor(*rt, rt->ExecutorFor(kEcho, ExecRole::kDedicated), kEdgeCpu);
  PingEndpoint ping(rt.get(), kPing, kEcho, kWarm + kRounds);
  EchoEndpoint echo(&rt->transport(), kEcho);
  rt->transport().Attach(kPing, Dc::kCalifornia, &ping);
  rt->transport().Attach(kEcho, Dc::kCalifornia, &echo);
  ping_exec->Post([&ping] { ping.Send(); });
  const bool ok =
      rt->WaitUntil(60 * kSecond, [&ping] { return ping.done(); }).ok();
  rt->Shutdown();
  rt.reset();
  if (!ok) Fail("socket echo probe timed out");
  std::vector<double> rtts(ping.rtts().begin() + kWarm, ping.rtts().end());
  return Median(rtts);
}

// --------------------------------------------------------------- crypto

double Sha256Gbps() {
  const Bytes buf(16 * 1024, 0xa5);
  std::vector<double> gbps;
  for (int r = 0; r < 15; ++r) {
    constexpr int kCalls = 256;
    const auto t = SteadyClock::now();
    for (int i = 0; i < kCalls; ++i) Keep(Sha256::Hash(buf)[0]);
    gbps.push_back(kCalls * buf.size() / (UsSince(t) * 1e3));
  }
  return Median(gbps);
}

double HmacUs() {
  const Bytes key(32, 0x42), msg(1024, 0x17);
  const HmacKey mac(key);
  return MedianBatchedUs(200, 64, [&] { Keep(mac.Mac(msg)[0]); });
}

}  // namespace

bool PinCurrentThread(int cpu) {
  if (cpu >= static_cast<int>(std::thread::hardware_concurrency())) {
    return false;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

NodeCounters ReadNodeCounters(Store& store) {
  Deployment& d = store.wedge();
  NodeCounters c;
  const auto edge = OnNode(store, d.edge().id(), [&d] {
    return std::make_pair(d.edge().stats(), d.edge().lsm().l0_count());
  });
  c.edge = edge.first;
  c.l0_blocks = edge.second;
  c.cloud = OnNode(store, d.cloud().id(), [&d] { return d.cloud().stats(); });
  for (size_t i = 0; i < d.client_count(); ++i) {
    WedgeClient& cl = d.client(i);
    const auto s = OnNode(store, cl.id(), [&cl] {
      return std::make_pair(cl.stats(), cl.verifier_cache().stats());
    });
    c.clients += s.first;
    c.cache.root_hits += s.second.root_hits;
    c.cache.root_misses += s.second.root_misses;
    c.cache.block_hits += s.second.block_hits;
    c.cache.block_misses += s.second.block_misses;
    c.cache.part_hits += s.second.part_hits;
    c.cache.part_misses += s.second.part_misses;
    c.cache.run_hits += s.second.run_hits;
    c.cache.run_misses += s.second.run_misses;
  }
  return c;
}

void MeasureLayers(Store& store, const LayerInputs& in, Metrics* out) {
  Deployment& d = store.wedge();
  const KeyStore& keystore = d.keystore();
  const NodeId edge_id = d.edge().id();
  const auto snap = OnNode(store, edge_id, [&d] {
    return std::make_shared<EdgeSnapshot>(
        EdgeSnapshot{d.edge().lsm(), d.edge().log()});
  });
  const LsmerkleTree& tree = snap->tree;
  const EdgeLog& log = snap->log;
  auto add = [out](const char* name, const char* unit, double v) {
    out->push_back({name, unit, v});
  };

  // ---- runtime
  const double hop_us = RuntimeHopUs();
  add("runtime.hop_us", "us", hop_us);
  add("runtime.socket_rtt_us", "us", SocketRttUs());

  // ---- core: proof assembly on the live tree
  std::vector<GetResponseBody> gets;
  gets.reserve(in.get_keys.size());
  for (Key k : in.get_keys) gets.push_back(AssembleGetResponse(tree, log, k));
  const double assemble_get = MedianUs(in.get_keys, [&](Key k) {
    Keep(AssembleGetResponse(tree, log, k).parts.size());
  });
  const double assemble_scan = MedianUs(in.scan_los, [&](Key lo) {
    Keep(AssembleScanResponse(tree, log, lo, lo + in.scan_width).pairs.size());
  });

  // ---- wire: get-response codec and session seal/open
  std::vector<Bytes> encoded;
  encoded.reserve(gets.size());
  double get_bytes = 0;
  for (const GetResponseBody& b : gets) {
    Encoder enc;
    b.EncodeTo(&enc);
    get_bytes += static_cast<double>(enc.size());
    encoded.push_back(enc.TakeBuffer());
  }
  get_bytes /= std::max<size_t>(gets.size(), 1);
  const double encode_get = MedianUs(gets, [](const GetResponseBody& b) {
    Encoder enc;
    b.EncodeTo(&enc);
    Keep(enc.size());
  });
  const double decode_get = MedianUs(encoded, [](const Bytes& wire) {
    Decoder dec{Slice(wire)};
    Keep(GetResponseBody::DecodeFrom(&dec).ok());
  });

  KeyStore session_keys(7);
  const Signer sender = session_keys.Register(Role::kEdge, "edge");
  const Signer receiver = session_keys.Register(Role::kClient, "client");
  SessionSealer sealer(sender);
  SessionOpener opener(&session_keys, receiver.id());
  std::vector<Bytes> sealed;
  sealed.reserve(encoded.size());
  const double seal = MedianUs(encoded, [&](const Bytes& body) {
    sealed.push_back(sealer.Seal(receiver.id(), MsgType::kGetResponse, body));
  });
  const double open = MedianUs(sealed, [&](const Bytes& wire) {
    Keep(opener.Open(Slice(wire)).ok());
  });

  // ---- lsmerkle: client-side verification, cold and warm
  auto verify_get = [&](const GetResponseBody& b, VerifierCache* cache) {
    GetVerifyOptions opts;
    opts.cache = cache;
    Keep(VerifyGetResponse(keystore, edge_id, b.key, b, opts).ok());
  };
  // Verify what a client verifies: bodies decoded off the wire, whose
  // pages carry no digest memo from the edge.
  std::vector<GetResponseBody> received;
  for (const Bytes& wire : encoded) {
    Decoder dec{Slice(wire)};
    auto body = GetResponseBody::DecodeFrom(&dec);
    if (!body.ok()) Fail("replayed get response does not decode");
    received.push_back(std::move(*body));
  }
  std::vector<std::unique_ptr<VerifierCache>> fresh;
  for (size_t i = 0; i < received.size(); ++i) {
    fresh.push_back(std::make_unique<VerifierCache>());
  }
  size_t next_fresh = 0;
  const double verify_cold = MedianUs(received, [&](const GetResponseBody& b) {
    verify_get(b, fresh[next_fresh++].get());
  });
  fresh.clear();
  VerifierCache warm;
  for (const GetResponseBody& b : received) verify_get(b, &warm);
  const double verify_warm = MedianUs(
      received, [&](const GetResponseBody& b) { verify_get(b, &warm); });

  std::vector<ScanResponseBody> scans;
  for (Key lo : in.scan_los) {
    Encoder enc;
    AssembleScanResponse(tree, log, lo, lo + in.scan_width).EncodeTo(&enc);
    Decoder dec(enc.TakeBuffer());
    auto body = ScanResponseBody::DecodeFrom(&dec);
    if (!body.ok()) Fail("replayed scan response does not decode");
    scans.push_back(std::move(*body));
  }
  const double verify_scan = MedianUs(scans, [&](const ScanResponseBody& b) {
    VerifierCache cache;
    GetVerifyOptions opts;
    opts.cache = &cache;
    Keep(VerifyScanResponse(keystore, edge_id, b.lo, b.hi, b, opts).ok());
  });

  // Merge cost: every pair above the last level merged into it, the
  // largest merge the edge ships (L2 into L3 once the store is loaded).
  const size_t last = tree.level_count() - 1;
  std::vector<KvPair> newer;
  for (const L0Unit& u : tree.l0_units()) {
    newer.insert(newer.end(), u.pairs.begin(), u.pairs.end());
  }
  for (size_t l = 1; l < last; ++l) {
    for (const Page& p : tree.level(l).pages()) {
      newer.insert(newer.end(), p.pairs.begin(), p.pairs.end());
    }
  }
  std::vector<double> merge_us;
  for (int r = 0; r < 3; ++r) {
    std::vector<KvPair> input = newer;
    const auto t = SteadyClock::now();
    auto merged = MergeIntoPages(std::move(input), tree.level(last).pages(),
                                 tree.config().target_page_pairs, 0);
    const double us = UsSince(t);
    if (merged.ok() && !merged->empty()) merge_us.push_back(us / merged->size());
  }

  // ---- log: block digests and entry signatures on the newest blocks,
  // and the add-response size of the fullest of them
  std::vector<Block> blocks;
  for (size_t i = log.size(); i > 0 && blocks.size() < 200; --i) {
    auto b = log.GetBlock(i - 1);
    if (b.ok()) blocks.push_back(std::move(*b));
  }
  std::vector<const Entry*> entries;
  for (const Block& b : blocks) {
    for (const Entry& e : b.entries) {
      if (entries.size() < 2000) entries.push_back(&e);
    }
  }
  // A Phase I ack ships the whole block to each contributor.
  double add_response_bytes = 0;
  const auto fullest = std::max_element(
      blocks.begin(), blocks.end(), [](const Block& a, const Block& b) {
        return a.entries.size() < b.entries.size();
      });
  if (fullest != blocks.end()) {
    AddResponse resp;
    resp.req_id = 1;
    resp.bid = fullest->id;
    resp.block = *fullest;
    add_response_bytes = static_cast<double>(resp.Encode().size());
  }
  const double block_digest = MedianUs(
      blocks, [](const Block& b) { Keep(b.Digest().data()[0]); });
  const double entry_validate = MedianUs(entries, [&](const Entry* e) {
    Keep(e->Validate(keystore).ok());
  });

  // ---- merkle: membership proofs in the largest live level
  size_t deepest = 1;
  for (size_t l = 1; l < tree.level_count(); ++l) {
    if (tree.level(l).page_count() > tree.level(deepest).page_count()) {
      deepest = l;
    }
  }
  const LevelState& level = tree.level(deepest);
  struct ProofCase {
    Digest256 leaf;
    MerkleProof proof;
  };
  std::vector<ProofCase> proofs;
  for (Key k : in.get_keys) {
    if (level.empty()) break;
    auto idx = level.FindPageIndex(k);
    if (!idx.ok()) continue;
    auto proof = level.ProvePage(*idx);
    if (proof.ok()) proofs.push_back({level.pages()[*idx].Digest(), *proof});
  }
  const double proof_verify = MedianUs(proofs, [&](const ProofCase& c) {
    Keep(MerkleTree::Verify(level.root(), c.leaf, c.proof).ok());
  });

  // ---- counters over the measured window
  const NodeCounters& lo = in.at_lo;
  const NodeCounters& hi = in.at_hi;
  const uint64_t blocks_formed = hi.edge.blocks_formed - lo.edge.blocks_formed;
  const uint64_t part_hits = hi.cache.part_hits - lo.cache.part_hits;
  const uint64_t part_all =
      part_hits + hi.cache.part_misses - lo.cache.part_misses;
  const uint64_t block_hits = hi.cache.block_hits - lo.cache.block_hits;
  const uint64_t block_all =
      block_hits + hi.cache.block_misses - lo.cache.block_misses;
  const uint64_t run_hits = hi.cache.run_hits - lo.cache.run_hits;
  const uint64_t run_all = run_hits + hi.cache.run_misses - lo.cache.run_misses;
  const double part_hit_ratio = Ratio(part_hits, part_all);

  add("wire.get_response_bytes", "B", get_bytes);
  add("wire.encode_get_us", "us", encode_get);
  add("wire.decode_get_us", "us", decode_get);
  add("wire.add_response_bytes", "B", add_response_bytes);
  add("wire.seal_us", "us", seal);
  add("wire.open_us", "us", open);
  add("core.assemble_get_us", "us", assemble_get);
  add("core.assemble_scan_us", "us", assemble_scan);
  add("core.entries_per_block", "count",
      Ratio(hi.edge.entries_accepted - lo.edge.entries_accepted,
            blocks_formed));
  add("core.merges_per_s", "1/s",
      (hi.edge.merges_completed - lo.edge.merges_completed) / in.window_s);
  add("core.certify_lag_blocks", "count",
      static_cast<double>(hi.edge.blocks_formed) -
          static_cast<double>(hi.cloud.certified_blocks));
  add("core.l0_blocks", "count", static_cast<double>(hi.l0_blocks));
  add("core.disputes", "count",
      static_cast<double>(hi.cloud.disputes_received -
                          lo.cloud.disputes_received));
  add("core.verification_failures", "count",
      static_cast<double>(hi.clients.verification_failures -
                          lo.clients.verification_failures));
  add("lsmerkle.verify_get_warm_us", "us", verify_warm);
  add("lsmerkle.verify_get_cold_us", "us", verify_cold);
  add("lsmerkle.verify_scan_us", "us", verify_scan);
  add("lsmerkle.cache_part_hit_ratio", "ratio", part_hit_ratio);
  add("lsmerkle.cache_block_hit_ratio", "ratio", Ratio(block_hits, block_all));
  add("lsmerkle.cache_run_hit_ratio", "ratio", Ratio(run_hits, run_all));
  add("lsmerkle.merge_us_per_page", "us", Median(merge_us));
  add("log.block_digest_us", "us", block_digest);
  add("log.entry_validate_us", "us", entry_validate);
  add("crypto.sha256_gbps", "GB/s", Sha256Gbps());
  add("crypto.hmac_us", "us", HmacUs());
  add("merkle.proof_verify_us", "us", proof_verify);

  // A get crosses three threads (generator -> client pool -> edge ->
  // client pool); verification is weighted by the run's part hit ratio.
  const double stage_sum =
      assemble_get + encode_get + seal + open + decode_get +
      part_hit_ratio * verify_warm + (1 - part_hit_ratio) * verify_cold +
      3 * hop_us;
  add("attr.get_stage_sum_us", "us", stage_sum);
  add("attr.get_unattributed_us", "us", in.get_p50_us - stage_sum);
}

}  // namespace wedgebench
