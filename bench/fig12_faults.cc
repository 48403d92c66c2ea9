// Figure 12 (extension, not in the paper): availability through injected
// faults — the chaos knobs of the unified fault plane
// (src/runtime/fault_plane.h) driven against a live sharded WedgeChain
// deployment on the deterministic simulator.
//
// One run, four consecutive windows of the same closed-loop mixed
// workload (reads on both shards' ranges, batched writes), with a fault
// injected between windows:
//
//   healthy    — baseline: both edges serving, cloud certifying;
//   edge_down  — shard 0's edge crashed (volatile state wiped). Reads on
//                its range degrade to cloud-served, certificate-verified
//                gets (RouterStats::failovers), so READ availability
//                stays above zero through the fault window; writes to
//                the dead shard fail fast (unreachable_rejects);
//   recovered  — the edge restarted and re-hydrated by replaying the
//                cloud's backup log; direct serving and writes resume;
//   cloud_down — the cloud crashed. Lazy trust keeps Phase I committing
//                at the edges (the paper's availability claim, §IV);
//                the Phase II backlog stalls, then fully certifies after
//                the heal through the edges' certify-retry backoff.
//
// Acceptance (exit status, enforced in CI via the --smoke ctest entry):
//   read availability > 0 in the edge_down window, served via failover;
//   every Phase I commit from the cloud_down window certifies after heal.
//
// Usage:
//   fig12_faults [--smoke] [--json PATH]
//     --smoke  shorter windows (CI).
//     --json   append one JSON line per window to PATH.

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "api/store.h"
#include "bench/harness/table.h"

using namespace wedge;

namespace {

struct WindowPoint {
  std::string window;
  uint64_t reads_ok = 0;
  uint64_t reads_failed = 0;
  uint64_t writes_ok = 0;     // Phase I commits
  uint64_t writes_failed = 0;
  uint64_t failovers = 0;            // delta within this window
  uint64_t unreachable_rejects = 0;  // delta within this window
  double span_ms = 0;                // virtual time the window covered

  double read_availability() const {
    const uint64_t total = reads_ok + reads_failed;
    return total == 0 ? 0.0
                      : static_cast<double>(reads_ok) /
                            static_cast<double>(total);
  }
  double write_availability() const {
    const uint64_t total = writes_ok + writes_failed;
    return total == 0 ? 0.0
                      : static_cast<double>(writes_ok) /
                            static_cast<double>(total);
  }
};

struct BenchConfig {
  int rounds_per_window = 40;
  size_t write_batch = 4;  // == ops_per_block
  uint64_t key_space = 1000;
};

/// One closed-loop window: each round reads one key from each shard's
/// range and issues one write batch, alternating the target shard.
/// Failed ops are counted, never fatal — outliving faults is the point.
WindowPoint RunWindow(Store& store, const std::string& name,
                      const BenchConfig& cfg, int round_base) {
  WindowPoint p;
  p.window = name;
  const uint64_t failovers0 = store.stats().router.failovers;
  const uint64_t rejects0 = store.stats().router.unreachable_rejects;
  const SimTime t0 = store.now();
  const uint64_t half = cfg.key_space / 2;

  for (int r = 0; r < cfg.rounds_per_window; ++r) {
    const uint64_t i = static_cast<uint64_t>(round_base + r);
    // One read per shard range per round.
    for (uint64_t lo : {uint64_t{0}, half}) {
      auto got = store.Get(lo + (i % half));
      if (got.ok()) {
        p.reads_ok++;
      } else {
        p.reads_failed++;
      }
    }
    // One write batch per round, alternating shards.
    const uint64_t lo = (r % 2 == 0) ? 0 : half;
    std::vector<std::pair<Key, Bytes>> kvs;
    for (size_t k = 0; k < cfg.write_batch; ++k) {
      kvs.emplace_back(lo + ((i * cfg.write_batch + k) % half),
                       Bytes(16, static_cast<uint8_t>(r)));
    }
    if (store.PutBatch(kvs).WaitPhase1(10 * kSecond).ok()) {
      p.writes_ok++;
    } else {
      p.writes_failed++;
    }
    store.RunFor(5 * kMillisecond);  // background work between rounds
  }

  p.failovers = store.stats().router.failovers - failovers0;
  p.unreachable_rejects = store.stats().router.unreachable_rejects - rejects0;
  p.span_ms = static_cast<double>(store.now() - t0) / kMillisecond;
  return p;
}

void AppendJson(const std::string& path, const WindowPoint& p) {
  if (path.empty()) return;
  FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "fig12_faults: cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{");
  AppendRuntimeStampJson(f);
  std::fprintf(f,
               "\"bench\": \"fig12_faults\", \"panel\": \"%s\", "
               "\"backend\": \"wedge\", \"read_availability\": %.3f, "
               "\"write_availability\": %.3f, \"reads_ok\": %llu, "
               "\"reads_failed\": %llu, \"writes_ok\": %llu, "
               "\"writes_failed\": %llu, \"failovers\": %llu, "
               "\"unreachable_rejects\": %llu, \"span_ms\": %.1f}\n",
               p.window.c_str(), p.read_availability(),
               p.write_availability(),
               static_cast<unsigned long long>(p.reads_ok),
               static_cast<unsigned long long>(p.reads_failed),
               static_cast<unsigned long long>(p.writes_ok),
               static_cast<unsigned long long>(p.writes_failed),
               static_cast<unsigned long long>(p.failovers),
               static_cast<unsigned long long>(p.unreachable_rejects),
               p.span_ms);
  std::fclose(f);
}

void PrintPoint(const TablePrinter& t, const WindowPoint& p) {
  t.PrintRow({p.window, Fmt(p.read_availability(), 3),
              Fmt(p.write_availability(), 3), std::to_string(p.failovers),
              std::to_string(p.unreachable_rejects),
              std::to_string(p.reads_failed), Fmt(p.span_ms, 0)});
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json = argv[++i];
  }

  BenchConfig cfg;
  if (smoke) cfg.rounds_per_window = 12;

  StoreOptions o;
  o.WithSeed(12)
      .WithShards(2, ShardScheme::kRange, cfg.key_space)
      .WithOpsPerBlock(cfg.write_batch)
      .WithLsm({64, 64}, 16)
      .WithProofTimeout(300 * kSecond)
      .WithOpTimeout(30 * kSecond);
  o.deploy.cloud.backup_blocks = true;   // failover + recovery source
  o.deploy.edge.ship_full_blocks = true;

  auto opened = Store::Open(o);
  if (!opened.ok()) {
    std::fprintf(stderr, "fig12_faults: Open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  Store store = std::move(*opened);

  Banner(smoke ? "Fig 12: availability through injected faults (smoke)"
               : "Fig 12: availability through injected faults");
  TablePrinter t({"window", "read_avail", "write_avail", "failovers",
                  "rejects", "rd_failed", "span_ms"},
                 12);
  t.PrintHeader();

  std::vector<WindowPoint> points;
  int round_base = 0;
  auto window = [&](const std::string& name) {
    points.push_back(RunWindow(store, name, cfg, round_base));
    round_base += cfg.rounds_per_window;
    PrintPoint(t, points.back());
    AppendJson(json, points.back());
    return points.back();
  };

  // -- healthy baseline.
  window("healthy");

  // -- edge fault window: shard 0's edge crashes, volatile state wiped.
  store.wedge().CrashEdge(0);
  const WindowPoint edge_down = window("edge_down");

  // -- recovery: replay the cloud's backup log, then measure again.
  store.wedge().RecoverEdge(0);
  store.RunFor(5 * kSecond);
  const WindowPoint recovered = window("recovered");

  // -- cloud outage: Phase I keeps committing; track the backlog.
  store.runtime().faults().CrashNode(store.wedge().cloud().id());
  std::vector<AsyncCommit> backlog;
  const int backlog_writes = smoke ? 6 : 20;
  uint64_t outage_phase1 = 0;
  for (int i = 0; i < backlog_writes; ++i) {
    std::vector<std::pair<Key, Bytes>> kvs;
    for (size_t k = 0; k < cfg.write_batch; ++k) {
      kvs.emplace_back((static_cast<uint64_t>(i) * cfg.write_batch + k) %
                           (cfg.key_space / 2),
                       Bytes(16, 0x42));
    }
    backlog.push_back(store.PutBatch(kvs));
    if (backlog.back().WaitPhase1(10 * kSecond).ok()) outage_phase1++;
  }
  const WindowPoint cloud_down = window("cloud_down");

  // -- heal: the edges' certify-retry drains the Phase II backlog.
  store.runtime().faults().RestartNode(store.wedge().cloud().id());
  uint64_t backlog_certified = 0;
  for (auto& h : backlog) {
    if (h.WaitPhase2(120 * kSecond).ok()) backlog_certified++;
  }

  const StoreStats s = store.stats();
  std::printf(
      "\nOutage backlog: %llu/%d Phase I commits during the cloud outage, "
      "%llu certified after heal\n",
      static_cast<unsigned long long>(outage_phase1), backlog_writes,
      static_cast<unsigned long long>(backlog_certified));
  std::printf(
      "Fault plane: %llu crashes, %llu restarts, %llu messages dropped at "
      "cuts; router: %llu failovers, %llu fast rejects\n",
      static_cast<unsigned long long>(s.faults.crashes),
      static_cast<unsigned long long>(s.faults.restarts),
      static_cast<unsigned long long>(s.faults.cut_drops),
      static_cast<unsigned long long>(s.router.failovers),
      static_cast<unsigned long long>(s.router.unreachable_rejects));

  if (!json.empty()) {
    FILE* f = std::fopen(json.c_str(), "a");
    if (f != nullptr) {
      std::fprintf(f, "{");
      AppendRuntimeStampJson(f);
      std::fprintf(f,
                   "\"bench\": \"fig12_faults\", \"panel\": \"backlog\", "
                   "\"backend\": \"wedge\", \"outage_phase1\": %llu, "
                   "\"backlog_writes\": %d, \"backlog_certified\": %llu, "
                   "\"crashes\": %llu, \"restarts\": %llu, "
                   "\"cut_drops\": %llu}\n",
                   static_cast<unsigned long long>(outage_phase1),
                   backlog_writes,
                   static_cast<unsigned long long>(backlog_certified),
                   static_cast<unsigned long long>(s.faults.crashes),
                   static_cast<unsigned long long>(s.faults.restarts),
                   static_cast<unsigned long long>(s.faults.cut_drops));
      std::fclose(f);
    }
  }

  // -- acceptance: read availability survives the edge fault via cloud
  // failover, and the lazy backlog certifies completely after heal.
  int rc = 0;
  if (edge_down.reads_ok == 0 || edge_down.failovers == 0) {
    std::fprintf(stderr,
                 "fig12_faults: no reads served during the edge fault "
                 "window (availability collapsed)\n");
    rc = 1;
  }
  if (recovered.read_availability() < 1.0) {
    std::fprintf(stderr,
                 "fig12_faults: reads still failing after edge recovery\n");
    rc = 1;
  }
  if (outage_phase1 != static_cast<uint64_t>(backlog_writes)) {
    std::fprintf(stderr,
                 "fig12_faults: Phase I stalled during the cloud outage — "
                 "lazy certification is not decoupled\n");
    rc = 1;
  }
  if (backlog_certified != static_cast<uint64_t>(backlog_writes)) {
    std::fprintf(stderr,
                 "fig12_faults: Phase II backlog did not fully certify "
                 "after heal\n");
    rc = 1;
  }
  if (cloud_down.write_availability() < 1.0) {
    std::fprintf(stderr,
                 "fig12_faults: Phase I writes failed during the cloud "
                 "outage\n");
    rc = 1;
  }
  return rc;
}
