// Figure 10 (extension, not in the paper): the autonomous shard
// lifecycle under a *shifting* hotspot — the adversary a one-shot
// operator split cannot track.
//
// One range-sharded WedgeChain deployment (2 live shards on 3 slots,
// 80% of the traffic on a hot key range), three policies:
//
//   static — ownership frozen at Open; whichever edge owns the hot
//            range is saturated for the whole run.
//   manual — one operator call at the shift instant: Store::Rebalance()
//            splits the busiest shard by the accumulated heat window —
//            which names the shard that *was* hot, exactly the
//            stale-signal trap a human reacting to dashboards falls
//            into.
//   auto   — StoreOptions::WithAutoBalance, no operator calls: the
//            balancer splits the phase-1 hot shard early, and when the
//            hotspot shifts it merges the cooled halves (reclaiming the
//            slot — the capacity is deliberately too small to hold both
//            splits) and re-splits the newly hot shard. The full
//            split → merge → split cycle runs inside 3 slots.
//
// Mid-run, the hot range jumps from the middle of shard 0's slice to
// the middle of shard 1's. The point of comparison is aggregate read
// throughput in the window AFTER the shift (the same window in every
// panel): the autonomous policy must recover at least the manual
// split's post-split read throughput — without anyone calling
// SplitShard.
//
// A fourth panel (auto-threaded) replays the autonomous cycle on the
// threaded runtime: real OS threads and the wall clock, the same
// shifting hotspot, zero operator calls — the structural acceptance
// (split -> merge -> re-split, epoch >= 4) is enforced on both
// runtimes.
//
// Usage:
//   fig10_autobalance [--smoke] [--json PATH]
//     --smoke  short measure window, faster policy clocks (CI).
//     --json   append one JSON line per panel to PATH.

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness/runner.h"
#include "bench/harness/table.h"
#include "common/rng.h"

using namespace wedge;

namespace {

struct Point {
  std::string panel;
  double kops = 0;
  double read_ms = 0;
  double post_shift_read_kops = 0;
  uint64_t epoch = 1;
  uint64_t live_shards = 0;
  uint64_t auto_splits = 0;
  uint64_t auto_merges = 0;
  uint64_t pairs_migrated = 0;
  uint64_t writes_parked = 0;
  std::vector<EdgeLoadMetrics> per_edge;
};

BalancerPolicy Policy(bool smoke) {
  BalancerPolicy p;
  p.enabled = true;
  p.tick_period = (smoke ? 250 : 500) * kMillisecond;
  p.cooldown = (smoke ? 1 : 2) * kSecond;
  // Skip the sequential preload and its drain — a bulk load is a
  // marching hotspot no policy should chase.
  p.initial_delay = (smoke ? 3500 : 4000) * kMillisecond;
  // 0.55 keeps the sequential preload (an exact 50/50 over two live
  // shards) under the high watermark; the hot shard runs at ~90%.
  p.split_fraction = 0.55;
  // Post-shift the cooled halves carry ~5% each (uniform residue of the
  // cold 20%), while the un-split neighbour at two slices carries ~10%:
  // 0.07 sits between them.
  p.merge_fraction = 0.07;
  p.split_ticks = 2;
  p.merge_ticks = 3;
  p.min_live_shards = 2;
  p.min_window_ops = 50;
  return p;
}

ExperimentConfig BaseConfig(bool smoke) {
  ExperimentConfig cfg;
  cfg.spec.read_fraction = 0.9;
  cfg.spec.ops_per_batch = 40;
  cfg.spec.key_space = smoke ? 4000 : 20000;
  cfg.spec.hot_range = std::make_shared<HotRange>();
  cfg.spec.hot_range_fraction = 0.8;
  cfg.num_clients = 8;
  cfg.num_edges = 3;
  cfg.num_shards = 2;   // 2 live shards...
  cfg.shard_capacity = 3;  // ...on 3 slots: both splits only fit if the
                           // cooled one is merged away first
  cfg.shard_scheme = ShardScheme::kRange;
  cfg.preload_keys = cfg.spec.key_space;
  // Identical striped bulk load in EVERY panel (the auto panel needs it
  // so the policy isn't chasing the loader; the others get it so the
  // comparison starts from the same LSM layout).
  cfg.striped_preload = true;
  cfg.warmup = kSecond;
  cfg.measure = smoke ? 6 * kSecond : 15 * kSecond;
  cfg.mid_run_at = cfg.measure / 3;
  cfg.lsm_thresholds = {10, 10, 100};
  cfg.page_pairs = 50;
  return cfg;
}

/// The hot range in phase `second`: the middle half of shard 0's seed
/// slice first, the middle half of shard 1's after the shift.
HotRange HotAt(uint64_t span, bool second) {
  const Key base = second ? span / 2 : 0;
  return HotRange{base + span / 8, base + (3 * span) / 8 - 1};
}

enum class Panel { kStatic, kManual, kAuto };

Point RunPanel(Panel panel, bool smoke) {
  ExperimentConfig cfg = BaseConfig(smoke);
  const uint64_t span = cfg.spec.key_space;
  *cfg.spec.hot_range = HotAt(span, /*second=*/false);
  if (panel == Panel::kAuto) cfg.balancer = Policy(smoke);

  auto hot = cfg.spec.hot_range;
  cfg.mid_run = [panel, hot, span](Store& store) {
    *hot = HotAt(span, /*second=*/true);
    if (panel == Panel::kManual) {
      // The one operator action: split the busiest shard by the heat
      // window accumulated so far — the phase-1 hotspot's owner.
      auto report = store.Rebalance();
      if (!report.ok()) {
        std::fprintf(stderr, "Rebalance failed: %s\n",
                     report.status().ToString().c_str());
        return;
      }
      std::printf("  manual Rebalance: split shard %zu -> %zu (epoch %llu)\n",
                  report->source, report->dest,
                  static_cast<unsigned long long>(report->epoch));
    }
  };

  ExperimentResult r = RunSystem(BackendKind::kWedge, cfg);
  Point p;
  p.panel = panel == Panel::kStatic   ? "static"
            : panel == Panel::kManual ? "manual-split"
                                      : "auto";
  p.kops = r.kops;
  p.read_ms = r.read_ms;
  p.epoch = r.final_stats.epoch;
  p.live_shards = r.final_stats.live_shards;
  p.auto_splits = r.final_stats.balancer.auto_splits;
  p.auto_merges = r.final_stats.balancer.auto_merges;
  p.pairs_migrated = r.final_stats.resharding.pairs_migrated;
  p.writes_parked = r.final_stats.router.writes_parked;
  p.per_edge = r.per_edge();
  const double post_window_s =
      static_cast<double>(cfg.measure - cfg.mid_run_at) / kSecond;
  p.post_shift_read_kops =
      static_cast<double>(r.metrics.reads_post_mark) / post_window_s / 1000.0;
  return p;
}

// ------------------- the same cycle on the threaded runtime ----------

/// The auto panel again, on real OS threads and the wall clock: same
/// shape (2 live shards on 3 slots, a hot range that jumps shards
/// mid-run), zero operator calls. The sim-coupled harness cannot drive
/// this one, so a closed loop pumps the facade directly and progress is
/// read from Store::stats() snapshots (the thread-safe path). Returns
/// the panel point; the structural acceptance in main() checks it like
/// the sim auto panel.
Point RunThreadedAutoPanel(bool smoke, RuntimeKind* rt_out) {
  *rt_out = RuntimeKind::kThreaded;
  const uint64_t span = smoke ? 8000 : 20000;
  BalancerPolicy pol = Policy(/*smoke=*/true);  // the faster clocks: these
  pol.tick_period = 250 * kMillisecond;         // are wall milliseconds now
  pol.cooldown = kSecond;
  pol.initial_delay = 500 * kMillisecond;

  StoreOptions o;
  o.WithBackend(BackendKind::kWedge)
      .WithRuntime(RuntimeKind::kThreaded)
      .WithSeed(1)
      .WithClients(8)
      .WithEdges(3)
      .WithOpsPerBlock(40)
      .WithLsm({10, 10, 100}, 50)
      .WithProofTimeout(30 * kSecond)
      .WithShards(2, ShardScheme::kRange, span)
      .WithShardCapacity(3)
      .WithAutoBalance(pol);
  auto opened = Store::Open(o);
  if (!opened.ok()) {
    std::fprintf(stderr, "fig10_autobalance: threaded Open failed: %s\n",
                 opened.status().ToString().c_str());
    std::exit(1);
  }
  Store store = std::move(*opened);

  // Striped preload through the facade: balanced over both live shards,
  // so it carries no split signal (same rationale as striped_preload).
  {
    const uint64_t step = 8;  // every 8th key; misses still route + heat
    const size_t half = (span / step + 1) / 2;
    std::vector<std::pair<Key, Bytes>> kvs;
    for (uint64_t i = 0; i * step < span; ++i) {
      const Key k = (i % 2 == 0 ? i / 2 : half + i / 2) * step;
      kvs.emplace_back(k, Bytes(16, 0x11));
      if (kvs.size() == 40) {
        store.PutBatch(kvs).WaitPhase1();
        kvs.clear();
      }
    }
    if (!kvs.empty()) store.PutBatch(kvs).WaitPhase1();
  }

  Rng rng(7);
  HotRange hot = HotAt(span, /*second=*/false);
  uint64_t reads_total = 0;
  uint64_t reads_post_shift = 0;
  const SimTime t0 = store.now();

  // Closed-loop burst + stats poll until `pred` holds or the wall
  // budget runs out: 80% of reads on the hot range, a thin write stream
  // so migrations always have fresh pairs to carry.
  auto drive_until = [&](const std::function<bool(const StoreStats&)>& pred,
                         SimTime budget, uint64_t* reads) -> bool {
    const SimTime deadline = store.now() + budget;
    while (store.now() < deadline) {
      for (int i = 0; i < 30; ++i) {
        const Key k = rng.NextBool(0.8)
                          ? hot.lo + rng.NextBelow(hot.hi - hot.lo + 1)
                          : rng.NextBelow(span);
        const auto got = store.Get(k, static_cast<size_t>(i) % 8);
        if ((got.ok() || got.status().IsNotFound()) && reads != nullptr) {
          (*reads)++;
        }
      }
      std::vector<std::pair<Key, Bytes>> kvs;
      for (int i = 0; i < 8; ++i) {
        const Key k = rng.NextBool(0.8)
                          ? hot.lo + rng.NextBelow(hot.hi - hot.lo + 1)
                          : rng.NextBelow(span);
        kvs.emplace_back(k, Bytes(16, 0x22));
      }
      store.PutBatch(kvs).WaitPhase1();
      if (pred(store.stats())) return true;
    }
    return pred(store.stats());
  };

  // Phase 1: the hotspot sits in shard 0's slice until the balancer
  // splits it.
  const bool split1 = drive_until(
      [](const StoreStats& s) { return s.balancer.auto_splits >= 1; },
      20 * kSecond, &reads_total);
  if (!split1) {
    std::fprintf(stderr,
                 "fig10_autobalance: threaded auto split did not trigger\n");
  }

  // The shift: the hot range jumps to the middle of shard 1's slice.
  // The cooled halves must merge (reclaiming the third slot) before the
  // newly hot shard can split onto it.
  hot = HotAt(span, /*second=*/true);
  drive_until(
      [](const StoreStats& s) {
        return s.balancer.auto_splits >= 2 && s.balancer.auto_merges >= 1 &&
               s.epoch >= 4;
      },
      40 * kSecond, &reads_post_shift);
  reads_total += reads_post_shift;

  const double elapsed_s = static_cast<double>(store.now() - t0) / kSecond;
  const StoreStats fin = store.stats();
  Point p;
  p.panel = "auto-threaded";
  p.kops = elapsed_s > 0 ? static_cast<double>(reads_total) / elapsed_s / 1000.0
                         : 0;
  p.post_shift_read_kops = p.kops;  // no common window; closed-loop rate
  p.epoch = fin.epoch;
  p.live_shards = fin.live_shards;
  p.auto_splits = fin.balancer.auto_splits;
  p.auto_merges = fin.balancer.auto_merges;
  p.pairs_migrated = fin.resharding.pairs_migrated;
  p.writes_parked = fin.router.writes_parked;
  return p;
}

void AppendJson(const std::string& path, const Point& p,
                RuntimeKind rt = RuntimeKind::kSim) {
  if (path.empty()) return;
  FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "fig10_autobalance: cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{");
  AppendRuntimeStampJson(f, rt);
  std::fprintf(f,
               "\"bench\": \"fig10_autobalance\", \"panel\": \"%s\", "
               "\"backend\": \"wedge\", \"kops\": %.3f, \"read_ms\": %.3f, "
               "\"post_shift_read_kops\": %.3f, \"epoch\": %llu, "
               "\"live_shards\": %llu, \"auto_splits\": %llu, "
               "\"auto_merges\": %llu, \"pairs_migrated\": %llu, "
               "\"writes_parked\": %llu, ",
               p.panel.c_str(), p.kops, p.read_ms, p.post_shift_read_kops,
               static_cast<unsigned long long>(p.epoch),
               static_cast<unsigned long long>(p.live_shards),
               static_cast<unsigned long long>(p.auto_splits),
               static_cast<unsigned long long>(p.auto_merges),
               static_cast<unsigned long long>(p.pairs_migrated),
               static_cast<unsigned long long>(p.writes_parked));
  AppendPerEdgeJson(f, p.per_edge);
  std::fprintf(f, "}\n");
  std::fclose(f);
}

std::vector<std::string> Headers() {
  std::vector<std::string> h = {"panel",  "kops",   "read_ms", "post_kops",
                                "epoch",  "live",   "a_split", "a_merge"};
  for (auto& c : PerEdgeHeaders()) h.push_back(c);
  return h;
}

void PrintPoint(const TablePrinter& t, const Point& p) {
  t.PrintRow({p.panel, Fmt(p.kops, 2), Fmt(p.read_ms, 2),
              Fmt(p.post_shift_read_kops, 2), std::to_string(p.epoch),
              std::to_string(p.live_shards), std::to_string(p.auto_splits),
              std::to_string(p.auto_merges), "", "", "", "", "", ""});
  PrintPerEdge(t, p.per_edge, {"", "", "", "", "", "", "", ""});
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json = argv[++i];
  }

  Banner(
      "Fig 10: shifting hotspot (80% of traffic on a hot range that "
      "jumps shards mid-run), 2 live shards on 3 slots — static vs one "
      "manual mid-run split vs the autonomous split/merge lifecycle");
  TablePrinter t(Headers(), 11);
  t.PrintHeader();

  const Point fixed = RunPanel(Panel::kStatic, smoke);
  PrintPoint(t, fixed);
  AppendJson(json, fixed);

  const Point manual = RunPanel(Panel::kManual, smoke);
  PrintPoint(t, manual);
  AppendJson(json, manual);

  const Point aut = RunPanel(Panel::kAuto, smoke);
  PrintPoint(t, aut);
  AppendJson(json, aut);

  RuntimeKind threaded_rt;
  const Point thr = RunThreadedAutoPanel(smoke, &threaded_rt);
  PrintPoint(t, thr);
  AppendJson(json, thr, threaded_rt);

  if (manual.post_shift_read_kops > 0) {
    std::printf(
        "Post-shift-window aggregate read throughput: static %.2f, "
        "manual %.2f, auto %.2f kops (auto vs manual %+.0f%%)\n",
        fixed.post_shift_read_kops, manual.post_shift_read_kops,
        aut.post_shift_read_kops,
        (aut.post_shift_read_kops / manual.post_shift_read_kops - 1) * 100);
  }

  // The structural acceptance: the autonomous lifecycle must have run a
  // full split -> merge -> re-split cycle inside the 3-slot capacity
  // (the second split is only possible because the merge reclaimed a
  // slot) with no operator calls — on BOTH runtimes.
  for (const auto& [name, point] :
       {std::pair<const char*, const Point*>{"sim", &aut},
        std::pair<const char*, const Point*>{"threaded", &thr}}) {
    if (point->auto_splits < 2 || point->auto_merges < 1 ||
        point->epoch < 4) {
      std::fprintf(stderr,
                   "fig10_autobalance: the autonomous lifecycle did not "
                   "complete on the %s runtime (splits %llu, merges %llu, "
                   "epoch %llu)\n",
                   name, static_cast<unsigned long long>(point->auto_splits),
                   static_cast<unsigned long long>(point->auto_merges),
                   static_cast<unsigned long long>(point->epoch));
      return 1;
    }
  }
  return 0;
}
