// Figure 9 (extension, not in the paper): dynamic resharding — a live,
// verified SplitShard under the fig8(b) hot-shard workload.
//
// Two runs of the same range-sharded WedgeChain deployment (2 live
// shards on 4 slots, 70% of the traffic on shard 0's range):
//
//   static — ownership frozen at Open, the hot edge stays saturated;
//   split  — one third into the measure window, SplitShard(0) migrates
//            the upper half of the hot range onto an idle slot through
//            the verified live-migration path (fence -> drain ->
//            completeness-verified export -> import -> epoch install,
//            certificate lazily), with the closed-loop clients still
//            running.
//
// The point of comparison is aggregate read throughput in the window
// AFTER the split instant (the same window of the static run): the
// migrated half of the hot range is now served by a second edge, so the
// skewed workload's throughput recovers toward the balanced line.
//
// Usage:
//   fig9_resharding [--smoke] [--json PATH]
//     --smoke  short measure window (CI).
//     --json   append one JSON line per (panel) point to PATH.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/harness/runner.h"
#include "bench/harness/table.h"

using namespace wedge;

namespace {

struct Point {
  std::string panel;
  double kops = 0;
  double read_ms = 0;
  double post_split_read_kops = 0;
  uint64_t epoch = 1;
  uint64_t pairs_moved = 0;
  uint64_t writes_parked = 0;
  std::vector<EdgeLoadMetrics> per_edge;
};

ExperimentConfig BaseConfig(bool smoke) {
  ExperimentConfig cfg;
  cfg.spec.read_fraction = 0.9;
  cfg.spec.ops_per_batch = 40;
  cfg.spec.key_space = 20000;
  cfg.spec.hot_shard_fraction = 0.7;
  cfg.spec.hot_shard = 0;
  cfg.num_clients = 8;
  cfg.num_edges = 4;
  cfg.num_shards = 2;  // 2 live shards...
  cfg.shard_capacity = 4;  // ...on 4 slots: room to split each once
  cfg.shard_scheme = ShardScheme::kRange;
  cfg.preload_keys = smoke ? 2000 : 8000;
  cfg.warmup = kSecond;
  cfg.measure = smoke ? 3 * kSecond : 9 * kSecond;
  cfg.mid_run_at = cfg.measure / 3;
  cfg.lsm_thresholds = {10, 10, 100};
  cfg.page_pairs = 50;
  return cfg;
}

Point RunPanel(const std::string& panel, bool smoke, bool split) {
  ExperimentConfig cfg = BaseConfig(smoke);
  uint64_t epoch = 1, pairs_moved = 0, parked = 0;
  if (split) {
    cfg.mid_run = [&](Store& store) {
      auto report = store.SplitShard(0);
      if (!report.ok()) {
        std::fprintf(stderr, "SplitShard failed: %s\n",
                     report.status().ToString().c_str());
        return;
      }
      epoch = report->epoch;
      pairs_moved = report->pairs_moved;
      parked = store.stats().router.writes_parked;
      std::printf(
          "  SplitShard(0): epoch %llu, moved [%llu, %llu] "
          "(%zu pairs) shard %zu -> %zu\n",
          static_cast<unsigned long long>(report->epoch),
          static_cast<unsigned long long>(report->moved_lo),
          static_cast<unsigned long long>(report->moved_hi),
          report->pairs_moved, report->source, report->dest);
    };
  }
  ExperimentResult r = RunWedge(cfg);
  Point p;
  p.panel = panel;
  p.kops = r.kops;
  p.read_ms = r.read_ms;
  p.epoch = epoch;
  p.pairs_moved = pairs_moved;
  p.writes_parked = parked;
  p.per_edge = r.per_edge();
  const double post_window_s =
      static_cast<double>(cfg.measure - cfg.mid_run_at) / kSecond;
  p.post_split_read_kops =
      static_cast<double>(r.metrics.reads_post_mark) / post_window_s / 1000.0;
  return p;
}

void AppendJson(const std::string& path, const Point& p) {
  if (path.empty()) return;
  FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "fig9_resharding: cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{");
  AppendRuntimeStampJson(f);
  std::fprintf(f,
               "\"bench\": \"fig9_resharding\", \"panel\": \"%s\", "
               "\"backend\": \"wedge\", \"kops\": %.3f, \"read_ms\": %.3f, "
               "\"post_split_read_kops\": %.3f, \"epoch\": %llu, "
               "\"pairs_moved\": %llu, \"writes_parked\": %llu, ",
               p.panel.c_str(), p.kops, p.read_ms, p.post_split_read_kops,
               static_cast<unsigned long long>(p.epoch),
               static_cast<unsigned long long>(p.pairs_moved),
               static_cast<unsigned long long>(p.writes_parked));
  AppendPerEdgeJson(f, p.per_edge);
  std::fprintf(f, "}\n");
  std::fclose(f);
}

std::vector<std::string> Headers() {
  std::vector<std::string> h = {"panel", "kops", "read_ms", "post_kops",
                                "epoch"};
  for (auto& c : PerEdgeHeaders()) h.push_back(c);
  return h;
}

void PrintPoint(const TablePrinter& t, const Point& p) {
  t.PrintRow({p.panel, Fmt(p.kops, 2), Fmt(p.read_ms, 2),
              Fmt(p.post_split_read_kops, 2), std::to_string(p.epoch), "",
              "", "", "", "", ""});
  PrintPerEdge(t, p.per_edge, {"", "", "", "", ""});
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
      "Fig 9: hot-shard workload (70% on shard 0), 2 live shards on 4 "
      "slots — static ownership vs a mid-run verified SplitShard");
  TablePrinter t(Headers(), 11);
  t.PrintHeader();

  Point fixed = RunPanel("static", smoke, /*split=*/false);
  PrintPoint(t, fixed);
  AppendJson(json, fixed);

  Point split = RunPanel("split", smoke, /*split=*/true);
  PrintPoint(t, split);
  AppendJson(json, split);

  if (fixed.post_split_read_kops > 0) {
    std::printf(
        "Post-split-window aggregate read throughput: %.2f -> %.2f kops "
        "(%+.0f%%)\n",
        fixed.post_split_read_kops, split.post_split_read_kops,
        (split.post_split_read_kops / fixed.post_split_read_kops - 1) * 100);
  }
  if (split.epoch < 2) {
    std::fprintf(stderr, "fig9_resharding: the split never installed\n");
    return 1;
  }
  return 0;
}
