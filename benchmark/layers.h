// Per-layer measurements for the traced wedgebench run.
//
// The traced run drives its workload exactly like the untraced one, then
// calls MeasureLayers: it copies the edge's live LSMerkle tree and log on
// the edge's own executor, replays keys drawn from the workload's
// distribution and seed through each layer's public functions, times
// every call, and turns the node counters read at the window's edges
// (each on its node's executor) into per-window rates and ratios.

#pragma once

#include <string>
#include <utility>
#include <vector>

#include "api/store.h"
#include "core/deployment.h"

namespace wedgebench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};
using Metrics = std::vector<Metric>;

/// Nearest-rank percentile `p` in (0, 100] of `v` (0 when empty).
/// Reorders `v`.
double Percentile(std::vector<double>& v, double p);
inline double Median(std::vector<double>& v) { return Percentile(v, 50); }

[[noreturn]] void Fail(const std::string& what);

/// The CPU each busy thread of a run is pinned to (see PinThreads).
constexpr int kGeneratorCpu = 0;
constexpr int kClientCpu = 1;
constexpr int kEdgeCpu = 2;
constexpr int kCloudCpu = 3;

/// Pins the calling thread to `cpu`; false when the host has no such CPU
/// or the kernel refuses.
bool PinCurrentThread(int cpu);

/// Runs `fn` on `exec` and returns its result. Exits the process if the
/// executor does not answer within 30 s.
template <typename Fn>
auto OnExecutor(wedge::Runtime& rt, wedge::Executor* exec, Fn fn)
    -> decltype(fn()) {
  using R = decltype(fn());
  R out{};
  bool done = false;
  exec->Post([&] {
    R value = fn();
    rt.RunOnCompletion([&] {
      out = std::move(value);
      done = true;
    });
  });
  if (!rt.WaitUntil(30 * wedge::kSecond, [&] { return done; }).ok()) {
    Fail("executor did not answer");
  }
  return out;
}

/// Runs `fn` on `node`'s executor: the race-free way to read node state
/// while the deployment's threads are live.
template <typename Fn>
auto OnNode(wedge::Store& store, wedge::NodeId node, Fn fn) -> decltype(fn()) {
  wedge::Runtime& rt = store.runtime();
  return OnExecutor(rt, rt.ExecutorFor(node, wedge::ExecRole::kDedicated),
                    std::move(fn));
}

/// Counters of every node, each read on its own executor.
struct NodeCounters {
  wedge::EdgeStats edge;
  wedge::CloudStats cloud;
  wedge::ClientStats clients;            // summed over clients
  wedge::VerifierCache::Stats cache;     // summed over clients
  size_t l0_blocks = 0;
};
NodeCounters ReadNodeCounters(wedge::Store& store);

/// What the traced run hands the layer replays.
struct LayerInputs {
  /// Keys drawn from the workload's distribution and seed.
  std::vector<wedge::Key> get_keys;
  std::vector<wedge::Key> scan_los;
  wedge::Key scan_width = 64;
  /// Node counters at the start and end of the measured window.
  NodeCounters at_lo;
  NodeCounters at_hi;
  double window_s = 0;
  /// The run's get p50 (µs), for the attribution rows; 0 when the
  /// workload issued no gets.
  double get_p50_us = 0;
};

/// Appends the layer metrics named in BENCHMARK.json's per_layer list
/// (the api, harness and lat.* rows come from the run itself).
void MeasureLayers(wedge::Store& store, const LayerInputs& in, Metrics* out);

}  // namespace wedgebench
