#include "bench/harness/runner.h"

#include <memory>

#include "workload/driver.h"

namespace wedge {

namespace {

StoreOptions MakeStoreOptions(BackendKind kind, const ExperimentConfig& cfg) {
  StoreOptions o;
  o.WithBackend(kind)
      .WithSeed(cfg.seed)
      .WithClients(cfg.num_clients)
      .WithEdges(cfg.num_edges)
      .WithLocations(cfg.client_dc, cfg.edge_dc, cfg.cloud_dc)
      .WithOpsPerBlock(cfg.spec.ops_per_batch)
      .WithLsm(cfg.lsm_thresholds, cfg.page_pairs)
      .WithProofTimeout(30 * kSecond)  // generous; honest runs
      .WithVerifierCache(cfg.verify_cache);
  if (cfg.num_shards > 0) {
    const uint64_t span = cfg.shard_range_span > 0 ? cfg.shard_range_span
                                                   : cfg.spec.key_space;
    o.WithShards(cfg.num_shards, cfg.shard_scheme, span);
    if (cfg.shard_capacity > cfg.num_shards) {
      o.WithShardCapacity(cfg.shard_capacity);
    }
    if (cfg.balancer.enabled) o.WithAutoBalance(cfg.balancer);
  }
  o.deploy.edge.ship_full_blocks = cfg.certify_full_blocks;
  return o;
}

/// Preloads `cfg.preload_keys` keys through client 0, chaining batches
/// on their commit; runs the simulation until the load completes. The
/// keys are sequential, or — with cfg.striped_preload — interleave the
/// low and high halves of the key space: a sequential bulk load is a
/// 100% hotspot marching across the shards, and no load policy should
/// be asked to chase it (striping is what a sharded bulk loader does in
/// production).
void Preload(Store& store, const ExperimentConfig& cfg) {
  if (cfg.preload_keys == 0) return;
  StoreBackend* backend = &store.backend();
  const size_t total = cfg.preload_keys;
  auto key_at = [total, striped = cfg.striped_preload](size_t i) -> Key {
    if (!striped) return i;
    const size_t half = (total + 1) / 2;
    return i % 2 == 0 ? i / 2 : half + i / 2;
  };
  auto issued = std::make_shared<size_t>(0);
  auto loaded = std::make_shared<bool>(false);
  std::shared_ptr<std::function<void()>> next =
      std::make_shared<std::function<void()>>();
  // The loop refers to itself weakly; each pending write's callback holds
  // it strongly, so it is freed after the last one instead of leaking as
  // a self-reference.
  std::weak_ptr<std::function<void()>> self = next;
  *next = [=]() {
    if (*issued >= total) {
      *loaded = true;
      return;
    }
    const size_t n = std::min(cfg.spec.ops_per_batch, total - *issued);
    std::vector<std::pair<Key, Bytes>> kvs;
    kvs.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      kvs.emplace_back(key_at((*issued)++), Bytes(cfg.spec.value_size, 0x11));
    }
    backend->PutBatch(
        0, kvs,
        [loop = self.lock()](const Status&, BlockId, SimTime) { (*loop)(); },
        nullptr);
  };
  (*next)();
  // Run the load to completion (bounded to avoid hangs on bugs).
  for (int guard = 0; guard < 1000000 && !*loaded; ++guard) {
    if (!store.sim().Step()) break;
  }
}

ExperimentResult Collect(RunMetrics metrics, const NetworkStats& net,
                         SimTime measured) {
  metrics.measured_duration = measured;
  ExperimentResult r;
  r.write_ms = metrics.write_latency.Mean() / 1000.0;
  r.phase2_ms = metrics.phase2_latency.Mean() / 1000.0;
  r.read_ms = metrics.read_latency.Mean() / 1000.0;
  r.kops = metrics.Throughput() / 1000.0;
  r.metrics = std::move(metrics);
  r.net = net;
  return r;
}

}  // namespace

ExperimentResult RunSystem(BackendKind kind, const ExperimentConfig& cfg) {
  Store store = *Store::Open(MakeStoreOptions(kind, cfg));

  Preload(store, cfg);
  store.RunFor(2 * kSecond);  // drain outstanding certifications/merges
  store.net().ResetStats();

  RunMetrics metrics;
  const SimTime measure_start = store.now() + cfg.warmup;
  const SimTime end = measure_start + cfg.measure;
  StoreBackend* backend = &store.backend();

  // Sharded runs get the per-edge breakdown: each op is attributed to
  // the edge owning its key — the router's own OwnershipTable under its
  // *current* epoch (so a mid-run split re-attributes the migrated range
  // to its new owner), with the static Partitioner as the unrouted
  // fallback. Attribution and routing cannot disagree.
  const Partitioner part = backend->partitioner();
  const OwnershipTable* ownership = backend->ownership();
  auto shard_of = [ownership, part](Key k) {
    return ownership != nullptr ? ownership->ShardOf(k) : part.ShardOf(k);
  };
  const bool per_edge = backend->shard_count() > 1;
  if (per_edge) metrics.per_edge.resize(backend->shard_count());
  auto in_window = [measure_start, end](SimTime t) {
    return t >= measure_start && t < end;
  };
  // The event mark exists only for experiments that declare one (a
  // mid-run action, or a control run comparing against one): mark == 0
  // means none, per the RunMetrics contract.
  if (cfg.mid_run || cfg.mid_run_at > 0) {
    metrics.mark = measure_start + cfg.mid_run_at;
  }

  std::vector<std::unique_ptr<ClosedLoopDriver>> drivers;
  for (size_t i = 0; i < cfg.num_clients; ++i) {
    ClosedLoopDriver::Adapters ad;
    const bool wait_phase2 = cfg.wait_phase2;
    ad.write_batch = [backend, i, wait_phase2, per_edge, shard_of, in_window,
                      &metrics](const std::vector<std::pair<Key, Bytes>>& kvs,
                                ClosedLoopDriver::DoneCb commit,
                                ClosedLoopDriver::DoneCb final_cb) {
      // Lazy mode unblocks the closed loop at Phase I; the eager ablation
      // unblocks at Phase II (certification on the critical path). The
      // baselines fire both phases at their single synchronous commit.
      // Per-edge load is attributed per key at commit time.
      std::shared_ptr<std::vector<std::pair<uint64_t, uint64_t>>> routed;
      if (per_edge) {
        routed = std::make_shared<
            std::vector<std::pair<uint64_t, uint64_t>>>(
            metrics.per_edge.size());
        for (const auto& kv : kvs) {
          auto& [ops, bytes] = (*routed)[shard_of(kv.first)];
          ops++;
          bytes += kv.second.size();
        }
      }
      backend->PutBatch(
          i, kvs,
          [commit, wait_phase2, routed, in_window, &metrics](
              const Status& s, BlockId, SimTime t) {
            if (s.ok() && routed && in_window(t)) {
              for (size_t e = 0; e < routed->size(); ++e) {
                metrics.per_edge[e].write_ops += (*routed)[e].first;
                metrics.per_edge[e].bytes_written += (*routed)[e].second;
              }
            }
            if (!wait_phase2 && s.ok() && commit) commit(t);
          },
          [commit, final_cb, wait_phase2](const Status& s, BlockId,
                                          SimTime t) {
            if (wait_phase2 && s.ok() && commit) commit(t);
            if (s.ok() && final_cb) final_cb(t);
          });
    };
    ad.read = [backend, i, per_edge, shard_of, in_window, &metrics](
                  Key k, ClosedLoopDriver::DoneCb done) {
      const SimTime started = backend->sim().now();
      backend->Get(i, k,
                   [done, k, started, per_edge, shard_of, in_window,
                    &metrics](const Status& s, GetResult r, SimTime t) {
                     if (s.ok() && in_window(t)) {
                       if (metrics.mark != 0) {
                         if (t < metrics.mark) {
                           metrics.reads_pre_mark++;
                         } else {
                           metrics.reads_post_mark++;
                         }
                       }
                       if (per_edge) {
                         EdgeLoadMetrics& e = metrics.per_edge[shard_of(k)];
                         e.read_ops++;
                         e.bytes_read += r.value.size();
                         e.read_latency.Record(t - started);
                       }
                     }
                     if (done) done(t);
                   });
    };
    drivers.push_back(std::make_unique<ClosedLoopDriver>(
        &store.sim(), std::move(ad), cfg.spec, cfg.seed + 100 + i, &metrics,
        &part));
    drivers.back()->Start(measure_start, end);
  }
  if (cfg.mid_run) {
    // Run to the mark, fire the action with the workload still in
    // flight (a synchronous Store call pumps the same simulator, so the
    // closed loops keep progressing underneath it), then finish.
    store.RunUntil(metrics.mark);
    cfg.mid_run(store);
  }
  store.RunUntil(end);
  // Drain past the window edge: the driver records by *intended start*
  // time, so an op issued (or due) inside the window but completing
  // after it still belongs in the histograms. Without the drain those
  // stragglers — exactly the slow tail — would be silently dropped.
  store.RunFor(2 * kSecond);
  ExperimentResult result =
      Collect(std::move(metrics), store.net().stats(), cfg.measure);
  result.final_stats = store.stats();
  return result;
}

ExperimentResult RunSystem(const std::string& name,
                           const ExperimentConfig& cfg) {
  if (name == "wedge") return RunSystem(BackendKind::kWedge, cfg);
  if (name == "cloud") return RunSystem(BackendKind::kCloudOnly, cfg);
  return RunSystem(BackendKind::kEdgeBaseline, cfg);
}

}  // namespace wedge
