// Deployment: wires a complete WedgeChain topology on a runtime —
// keystore, trust authority, transport, one cloud, one edge (the paper
// reports single-partition results, §VI), and N clients. The runtime is
// the deterministic simulator by default; DeploymentConfig::runtime
// selects ThreadedRuntime for real-thread execution (edges and the
// cloud each get a dedicated worker thread, clients share the driver
// pool), optionally over TCP sockets.
//
// Used by integration tests, benchmarks, examples and tools/wedged —
// usually through the wedge::Store façade (api/store.h), which owns a
// Deployment when opened with BackendKind::kWedge. One process of a
// multi-process socket deployment builds the same Deployment as every
// other and starts only its share of the nodes (see Start).

#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "core/client.h"
#include "core/cloud_node.h"
#include "core/config.h"
#include "core/edge_node.h"
#include "core/partitioner.h"
#include "core/topology.h"
#include "core/trust_authority.h"
#include "runtime/runtime.h"
#include "simnet/cost_model.h"
#include "simnet/network.h"

namespace wedge {

struct DeploymentConfig {
  uint64_t seed = 1;
  NetworkConfig net;
  /// Which runtime to wire the deployment onto (sim by default).
  RuntimeConfig runtime;
  CostModel costs;
  Dc client_dc = Dc::kCalifornia;
  Dc edge_dc = Dc::kCalifornia;
  Dc cloud_dc = Dc::kVirginia;
  size_t num_clients = 1;
  /// Edge nodes (= data partitions, §III). Without sharding, clients are
  /// assigned round-robin: client i talks to edge i % num_edges. With
  /// sharding on (sharding.num_shards >= 1), shard slot s lives on edge
  /// s and client i talks to edge i % sharding.slots() — the layout the
  /// api-layer ShardRouter builds its (logical client, shard) ->
  /// physical client grid on. Slots beyond num_shards start idle and
  /// become live when a SplitShard migrates a key range onto them.
  size_t num_edges = 1;
  /// Key partitioning across edges (core/partitioner.h). num_shards == 0
  /// keeps the legacy unsharded wiring.
  ShardingConfig sharding;
  EdgeConfig edge;
  CloudConfig cloud;
  ClientConfig client;

  /// The edge index client `i` is pinned to under this config, given
  /// `edge_count` constructed edges.
  size_t HomeEdgeIndex(size_t i, size_t edge_count) const {
    const size_t span = sharding.enabled()
                            ? std::min(sharding.slots(), edge_count)
                            : edge_count;
    return span == 0 ? 0 : i % span;
  }
};

class Deployment {
 public:
  explicit Deployment(const DeploymentConfig& config)
      : config_(config), topo_(config.seed, config.net, config.runtime),
        authority_(&topo_.keystore()) {
    Runtime& rt = topo_.runtime();
    Signer cloud_signer = topo_.RegisterCloud();
    Executor* cloud_exec =
        rt.ExecutorFor(cloud_signer.id(), ExecRole::kDedicated);
    cloud_ = std::make_unique<CloudNode>(
        cloud_exec, &topo_.transport(), &topo_.keystore(), &authority_,
        std::move(cloud_signer), config.cloud_dc, config.cloud, config.costs);

    const size_t num_edges = config.num_edges == 0 ? 1 : config.num_edges;
    for (size_t e = 0; e < num_edges; ++e) {
      Signer s = topo_.RegisterEdge(e);
      Executor* exec = rt.ExecutorFor(s.id(), ExecRole::kDedicated);
      edges_.push_back(std::make_unique<EdgeNode>(
          exec, &topo_.transport(), &topo_.keystore(), std::move(s),
          cloud_->id(), config.edge_dc, config.edge, config.costs));
    }

    topo_.MakeShardedClients(
        config.num_clients, config.sharding.slots(),
        [&](Signer s, size_t i) {
          // Each client belongs to one partition/edge (§III).
          EdgeNode* home = edges_[config.HomeEdgeIndex(i, edges_.size())].get();
          Executor* exec = rt.ExecutorFor(s.id(), ExecRole::kPooled);
          clients_.push_back(std::make_unique<WedgeClient>(
              exec, &topo_.transport(), &topo_.keystore(), std::move(s),
              home->id(), cloud_->id(), config.client_dc, config.client,
              config.costs));
        });
  }

  /// Worker threads must stop before the nodes they reference are
  /// destroyed (members below are destroyed in reverse declaration
  /// order, i.e. nodes before topo_).
  ~Deployment() { topo_.runtime().Shutdown(); }

  /// Attaches the nodes this process runs to the network and starts
  /// timers/gossip. The socket mode decides which (SocketConfig::mode):
  /// a hub starts the cloud and its gossip subscriptions, a spoke the
  /// edges and clients, and every other runtime all of them.
  void Start() {
    const SocketMode mode = config_.runtime.socket.mode();
    const bool cloud_here = mode != SocketMode::kSpoke;
    const bool edges_here = mode != SocketMode::kHub;
    if (cloud_here) cloud_->Start();
    if (edges_here) {
      for (auto& e : edges_) e->Start();
    }
    for (size_t i = 0; i < clients_.size(); ++i) {
      if (edges_here) clients_[i]->Start();
      if (cloud_here) {
        cloud_->SubscribeGossip(
            clients_[i]->id(),
            edges_[config_.HomeEdgeIndex(i, edges_.size())]->id());
      }
    }
  }

  /// Fail-stop crash of edge `i`: the fault plane cuts it off from the
  /// network (both directions) and its volatile state — log, LSMerkle
  /// tree, buffers, replay watermarks — is wiped on the node's own
  /// executor, like a power loss. The node object stays constructed;
  /// RecoverEdge brings it back.
  void CrashEdge(size_t i) {
    EdgeNode* e = edges_.at(i).get();
    topo_.runtime().faults().CrashNode(e->id());
    topo_.runtime().ExecutorFor(e->id(), ExecRole::kDedicated)->Post([e] {
      e->DropVolatileState();
    });
  }

  /// Reconnects a crashed edge and starts verified re-hydration: the
  /// edge replays the cloud's backup log (RequestBackupSync), checking
  /// every restored block against the cloud's certificate. Complete
  /// replay needs the cloud to hold full bodies (cloud.backup_blocks
  /// plus edge.ship_full_blocks, or blocks seen through merges); the
  /// replay rebuilds L0 only, so an edge with completed merges must
  /// restore its levels from durable storage instead.
  void RecoverEdge(size_t i) {
    EdgeNode* e = edges_.at(i).get();
    topo_.runtime().faults().RestartNode(e->id());
    topo_.runtime().ExecutorFor(e->id(), ExecRole::kDedicated)->Post([e] {
      e->RequestBackupSync();
    });
  }

  Runtime& runtime() { return topo_.runtime(); }
  Transport& transport() { return topo_.transport(); }
  /// Sim-only; aborts under ThreadedRuntime (see Topology).
  Simulation& sim() { return topo_.sim(); }
  SimNetwork& net() { return topo_.net(); }
  KeyStore& keystore() { return topo_.keystore(); }
  TrustAuthority& authority() { return authority_; }
  CloudNode& cloud() { return *cloud_; }
  EdgeNode& edge(size_t i = 0) { return *edges_.at(i); }
  size_t edge_count() const { return edges_.size(); }
  WedgeClient& client(size_t i = 0) { return *clients_.at(i); }
  size_t client_count() const { return clients_.size(); }
  const DeploymentConfig& config() const { return config_; }

 private:
  DeploymentConfig config_;
  Topology topo_;
  TrustAuthority authority_;
  std::unique_ptr<CloudNode> cloud_;
  std::vector<std::unique_ptr<EdgeNode>> edges_;
  std::vector<std::unique_ptr<WedgeClient>> clients_;
};

}  // namespace wedge
