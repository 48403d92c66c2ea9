// Topology: the substrate every deployment shares — the runtime (event
// loop + transport + clock) and the identity keystore, seeded identically
// so WedgeChain and the two baselines are compared on the same virtual
// world. The registration helpers keep node naming ("cloud", "edge-N",
// "client-N") consistent across all three deployments.
//
// The runtime is chosen by RuntimeConfig::kind: the deterministic
// SimRuntime (default — virtual time, CostModel, failure injection) or
// ThreadedRuntime (real threads, wall clock). The sim()/net() accessors
// exist for sim-only features and abort under threads; runtime code paths
// must go through runtime()/transport().

#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "crypto/signature.h"
#include "runtime/runtime.h"
#include "runtime/sim_runtime.h"
#include "runtime/threaded_runtime.h"
#include "simnet/network.h"
#include "simnet/simulation.h"

namespace wedge {

class Topology {
 public:
  Topology(uint64_t seed, const NetworkConfig& net_config,
           const RuntimeConfig& rt_config = {})
      : keystore_(seed ^ 0x9e77) {
    if (rt_config.kind == RuntimeKind::kSim) {
      auto sim_rt = std::make_unique<SimRuntime>(seed, net_config);
      sim_runtime_ = sim_rt.get();
      runtime_ = std::move(sim_rt);
    } else {
      runtime_ = std::make_unique<ThreadedRuntime>(rt_config);
    }
  }

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  Runtime& runtime() { return *runtime_; }
  Transport& transport() { return runtime_->transport(); }

  /// Sim-only accessors (deterministic stepping, latency matrix, failure
  /// injection). Abort under ThreadedRuntime: callers that can run on
  /// either runtime must use runtime()/transport() instead.
  Simulation& sim() { return RequireSim().sim(); }
  SimNetwork& net() { return RequireSim().net(); }

  KeyStore& keystore() { return keystore_; }
  const KeyStore& keystore() const { return keystore_; }

  Signer RegisterCloud() { return keystore_.Register(Role::kCloud, "cloud"); }
  Signer RegisterEdge(size_t i) {
    return keystore_.Register(Role::kEdge, "edge-" + std::to_string(i));
  }

  /// Registers `n` client identities and calls `make(signer, i)` for each
  /// in index order — the client-construction loop shared by all
  /// deployments. Unsharded (`num_shards == 0`) client i is "client-i".
  /// Sharded, a deployment runs one physical client per (logical client,
  /// shard) pair, i = logical * num_shards + shard (the routing layer
  /// relies on exactly this layout), and the name records both, so logs
  /// and dispute records stay attributable to the logical caller.
  template <typename MakeFn>
  void MakeShardedClients(size_t n, size_t num_shards, MakeFn make) {
    for (size_t i = 0; i < n; ++i) {
      const std::string name =
          num_shards == 0 ? "client-" + std::to_string(i)
                          : "client-" + std::to_string(i / num_shards) +
                                ".s" + std::to_string(i % num_shards);
      make(keystore_.Register(Role::kClient, name), i);
    }
  }

 private:
  SimRuntime& RequireSim() {
    if (sim_runtime_ == nullptr) {
      std::fprintf(stderr,
                   "Topology::sim()/net() called under ThreadedRuntime; "
                   "this code path is sim-only\n");
      std::abort();
    }
    return *sim_runtime_;
  }

  KeyStore keystore_;
  std::unique_ptr<Runtime> runtime_;
  SimRuntime* sim_runtime_ = nullptr;  // non-null iff kind == kSim
};

}  // namespace wedge
