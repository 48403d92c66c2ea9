// Smart-traffic: the paper's motivating application (§II-A), on
// wedge::Store.
//
// A state government monitors city traffic. Sensors and cameras (clients)
// stream readings to a third-party edge datacenter in the city; the
// government's own datacenter (the trusted cloud) is far away. Real-time
// control — rerouting around an accident — must happen at edge latency;
// the cloud certifies lazily and would punish a lying edge operator.
//
//   $ ./build/examples/smart_traffic

#include <cstdio>
#include <string>

#include "api/store.h"
#include "core/deployment.h"

using namespace wedge;

namespace {

Bytes Reading(const std::string& sensor, int vehicles_per_min) {
  std::string s = sensor + ":flow=" + std::to_string(vehicles_per_min);
  return Bytes(s.begin(), s.end());
}

}  // namespace

int main() {
  std::printf("Smart traffic on WedgeChain\n===========================\n\n");

  Store store = *Store::Open(
      StoreOptions()
          .WithClients(4)  // 3 road sensors + 1 traffic-control client
          .WithOpsPerBlock(6)
          .WithGossipPeriod(200 * kMillisecond)
          .WithLocations(Dc::kCalifornia,   // sensors in the city
                         Dc::kCalifornia,   // city edge datacenter
                         Dc::kVirginia));   // remote government datacenter

  const size_t sensor_a = 0;  // highway 17 north
  const size_t sensor_b = 1;  // highway 17 south
  const size_t sensor_c = 2;  // downtown camera
  const size_t control = 3;   // traffic-control service

  // --- Normal traffic: sensors stream readings; Phase I commits keep the
  // control loop at edge latency.
  std::printf("Phase 1: normal traffic flows\n");
  AsyncCommit a =
      store.Append({Reading("hwy17N", 95), Reading("hwy17N", 97)}, sensor_a);
  store.Append({Reading("hwy17S", 88), Reading("hwy17S", 90)}, sensor_b);
  store.Append({Reading("cam-3rd-st", 40), Reading("cam-3rd-st", 42)},
               sensor_c);
  Commit normal = *a.WaitPhase1();
  std::printf("  [%6.1f ms] hwy17N readings in block %llu (Phase I, "
              "edge-local)\n",
              normal.at / 1000.0,
              static_cast<unsigned long long>(normal.block));
  store.RunFor(kSecond);

  // --- Incident: sensor A reports a crash; control must react without
  // waiting for the far-away cloud.
  std::printf("\nPhase 2: accident on highway 17 north\n");
  const SimTime incident_at = store.now();
  AsyncCommit incident = store.Append(
      {Reading("hwy17N", 4), Bytes{'A', 'C', 'C', 'I', 'D', 'E', 'N', 'T'}},
      sensor_a);
  // Meanwhile sensors keep streaming; the edge never blocks on the cloud.
  store.Append({Reading("hwy17S", 85), Reading("hwy17S", 83)}, sensor_b);
  store.Append({Reading("cam-3rd-st", 45), Reading("cam-3rd-st", 47)},
               sensor_c);

  Commit p1 = *incident.WaitPhase1();
  std::printf(
      "  [%6.1f ms] incident Phase-I committed in block %llu after %.1f ms "
      "— reroute NOW\n",
      p1.at / 1000.0, static_cast<unsigned long long>(p1.block),
      (p1.at - incident_at) / 1000.0);
  Commit p2 = *incident.WaitPhase2();
  std::printf(
      "  [%6.1f ms] incident Phase-II certified by the government cloud "
      "(%.1f ms later) — audit trail sealed\n",
      p2.at / 1000.0, (p2.at - incident_at) / 1000.0);
  store.RunFor(2 * kSecond);

  // --- The control service audits the incident block, proof attached.
  std::printf("\nPhase 3: control service audits the incident record\n");
  auto audit = store.ReadBlock(p1.block, control);
  if (!audit.ok()) {
    std::printf("  read failed: %s\n", audit.status().ToString().c_str());
  } else {
    std::printf("  [%6.1f ms] block %llu read, %zu entries, %s\n",
                audit->at / 1000.0,
                static_cast<unsigned long long>(audit->block.id),
                audit->block.entries.size(),
                audit->phase2 ? "cloud-certified proof attached"
                              : "awaiting certification");
  }
  store.RunFor(kSecond);

  // --- Gossip keeps every participant aware of the log's true size, so a
  // misbehaving edge operator cannot silently drop incident records.
  Deployment& d = store.wedge();
  std::printf(
      "\ngossip: control service knows the log holds %llu blocks "
      "(omission attacks detectable)\n",
      static_cast<unsigned long long>(d.client(control).gossiped_log_size()));

  std::printf(
      "cloud certified %llu blocks using only digests — %llu WAN bytes "
      "total\n",
      static_cast<unsigned long long>(d.cloud().stats().certified_blocks),
      static_cast<unsigned long long>(store.net().stats().wan_bytes));
  return 0;
}
