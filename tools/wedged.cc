// wedged: a WedgeChain node process. Opens a wedge::Store on the
// threaded runtime with the TCP SocketTransport and runs one side of the
// deployment, so the cloud and an edge (plus its clients) can live in
// separate OS processes and talk over real sockets — the deployment
// shape the paper's architecture (§III) implies but the in-process
// runtimes only emulate.
//
// Identity bootstrap: every process of one deployment is launched with
// the same --seed and --clients, so each builds the same Deployment
// (cloud, edge-0, client-0..N-1, registered in that order) and NodeIds
// and session secrets are bit-identical everywhere without any key
// exchange. The socket mode decides which nodes a process starts
// (SocketConfig::mode): the hub starts the cloud, the spoke edge-0 and
// the clients. Peer discovery is the SocketTransport HELLO handshake: a
// spoke announces its attachments to the hub, the hub replays known
// attachments to late joiners and forwards spoke-to-spoke frames.
//
// Roles:
//   --role cloud   The hub. Listens (--listen PORT; 0 picks an
//                  ephemeral port, written to --port-file for
//                  orchestration), hosts the trust authority and the
//                  cloud node, runs for --run-for-ms (SIGTERM/SIGINT
//                  exit early, cleanly).
//   --role edge    A spoke. Connects (--connect HOST:PORT), hosts
//                  edge-0 and the clients, then drives a scripted
//                  verified workload through Store calls: --ops
//                  put-batches Phase I AND Phase II committed (Phase II
//                  proves the full cloud round trip over the socket),
//                  every value read back through a proof-verified Get,
//                  and a completeness-proof-verified Scan over the whole
//                  range. Exit 0 only if all of it verified.
//
// Two-process smoke (what CI runs):
//   wedged --role cloud --listen 0 --port-file /tmp/p &
//   wedged --role edge --connect 127.0.0.1:$(cat /tmp/p)
//
// Add --wan to both to shape links with the paper's Table I RTT matrix
// (keyed by --cloud-dc / --edge-dc short names C,O,V,I,M).

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "api/store.h"
#include "core/deployment.h"
#include "runtime/socket_transport.h"
#include "runtime/threaded_runtime.h"

using namespace wedge;

namespace {

std::atomic<bool> g_stop{false};
void OnSignal(int) { g_stop.store(true); }

struct Args {
  std::string role;
  uint16_t listen_port = 0;
  bool listen_set = false;
  std::string connect_host;
  uint16_t connect_port = 0;
  std::string port_file;
  uint64_t seed = 7;
  size_t clients = 2;
  size_t ops = 3;  ///< put-batches the edge role drives
  uint64_t run_for_ms = 30000;
  bool wan = false;
  Dc edge_dc = Dc::kCalifornia;
  Dc cloud_dc = Dc::kVirginia;
};

Dc ParseDc(const char* s) {
  switch (s[0]) {
    case 'C': return Dc::kCalifornia;
    case 'O': return Dc::kOregon;
    case 'V': return Dc::kVirginia;
    case 'I': return Dc::kIreland;
    case 'M': return Dc::kMumbai;
    default:
      std::fprintf(stderr, "wedged: unknown datacenter '%s' (C,O,V,I,M)\n", s);
      std::exit(2);
  }
}

void Usage() {
  std::fprintf(
      stderr,
      "usage: wedged --role cloud --listen PORT [--port-file PATH]\n"
      "              [--run-for-ms MS] [--seed S] [--clients N] [--wan]\n"
      "       wedged --role edge --connect HOST:PORT [--ops N]\n"
      "              [--seed S] [--clients N] [--wan]\n"
      "       common: [--edge-dc C|O|V|I|M] [--cloud-dc C|O|V|I|M]\n");
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--role") == 0) {
      a.role = next();
    } else if (std::strcmp(argv[i], "--listen") == 0) {
      a.listen_port = static_cast<uint16_t>(std::atoi(next()));
      a.listen_set = true;
    } else if (std::strcmp(argv[i], "--connect") == 0) {
      const std::string hp = next();
      const size_t colon = hp.rfind(':');
      if (colon == std::string::npos) Usage();
      a.connect_host = hp.substr(0, colon);
      a.connect_port = static_cast<uint16_t>(std::atoi(hp.c_str() + colon + 1));
    } else if (std::strcmp(argv[i], "--port-file") == 0) {
      a.port_file = next();
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      a.seed = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--clients") == 0) {
      a.clients = static_cast<size_t>(std::atoi(next()));
    } else if (std::strcmp(argv[i], "--ops") == 0) {
      a.ops = static_cast<size_t>(std::atoi(next()));
    } else if (std::strcmp(argv[i], "--run-for-ms") == 0) {
      a.run_for_ms = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--wan") == 0) {
      a.wan = true;
    } else if (std::strcmp(argv[i], "--edge-dc") == 0) {
      a.edge_dc = ParseDc(next());
    } else if (std::strcmp(argv[i], "--cloud-dc") == 0) {
      a.cloud_dc = ParseDc(next());
    } else {
      Usage();
    }
  }
  if (a.role != "cloud" && a.role != "edge") Usage();
  if (a.role == "cloud" && !a.listen_set) Usage();
  if (a.role == "edge" && a.connect_host.empty()) Usage();
  if (a.clients == 0) a.clients = 1;
  return a;
}

/// The options every process of one deployment opens its Store with;
/// only the socket half differs between the roles.
StoreOptions MakeOptions(const Args& a) {
  RuntimeConfig rt;
  rt.kind = RuntimeKind::kThreaded;
  rt.socket.enabled = true;
  rt.socket.secret_seed = a.seed;
  if (a.role == "cloud") {
    rt.socket.hub = true;  // --listen 0 still means hub on an ephemeral port
    rt.socket.listen_port = a.listen_port;
  } else {
    rt.socket.connect_host = a.connect_host;
    rt.socket.connect_port = a.connect_port;
  }
  StoreOptions o;
  o.WithRuntimeConfig(rt)
      .WithSeed(a.seed)
      .WithClients(a.clients)
      .WithLocations(a.edge_dc, a.edge_dc, a.cloud_dc)
      .WithOpsPerBlock(4)              // seal fast so Phase II lands promptly
      .WithProofTimeout(10 * kSecond)  // wall clock: absorb CI jitter
      .WithOpTimeout(20 * kSecond);
  if (a.wan) o.WithWan(LatencyMatrix::Paper());
  return o;
}

Result<Store> OpenStore(const Args& a) {
  auto opened = Store::Open(MakeOptions(a));
  if (!opened.ok()) {
    std::fprintf(stderr, "wedged: cannot open the store: %s\n",
                 opened.status().ToString().c_str());
  }
  return opened;
}

// ----------------------------------------------------------- cloud role

int RunCloud(const Args& a) {
  auto opened = OpenStore(a);
  if (!opened.ok()) return 1;
  Store store = std::move(*opened);
  const uint16_t port = static_cast<ThreadedRuntime&>(store.runtime())
                            .socket_transport()
                            ->listen_port();
  std::printf("wedged: cloud %llu listening on port %u (seed %llu)\n",
              static_cast<unsigned long long>(store.wedge().cloud().id()),
              port, static_cast<unsigned long long>(a.seed));
  std::fflush(stdout);
  if (!a.port_file.empty()) {
    FILE* f = std::fopen(a.port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "wedged: cannot write --port-file %s\n",
                   a.port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%u\n", port);
    std::fclose(f);
  }

  // Serve until the deadline or a clean signal; 100ms slices keep the
  // signal latency low without busy-waiting.
  const SimTime deadline = store.now() + a.run_for_ms * kMillisecond;
  while (!g_stop.load() && store.now() < deadline) {
    store.RunFor(100 * kMillisecond);
  }
  const TransportStats ts = store.stats().transport;
  store.runtime().Shutdown();  // joins workers; safe to read node state below
  std::printf(
      "wedged: cloud exiting (certified_blocks=%llu frames_in=%llu "
      "frames_out=%llu dropped=%llu mac_rejects=%llu)\n",
      static_cast<unsigned long long>(
          store.wedge().cloud().stats().certified_blocks),
      static_cast<unsigned long long>(ts.frames_in),
      static_cast<unsigned long long>(ts.frames_out),
      static_cast<unsigned long long>(ts.dropped),
      static_cast<unsigned long long>(ts.mac_rejects));
  return 0;
}

// ------------------------------------------------------------ edge role

Bytes ValueOf(Key k) { return Bytes(32, static_cast<uint8_t>(0xA0 + k)); }

int RunEdge(const Args& a) {
  auto opened = OpenStore(a);
  if (!opened.ok()) return 1;
  Store store = std::move(*opened);
  const size_t clients = store.client_count();
  std::printf("wedged: edge %llu + %zu clients connected to %s:%u\n",
              static_cast<unsigned long long>(store.wedge().edge().id()),
              clients, a.connect_host.c_str(), a.connect_port);
  std::fflush(stdout);

  int rc = 0;

  // Scripted verified workload. Each batch must Phase-I- AND
  // Phase-II-commit: Phase II only lands after the cloud certified the
  // block and the proof came back through the socket, so one committed
  // batch certifies the whole transport path.
  const size_t batch = 4;
  const size_t keys = a.ops * batch;
  for (size_t op = 0; op < a.ops && rc == 0; ++op) {
    std::vector<std::pair<Key, Bytes>> kvs;
    for (size_t j = 0; j < batch; ++j) {
      const Key k = op * batch + j;
      kvs.emplace_back(k, ValueOf(k));
    }
    CommitHandle h = store.PutBatch(kvs, op % clients);
    const auto p1 = h.WaitPhase1();
    const auto p2 = h.WaitPhase2();
    if (!p1.ok() || !p2.ok()) {
      std::fprintf(stderr, "wedged: batch %zu failed (p1=%s p2=%s)\n", op,
                   p1.status().ToString().c_str(),
                   p2.status().ToString().c_str());
      rc = 1;
    }
  }
  if (rc == 0) {
    std::printf("wedged: %zu batches Phase I+II committed over the socket\n",
                a.ops);
  }

  // Read every key back through the proof-verified path and check the
  // value round-tripped.
  for (Key k = 0; rc == 0 && k < static_cast<Key>(keys); ++k) {
    const auto got = store.Get(k, k % clients);
    if (!got.ok() || !got->verified || !got->found ||
        got->value != ValueOf(k)) {
      std::fprintf(stderr, "wedged: verified get of key %llu failed (%s)\n",
                   static_cast<unsigned long long>(k),
                   got.ok() ? "missing or wrong value"
                            : got.status().ToString().c_str());
      rc = 1;
    }
  }
  if (rc == 0) std::printf("wedged: %zu verified gets OK\n", keys);

  // One completeness-proof-verified scan over the whole written range:
  // a dropped key would surface as a SecurityViolation or a short result.
  if (rc == 0) {
    const auto scan = store.Scan(0, keys - 1);
    if (!scan.ok() || !scan->verified || scan->pairs.size() != keys) {
      std::fprintf(stderr, "wedged: verified scan failed (%s, %zu/%zu keys)\n",
                   scan.status().ToString().c_str(),
                   scan.ok() ? scan->pairs.size() : size_t{0}, keys);
      rc = 1;
    } else {
      std::printf("wedged: verified scan returned all %zu keys\n", keys);
    }
  }

  const TransportStats ts = store.stats().transport;
  std::printf(
      "wedged: edge transport frames_in=%llu frames_out=%llu dropped=%llu "
      "mac_rejects=%llu reconnects=%llu\n",
      static_cast<unsigned long long>(ts.frames_in),
      static_cast<unsigned long long>(ts.frames_out),
      static_cast<unsigned long long>(ts.dropped),
      static_cast<unsigned long long>(ts.mac_rejects),
      static_cast<unsigned long long>(ts.reconnects));
  if (rc == 0) std::printf("wedged: edge run PASSED\n");
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  const Args a = Parse(argc, argv);
  return a.role == "cloud" ? RunCloud(a) : RunEdge(a);
}
