// The runtime seam: Executor (per-node serialized scheduling), Lane
// (serialized compute resources), Clock, and the Runtime that owns them
// plus a Transport.
//
// Protocol code — the nodes in src/core/ and src/baselines/, the
// resharding coordinator, the api layer — programs against these
// interfaces instead of calling Simulation / CpuLane / SimNetwork
// directly. Two implementations:
//
//  - SimRuntime (runtime/sim_runtime.h): a thin adapter over the
//    discrete-event machinery in src/simnet/. Deterministic by seed,
//    virtual time, calibrated CostModel charging. The default: every
//    existing test and figure reproduction runs here, bit-identically.
//  - ThreadedRuntime (runtime/threaded_runtime.h): real threads —
//    one per edge/cloud node, clients multiplexed on a driver pool —
//    bounded MPSC inboxes as channels, std::chrono wall clock, and
//    real compute (the SHA-256/HMAC work already happens inline; no
//    cost-model charging on top).
//
// The cost/timer distinction is load-bearing: CostModel charges
// (Executor::Charge, Lane::Execute) model CPU occupancy and are no-delay
// pass-throughs under threads, where the real computation already ran;
// protocol timers (Executor::After — proof timeouts, flush timers,
// gossip periods) are honored on both runtimes, as virtual respectively
// wall delays. See DESIGN.md §Runtime.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/types.h"
#include "runtime/fault_plane.h"
#include "runtime/transport.h"
#include "simnet/datacenter.h"

namespace wedge {

enum class RuntimeKind {
  /// Deterministic discrete-event simulation (virtual microseconds).
  kSim,
  /// Real threads and wall-clock time (microseconds since runtime start).
  kThreaded,
};

std::string_view RuntimeKindToString(RuntimeKind kind);

/// Unit label for times/latencies produced under a runtime kind —
/// benchmarks stamp it into every JSON record so figures from the two
/// runtimes cannot be silently compared apples-to-oranges.
inline std::string_view RuntimeTimeUnit(RuntimeKind kind) {
  return kind == RuntimeKind::kSim ? "virtual_us" : "wall_us";
}

/// Wide-area latency shaping for the real runtimes. The simulator
/// already models geography through SimNetwork, so SimRuntime ignores
/// this; ThreadedRuntime and SocketTransport add `matrix.OneWay(from,
/// to)` (plus uniform jitter up to `jitter_frac` of the base) to every
/// cross-node delivery, keyed by the Dc each node was attached with.
struct WanConfig {
  bool enabled = false;
  LatencyMatrix matrix;
  /// Uniform jitter as a fraction of the base one-way delay (0 = none).
  double jitter_frac = 0.0;
};

/// The share of a deployment one process runs, as SocketConfig::mode()
/// derives it. Every process builds the whole deployment, so node ids
/// and session keys agree without any exchange, and starts only the
/// nodes of its mode; an unstarted node costs only its idle executor.
enum class SocketMode : uint8_t {
  /// Every node: the in-process transports, and sockets looped back to
  /// this process.
  kLocal,
  /// The cloud and its gossip subscriptions; accepts and routes spokes.
  kHub,
  /// The edges and the clients; dials the hub.
  kSpoke,
};

/// Socket deployment knobs for ThreadedRuntime. When `enabled`, the
/// runtime routes inter-node frames through a SocketTransport (real
/// TCP) instead of the in-process queues:
///  - hub (the process hosting the cloud): set `listen_port`, or set
///    `hub` with listen_port 0 to bind an ephemeral port (readable
///    back via listen_port()).
///  - spoke (an edge/client process): set `connect_host:connect_port`
///    to the hub.
///  - single process with none of the above set: loopback mode — the
///    process connects to itself and every frame still traverses a
///    real TCP socket (the conformance matrix's third leg).
/// All processes of one deployment must share `secret_seed`; it derives
/// the frame-MAC link key (the per-node session envelopes ride on top,
/// untouched).
struct SocketConfig {
  bool enabled = false;
  /// Force hub mode (accept + route for spokes) even when listen_port
  /// is 0; without it, listen_port 0 and no connect host means
  /// loopback.
  bool hub = false;
  uint16_t listen_port = 0;
  std::string connect_host;
  uint16_t connect_port = 0;
  uint64_t secret_seed = 0;

  /// A spoke if `connect_host` is set, else a hub if `hub` or
  /// `listen_port` is set, else (and whenever sockets are off) kLocal.
  SocketMode mode() const {
    if (!enabled) return SocketMode::kLocal;
    if (!connect_host.empty()) return SocketMode::kSpoke;
    if (hub || listen_port != 0) return SocketMode::kHub;
    return SocketMode::kLocal;
  }
};

struct RuntimeConfig {
  RuntimeKind kind = RuntimeKind::kSim;
  /// ThreadedRuntime: threads in the shared pool that multiplexes
  /// pooled (client) executors. Dedicated executors (edges, cloud) get
  /// their own thread each regardless.
  size_t driver_pool_threads = 4;
  /// ThreadedRuntime: bounded inbox capacity per worker thread. A full
  /// inbox blocks producers (backpressure) rather than dropping.
  size_t inbox_capacity = 8192;
  /// WAN latency matrix applied by the real transports (sim ignores).
  WanConfig wan;
  /// TCP socket transport (ThreadedRuntime only).
  SocketConfig socket;
};

/// A time source. Virtual microseconds under the simulator, wall-clock
/// microseconds since runtime start under threads.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual SimTime Now() const = 0;
};

/// A serialized compute resource owned by one node (request lane,
/// certification pipeline, ...). Under the simulator, charging work both
/// delays the completion and occupies the lane — offered load beyond
/// 1/service_time saturates, producing the paper's throughput ceilings.
/// Under threads the real computation already ran inline, so Execute
/// just defers `fn` to the owning executor (still serialized).
class Lane {
 public:
  virtual ~Lane() = default;

  /// Charges `serial_cost` on the lane and runs `fn` at completion.
  virtual void Execute(SimTime serial_cost, std::function<void()> fn) = 0;

  /// Charges `serial_cost` on the lane, then runs `fn` `extra_latency`
  /// after the lane work completes (parallelizable work: adds latency
  /// without occupying the lane).
  virtual void ExecuteAfter(SimTime serial_cost, SimTime extra_latency,
                            std::function<void()> fn) = 0;
};

/// How a node's executor maps onto threads under ThreadedRuntime.
enum class ExecRole {
  /// Own thread (edge nodes, the cloud, the control plane).
  kDedicated,
  /// Multiplexed on the shared driver pool (clients).
  kPooled,
};

/// A per-node serialized execution context: everything a node runs —
/// message handlers, timers, posted entry calls — goes through its
/// executor, which is what keeps node state single-threaded without
/// locks under ThreadedRuntime. Under SimRuntime all executors share
/// the one simulator event loop.
class Executor : public Clock {
 public:
  /// Runs `fn` on this executor as soon as possible. Inline under the
  /// simulator (the caller already holds the single thread); enqueued
  /// to the owning worker under threads.
  virtual void Post(std::function<void()> fn) = 0;

  /// Runs `fn` after `delay` — a real protocol timer (proof timeout,
  /// flush delay, gossip period), honored on both runtimes.
  virtual void After(SimTime delay, std::function<void()> fn) = 0;

  /// Charges `cost` of modeled CPU work, then runs `fn`. Under the
  /// simulator this is a virtual-time delay (the CostModel); under
  /// threads the real computation already ran, so `fn` is simply
  /// posted with no added delay.
  virtual void Charge(SimTime cost, std::function<void()> fn) = 0;

  /// Creates a serialized compute lane owned by this executor's node.
  virtual std::unique_ptr<Lane> MakeLane() = 0;
};

/// The full runtime a deployment is wired onto: per-node executors, the
/// transport between them, the clock, and the synchronous-facade
/// support the api layer builds Store on.
class Runtime {
 public:
  virtual ~Runtime() = default;

  virtual RuntimeKind kind() const = 0;
  virtual Transport& transport() = 0;
  virtual Clock& clock() = 0;
  virtual SimTime Now() const = 0;

  /// The chaos-injection surface (crash/partition/link shaping) — the
  /// same seam on both runtimes; see runtime/fault_plane.h.
  virtual FaultPlane& faults() = 0;

  /// Returns (creating on first call) the executor for node `id`. The
  /// role is fixed at creation; later calls may pass any role and get
  /// the same executor back.
  virtual Executor* ExecutorFor(NodeId id, ExecRole role) = 0;

  /// The control-plane executor (resharding coordinator, balancer
  /// ticks): the shared sim executor, or a dedicated control thread.
  virtual Executor* ControlExecutor() = 0;

  /// Lets background work proceed for `duration`: advances virtual time
  /// under the simulator, sleeps wall time under threads.
  virtual void RunFor(SimTime duration) = 0;
  virtual void RunUntil(SimTime until) {
    const SimTime delta = until - Now();
    if (delta > 0) RunFor(delta);
  }

  /// Blocks the calling thread until `pred()` holds, up to `timeout`.
  /// The synchronous-facade primitive: SimRuntime steps the event loop
  /// (DeadlineExceeded after `timeout` virtual time, Unavailable if the
  /// event queue drains first — the operation can never finish);
  /// ThreadedRuntime waits on the completion condition, woken by
  /// RunOnCompletion (DeadlineExceeded on expiry, Unavailable once the
  /// runtime has shut down). `pred` must read only state written
  /// through RunOnCompletion (or otherwise made visible).
  virtual Status WaitUntil(SimTime timeout,
                           const std::function<bool()>& pred) = 0;

  /// Runs `fn` — a write to operation-completion state that a
  /// WaitUntil predicate reads — with the memory ordering WaitUntil
  /// requires: inline under the simulator, under the completion lock
  /// (plus a wakeup) under threads.
  virtual void RunOnCompletion(std::function<void()> fn) = 0;

  /// Stops worker threads: closed inboxes drain their remaining tasks,
  /// pending timers are dropped, threads join. Idempotent; a no-op
  /// under the simulator. Must run before the nodes wired onto this
  /// runtime are destroyed.
  virtual void Shutdown() = 0;
};

}  // namespace wedge
