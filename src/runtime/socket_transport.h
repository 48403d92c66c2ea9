// SocketTransport: the Transport seam over real TCP connections, so the
// nodes of one deployment can run as separate processes (or hosts).
//
// Topologies (RuntimeConfig::socket):
//  - hub: the process hosting the cloud sets `listen_port` and accepts
//    spoke connections;
//  - spoke: an edge/client process sets `connect_host:connect_port` and
//    dials the hub; frames to non-local nodes ride the hub link and the
//    hub forwards them by destination;
//  - loopback: neither set — the process listens on an ephemeral
//    127.0.0.1 port and connects to itself, so every frame still
//    traverses a real TCP socket. This is the zero-config mode the
//    conformance matrix uses as its third leg.
//
// Peer discovery is a HELLO handshake: each process announces its local
// node ids (and their Dc placement) on connect and on every Attach; the
// hub records a node→connection route, rebroadcasts HELLOs to the other
// spokes, and replays all known ones to late joiners. Dc knowledge is
// what lets the *sender* apply the WAN latency matrix before framing.
//
// Wire format (all integers little-endian):
//
//   u32 len | u8 type | u32 from | u32 to | u8 aux | u64 counter
//           | payload (len - 50 bytes) | 32-byte MAC
//
// type 0 = HELLO (aux carries the Dc, payload empty), 1 = DATA. The MAC
// is HMAC-SHA256 over [type..payload] under a link key derived from
// SocketConfig::secret_seed, shared by all processes of one deployment;
// `counter` is per-connection and strictly increasing (reset only when
// the connection itself is replaced), so replayed or spliced frames are
// rejected (TransportStats::mac_rejects) before any payload parsing.
// The per-node session envelopes ride inside the payload, untouched:
// the link MAC authenticates the pipe, the envelope MAC the principals.
//
// Fault-plane and WAN semantics are applied sender-side, before
// framing: drops never reach a socket, and shaped/WAN delay is a
// control-executor timer ahead of the enqueue — identical observable
// behavior to ThreadedTransport.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/slice.h"
#include "common/types.h"
#include "crypto/hmac.h"
#include "runtime/transport.h"

namespace wedge {

class Executor;
class ThreadedRuntime;

class SocketTransport : public Transport {
 public:
  explicit SocketTransport(ThreadedRuntime* rt);
  ~SocketTransport() override;

  void Attach(NodeId id, Dc location, Endpoint* endpoint) override;
  void Detach(NodeId id) override;
  void Send(NodeId from, NodeId to, Bytes payload) override;
  SimTime Now() const override;
  void After(SimTime delay, std::function<void()> fn) override;
  TransportStats stats_snapshot() const override;

  /// Binds the executor local node `id` delivers on. ThreadedRuntime::
  /// ExecutorFor calls this; Attach aborts if it hasn't happened.
  void BindExecutor(NodeId id, Executor* exec);

  /// The port this process accepts on (hub/loopback), resolved even for
  /// an ephemeral bind; 0 for pure spokes.
  uint16_t listen_port() const { return listen_port_; }

  /// Stops the IO thread and closes every socket. Idempotent;
  /// ThreadedRuntime::Shutdown calls it before closing worker inboxes.
  void Stop();

 private:
  struct Conn;

  struct Binding {
    Executor* exec = nullptr;
    Endpoint* endpoint = nullptr;
    Dc dc = Dc::kCalifornia;
  };

  void IoLoop();
  void Wake();
  void AcceptOne();
  bool EstablishHubLink();
  void OnConnLost(const std::shared_ptr<Conn>& conn);
  void ReadFromConn(const std::shared_ptr<Conn>& conn);
  void FlushConn(const std::shared_ptr<Conn>& conn);
  void ParseFrames(const std::shared_ptr<Conn>& conn);
  void HandleFrame(const std::shared_ptr<Conn>& conn, const uint8_t* frame,
                   size_t len);
  void EnqueueFrame(const std::shared_ptr<Conn>& conn, uint8_t type,
                    NodeId from, NodeId to, uint8_t aux, Slice payload);
  void SendHello(const std::shared_ptr<Conn>& conn, NodeId id, Dc dc);
  void ReplayKnownNodes(const std::shared_ptr<Conn>& conn);
  void DeliverLocal(const Binding& binding, NodeId from, Bytes payload);
  /// Routes a framed DATA send at (post-delay) enqueue time.
  void SendFrameNow(NodeId from, NodeId to, Bytes payload);
  /// WAN one-way delay from->to plus jitter; caller holds mu_.
  SimTime WanDelayLocked(Dc from, Dc to);

  ThreadedRuntime* rt_;
  HmacKey link_key_;

  bool is_hub_ = false;       // accepts and forwards
  bool is_loopback_ = false;  // self-connected single process

  int listen_fd_ = -1;
  uint16_t listen_port_ = 0;
  int wake_fds_[2] = {-1, -1};

  mutable std::mutex mu_;  // bindings_/routes_/remote_dcs_/conns_/wan rng
  std::unordered_map<NodeId, Binding> bindings_;
  std::unordered_map<NodeId, std::shared_ptr<Conn>> routes_;  // hub only
  std::unordered_map<NodeId, Dc> remote_dcs_;
  std::vector<std::shared_ptr<Conn>> conns_;
  std::shared_ptr<Conn> hub_link_;  // spoke/loopback: our dialed conn
  uint64_t wan_rng_ = 0x2545f4914f6cdd1dull;

  std::atomic<bool> stopping_{false};
  std::thread io_thread_;

  std::atomic<uint64_t> messages_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> frames_out_{0};
  std::atomic<uint64_t> frames_in_{0};
  std::atomic<uint64_t> bytes_out_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> mac_rejects_{0};
};

}  // namespace wedge
