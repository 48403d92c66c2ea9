#include "runtime/socket_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "crypto/sha256.h"
#include "runtime/threaded_runtime.h"

namespace wedge {

namespace {

constexpr uint8_t kFrameHello = 0;
constexpr uint8_t kFrameData = 1;
// type(1) + from(4) + to(4) + aux(1) + counter(8)
constexpr size_t kHeaderSize = 18;
constexpr size_t kMacSize = 32;
// Largest frame we will buffer; a stream claiming more is corrupt (or
// hostile) and the connection is cut.
constexpr size_t kMaxFrame = 64u << 20;

void Store32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

void Store64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

uint32_t Load32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint64_t Load64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void SetNoDelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

/// One TCP connection. fd and the inbound state are IO-thread-only;
/// the outbound buffer and counters are shared with senders under
/// out_mu. Lock order is always SocketTransport::mu_ before out_mu.
struct SocketTransport::Conn {
  int fd = -1;

  std::mutex out_mu;
  bool connected = false;
  std::vector<uint8_t> outbuf;
  uint64_t send_counter = 0;

  // IO-thread-only:
  std::vector<uint8_t> inbuf;
  uint64_t recv_counter = 0;
  bool lost = false;
};

SocketTransport::SocketTransport(ThreadedRuntime* rt) : rt_(rt) {
  const SocketConfig& cfg = rt_->config_.socket;

  // The link key: every process of one deployment derives the same key
  // from the shared secret seed, so frames from a stranger (or another
  // deployment) fail the MAC before anything parses their payload.
  Bytes key_material;
  const char* label = "wedge-socket-link-v1";
  key_material.insert(key_material.end(), label, label + std::strlen(label));
  uint8_t seed_bytes[8];
  Store64(seed_bytes, cfg.secret_seed);
  key_material.insert(key_material.end(), seed_bytes, seed_bytes + 8);
  link_key_ = HmacKey(Slice(key_material));

  const SocketMode mode = cfg.mode();
  is_hub_ = mode == SocketMode::kHub;
  is_loopback_ = mode == SocketMode::kLocal;
  if (mode != SocketMode::kSpoke) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      std::perror("SocketTransport: socket");
      std::abort();
    }
    int one = 1;
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr =
        is_loopback_ ? htonl(INADDR_LOOPBACK) : htonl(INADDR_ANY);
    addr.sin_port = htons(cfg.listen_port);
    if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        listen(listen_fd_, 16) != 0) {
      std::perror("SocketTransport: bind/listen");
      std::abort();
    }
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
    listen_port_ = ntohs(bound.sin_port);
    SetNonBlocking(listen_fd_);
  }

  if (!is_hub_) {
    hub_link_ = std::make_shared<Conn>();
    conns_.push_back(hub_link_);
  }

  if (pipe(wake_fds_) != 0) {
    std::perror("SocketTransport: pipe");
    std::abort();
  }
  SetNonBlocking(wake_fds_[0]);
  SetNonBlocking(wake_fds_[1]);

  io_thread_ = std::thread([this] { IoLoop(); });
}

SocketTransport::~SocketTransport() { Stop(); }

void SocketTransport::Stop() {
  if (stopping_.exchange(true)) return;
  Wake();
  if (io_thread_.joinable()) io_thread_.join();
  std::vector<std::shared_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns = conns_;
  }
  for (auto& c : conns) {
    if (c->fd >= 0) ::close(c->fd);
    c->fd = -1;
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  for (int& fd : wake_fds_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

void SocketTransport::Wake() {
  if (wake_fds_[1] < 0) return;
  const uint8_t b = 1;
  // Nonblocking: a full pipe already guarantees a pending wakeup.
  (void)!::write(wake_fds_[1], &b, 1);
}

void SocketTransport::BindExecutor(NodeId id, Executor* exec) {
  std::lock_guard<std::mutex> lock(mu_);
  bindings_[id].exec = exec;
}

void SocketTransport::Attach(NodeId id, Dc location, Endpoint* endpoint) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = bindings_.find(id);
    if (it == bindings_.end() || it->second.exec == nullptr) {
      std::fprintf(stderr,
                   "SocketTransport::Attach(node %u): no executor bound; "
                   "call Runtime::ExecutorFor before Transport::Attach\n",
                   id);
      std::abort();
    }
    it->second.endpoint = endpoint;
    it->second.dc = location;
  }
  if (is_loopback_) return;  // all nodes local; no discovery needed
  if (hub_link_) {
    // Spoke: announce this node to the hub (if the link is up; the
    // connect path replays every local binding otherwise).
    bool up;
    {
      std::lock_guard<std::mutex> lock(hub_link_->out_mu);
      up = hub_link_->connected;
    }
    if (up) {
      SendHello(hub_link_, id, location);
      Wake();
    }
    return;
  }
  // Hub: announce to every connected spoke.
  std::vector<std::shared_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns = conns_;
  }
  for (auto& c : conns) SendHello(c, id, location);
  Wake();
}

void SocketTransport::Detach(NodeId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = bindings_.find(id);
  if (it != bindings_.end()) it->second.endpoint = nullptr;
}

SimTime SocketTransport::WanDelayLocked(Dc from, Dc to) {
  const WanConfig& wan = rt_->config_.wan;
  if (!wan.enabled) return 0;
  SimTime base = wan.matrix.OneWay(from, to);
  if (base <= 0) return 0;
  if (wan.jitter_frac > 0) {
    wan_rng_ = wan_rng_ * 6364136223846793005ull + 1442695040888963407ull;
    const double u = static_cast<double>(wan_rng_ >> 11) /
                     static_cast<double>(1ull << 53);
    base += static_cast<SimTime>(static_cast<double>(base) *
                                 (wan.jitter_frac * u));
  }
  return base;
}

void SocketTransport::Send(NodeId from, NodeId to, Bytes payload) {
  // Fault-plane verdict first — drops never reach a socket, mirroring
  // the in-process transport.
  const ThreadedFaultPlane::SendPlan plan = rt_->faults_.PlanSend(from, to);
  if (plan.drop) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Binding local_dest;
  bool dest_local = false;
  SimTime wan_delay = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = bindings_.find(to);
    if (it != bindings_.end() && it->second.endpoint != nullptr) {
      dest_local = true;
      local_dest = it->second;
    }
    auto from_it = bindings_.find(from);
    if (from_it != bindings_.end()) {
      Dc to_dc;
      bool have_to = false;
      if (dest_local) {
        to_dc = local_dest.dc;
        have_to = true;
      } else {
        auto rit = remote_dcs_.find(to);
        if (rit != remote_dcs_.end()) {
          to_dc = rit->second;
          have_to = true;
        }
      }
      if (have_to) wan_delay = WanDelayLocked(from_it->second.dc, to_dc);
    }
  }
  const SimTime delay = plan.delay + wan_delay;
  if (dest_local && !is_loopback_) {
    // Same-process delivery (hub- or spoke-local traffic) skips the
    // socket; loopback deliberately does not, so the frames are real.
    messages_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(payload.size(), std::memory_order_relaxed);
    Endpoint* endpoint = local_dest.endpoint;
    ThreadedRuntime* rt = rt_;
    auto deliver = [endpoint, from, rt, payload = std::move(payload)] {
      endpoint->OnMessage(from, Slice(payload), rt->Now());
    };
    if (delay > 0) {
      local_dest.exec->After(delay, std::move(deliver));
    } else {
      local_dest.exec->Post(std::move(deliver));
    }
    return;
  }
  if (delay > 0) {
    // Shaped / WAN latency is applied ahead of framing so the receiving
    // process observes it exactly like in-process delivery would.
    rt_->ControlExecutor()->After(
        delay, [this, from, to, payload = std::move(payload)]() mutable {
          SendFrameNow(from, to, std::move(payload));
        });
  } else {
    SendFrameNow(from, to, std::move(payload));
  }
}

void SocketTransport::SendFrameNow(NodeId from, NodeId to, Bytes payload) {
  std::shared_ptr<Conn> conn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (hub_link_) {
      conn = hub_link_;
    } else {
      auto it = routes_.find(to);
      if (it != routes_.end()) conn = it->second;
    }
  }
  if (!conn) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  messages_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(payload.size(), std::memory_order_relaxed);
  EnqueueFrame(conn, kFrameData, from, to, 0, Slice(payload));
  Wake();
}

void SocketTransport::EnqueueFrame(const std::shared_ptr<Conn>& conn,
                                   uint8_t type, NodeId from, NodeId to,
                                   uint8_t aux, Slice payload) {
  std::lock_guard<std::mutex> lock(conn->out_mu);
  uint8_t hdr[kHeaderSize];
  hdr[0] = type;
  Store32(hdr + 1, from);
  Store32(hdr + 5, to);
  hdr[9] = aux;
  Store64(hdr + 10, ++conn->send_counter);
  const Sha256Digest mac = link_key_.Mac2(Slice(hdr, kHeaderSize), payload);
  const size_t body = kHeaderSize + payload.size() + kMacSize;
  std::vector<uint8_t>& out = conn->outbuf;
  size_t at = out.size();
  out.resize(at + 4 + body);
  Store32(&out[at], static_cast<uint32_t>(body));
  at += 4;
  std::memcpy(&out[at], hdr, kHeaderSize);
  at += kHeaderSize;
  if (!payload.empty()) {
    std::memcpy(&out[at], payload.data(), payload.size());
    at += payload.size();
  }
  std::memcpy(&out[at], mac.data(), kMacSize);
  frames_out_.fetch_add(1, std::memory_order_relaxed);
  bytes_out_.fetch_add(4 + body, std::memory_order_relaxed);
}

void SocketTransport::SendHello(const std::shared_ptr<Conn>& conn, NodeId id,
                                Dc dc) {
  EnqueueFrame(conn, kFrameHello, id, 0, static_cast<uint8_t>(dc), Slice());
}

void SocketTransport::ReplayKnownNodes(const std::shared_ptr<Conn>& conn) {
  if (is_loopback_) return;
  std::vector<std::pair<NodeId, Dc>> known;
  {
    std::lock_guard<std::mutex> lock(mu_);
    known.reserve(bindings_.size() + remote_dcs_.size());
    for (const auto& [id, b] : bindings_) {
      if (b.endpoint != nullptr) known.emplace_back(id, b.dc);
    }
    for (const auto& [id, dc] : remote_dcs_) known.emplace_back(id, dc);
  }
  for (const auto& [id, dc] : known) SendHello(conn, id, dc);
}

void SocketTransport::DeliverLocal(const Binding& binding, NodeId from,
                                   Bytes payload) {
  Endpoint* endpoint = binding.endpoint;
  ThreadedRuntime* rt = rt_;
  binding.exec->Post([endpoint, from, rt, payload = std::move(payload)] {
    endpoint->OnMessage(from, Slice(payload), rt->Now());
  });
}

void SocketTransport::HandleFrame(const std::shared_ptr<Conn>& conn,
                                  const uint8_t* frame, size_t len) {
  // Authenticate before anything parses: link MAC over [type..payload],
  // then the per-connection counter (strictly increasing) kills replays
  // and reorders-after-splice.
  const Sha256Digest mac = link_key_.Mac(Slice(frame, len - kMacSize));
  if (!CryptoEqual(Slice(mac.data(), kMacSize),
                   Slice(frame + len - kMacSize, kMacSize))) {
    mac_rejects_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const uint64_t counter = Load64(frame + 10);
  if (counter <= conn->recv_counter) {
    mac_rejects_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  conn->recv_counter = counter;

  const uint8_t type = frame[0];
  const NodeId from = Load32(frame + 1);
  const NodeId to = Load32(frame + 5);

  if (type == kFrameHello) {
    const Dc dc = static_cast<Dc>(frame[9] % kDcCount);
    std::vector<std::shared_ptr<Conn>> others;
    {
      std::lock_guard<std::mutex> lock(mu_);
      remote_dcs_[from] = dc;
      if (is_hub_) {
        routes_[from] = conn;
        for (auto& c : conns_) {
          if (c != conn) others.push_back(c);
        }
      }
    }
    // Hub: rebroadcast so every spoke learns every node's placement.
    for (auto& c : others) SendHello(c, from, dc);
    return;
  }
  if (type != kFrameData) return;  // unknown type: authenticated, ignored

  Bytes payload(frame + kHeaderSize, frame + (len - kMacSize));
  Binding binding;
  std::shared_ptr<Conn> forward;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = bindings_.find(to);
    if (it != bindings_.end() && it->second.endpoint != nullptr) {
      binding = it->second;
    } else if (is_hub_) {
      auto rit = routes_.find(to);
      if (rit != routes_.end() && rit->second != conn) forward = rit->second;
    }
  }
  if (binding.endpoint != nullptr) {
    DeliverLocal(binding, from, std::move(payload));
  } else if (forward) {
    // Hub forwarding: verified on ingest, re-framed (fresh counter/MAC)
    // on the egress connection.
    EnqueueFrame(forward, kFrameData, from, to, 0, Slice(payload));
  } else {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

void SocketTransport::ParseFrames(const std::shared_ptr<Conn>& conn) {
  std::vector<uint8_t>& in = conn->inbuf;
  size_t at = 0;
  while (in.size() - at >= 4) {
    const size_t body = Load32(in.data() + at);
    if (body < kHeaderSize + kMacSize || body > kMaxFrame) {
      // Not our protocol: cut the connection.
      mac_rejects_.fetch_add(1, std::memory_order_relaxed);
      conn->lost = true;
      break;
    }
    if (in.size() - at < 4 + body) break;
    frames_in_.fetch_add(1, std::memory_order_relaxed);
    bytes_in_.fetch_add(4 + body, std::memory_order_relaxed);
    HandleFrame(conn, in.data() + at + 4, body);
    at += 4 + body;
  }
  if (at > 0) in.erase(in.begin(), in.begin() + static_cast<long>(at));
}

void SocketTransport::ReadFromConn(const std::shared_ptr<Conn>& conn) {
  uint8_t buf[65536];
  for (;;) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->inbuf.insert(conn->inbuf.end(), buf, buf + n);
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      break;
    }
    conn->lost = true;  // EOF or hard error
    break;
  }
  ParseFrames(conn);
}

void SocketTransport::FlushConn(const std::shared_ptr<Conn>& conn) {
  std::lock_guard<std::mutex> lock(conn->out_mu);
  while (!conn->outbuf.empty()) {
    const ssize_t n =
        ::write(conn->fd, conn->outbuf.data(), conn->outbuf.size());
    if (n > 0) {
      conn->outbuf.erase(conn->outbuf.begin(),
                         conn->outbuf.begin() + static_cast<long>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      return;
    }
    conn->lost = true;
    return;
  }
}

void SocketTransport::AcceptOne() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    SetNonBlocking(fd);
    SetNoDelay(fd);
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> lock(conn->out_mu);
      conn->connected = true;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      conns_.push_back(conn);
    }
    // Late joiner: replay everything we know so it can route and apply
    // WAN delay immediately.
    ReplayKnownNodes(conn);
  }
}

bool SocketTransport::EstablishHubLink() {
  const SocketConfig& cfg = rt_->config_.socket;
  const std::string host = is_loopback_ ? "127.0.0.1" : cfg.connect_host;
  const uint16_t port = is_loopback_ ? listen_port_ : cfg.connect_port;

  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints, &res) !=
      0) {
    return false;
  }
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  freeaddrinfo(res);
  if (fd < 0) return false;
  SetNonBlocking(fd);
  SetNoDelay(fd);
  hub_link_->fd = fd;
  hub_link_->lost = false;
  hub_link_->inbuf.clear();
  hub_link_->recv_counter = 0;
  {
    std::lock_guard<std::mutex> lock(hub_link_->out_mu);
    hub_link_->connected = true;
  }
  return true;
}

void SocketTransport::OnConnLost(const std::shared_ptr<Conn>& conn) {
  if (conn->fd >= 0) ::close(conn->fd);
  conn->fd = -1;
  conn->inbuf.clear();
  conn->recv_counter = 0;
  conn->lost = false;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    conn->connected = false;
    // Framed bytes belong to the dead connection's counter sequence.
    conn->outbuf.clear();
    conn->send_counter = 0;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = routes_.begin(); it != routes_.end();) {
    if (it->second == conn) {
      it = routes_.erase(it);
    } else {
      ++it;
    }
  }
  if (conn != hub_link_) {
    for (auto it = conns_.begin(); it != conns_.end(); ++it) {
      if (*it == conn) {
        conns_.erase(it);
        break;
      }
    }
  }
}

void SocketTransport::IoLoop() {
  using SteadyClock = std::chrono::steady_clock;
  auto next_dial = SteadyClock::now();
  bool ever_connected = false;

  while (!stopping_.load(std::memory_order_relaxed)) {
    // (Re)dial the hub link when it is down, paced at ~100ms.
    if (hub_link_ && hub_link_->fd < 0 && SteadyClock::now() >= next_dial) {
      if (ever_connected) {
        reconnects_.fetch_add(1, std::memory_order_relaxed);
      }
      if (EstablishHubLink()) {
        ever_connected = true;
        ReplayKnownNodes(hub_link_);
      } else {
        next_dial = SteadyClock::now() + std::chrono::milliseconds(100);
      }
    }

    std::vector<std::shared_ptr<Conn>> conns;
    {
      std::lock_guard<std::mutex> lock(mu_);
      conns = conns_;
    }
    std::vector<pollfd> fds;
    fds.reserve(conns.size() + 2);
    fds.push_back({wake_fds_[0], POLLIN, 0});
    if (listen_fd_ >= 0) fds.push_back({listen_fd_, POLLIN, 0});
    const size_t conns_base = fds.size();
    for (auto& c : conns) {
      short events = POLLIN;
      {
        std::lock_guard<std::mutex> lock(c->out_mu);
        if (!c->outbuf.empty()) events |= POLLOUT;
      }
      fds.push_back({c->fd, events, 0});  // fd < 0 is skipped by poll
    }

    ::poll(fds.data(), fds.size(), 50);
    if (stopping_.load(std::memory_order_relaxed)) break;

    if (fds[0].revents & POLLIN) {
      uint8_t drain[256];
      while (::read(wake_fds_[0], drain, sizeof(drain)) > 0) {
      }
    }
    if (listen_fd_ >= 0 && (fds[conns_base - 1].revents & POLLIN)) {
      AcceptOne();
    }
    for (size_t i = 0; i < conns.size(); ++i) {
      auto& c = conns[i];
      const short revents = fds[conns_base + i].revents;
      if (c->fd < 0) continue;
      if (revents & (POLLIN | POLLERR | POLLHUP)) ReadFromConn(c);
      if (c->fd >= 0 && !c->lost && (revents & POLLOUT)) FlushConn(c);
      // A conn with fresh outbound bytes but no POLLOUT this round gets
      // flushed eagerly; EAGAIN just waits for the next poll.
      if (c->fd >= 0 && !c->lost && !(revents & POLLOUT)) FlushConn(c);
      if (c->lost) OnConnLost(c);
    }
  }
}

SimTime SocketTransport::Now() const { return rt_->Now(); }

void SocketTransport::After(SimTime delay, std::function<void()> fn) {
  rt_->ControlExecutor()->After(delay, std::move(fn));
}

TransportStats SocketTransport::stats_snapshot() const {
  TransportStats s;
  s.messages = messages_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  s.dropped = dropped_.load(std::memory_order_relaxed);
  s.frames_out = frames_out_.load(std::memory_order_relaxed);
  s.frames_in = frames_in_.load(std::memory_order_relaxed);
  s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  s.reconnects = reconnects_.load(std::memory_order_relaxed);
  s.mac_rejects = mac_rejects_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace wedge
