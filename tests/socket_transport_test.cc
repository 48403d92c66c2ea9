// SocketTransport unit tests, below the Store façade: loopback framing
// round trips real TCP with exact payloads and live frame/byte counters,
// garbage injected straight into the listen socket is rejected on the
// link MAC before any parsing, and the WAN latency matrix shapes
// delivery time sender-side.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/socket_transport.h"
#include "runtime/threaded_runtime.h"

namespace wedge {
namespace {

struct CapturingEndpoint : Endpoint {
  std::mutex mu;
  std::vector<std::pair<NodeId, Bytes>> got;
  std::atomic<int> count{0};

  void OnMessage(NodeId from, Slice payload, SimTime) override {
    std::lock_guard<std::mutex> lock(mu);
    got.emplace_back(from,
                     Bytes(payload.data(), payload.data() + payload.size()));
    count.fetch_add(1, std::memory_order_release);
  }
};

bool WaitFor(const std::function<bool()>& pred, int budget_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(budget_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

RuntimeConfig LoopbackConfig() {
  RuntimeConfig cfg;
  cfg.kind = RuntimeKind::kThreaded;
  cfg.socket.enabled = true;  // neither listen nor connect: loopback
  return cfg;
}

// One derivation decides both the transport's topology and which nodes
// a Deployment starts.
TEST(SocketTransportTest, ModeFollowsTheConfig) {
  SocketConfig cfg;
  cfg.connect_host = "127.0.0.1";
  cfg.listen_port = 7000;
  EXPECT_EQ(cfg.mode(), SocketMode::kLocal);  // sockets off
  cfg.enabled = true;
  EXPECT_EQ(cfg.mode(), SocketMode::kSpoke);  // a connect host wins
  cfg.connect_host.clear();
  EXPECT_EQ(cfg.mode(), SocketMode::kHub);
  cfg.listen_port = 0;
  EXPECT_EQ(cfg.mode(), SocketMode::kLocal);  // loopback
  cfg.hub = true;
  EXPECT_EQ(cfg.mode(), SocketMode::kHub);  // an ephemeral-port hub
}

TEST(SocketTransportTest, LoopbackRoundTripCountsFrames) {
  ThreadedRuntime rt(LoopbackConfig());
  auto& transport = static_cast<SocketTransport&>(rt.transport());
  EXPECT_GT(transport.listen_port(), 0) << "ephemeral bind must resolve";

  CapturingEndpoint a, b;
  rt.ExecutorFor(1, ExecRole::kDedicated);
  rt.ExecutorFor(2, ExecRole::kDedicated);
  transport.Attach(1, Dc::kCalifornia, &a);
  transport.Attach(2, Dc::kCalifornia, &b);

  const Bytes payload{1, 2, 3, 4, 5};
  transport.Send(1, 2, payload);
  ASSERT_TRUE(WaitFor([&] { return b.count.load() >= 1; }));
  transport.Send(2, 1, Bytes{9, 9});
  ASSERT_TRUE(WaitFor([&] { return a.count.load() >= 1; }));

  {
    std::lock_guard<std::mutex> lock(b.mu);
    ASSERT_EQ(b.got.size(), 1u);
    EXPECT_EQ(b.got[0].first, 1u);
    EXPECT_EQ(b.got[0].second, payload) << "payload must survive framing";
  }
  {
    std::lock_guard<std::mutex> lock(a.mu);
    ASSERT_EQ(a.got.size(), 1u);
    EXPECT_EQ(a.got[0].first, 2u);
  }

  // Every frame crossed a real TCP socket: the socket counters are live
  // and symmetric (what went out came back in on the self-connection).
  const TransportStats s = transport.stats_snapshot();
  EXPECT_GE(s.messages, 2u);
  EXPECT_GT(s.frames_out, 0u);
  EXPECT_GT(s.frames_in, 0u);
  EXPECT_GT(s.bytes_out, 0u);
  EXPECT_GT(s.bytes_in, 0u);
  EXPECT_EQ(s.mac_rejects, 0u);

  rt.Shutdown();
}

TEST(SocketTransportTest, GarbageFrameIsRejectedOnTheLinkMac) {
  ThreadedRuntime rt(LoopbackConfig());
  auto& transport = static_cast<SocketTransport&>(rt.transport());

  CapturingEndpoint a, b;
  rt.ExecutorFor(1, ExecRole::kDedicated);
  rt.ExecutorFor(2, ExecRole::kDedicated);
  transport.Attach(1, Dc::kCalifornia, &a);
  transport.Attach(2, Dc::kCalifornia, &b);

  // Dial the listen port directly and write a well-framed length prefix
  // followed by garbage: the body parses as a frame shape but its MAC
  // cannot verify, so it must be counted as a reject — never delivered.
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(transport.listen_port());
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  std::vector<uint8_t> junk(4 + 60, 0xAB);
  junk[0] = 60;  // u32 little-endian body length
  junk[1] = junk[2] = junk[3] = 0;
  ASSERT_EQ(write(fd, junk.data(), junk.size()),
            static_cast<ssize_t>(junk.size()));

  EXPECT_TRUE(WaitFor([&] {
    return transport.stats_snapshot().mac_rejects >= 1;
  })) << "a garbage frame must be rejected on the link MAC";
  close(fd);

  // The poisoned connection never touches honest traffic.
  transport.Send(1, 2, Bytes{7});
  EXPECT_TRUE(WaitFor([&] { return b.count.load() >= 1; }));

  rt.Shutdown();
}

TEST(SocketTransportTest, WanMatrixShapesDeliveryTime) {
  RuntimeConfig cfg = LoopbackConfig();
  cfg.wan.enabled = true;
  // One-way California -> Mumbai: 100ms. Same-Dc stays unshaped.
  cfg.wan.matrix.SetRtt(Dc::kCalifornia, Dc::kMumbai, 200 * kMillisecond);
  ThreadedRuntime rt(cfg);
  auto& transport = static_cast<SocketTransport&>(rt.transport());

  CapturingEndpoint near, far;
  rt.ExecutorFor(1, ExecRole::kDedicated);
  rt.ExecutorFor(2, ExecRole::kDedicated);
  rt.ExecutorFor(3, ExecRole::kDedicated);
  transport.Attach(1, Dc::kCalifornia, &near);
  transport.Attach(2, Dc::kCalifornia, &far);  // same Dc as sender
  transport.Attach(3, Dc::kMumbai, &far);

  // Same-Dc delivery is prompt.
  auto t0 = std::chrono::steady_clock::now();
  transport.Send(1, 2, Bytes{1});
  ASSERT_TRUE(WaitFor([&] { return far.count.load() >= 1; }));
  const auto local_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  EXPECT_LT(local_ms, 100) << "same-Dc frames must not pay WAN latency";

  // Cross-Dc delivery pays at least the one-way matrix entry.
  t0 = std::chrono::steady_clock::now();
  transport.Send(1, 3, Bytes{2});
  ASSERT_TRUE(WaitFor([&] { return far.count.load() >= 2; }));
  const auto wan_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  EXPECT_GE(wan_ms, 95) << "cross-Dc frames must pay the matrix delay";

  rt.Shutdown();
}

}  // namespace
}  // namespace wedge
