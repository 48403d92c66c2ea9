// Microbenchmarks: the crypto substrate (google-benchmark).
// These are the constants the simulator's cost model abstracts; running
// them grounds the calibration in real hardware numbers.
//
// The backend sweep (BM_Sha256Backend/*) pins each compiled-in compressor
// in turn; benches on unavailable ISAs self-skip. BM_Sha256HashMany is
// the multi-buffer path the batch call sites (page sealing, L0 digest
// runs, Merkle levels) ride. BM_SessionSealOpen is one envelope's seal
// plus open on a warm session channel.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "crypto/digest.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/signature.h"
#include "wire/protocol.h"
#include "wire/session.h"

namespace wedge {
namespace {

void BM_Sha256(benchmark::State& state) {
  Bytes data(static_cast<size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384)->Arg(262144);

void BM_Sha256Backend(benchmark::State& state, Sha256Backend backend) {
  if (!Sha256::ForceBackend(backend)) {
    state.SkipWithError("backend not runnable on this host");
    return;
  }
  Bytes data(static_cast<size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
  Sha256::ResetBackendOverride();
}
BENCHMARK_CAPTURE(BM_Sha256Backend, scalar, Sha256Backend::kScalar)
    ->Arg(1024)
    ->Arg(16384);
BENCHMARK_CAPTURE(BM_Sha256Backend, sha_ni, Sha256Backend::kShaNi)
    ->Arg(1024)
    ->Arg(16384);
BENCHMARK_CAPTURE(BM_Sha256Backend, arm_ce, Sha256Backend::kArmCe)
    ->Arg(1024)
    ->Arg(16384);

void BM_Sha256HashMany(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t len = static_cast<size_t>(state.range(1));
  std::vector<Bytes> bufs(n, Bytes(len, 0xab));
  std::vector<Slice> msgs;
  msgs.reserve(n);
  for (const Bytes& b : bufs) msgs.emplace_back(b.data(), b.size());
  std::vector<Sha256Digest> out(n);
  for (auto _ : state) {
    Sha256::HashMany(msgs.data(), out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * len));
}
BENCHMARK(BM_Sha256HashMany)
    ->Args({8, 1024})
    ->Args({32, 1024})
    ->Args({32, 12288});

void BM_HmacSha256(benchmark::State& state) {
  Bytes key(32, 0x1f);
  Bytes data(static_cast<size_t>(state.range(0)), 0xcd);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HmacSha256(key, data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacKeyMac(benchmark::State& state) {
  // Precomputed ipad/opad midstates: the per-message cost drops by the
  // two key-block compressions BM_HmacSha256 pays every call.
  HmacKey key(Slice("benchmark-session-key"));
  Bytes data(static_cast<size_t>(state.range(0)), 0xcd);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.Mac(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacKeyMac)->Arg(64)->Arg(1024)->Arg(16384);

void BM_SignVerify(benchmark::State& state) {
  KeyStore ks;
  Signer signer = ks.Register(Role::kClient, "bench");
  Bytes msg(136, 0x77);  // a typical entry
  for (auto _ : state) {
    Signature sig = signer.Sign(msg);
    benchmark::DoNotOptimize(ks.Verify(sig, msg));
  }
}
BENCHMARK(BM_SignVerify);

void BM_DigestCombine(benchmark::State& state) {
  Digest256 a = Digest256::Of(Slice("left"));
  Digest256 b = Digest256::Of(Slice("right"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Digest256::Combine(a, b));
  }
}
BENCHMARK(BM_DigestCombine);

void BM_DigestCombineMany(benchmark::State& state) {
  const size_t pairs = static_cast<size_t>(state.range(0));
  std::vector<Digest256> nodes(pairs * 2);
  for (size_t i = 0; i < nodes.size(); ++i) {
    nodes[i] = Digest256::Of(Slice(std::to_string(i)));
  }
  std::vector<Digest256> out(pairs);
  for (auto _ : state) {
    Digest256::CombineMany(nodes, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pairs));
}
BENCHMARK(BM_DigestCombineMany)->Arg(16)->Arg(128)->Arg(1024);

void BM_SessionSealOpen(benchmark::State& state) {
  KeyStore ks;
  Signer client = ks.Register(Role::kClient, "client");
  Signer edge = ks.Register(Role::kEdge, "edge");
  SessionSealer sealer(client);
  SessionOpener opener(&ks, edge.id());
  const Bytes body = ReadRequest{1, 2}.Encode();
  for (auto _ : state) {
    Bytes wire = sealer.Seal(edge.id(), MsgType::kReadRequest, body);
    benchmark::DoNotOptimize(opener.Open(wire));
  }
}
BENCHMARK(BM_SessionSealOpen);

}  // namespace
}  // namespace wedge

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Stamp dispatch into the context block so saved JSON records which
  // compressor produced the numbers.
  benchmark::AddCustomContext(
      "crypto_backend",
      std::string(wedge::Sha256BackendName(wedge::Sha256::Backend())));
  benchmark::AddCustomContext(
      "crypto_backend_detected",
      std::string(wedge::Sha256BackendName(wedge::Sha256::DetectedBackend())));
  benchmark::AddCustomContext("crypto_backend_forced",
                              wedge::Sha256::BackendForced() ? "true"
                                                             : "false");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
