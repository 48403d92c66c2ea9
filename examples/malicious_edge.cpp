// Malicious edge: every §IV-E attack, detected and punished — through
// the wedge::Store façade.
//
// "Lazy certification allows edge nodes to lie — however, it also
// guarantees that a lie is going to be discovered." This example runs
// four fresh stores, each with the edge misbehaving differently, and
// shows the detection path end-to-end: signed evidence -> dispute ->
// cloud verdict -> revocation. Each lie surfaces as an error Status from
// the façade call that observed it — never as silently wrong data.
//
//   $ ./build/examples/malicious_edge

#include <cstdio>

#include "api/store.h"
#include "core/deployment.h"

using namespace wedge;

namespace {

StoreOptions AttackOptions() {
  return StoreOptions()
      .WithOpsPerBlock(2)
      .WithClients(2)
      .WithProofTimeout(kSecond)
      .WithGossipPeriod(200 * kMillisecond);
}

void Report(Store& store, const char* attack) {
  Deployment& d = store.wedge();
  const bool punished = d.authority().IsPunished(d.edge().id());
  std::printf("  -> edge %s", punished ? "PUNISHED" : "not punished");
  if (punished) {
    std::printf(" (\"%s\"), identity revoked=%s\n",
                d.authority().records()[0].reason.c_str(),
                d.keystore().IsRevoked(d.edge().id()) ? "yes" : "no");
  } else {
    std::printf("\n");
  }
  std::printf("  [%s]\n\n", attack);
}

}  // namespace

int main() {
  std::printf("Attacks on WedgeChain and their detection\n");
  std::printf("=========================================\n\n");

  // ------------------------------------------------------- equivocation
  {
    std::printf("1. Equivocation: edge shows the victim a tampered block\n");
    Store store = *Store::Open(AttackOptions());
    EdgeMisbehavior& mis = store.wedge().edge().misbehavior();
    mis.equivocate_to_victim = true;
    mis.victim = store.wedge().client(1).id();

    store.Append({Bytes{'r', 'e', 'a', 'l'}}, 0);
    AsyncCommit victim_write = store.Append({Bytes{'m', 'i', 'n', 'e'}}, 1);
    auto verdict = victim_write.WaitPhase2();
    std::printf("  [%6.1f ms] victim's Phase II: %s\n", store.now() / 1000.0,
                verdict.status().ToString().c_str());
    store.RunFor(10 * kSecond);
    std::printf("  victim's signed add-response contradicted the certified "
                "digest; dispute upheld: %llu\n",
                static_cast<unsigned long long>(
                    store.wedge().client(1).stats().disputes_upheld));
    Report(store, "inconsistent views are impossible past Phase II (Def. 2)");
  }

  // ------------------------------------------- tampered certification
  {
    std::printf("2. Tampered certification: edge certifies a doctored digest\n");
    Store store = *Store::Open(AttackOptions());
    store.wedge().edge().misbehavior().certify_tampered = true;

    auto verdict = store
                       .Append({Bytes{'d', 'a', 't', 'a'},
                                Bytes{'m', 'o', 'r', 'e'}})
                       .WaitPhase2();
    std::printf("  [%6.1f ms] client Phase II: %s\n", store.now() / 1000.0,
                verdict.status().ToString().c_str());
    store.RunFor(10 * kSecond);
    Report(store, "the client's Phase-I evidence convicts the edge");
  }

  // ---------------------------------------------------------- omission
  {
    std::printf("3. Omission: edge denies a block the cloud certified\n");
    Store store = *Store::Open(AttackOptions());
    Commit committed =
        *store.Append({Bytes{'l', 'o', 'g'}, Bytes{'i', 't'}}).WaitPhase2();
    store.RunFor(2 * kSecond);  // certification + gossip propagate

    store.wedge().edge().misbehavior().omit_reads = true;
    auto read = store.ReadBlock(committed.block);
    std::printf("  [%6.1f ms] read verdict: %s\n", store.now() / 1000.0,
                read.status().ToString().c_str());
    store.RunFor(5 * kSecond);
    Report(store, "signed gossip about the log size exposes withheld blocks");
  }

  // -------------------------------------------------------- lying gets
  {
    std::printf("4. Lying get: edge forges the value in a key-value read\n");
    Store store = *Store::Open(AttackOptions());
    store.wedge().edge().misbehavior().tamper_get_value = true;

    store.PutBatch({{7, Bytes{'t', 'r', 'u', 'e'}},
                    {8, Bytes{'a', 'l', 's', 'o'}}})
        .WaitPhase2();
    auto got = store.Get(7);
    std::printf("  [%6.1f ms] get verification: %s\n", store.now() / 1000.0,
                got.status().ToString().c_str());
    std::printf("  verification failures at client: %llu\n",
                static_cast<unsigned long long>(
                    store.wedge().client().stats().verification_failures));
    std::printf("  [forged values cannot carry a valid Merkle path]\n\n");
  }

  std::printf("All four attacks detected. Lazy trust holds: lying is\n");
  std::printf("possible for a moment, profitable never.\n");
  return 0;
}
