// Quickstart: the smallest end-to-end WedgeChain program, written
// against the wedge::Store façade.
//
// Opens a store (one client in California, one untrusted edge in
// California, the trusted cloud in Virginia, all on the simulated
// network); appends a batch of log entries; waits for each of the two
// commit phases explicitly; reads the block back with its cloud-signed
// proof.
//
//   $ ./build/examples/quickstart

#include <cstdio>

#include "api/store.h"
#include "core/deployment.h"

using namespace wedge;

int main() {
  std::printf("WedgeChain quickstart\n=====================\n\n");

  // 1. Open. Defaults: client+edge in California, cloud in Virginia
  //    (61 ms RTT), the paper's LSMerkle thresholds; tiny blocks here so
  //    one batch commits. Key-value programs (Put/Get/Scan — see
  //    tests/api_test.cc) also run unchanged on BackendKind::
  //    kEdgeBaseline and kCloudOnly; the raw log API used below is
  //    WedgeChain-only.
  Store store = *Store::Open(StoreOptions()
                                 .WithBackend(BackendKind::kWedge)
                                 .WithOpsPerBlock(4));

  // 2. Append a batch of entries. Phase I commits at the edge in ~15 ms;
  //    Phase II completes once the cloud certifies the block's digest
  //    (data-free: only 32 bytes cross the WAN).
  AsyncCommit write = store.Append({
      Bytes{'t', 'e', 'm', 'p', '=', '2', '1'},
      Bytes{'t', 'e', 'm', 'p', '=', '2', '2'},
      Bytes{'h', 'u', 'm', '=', '4', '0'},
      Bytes{'h', 'u', 'm', '=', '4', '1'},
  });

  Commit p1 = *write.WaitPhase1();
  std::printf("[%6.1f ms] Phase I  commit of block %llu (edge-local)\n",
              p1.at / 1000.0, static_cast<unsigned long long>(p1.block));
  Commit p2 = *write.WaitPhase2();
  std::printf("[%6.1f ms] Phase II commit of block %llu (cloud-certified)\n",
              p2.at / 1000.0, static_cast<unsigned long long>(p2.block));

  // 3. Read the block back. The proof is the cloud-signed certificate;
  //    the client recomputes the digest and checks the signature.
  BlockRead read = *store.ReadBlock(p1.block);
  std::printf("[%6.1f ms] read block %llu: %zu entries, %s\n",
              read.at / 1000.0,
              static_cast<unsigned long long>(read.block.id),
              read.block.entries.size(),
              read.phase2 ? "Phase II (cloud-certified)"
                          : "Phase I (temporary)");
  for (const Entry& e : read.block.entries) {
    std::printf("            entry seq=%llu payload=\"%.*s\"\n",
                static_cast<unsigned long long>(e.seq),
                static_cast<int>(e.payload.size()),
                reinterpret_cast<const char*>(e.payload.data()));
  }

  Deployment& d = store.wedge();
  std::printf(
      "\nedge: %llu block(s) formed, %llu certified; cloud: %llu digests "
      "certified\n",
      static_cast<unsigned long long>(d.edge().stats().blocks_formed),
      static_cast<unsigned long long>(d.edge().log().certified_count()),
      static_cast<unsigned long long>(d.cloud().stats().certified_blocks));
  std::printf("WAN bytes: %llu (data-free certification: digests only)\n",
              static_cast<unsigned long long>(store.net().stats().wan_bytes));
  return 0;
}
