// Shared get-response assembly: given an LSMerkle tree and the block log
// (for L0 certificates), build the proof-carrying response of §V-B.
// Used by the WedgeChain edge and by the edge-baseline edge.

#pragma once

#include <span>

#include "log/edge_log.h"
#include "lsmerkle/lsmerkle_tree.h"
#include "lsmerkle/read_proof.h"
#include "lsmerkle/scan_proof.h"

namespace wedge {

/// Assembles an honest get response for `key`. `hide_l0` simulates the
/// stale-snapshot attacker (responds from the pre-L0 state). An L0 block
/// named in `held` (the request's hint, bid and digest both matching)
/// goes as a reference; every other slot goes in full.
GetResponseBody AssembleGetResponse(const LsmerkleTree& lsm,
                                    const EdgeLog& log, Key key,
                                    bool hide_l0 = false,
                                    std::span<const BlockRef> held = {});

/// Assembles a scan response for [lo, hi]: the claimed newest-per-key
/// result plus the completeness proof (a slot per L0 block, in full or
/// as a reference to a `held` block; per level, the adjacent page run
/// covering the range). `drop_last_run_page` simulates a malicious edge
/// truncating a scan (detected by the coverage check).
ScanResponseBody AssembleScanResponse(const LsmerkleTree& lsm,
                                      const EdgeLog& log, Key lo, Key hi,
                                      bool drop_last_run_page = false,
                                      std::span<const BlockRef> held = {});

}  // namespace wedge
