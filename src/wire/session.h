// Per-connection session sealing for envelopes (wire/message.h).
//
// A session channel derives the directed per-(sender, receiver) key once
// (KeyStore::SessionKeyFor / Signer::SessionKeyTo), keeps its ipad/opad
// midstates, and stamps each message with a monotonic counter:
//
//   - authenticity: the MAC key is derivable only by the sender and the
//     trusted directory, so a tag still binds the sender (§IV-A) and
//     session-sealed evidence still convicts in a dispute
//     (Envelope::OpenHistorical re-derives the key statelessly);
//   - replay exclusion: SessionOpener accepts a message only if its
//     counter is strictly greater than the last accepted one from that
//     peer. Forward gaps are allowed — the fault plane legitimately
//     drops messages — but replays and rollbacks are SecurityViolation;
//   - crash durability: counters are part of a node's durable identity,
//     not its volatile protocol state. A recovering node keeps sealing
//     above its old counters, so its peers' openers accept it without a
//     reset handshake.
//
// Sealer and opener are per-node objects (one lane each under the
// threaded runtime); the shared KeyStore stays const.

#pragma once

#include <unordered_map>

#include "crypto/hmac.h"
#include "wire/message.h"

namespace wedge {

/// Outbound half: seals messages this node sends, one channel (key +
/// counter) per receiver.
class SessionSealer {
 public:
  SessionSealer() = default;
  explicit SessionSealer(Signer signer) : signer_(std::move(signer)) {}

  NodeId id() const { return signer_.id(); }
  const Signer& signer() const { return signer_; }

  /// Seals `body` for `receiver`, consuming the next counter value on
  /// that channel.
  Bytes Seal(NodeId receiver, MsgType type, const Bytes& body);

 private:
  struct Channel {
    HmacKey key;
    uint64_t next_counter = 1;
  };

  Signer signer_;
  std::unordered_map<NodeId, Channel> channels_;
};

/// Inbound half: opens envelopes addressed to `self`, tracking the
/// highest accepted counter per peer.
class SessionOpener {
 public:
  SessionOpener() = default;
  SessionOpener(const KeyStore* keystore, NodeId self)
      : keystore_(keystore), self_(self) {}

  /// Errors:
  ///  - Corruption: malformed bytes
  ///  - SecurityViolation: bad MAC, wrong receiver, or counter replay
  ///  - FailedPrecondition: revoked sender
  Result<Envelope> Open(Slice wire);

 private:
  struct Peer {
    HmacKey key;
    uint64_t last_counter = 0;
  };

  const KeyStore* keystore_ = nullptr;
  NodeId self_ = kInvalidNodeId;
  std::unordered_map<NodeId, Peer> peers_;
};

}  // namespace wedge
