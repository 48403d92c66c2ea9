// Message signatures and the identity registry (KeyStore).
//
// The paper assumes every protocol message is signed by its sender, and
// that identities are known and non-fabricable (§II-D assumption 2): an
// edge node "belongs to an IT department" and cannot re-enter after being
// punished. We model that with a KeyStore: a trusted identity directory
// that registers each node (client, edge, or cloud), assigns it a NodeId
// and a per-identity secret, and verifies signatures.
//
// Substitution note (see DESIGN.md §2): the production system would use
// asymmetric signatures (Ed25519/ECDSA). Here a signature is an
// HMAC-SHA256 tag under the signer's per-identity secret, verified through
// the KeyStore, which plays the role of the PKI certificate directory.
// Within the simulation's threat model this preserves exactly what the
// protocol needs: (a) no party can forge a message from an identity whose
// secret it does not hold, and (b) a signed message convicts its signer in
// a dispute. Signature compute cost is charged by the simnet cost model.

#pragma once

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/codec.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "crypto/hmac.h"

namespace wedge {

/// Role of a registered identity. Edge nodes only accept requests from
/// identities registered as clients; clients only accept certifications
/// signed by the cloud.
enum class Role : uint8_t {
  kClient = 0,
  kEdge = 1,
  kCloud = 2,
};

std::string_view RoleToString(Role role);

/// A detached signature: the signer's id plus a 256-bit tag over the
/// message bytes.
struct Signature {
  NodeId signer = kInvalidNodeId;
  std::array<uint8_t, 32> tag{};

  void EncodeTo(Encoder* enc) const {
    enc->PutU32(signer);
    enc->PutRaw(Slice(tag.data(), tag.size()));
  }

  static Result<Signature> DecodeFrom(Decoder* dec) {
    Signature sig;
    auto signer = dec->GetU32();
    if (!signer.ok()) return signer.status();
    sig.signer = *signer;
    auto raw = dec->GetRaw(32);
    if (!raw.ok()) return raw.status();
    std::memcpy(sig.tag.data(), raw->data(), 32);
    return sig;
  }

  bool operator==(const Signature& other) const {
    return signer == other.signer && tag == other.tag;
  }
};

/// Derives the directed per-(sender, receiver) session key from the
/// sender's identity secret: HMAC(secret, label || sender || receiver).
/// HKDF-expand shape with the connection endpoints as the info string —
/// each ordered pair gets an independent key, and compromise of one
/// session key reveals nothing about the identity secret or other
/// sessions.
Sha256Digest DeriveSessionKey(Slice sender_secret, NodeId sender,
                              NodeId receiver);

/// Signing handle held by one identity. Cheap to copy.
class Signer {
 public:
  Signer() = default;
  Signer(NodeId id, std::array<uint8_t, 32> secret)
      : id_(id),
        secret_(secret),
        mac_key_(Slice(secret.data(), secret.size())) {}

  NodeId id() const { return id_; }

  /// Signs `message`; the returned Signature verifies through the KeyStore.
  /// The ipad/opad midstates are precomputed once per Signer.
  Signature Sign(Slice message) const {
    Signature sig;
    sig.signer = id_;
    sig.tag = mac_key_.Mac(message);
    return sig;
  }

  /// Session key for messages this identity sends to `receiver`.
  Sha256Digest SessionKeyTo(NodeId receiver) const {
    return DeriveSessionKey(Slice(secret_.data(), secret_.size()), id_,
                            receiver);
  }

 private:
  NodeId id_ = kInvalidNodeId;
  std::array<uint8_t, 32> secret_{};
  HmacKey mac_key_;
};

/// Trusted identity directory: registers identities, hands out signing
/// handles, verifies signatures, and tracks revocations (punished nodes
/// cannot re-enter, §II-D assumption 2).
class KeyStore {
 public:
  /// `seed` makes key material deterministic for reproducible runs.
  explicit KeyStore(uint64_t seed = 0x5eedc0de) : rng_(seed) {}

  /// Registers a new identity and returns its signing handle. Names are
  /// for diagnostics only.
  Signer Register(Role role, const std::string& name);

  /// True iff `id` is registered with `role` and not revoked.
  bool HasRole(NodeId id, Role role) const;

  Result<Role> GetRole(NodeId id) const;
  Result<std::string> GetName(NodeId id) const;

  /// Verifies `sig` over `message`. Errors:
  ///  - NotFound: unknown signer id
  ///  - FailedPrecondition: signer was revoked
  ///  - SecurityViolation: tag mismatch
  Status Verify(const Signature& sig, Slice message) const;

  /// The session key `sender` uses toward `receiver`. The KeyStore is the
  /// trusted directory (the PKI stand-in), so a receiver obtains the key
  /// of an inbound session here — it never learns the sender's identity
  /// secret, and session-MAC'd evidence still convicts the sender in a
  /// dispute because only the sender and the directory can derive the
  /// key. NotFound for unknown senders.
  Result<Sha256Digest> SessionKeyFor(NodeId sender, NodeId receiver) const;

  /// Revokes an identity (punishment). Further Verify calls fail and the
  /// identity cannot be re-registered.
  Status Revoke(NodeId id);

  bool IsRevoked(NodeId id) const;

  size_t identity_count() const { return identities_.size(); }

 private:
  struct IdentityRecord {
    Role role;
    std::string name;
    std::array<uint8_t, 32> secret;
    // ipad/opad midstates for the identity secret, built once at
    // Register so Verify doesn't pay the two key-block compressions.
    HmacKey mac_key;
    // Revocation is the one post-registration mutation: it lands on the
    // cloud's thread while every other node keeps calling Verify, so the
    // flag is atomic (the map itself is frozen after deployment setup).
    std::atomic<bool> revoked{false};

    IdentityRecord() = default;
    IdentityRecord(IdentityRecord&& o) noexcept
        : role(o.role),
          name(std::move(o.name)),
          secret(o.secret),
          mac_key(o.mac_key),
          revoked(o.revoked.load(std::memory_order_relaxed)) {}
  };

  Rng rng_;
  NodeId next_id_ = 1;
  std::unordered_map<NodeId, IdentityRecord> identities_;
};

}  // namespace wedge
