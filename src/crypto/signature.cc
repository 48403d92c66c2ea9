#include "crypto/signature.h"

namespace wedge {

std::string_view RoleToString(Role role) {
  switch (role) {
    case Role::kClient:
      return "client";
    case Role::kEdge:
      return "edge";
    case Role::kCloud:
      return "cloud";
  }
  return "unknown";
}

Sha256Digest DeriveSessionKey(Slice sender_secret, NodeId sender,
                              NodeId receiver) {
  uint8_t info[24] = {'w', 'e', 'd', 'g', 'e', '-', 's', 'e',
                      's', 's', 'i', 'o', 'n', '-', 'v', '1'};
  for (int i = 0; i < 4; ++i) {
    info[16 + i] = static_cast<uint8_t>(sender >> (24 - 8 * i));
    info[20 + i] = static_cast<uint8_t>(receiver >> (24 - 8 * i));
  }
  return HmacSha256(sender_secret, Slice(info, sizeof(info)));
}

Signer KeyStore::Register(Role role, const std::string& name) {
  NodeId id = next_id_++;
  IdentityRecord rec;
  rec.role = role;
  rec.name = name;
  for (size_t i = 0; i < rec.secret.size(); i += 8) {
    uint64_t r = rng_.NextU64();
    for (size_t j = 0; j < 8 && i + j < rec.secret.size(); ++j) {
      rec.secret[i + j] = static_cast<uint8_t>(r >> (8 * j));
    }
  }
  rec.mac_key = HmacKey(Slice(rec.secret.data(), rec.secret.size()));
  Signer signer(id, rec.secret);
  identities_.emplace(id, std::move(rec));
  return signer;
}

bool KeyStore::HasRole(NodeId id, Role role) const {
  auto it = identities_.find(id);
  return it != identities_.end() && it->second.role == role &&
         !it->second.revoked;
}

Result<Role> KeyStore::GetRole(NodeId id) const {
  auto it = identities_.find(id);
  if (it == identities_.end()) {
    return Status::NotFound("unknown identity " + std::to_string(id));
  }
  return it->second.role;
}

Result<std::string> KeyStore::GetName(NodeId id) const {
  auto it = identities_.find(id);
  if (it == identities_.end()) {
    return Status::NotFound("unknown identity " + std::to_string(id));
  }
  return it->second.name;
}

Status KeyStore::Verify(const Signature& sig, Slice message) const {
  auto it = identities_.find(sig.signer);
  if (it == identities_.end()) {
    return Status::NotFound("signature from unknown identity " +
                            std::to_string(sig.signer));
  }
  if (it->second.revoked) {
    return Status::FailedPrecondition("signer " + std::to_string(sig.signer) +
                                      " has been revoked");
  }
  Sha256Digest expected = it->second.mac_key.Mac(message);
  if (!CryptoEqual(Slice(expected.data(), expected.size()),
                   Slice(sig.tag.data(), sig.tag.size()))) {
    return Status::SecurityViolation("signature verification failed for " +
                                     std::to_string(sig.signer));
  }
  return Status::OK();
}

Result<Sha256Digest> KeyStore::SessionKeyFor(NodeId sender,
                                             NodeId receiver) const {
  auto it = identities_.find(sender);
  if (it == identities_.end()) {
    return Status::NotFound("session key for unknown identity " +
                            std::to_string(sender));
  }
  return DeriveSessionKey(
      Slice(it->second.secret.data(), it->second.secret.size()), sender,
      receiver);
}

Status KeyStore::Revoke(NodeId id) {
  auto it = identities_.find(id);
  if (it == identities_.end()) {
    return Status::NotFound("cannot revoke unknown identity " +
                            std::to_string(id));
  }
  it->second.revoked = true;
  return Status::OK();
}

bool KeyStore::IsRevoked(NodeId id) const {
  auto it = identities_.find(id);
  return it != identities_.end() && it->second.revoked;
}

}  // namespace wedge
