#include "wire/session.h"

namespace wedge {

Bytes SessionSealer::Seal(NodeId receiver, MsgType type, const Bytes& body) {
  auto [it, inserted] = channels_.try_emplace(receiver);
  if (inserted) {
    Sha256Digest key = signer_.SessionKeyTo(receiver);
    it->second.key = HmacKey(Slice(key.data(), key.size()));
  }
  const uint64_t counter = it->second.next_counter++;

  Encoder enc;
  enc.PutU8(kSessionEnvelopeMagic);
  enc.PutU8(static_cast<uint8_t>(type));
  enc.PutU32(signer_.id());
  enc.PutU32(receiver);
  enc.PutU64(counter);
  enc.PutBytes(body);
  Sha256Digest mac = it->second.key.Mac(enc.buffer());
  enc.PutRaw(Slice(mac.data(), mac.size()));
  return enc.TakeBuffer();
}

Result<Envelope> SessionOpener::Open(Slice wire) {
  Envelope env;
  WEDGE_ASSIGN_OR_RETURN(env, Envelope::OpenUnverified(wire));
  if (env.receiver != self_) {
    return Status::SecurityViolation(
        "session envelope for " + std::to_string(env.receiver) +
        " delivered to " + std::to_string(self_));
  }
  if (keystore_->IsRevoked(env.sender)) {
    return Status::FailedPrecondition("sender " + std::to_string(env.sender) +
                                      " has been revoked");
  }

  auto [it, inserted] = peers_.try_emplace(env.sender);
  if (inserted) {
    Sha256Digest key;
    auto derived = keystore_->SessionKeyFor(env.sender, self_);
    if (!derived.ok()) {
      peers_.erase(it);
      return derived.status();
    }
    key = *derived;
    it->second.key = HmacKey(Slice(key.data(), key.size()));
  }

  Sha256Digest expect =
      it->second.key.Mac(Slice(wire.data(), wire.size() - 32));
  if (!CryptoEqual(Slice(expect.data(), expect.size()),
                   Slice(wire.data() + wire.size() - 32, 32))) {
    return Status::SecurityViolation("session MAC verification failed for " +
                                     std::to_string(env.sender));
  }

  // Counter discipline: strictly increasing per peer. A gap just means
  // drops in flight; equal-or-below means replay or rollback.
  if (env.counter <= it->second.last_counter) {
    return Status::SecurityViolation(
        "session counter replay from " + std::to_string(env.sender) +
        ": got " + std::to_string(env.counter) + ", last accepted " +
        std::to_string(it->second.last_counter));
  }
  it->second.last_counter = env.counter;
  return env;
}

}  // namespace wedge
