#include "wire/message.h"

namespace wedge {

std::string_view MsgTypeToString(MsgType type) {
  switch (type) {
    case MsgType::kAddRequest:
      return "AddRequest";
    case MsgType::kAddResponse:
      return "AddResponse";
    case MsgType::kReadRequest:
      return "ReadRequest";
    case MsgType::kReadResponse:
      return "ReadResponse";
    case MsgType::kBlockCertify:
      return "BlockCertify";
    case MsgType::kBlockProof:
      return "BlockProof";
    case MsgType::kCertifyReject:
      return "CertifyReject";
    case MsgType::kPutRequest:
      return "PutRequest";
    case MsgType::kGetRequest:
      return "GetRequest";
    case MsgType::kGetResponse:
      return "GetResponse";
    case MsgType::kMergeRequest:
      return "MergeRequest";
    case MsgType::kMergeResponse:
      return "MergeResponse";
    case MsgType::kGossip:
      return "Gossip";
    case MsgType::kDispute:
      return "Dispute";
    case MsgType::kDisputeVerdict:
      return "DisputeVerdict";
    case MsgType::kReserveRequest:
      return "ReserveRequest";
    case MsgType::kReserveResponse:
      return "ReserveResponse";
    case MsgType::kCloudWriteRequest:
      return "CloudWriteRequest";
    case MsgType::kCloudWriteResponse:
      return "CloudWriteResponse";
    case MsgType::kCloudReadRequest:
      return "CloudReadRequest";
    case MsgType::kCloudReadResponse:
      return "CloudReadResponse";
    case MsgType::kEbWriteRequest:
      return "EbWriteRequest";
    case MsgType::kEbWriteResponse:
      return "EbWriteResponse";
    case MsgType::kEbCertify:
      return "EbCertify";
    case MsgType::kEbCertifyResponse:
      return "EbCertifyResponse";
    case MsgType::kBackupFetch:
      return "BackupFetch";
    case MsgType::kBackupBlocks:
      return "BackupBlocks";
    case MsgType::kScanRequest:
      return "ScanRequest";
    case MsgType::kScanResponse:
      return "ScanResponse";
    case MsgType::kCloudScanResponse:
      return "CloudScanResponse";
    case MsgType::kCloudGetRequest:
      return "CloudGetRequest";
    case MsgType::kCloudGetResponse:
      return "CloudGetResponse";
  }
  return "Unknown";
}

namespace {

Result<MsgType> CheckType(uint8_t type_byte) {
  if (type_byte < 1 ||
      type_byte > static_cast<uint8_t>(MsgType::kMaxMsgType)) {
    return Status::Corruption("unknown message type " +
                              std::to_string(type_byte));
  }
  return static_cast<MsgType>(type_byte);
}

// [magic][type u8][sender u32][receiver u32][counter u64][body][mac32]
Result<Envelope> Parse(Slice wire) {
  Decoder dec(wire);
  Envelope env;
  uint8_t magic = 0;
  WEDGE_ASSIGN_OR_RETURN(magic, dec.GetU8());
  if (magic != kSessionEnvelopeMagic) {
    return Status::Corruption("not a session envelope (first byte " +
                              std::to_string(magic) + ")");
  }
  uint8_t type_byte = 0;
  WEDGE_ASSIGN_OR_RETURN(type_byte, dec.GetU8());
  WEDGE_ASSIGN_OR_RETURN(env.type, CheckType(type_byte));
  WEDGE_ASSIGN_OR_RETURN(env.sender, dec.GetU32());
  WEDGE_ASSIGN_OR_RETURN(env.receiver, dec.GetU32());
  WEDGE_ASSIGN_OR_RETURN(env.counter, dec.GetU64());
  WEDGE_ASSIGN_OR_RETURN(env.body, dec.GetBytes());
  WEDGE_RETURN_NOT_OK(dec.GetRaw(32).status());  // mac
  WEDGE_RETURN_NOT_OK(dec.ExpectDone());
  env.raw = wire.ToBytes();
  return env;
}

// Parses `wire` and checks its MAC (everything before the trailing 32
// bytes) against the session key the directory derives for (sender,
// receiver). `historical` skips the revocation check for dispute
// adjudication.
Result<Envelope> ParseAndVerify(const KeyStore& keystore, Slice wire,
                                bool historical) {
  Envelope env;
  WEDGE_ASSIGN_OR_RETURN(env, Parse(wire));
  if (!historical && keystore.IsRevoked(env.sender)) {
    return Status::FailedPrecondition("sender " + std::to_string(env.sender) +
                                      " has been revoked");
  }
  Sha256Digest key;
  WEDGE_ASSIGN_OR_RETURN(key,
                         keystore.SessionKeyFor(env.sender, env.receiver));
  HmacKey session(Slice(key.data(), key.size()));
  Sha256Digest expect = session.Mac(Slice(wire.data(), wire.size() - 32));
  if (!CryptoEqual(Slice(expect.data(), expect.size()),
                   Slice(wire.data() + wire.size() - 32, 32))) {
    return Status::SecurityViolation("session MAC verification failed for " +
                                     std::to_string(env.sender));
  }
  return env;
}

}  // namespace

Result<Envelope> Envelope::Open(const KeyStore& keystore, Slice wire) {
  return ParseAndVerify(keystore, wire, /*historical=*/false);
}

Result<Envelope> Envelope::OpenUnverified(Slice wire) { return Parse(wire); }

Result<Envelope> Envelope::OpenHistorical(const KeyStore& keystore,
                                          Slice wire) {
  return ParseAndVerify(keystore, wire, /*historical=*/true);
}

}  // namespace wedge
