#include "p2p/network.h"

#include "common/string_util.h"

namespace sprite::p2p {

std::string_view MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kLookupHop:
      return "LookupHop";
    case MessageType::kPublishTerm:
      return "PublishTerm";
    case MessageType::kWithdrawTerm:
      return "WithdrawTerm";
    case MessageType::kQueryRequest:
      return "QueryRequest";
    case MessageType::kQueryResponse:
      return "QueryResponse";
    case MessageType::kPollRequest:
      return "PollRequest";
    case MessageType::kPollResponse:
      return "PollResponse";
    case MessageType::kReplicate:
      return "Replicate";
    case MessageType::kAdvisory:
      return "Advisory";
    case MessageType::kHeartbeat:
      return "Heartbeat";
    case MessageType::kKeyTransfer:
      return "KeyTransfer";
    case MessageType::kCachePush:
      return "CachePush";
    case MessageType::kVersionCheck:
      return "VersionCheck";
    case MessageType::kJoinRequest:
      return "JoinRequest";
    case MessageType::kJoinResponse:
      return "JoinResponse";
    case MessageType::kLookupRequest:
      return "LookupRequest";
    case MessageType::kLookupResponse:
      return "LookupResponse";
  }
  return "Unknown";
}

uint64_t NetworkStats::TotalMessages() const {
  uint64_t total = 0;
  for (uint64_t m : messages) total += m;
  return total;
}

uint64_t NetworkStats::TotalBytes() const {
  uint64_t total = 0;
  for (uint64_t b : bytes) total += b;
  return total;
}

void NetworkStats::Clear() {
  messages.fill(0);
  bytes.fill(0);
}

std::string NetworkStats::ToString() const {
  std::string out;
  for (int i = 0; i < kNumMessageTypes; ++i) {
    if (messages[static_cast<size_t>(i)] == 0) continue;
    out += StrFormat("  %-14s msgs=%10llu bytes=%12llu\n",
                     std::string(MessageTypeName(static_cast<MessageType>(i)))
                         .c_str(),
                     static_cast<unsigned long long>(
                         messages[static_cast<size_t>(i)]),
                     static_cast<unsigned long long>(
                         bytes[static_cast<size_t>(i)]));
  }
  out += StrFormat("  %-14s msgs=%10llu bytes=%12llu\n", "TOTAL",
                   static_cast<unsigned long long>(TotalMessages()),
                   static_cast<unsigned long long>(TotalBytes()));
  return out;
}

}  // namespace sprite::p2p
