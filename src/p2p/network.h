#ifndef SPRITE_P2P_NETWORK_H_
#define SPRITE_P2P_NETWORK_H_

#include <array>
#include <cstdint>
#include <string>

#include "p2p/message.h"

namespace sprite::p2p {

// Per-message-type traffic counters: messages and wire bytes (header
// included). The one traffic table of a transport (net::TransportStats);
// the simulation's figures are read from its bus.
struct NetworkStats {
  std::array<uint64_t, kNumMessageTypes> messages{};
  std::array<uint64_t, kNumMessageTypes> bytes{};

  uint64_t TotalMessages() const;
  uint64_t TotalBytes() const;
  uint64_t MessagesOf(MessageType type) const {
    return messages[static_cast<size_t>(type)];
  }
  uint64_t BytesOf(MessageType type) const {
    return bytes[static_cast<size_t>(type)];
  }

  void Clear();

  // Multi-line table of non-zero rows, for bench output.
  std::string ToString() const;
};

}  // namespace sprite::p2p

#endif  // SPRITE_P2P_NETWORK_H_
