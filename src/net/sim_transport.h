#ifndef SPRITE_NET_SIM_TRANSPORT_H_
#define SPRITE_NET_SIM_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/status.h"
#include "net/transport.h"

namespace sprite::net {

// What one cost-seam send charged: its outcome, the request legs sent
// (1 + retries when the peer stays silent), the wire bytes of every
// attempt, header included, and the backoff waits it advanced the clock
// by. Callers feed these figures to the latency model and the simulated
// clock, so the bus is the only place a message is sized.
struct Charge {
  Status status;
  uint64_t attempts = 0;
  uint64_t wire_bytes = 0;
  double backoff_ms = 0.0;
};

// The in-process simulated bus. It serves two roles:
//
//  1. A frame-level Transport: peers register a handler and Call/Send
//     deliver encoded wire::Frames as direct function calls. Used by the
//     in-process cluster tests, where real encode/decode runs without
//     sockets.
//
//  2. The cost-model seam for SpriteSystem: the simulation never encodes
//     its hot-path traffic (posting-list fetches are zero-copy snapshots),
//     so direct sends go through CostSend/BeginExchange/CompleteExchange
//     and Chord routing through ChargeLookupHops. Each charges its
//     messages to stats() — the simulation's one traffic ledger, mirrored
//     as net.messages/net.bytes and as net.<Type>.* span annotations —
//     while surfacing typed unreachable-peer statuses and honoring the
//     retry/backoff knobs.
//
// The request leg of a send is always charged, reachable or not: the bytes
// leave the sender either way, and only then does the peer's silence turn
// into a timeout. With the default CallOptions (retries = 0) an
// unreachable peer therefore costs exactly one request and no response.
//
// Single-threaded by design: the parallel epoch engine only touches the
// bus from its serialized commit phase.
class SimTransport : public Transport {
 public:
  using Handler = std::function<StatusOr<wire::Frame>(const wire::Frame&)>;

  // --- Frame-level registry ---------------------------------------------
  void Register(p2p::PeerId id, Handler handler) {
    handlers_[id] = std::move(handler);
    down_.erase(id);
  }
  // Simulates a partition/crash: the peer stays registered but stops
  // answering, so senders observe timeouts instead of instant failures.
  void SetDown(p2p::PeerId id, bool down) {
    if (down) {
      down_.insert(id);
    } else {
      down_.erase(id);
    }
  }

  StatusOr<wire::Frame> Call(const PeerAddress& to, const wire::Frame& request,
                             const CallOptions& opts) override;
  Status Send(const PeerAddress& to, const wire::Frame& frame,
              const CallOptions& opts) override;
  const TransportStats& stats() const override { return stats_; }
  TransportStats& mutable_stats() { return stats_; }

  // --- Cost-model seam ---------------------------------------------------
  // `reachable` answers peer liveness; `advance_ms` advances the simulated
  // clock during retry backoff waits. Both must outlive this transport.
  // Pass empty functions to detach.
  void ConfigureCostModel(std::function<bool(p2p::PeerId)> reachable,
                          std::function<void(double)> advance_ms) {
    reachable_ = std::move(reachable);
    advance_ms_ = std::move(advance_ms);
  }

  // One-way direct send under the cost model. Charges one request of
  // kMessageHeaderBytes + `payload_bytes` per attempt; between attempts
  // advances the sim clock by the exponential backoff wait (reported as
  // `backoff_ms`). The status is DeadlineExceeded when `to` stays
  // unreachable through every attempt.
  Charge CostSend(p2p::PeerId to, p2p::MessageType type, size_t payload_bytes,
                  const CallOptions& opts);

  // Request leg of a request/response exchange; same semantics as
  // CostSend.
  Charge BeginExchange(p2p::PeerId to, p2p::MessageType type,
                       size_t payload_bytes, const CallOptions& opts) {
    return CostSend(to, type, payload_bytes, opts);
  }

  // Response leg; call only after BeginExchange succeeded. Returns the
  // wire bytes charged.
  uint64_t CompleteExchange(p2p::MessageType type, size_t payload_bytes);

  // Charges `hops` Chord routing hops of kLookupHopBytes each; zero or
  // negative hops charge nothing.
  void ChargeLookupHops(int hops);

 private:
  // Books a request leg of `wire_bytes`: one attempt when `up`, otherwise
  // 1 + opts.retries attempts with backoff waits between them, then a
  // timeout.
  Charge ChargeRequest(p2p::MessageType type, uint64_t wire_bytes, bool up,
                       const CallOptions& opts);

  std::unordered_map<p2p::PeerId, Handler> handlers_;
  std::unordered_set<p2p::PeerId> down_;
  TransportStats stats_{"net.messages", "net.bytes"};
  std::function<bool(p2p::PeerId)> reachable_;
  std::function<void(double)> advance_ms_;
};

}  // namespace sprite::net

#endif  // SPRITE_NET_SIM_TRANSPORT_H_
