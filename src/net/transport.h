#ifndef SPRITE_NET_TRANSPORT_H_
#define SPRITE_NET_TRANSPORT_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "p2p/message.h"
#include "p2p/network.h"
#include "net/wire.h"

// The Transport abstraction (DESIGN.md §14): how one SPRITE peer exchanges
// a wire::Frame with another. Two backends exist —
//
//   * SimTransport (net/sim_transport.h): the in-process simulated bus.
//     Frames are delivered as direct function calls, and SpriteSystem's
//     direct sends and lookup hops are charged through its cost seam.
//   * SocketTransport (net/socket_transport.h): real sockets — UDP for
//     routing/control, TCP for bulk posting transfer.
//
// Unreachable peers are a normal condition, not an error: a Call to a
// departed peer times out after `CallOptions::retries` resends and surfaces
// Status::DeadlineExceeded. Every attempt is counted in the backend's
// TransportStats, the one ledger of its traffic (messages and bytes per
// type) plus timeouts, retries and round-trip times.
namespace sprite::net {

// Where a peer can be reached. In-process backends only need `id`; socket
// backends use host + the per-channel ports.
struct PeerAddress {
  p2p::PeerId id = 0;
  std::string host;  // empty for in-process transports
  uint16_t udp_port = 0;
  uint16_t tcp_port = 0;
};

// Per-call deadline/retry policy, populated from SpriteConfig's
// peer_timeout_ms / send_retries / retry_backoff_ms knobs.
struct CallOptions {
  // Per-attempt deadline.
  double timeout_ms = 1000.0;
  // Extra attempts after the first times out.
  size_t retries = 0;
  // Wait before retry k (1-based) is backoff_ms * 2^(k-1).
  double backoff_ms = 200.0;
};

// Per-message-type transport counters: the traffic table (messages and
// wire bytes moved or, on the sim backend, charged — each booked once)
// plus timeouts, retries and round-trip times. Mirrors into an attached
// obs registry labeled by message type; Clear() erases the mirrored
// names, preserving the repo's reset invariant.
class TransportStats {
 public:
  // Registry names of the traffic mirror; the defaults are the socket
  // backend's. The sim bus books as net.messages and net.bytes, the names
  // every simulation dump uses.
  explicit TransportStats(std::string messages_counter = "transport.frames",
                          std::string bytes_counter = "transport.bytes")
      : messages_counter_(std::move(messages_counter)),
        bytes_counter_(std::move(bytes_counter)) {}

  // The registry must outlive these stats; nullptr detaches.
  void AttachMetrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }
  // Annotates every booked message onto the innermost active span as
  // "net.<Type>.msgs" / "net.<Type>.bytes". The tracer must outlive these
  // stats; nullptr detaches.
  void AttachTracer(obs::Tracer* tracer) { tracer_ = tracer; }

  // Books `messages` messages of `type` totalling `wire_bytes`.
  void CountTraffic(p2p::MessageType type, uint64_t messages,
                    uint64_t wire_bytes);
  void CountFrame(p2p::MessageType type, size_t wire_bytes) {
    CountTraffic(type, 1, wire_bytes);
  }
  void CountTimeout(p2p::MessageType type);
  void CountRetry(p2p::MessageType type);
  // Records one request→response round-trip wall time. Only the socket
  // backend observes RTTs, so wall time never reaches a sim dump.
  void ObserveRtt(p2p::MessageType type, double rtt_us);

  const p2p::NetworkStats& traffic() const { return traffic_; }
  uint64_t TimeoutsOf(p2p::MessageType t) const { return timeouts_[Idx(t)]; }
  uint64_t RetriesOf(p2p::MessageType t) const { return retries_[Idx(t)]; }
  uint64_t RttCountOf(p2p::MessageType t) const { return rtt_count_[Idx(t)]; }
  double RttSumUsOf(p2p::MessageType t) const { return rtt_sum_us_[Idx(t)]; }
  uint64_t TotalTimeouts() const;
  uint64_t TotalRetries() const;

  // Resets the counters and drops every mirrored registry counter, so
  // both views stay in sync across resets.
  void Clear();

 private:
  static size_t Idx(p2p::MessageType t) { return static_cast<size_t>(t); }
  std::string messages_counter_;
  std::string bytes_counter_;
  p2p::NetworkStats traffic_;
  std::array<uint64_t, p2p::kNumMessageTypes> timeouts_{};
  std::array<uint64_t, p2p::kNumMessageTypes> retries_{};
  std::array<uint64_t, p2p::kNumMessageTypes> rtt_count_{};
  std::array<double, p2p::kNumMessageTypes> rtt_sum_us_{};
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
};

// Abstract frame transport.
class Transport {
 public:
  virtual ~Transport() = default;

  // One request/response round trip: sends `request`, returns the peer's
  // reply. DeadlineExceeded when the peer stays silent through every
  // attempt; Unavailable when it is known to be gone (e.g. no route).
  virtual StatusOr<wire::Frame> Call(const PeerAddress& to,
                                     const wire::Frame& request,
                                     const CallOptions& opts) = 0;

  // One-way send; no reply is awaited.
  virtual Status Send(const PeerAddress& to, const wire::Frame& frame,
                      const CallOptions& opts) = 0;

  virtual const TransportStats& stats() const = 0;
};

}  // namespace sprite::net

#endif  // SPRITE_NET_TRANSPORT_H_
