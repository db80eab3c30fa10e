#include "net/sim_transport.h"

#include <utility>

namespace sprite::net {

namespace {

double BackoffMs(const CallOptions& opts, size_t retry_index) {
  double wait = opts.backoff_ms;
  for (size_t i = 0; i < retry_index; ++i) wait *= 2.0;
  return wait;
}

}  // namespace

StatusOr<wire::Frame> SimTransport::Call(const PeerAddress& to,
                                         const wire::Frame& request,
                                         const CallOptions& opts) {
  auto it = handlers_.find(to.id);
  const bool answering = it != handlers_.end() && down_.count(to.id) == 0;
  ChargeRequest(request.type, request.wire_size(), answering, opts);
  if (!answering) {
    return Status::DeadlineExceeded("peer unreachable on sim bus");
  }
  StatusOr<wire::Frame> response = it->second(request);
  if (response.ok()) {
    stats_.CountFrame(response->type, response->wire_size());
  }
  return response;
}

Status SimTransport::Send(const PeerAddress& to, const wire::Frame& frame,
                          const CallOptions& opts) {
  auto it = handlers_.find(to.id);
  const bool answering = it != handlers_.end() && down_.count(to.id) == 0;
  stats_.CountFrame(frame.type, frame.wire_size());
  if (!answering) {
    // A one-way send has no acknowledgement, so the loss is silent; it is
    // still surfaced to the caller since the sim knows.
    return Status::DeadlineExceeded("peer unreachable on sim bus");
  }
  (void)it->second(frame);
  (void)opts;
  return Status::OK();
}

uint64_t SimTransport::ChargeRequest(p2p::MessageType type,
                                     uint64_t wire_bytes, bool up,
                                     const CallOptions& opts) {
  const size_t attempts = up ? 1 : opts.retries + 1;
  for (size_t attempt = 0; attempt < attempts; ++attempt) {
    stats_.CountFrame(type, wire_bytes);
    if (attempt + 1 < attempts) {
      stats_.CountRetry(type);
      if (advance_ms_) advance_ms_(BackoffMs(opts, attempt));
    }
  }
  if (!up) stats_.CountTimeout(type);
  return attempts;
}

Charge SimTransport::CostSend(p2p::PeerId to, p2p::MessageType type,
                              size_t payload_bytes, const CallOptions& opts) {
  const bool up = reachable_ ? reachable_(to) : true;
  const uint64_t wire_bytes = p2p::kMessageHeaderBytes + payload_bytes;
  Charge charge;
  charge.attempts = ChargeRequest(type, wire_bytes, up, opts);
  charge.wire_bytes = charge.attempts * wire_bytes;
  if (!up) {
    charge.status =
        Status::DeadlineExceeded("direct send to departed peer timed out");
  }
  return charge;
}

uint64_t SimTransport::CompleteExchange(p2p::MessageType type,
                                        size_t payload_bytes) {
  const uint64_t wire_bytes = p2p::kMessageHeaderBytes + payload_bytes;
  stats_.CountFrame(type, wire_bytes);
  return wire_bytes;
}

void SimTransport::ChargeLookupHops(int hops) {
  if (hops <= 0) return;
  const uint64_t n = static_cast<uint64_t>(hops);
  stats_.CountTraffic(p2p::MessageType::kLookupHop, n,
                      n * p2p::kLookupHopBytes);
}

}  // namespace sprite::net
