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
  const Charge sent =
      ChargeRequest(request.type, request.wire_size(), answering, opts);
  if (!sent.status.ok()) return sent.status;
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

Charge SimTransport::ChargeRequest(p2p::MessageType type, uint64_t wire_bytes,
                                  bool up, const CallOptions& opts) {
  Charge charge;
  charge.attempts = up ? 1 : opts.retries + 1;
  charge.wire_bytes = charge.attempts * wire_bytes;
  for (size_t attempt = 0; attempt < charge.attempts; ++attempt) {
    stats_.CountFrame(type, wire_bytes);
    if (attempt + 1 < charge.attempts) {
      stats_.CountRetry(type);
      const double wait = BackoffMs(opts, attempt);
      charge.backoff_ms += wait;
      if (advance_ms_) advance_ms_(wait);
    }
  }
  if (!up) {
    stats_.CountTimeout(type);
    charge.status = Status::DeadlineExceeded("peer unreachable on sim bus");
  }
  return charge;
}

Charge SimTransport::CostSend(p2p::PeerId to, p2p::MessageType type,
                              size_t payload_bytes, const CallOptions& opts) {
  const bool up = reachable_ ? reachable_(to) : true;
  return ChargeRequest(type, p2p::kMessageHeaderBytes + payload_bytes, up,
                       opts);
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
