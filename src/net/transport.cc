#include "net/transport.h"

#include <numeric>

namespace sprite::net {

namespace {

std::string Label(p2p::MessageType type) {
  return std::string(p2p::MessageTypeName(type));
}

}  // namespace

void TransportStats::CountTraffic(p2p::MessageType type, uint64_t messages,
                                  uint64_t wire_bytes) {
  traffic_.messages[Idx(type)] += messages;
  traffic_.bytes[Idx(type)] += wire_bytes;
  if (metrics_ != nullptr) {
    const std::string label = Label(type);
    metrics_->Add(messages_counter_, label, messages);
    metrics_->Add(bytes_counter_, label, wire_bytes);
  }
  if (tracer_ != nullptr && tracer_->InActiveSpan()) {
    const std::string key = "net." + Label(type);
    tracer_->AnnotateAdd(key + ".msgs", messages);
    tracer_->AnnotateAdd(key + ".bytes", wire_bytes);
  }
}

void TransportStats::CountTimeout(p2p::MessageType type) {
  timeouts_[Idx(type)] += 1;
  if (metrics_ != nullptr) {
    metrics_->Add("transport.timeouts", Label(type), 1);
  }
}

void TransportStats::CountRetry(p2p::MessageType type) {
  retries_[Idx(type)] += 1;
  if (metrics_ != nullptr) {
    metrics_->Add("transport.retries", Label(type), 1);
  }
}

void TransportStats::ObserveRtt(p2p::MessageType type, double rtt_us) {
  if (rtt_us < 0.0) return;
  rtt_count_[Idx(type)] += 1;
  rtt_sum_us_[Idx(type)] += rtt_us;
  if (metrics_ != nullptr) {
    metrics_->Observe("transport.rtt_us", Label(type), rtt_us);
  }
}

uint64_t TransportStats::TotalTimeouts() const {
  return std::accumulate(timeouts_.begin(), timeouts_.end(), uint64_t{0});
}

uint64_t TransportStats::TotalRetries() const {
  return std::accumulate(retries_.begin(), retries_.end(), uint64_t{0});
}

void TransportStats::Clear() {
  traffic_.Clear();
  timeouts_.fill(0);
  retries_.fill(0);
  rtt_count_.fill(0);
  rtt_sum_us_.fill(0.0);
  if (metrics_ != nullptr) {
    metrics_->EraseByName(messages_counter_);
    metrics_->EraseByName(bytes_counter_);
    metrics_->EraseByName("transport.timeouts");
    metrics_->EraseByName("transport.retries");
    metrics_->EraseByName("transport.rtt_us");
  }
}

}  // namespace sprite::net
