// Unit tests for the P2P traffic accounting: message names, the
// per-type NetworkStats table and the sim bus that books it, plus the
// unreachable-peer regression: a probe to a departed peer must surface a
// *typed* DeadlineExceeded through the transport seam, honor the
// SpriteConfig retry/backoff knobs, and with the default (retries = 0)
// charge exactly one request and no response.

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/sprite_system.h"
#include "corpus/corpus.h"
#include "corpus/query.h"
#include "net/sim_transport.h"
#include "obs/metrics.h"
#include "p2p/message.h"
#include "p2p/network.h"
#include "text/term_vector.h"

namespace sprite::p2p {
namespace {

TEST(MessageTest, NamesAreStable) {
  EXPECT_EQ(MessageTypeName(MessageType::kPublishTerm), "PublishTerm");
  EXPECT_EQ(MessageTypeName(MessageType::kLookupHop), "LookupHop");
  EXPECT_EQ(MessageTypeName(MessageType::kPollResponse), "PollResponse");
}

TEST(NetworkStatsTest, StartsEmpty) {
  NetworkStats stats;
  EXPECT_EQ(stats.TotalMessages(), 0u);
  EXPECT_EQ(stats.TotalBytes(), 0u);
}

// --- The traffic ledger: the sim bus's TransportStats ----------------------

TEST(TrafficLedgerTest, SendAddsHeaderBytes) {
  net::SimTransport bus;
  bus.CostSend(7, MessageType::kPublishTerm, 100, net::CallOptions{});
  EXPECT_EQ(bus.stats().traffic().MessagesOf(MessageType::kPublishTerm), 1u);
  EXPECT_EQ(bus.stats().traffic().BytesOf(MessageType::kPublishTerm),
            kMessageHeaderBytes + 100);
}

TEST(TrafficLedgerTest, LookupHopsCountPerHop) {
  net::SimTransport bus;
  obs::MetricsRegistry registry;
  bus.mutable_stats().AttachMetrics(&registry);
  bus.ChargeLookupHops(3);
  bus.ChargeLookupHops(0);   // no-op
  bus.ChargeLookupHops(-1);  // no-op
  EXPECT_EQ(bus.stats().traffic().MessagesOf(MessageType::kLookupHop), 3u);
  EXPECT_EQ(bus.stats().traffic().BytesOf(MessageType::kLookupHop),
            3 * kLookupHopBytes);
  EXPECT_EQ(registry.counter("net.messages", "LookupHop"), 3u);
  EXPECT_EQ(registry.counter("net.bytes", "LookupHop"), 3 * kLookupHopBytes);
}

TEST(TrafficLedgerTest, TotalsAggregateAcrossTypes) {
  net::SimTransport bus;
  bus.BeginExchange(7, MessageType::kQueryRequest, 10, net::CallOptions{});
  bus.CompleteExchange(MessageType::kQueryResponse, 20);
  bus.ChargeLookupHops(2);
  EXPECT_EQ(bus.stats().traffic().TotalMessages(), 4u);
  EXPECT_EQ(bus.stats().traffic().TotalBytes(),
            2 * kMessageHeaderBytes + 30 + 2 * kLookupHopBytes);
}

TEST(TrafficLedgerTest, ClearResetsTableAndMirroredCounters) {
  net::SimTransport bus;
  obs::MetricsRegistry registry;
  bus.mutable_stats().AttachMetrics(&registry);
  bus.CostSend(7, MessageType::kReplicate, 5, net::CallOptions{});
  ASSERT_EQ(registry.counter("net.messages", "Replicate"), 1u);
  bus.mutable_stats().Clear();
  EXPECT_EQ(bus.stats().traffic().TotalMessages(), 0u);
  EXPECT_EQ(bus.stats().traffic().TotalBytes(), 0u);
  for (const obs::CounterSample& c : registry.Snapshot().counters) {
    EXPECT_NE(c.id.name, "net.messages") << c.id.label;
    EXPECT_NE(c.id.name, "net.bytes") << c.id.label;
  }
}

TEST(TrafficLedgerTest, ToStringListsNonZeroRowsAndTotal) {
  net::SimTransport bus;
  bus.CostSend(7, MessageType::kHeartbeat, 1, net::CallOptions{});
  const std::string table = bus.stats().traffic().ToString();
  EXPECT_NE(table.find("Heartbeat"), std::string::npos);
  EXPECT_NE(table.find("TOTAL"), std::string::npos);
  EXPECT_EQ(table.find("Replicate"), std::string::npos);  // zero row hidden
}

// --- Unreachable-peer regression (ISSUE 8) ------------------------------

struct DeadPeerRun {
  uint64_t timeouts = 0;
  uint64_t retries = 0;
  uint64_t version_check_messages = 0;
};

// Warms a result cache whose entry is sourced at the peer responsible for
// "cat", abruptly fails that peer, then keeps querying: every validated
// hit at a previously warmed querying peer probes the dead source. Returns
// the transport-layer counters of the post-failure phase.
DeadPeerRun RunDeadPeerScenario(size_t send_retries) {
  core::SpriteConfig config;
  config.num_peers = 16;
  config.initial_terms = 2;
  config.terms_per_iteration = 2;
  config.max_index_terms = 6;
  config.enable_result_cache = true;
  config.enable_posting_cache = true;
  config.cache_validate = true;
  config.send_retries = send_retries;

  corpus::Corpus corpus;
  corpus.AddDocument(text::TermVector::FromTokens(
      {"cat", "cat", "cat", "feline", "whisker", "purr"}));
  corpus.AddDocument(text::TermVector::FromTokens(
      {"dog", "dog", "dog", "canine", "leash", "bark"}));
  corpus.AddDocument(
      text::TermVector::FromTokens({"pet", "cat", "dog", "food"}));

  core::SpriteSystem system(config);
  EXPECT_TRUE(system.ShareCorpus(corpus).ok());
  const corpus::Query query{1, {"cat", "dog"}};
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(system.Search(query, 10, /*record=*/false).ok());
  }
  EXPECT_EQ(system.transport_stats().TotalTimeouts(), 0u);

  const uint64_t key = system.ring().space().KeyForString("cat");
  EXPECT_TRUE(
      system.FailPeer(system.ring().ResponsibleNode(key).value()).ok());
  for (int i = 0; i < 20; ++i) {
    // The departed source never fails the query: the stale entry is
    // rejected and refetched from the ring's new responsible peer.
    EXPECT_TRUE(system.Search(query, 10, /*record=*/false).ok());
  }

  DeadPeerRun run;
  run.timeouts = system.transport_stats().TotalTimeouts();
  run.retries = system.transport_stats().TotalRetries();
  run.version_check_messages =
      system.network_stats().MessagesOf(MessageType::kVersionCheck);
  return run;
}

TEST(UnreachablePeerTest, DefaultsKeepLegacyAccountingAndSurfaceTimeouts) {
  const DeadPeerRun run = RunDeadPeerScenario(/*send_retries=*/0);
  // The dead probes are visible as typed transport timeouts...
  EXPECT_GT(run.timeouts, 0u);
  // ...and with the default send_retries = 0 nothing is retried, so each
  // dead probe costs exactly one request and no response — the charge the
  // simulation has always used.
  EXPECT_EQ(run.retries, 0u);
}

TEST(UnreachablePeerTest, RetryKnobsChargeEveryAttempt) {
  const DeadPeerRun baseline = RunDeadPeerScenario(/*send_retries=*/0);
  const DeadPeerRun retried = RunDeadPeerScenario(/*send_retries=*/2);
  // The workload is deterministic, so both runs hit the dead peer the same
  // number of times; the retried run books two extra attempts per probe.
  EXPECT_EQ(retried.timeouts, baseline.timeouts);
  EXPECT_EQ(retried.retries, 2 * retried.timeouts);
  EXPECT_EQ(retried.version_check_messages,
            baseline.version_check_messages + 2 * baseline.timeouts);
}

}  // namespace
}  // namespace sprite::p2p
