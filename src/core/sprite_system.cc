#include "core/sprite_system.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_set>

#include "common/check.h"
#include "common/md5.h"
#include "common/string_util.h"
#include "common/topk.h"
#include "core/ranking.h"
#include "ir/similarity.h"

namespace sprite::core {

SpriteSystem::SpriteSystem(SpriteConfig config)
    : config_(config),
      latency_(obs::LatencyParams{config.hop_rtt_ms,
                                  config.bandwidth_bytes_per_sec,
                                  obs::LatencyParams{}.rank_ms_per_posting}),
      ring_(dht::ChordOptions{config.id_bits, config.successor_list_size}),
      cache_(cache::CacheOptions{
          config.enable_result_cache, config.enable_posting_cache,
          config.cache_validate,
          cache::CacheLimits{config.result_cache_entries,
                             config.result_cache_bytes, config.cache_ttl_ms},
          cache::CacheLimits{config.posting_cache_entries,
                             config.posting_cache_bytes,
                             config.cache_ttl_ms}}),
      timeseries_(obs::TimeSeriesOptions{config.timeseries_capacity,
                                         {},
                                         {},
                                         {}}),
      explain_(obs::ExplainOptions{config.explain_search_capacity,
                                   obs::ExplainOptions{}.max_candidates,
                                   obs::ExplainOptions{}.decision_capacity}) {
  SPRITE_CHECK(config_.num_peers >= 1);
  SPRITE_CHECK(config_.initial_terms >= 1);
  SPRITE_CHECK(config_.max_index_terms >= config_.initial_terms);
  for (size_t i = 0; i < config_.num_peers; ++i) {
    StatusOr<uint64_t> id = ring_.Join(StrFormat("peer%zu", i));
    SPRITE_CHECK(id.ok());
    peer_ids_.push_back(id.value());
    indexing_.emplace(id.value(),
                      IndexingPeer(id.value(), config_.history_capacity,
                                   StoreOptionsFromConfig(config_)));
    owners_.emplace(id.value(), OwnerPeer(id.value()));
  }
  std::sort(peer_ids_.begin(), peer_ids_.end());
  // Start from converged routing tables (the protocol paths are exercised
  // separately by the DHT tests and churn experiments).
  ring_.BuildPerfect();
  ring_.ClearStats();
  // Attach the metrics mirrors only now, so bootstrap traffic (the initial
  // joins above) is excluded, matching the ClearStats() baseline.
  bus_.mutable_stats().AttachMetrics(&metrics_);
  ring_.AttachMetrics(&metrics_);
  cache_.AttachMetrics(&metrics_);
  timeseries_.AttachMetrics(&metrics_);
  explain_.AttachMetrics(&metrics_);
  slo_.AttachMetrics(&metrics_);
  timeseries_.set_enabled(config_.enable_timeseries);
  explain_.set_enabled(config_.enable_explain);
  wall_.set_enabled(config_.enable_wall_profiler);
  tracer_.set_hop_cost_ms(latency_.HopsMs(1));
  ring_.AttachTracer(&tracer_);
  bus_.mutable_stats().AttachTracer(&tracer_);
  slo_.AttachTracer(&tracer_);
  // The bus answers liveness from the ring; retry backoff advances the
  // simulated clock. Timeouts/retries appear, lazily, as transport.*
  // counters beside the net.* traffic mirror.
  bus_.ConfigureCostModel(
      [this](PeerId id) {
        const dht::ChordNode* node = ring_.node(id);
        return node != nullptr && node->alive;
      },
      [this](double ms) { tracer_.clock().AdvanceMs(ms); });
  UpdateMembershipGauges();
}

WorkerPool& SpriteSystem::pool() {
  if (pool_ == nullptr) {
    pool_ = std::make_unique<WorkerPool>(
        std::max<size_t>(size_t{1}, config_.num_threads));
  }
  return *pool_;
}

std::string SpriteSystem::PeerNameOf(PeerId id) const {
  const dht::ChordNode* node = ring_.node(id);
  if (node != nullptr && !node->name.empty()) return node->name;
  return StrFormat("peer-%llu", static_cast<unsigned long long>(id));
}

void SpriteSystem::ExportLoadMetrics() {
  std::vector<double> postings;
  std::vector<double> queries;
  double bytes_raw_total = 0.0;
  double bytes_encoded_total = 0.0;
  for (const auto& [id, peer] : indexing_) {
    const dht::ChordNode* node = ring_.node(id);
    if (node == nullptr || !node->alive) continue;
    const double p = static_cast<double>(peer.num_postings());
    auto qit = query_load_.find(id);
    const double q =
        qit == query_load_.end() ? 0.0 : static_cast<double>(qit->second);
    const double braw = static_cast<double>(peer.PostingBytesRaw());
    const double benc = static_cast<double>(peer.PostingBytesEncoded());
    const std::string label =
        StrFormat("peer-%llu", static_cast<unsigned long long>(id));
    metrics_.Set("load.postings", label, p);
    metrics_.Set("load.queries", label, q);
    // Resident posting bytes (primary + replicas + hot cache), raw vs as
    // actually stored; their quotient is the peer's compression ratio.
    metrics_.Set("load.posting_bytes_raw", label, braw);
    metrics_.Set("load.posting_bytes_encoded", label, benc);
    postings.push_back(p);
    queries.push_back(q);
    bytes_raw_total += braw;
    bytes_encoded_total += benc;
  }
  const auto summarize = [this](const std::string& prefix,
                                const std::vector<double>& values) {
    double sum = 0.0;
    double max = 0.0;
    for (double v : values) {
      sum += v;
      max = std::max(max, v);
    }
    metrics_.Set(prefix + ".max", max);
    metrics_.Set(prefix + ".mean",
                 values.empty() ? 0.0
                                : sum / static_cast<double>(values.size()));
    metrics_.Set(prefix + ".max_mean_ratio", obs::MaxMeanRatio(values));
    metrics_.Set(prefix + ".gini", obs::GiniCoefficient(values));
  };
  summarize("load.postings", postings);
  summarize("load.queries", queries);
  metrics_.Set("load.posting_bytes_raw.total", bytes_raw_total);
  metrics_.Set("load.posting_bytes_encoded.total", bytes_encoded_total);
  metrics_.Set("load.posting_compression_ratio",
               bytes_encoded_total == 0.0
                   ? 1.0
                   : bytes_raw_total / bytes_encoded_total);
}

const obs::TimeSeriesPoint* SpriteSystem::CaptureTimeSeriesPoint(
    const std::string& label) {
  if (!timeseries_.enabled()) return nullptr;
  // Copy the previous point out before capturing: the ring may evict it,
  // which would invalidate the reference the watchdog compares against.
  std::optional<obs::TimeSeriesPoint> prev;
  if (timeseries_.latest() != nullptr) prev = *timeseries_.latest();
  const obs::TimeSeriesPoint* point = timeseries_.Capture(
      metrics_.Snapshot(), learning_round_, tracer_.clock().now_ms(), label);
  if (point == nullptr) return nullptr;
  slo_.Evaluate(*point, prev.has_value() ? &*prev : nullptr);
  return point;
}

const char* MissCauseName(MissCause cause) {
  switch (cause) {
    case MissCause::kNeverIndexed:
      return "never-indexed";
    case MissCause::kWithdrawn:
      return "withdrawn";
    case MissCause::kChurnLost:
      return "churn-lost";
  }
  return "unknown";
}

bool SpriteSystem::TermServesDoc(TermId term, DocId doc) const {
  const StatusOr<uint64_t> responsible =
      ring_.ResponsibleNode(RingKeyOf(term));
  if (!responsible.ok()) return false;
  auto it = indexing_.find(responsible.value());
  if (it == indexing_.end()) return false;
  const StoredPostingsPtr stored = it->second.Stored(term);
  return stored != nullptr && stored->FindDoc(doc, nullptr);
}

std::vector<MissAttribution> SpriteSystem::AttributeMisses(
    const corpus::Query& query, const std::vector<DocId>& missed) const {
  std::vector<MissAttribution> out;
  out.reserve(missed.size());
  TermDict& dict = TermDict::Global();
  const std::vector<std::string> terms = corpus::DedupTerms(query.terms);
  for (const DocId doc : missed) {
    MissAttribution attr;
    attr.doc = doc;
    const OwnedDocument* owned = nullptr;
    if (auto oit = doc_owner_.find(doc); oit != doc_owner_.end()) {
      owned = owners_.at(oit->second).document(doc);
    }
    // Scan the query terms for the strongest witness: a term in the doc's
    // *current* index set that the responsible peer cannot serve proves
    // churn; otherwise a term once published but since removed proves a
    // learning withdrawal; otherwise no query term was ever indexed.
    bool found_withdrawn = false;
    std::string withdrawn_term;
    std::string never_term;
    bool done = false;
    for (const std::string& term : terms) {
      // A term absent from the document can never be one of its index
      // terms; it says nothing about why the doc was missed.
      if (owned != nullptr && owned->content->terms.Count(term) == 0) {
        continue;
      }
      const TermId id = dict.Lookup(term);
      if (owned != nullptr && owned->IsIndexed(term)) {
        if (id == kInvalidTermId || !TermServesDoc(id, doc)) {
          attr.cause = MissCause::kChurnLost;
          attr.term = term;
          done = true;
          break;
        }
        continue;  // indexed and serveable: not this term's fault
      }
      if (id != kInvalidTermId && explain_.EverPublished(doc, id)) {
        if (!found_withdrawn) {
          found_withdrawn = true;
          withdrawn_term = term;
        }
      } else if (never_term.empty()) {
        never_term = term;
      }
    }
    if (!done) {
      if (found_withdrawn) {
        attr.cause = MissCause::kWithdrawn;
        attr.term = withdrawn_term;
      } else {
        // Also the fallback when every in-doc query term is indexed and
        // serveable (a doc ranked below a finite-k cutoff): the weakest
        // diagnosis, with the first query term as a nominal witness.
        attr.cause = MissCause::kNeverIndexed;
        attr.term = never_term.empty() && !terms.empty() ? terms.front()
                                                         : never_term;
      }
    }
    out.push_back(std::move(attr));
  }
  return out;
}

void SpriteSystem::UpdateMembershipGauges() {
  metrics_.Set("peers.alive", static_cast<double>(ring_.num_alive()));
  metrics_.Set("peers.total", static_cast<double>(ring_.num_total()));
}

PeerId SpriteSystem::PickPeer(uint64_t hash) const {
  SPRITE_CHECK(!peer_ids_.empty());
  const size_t n = peer_ids_.size();
  size_t idx = static_cast<size_t>(hash % n);
  for (size_t scanned = 0; scanned < n; ++scanned) {
    const PeerId id = peer_ids_[(idx + scanned) % n];
    const dht::ChordNode* node = ring_.node(id);
    if (node != nullptr && node->alive) return id;
  }
  SPRITE_CHECK(false);  // no peers alive
  return 0;
}

PostingEntry SpriteSystem::MakePosting(const OwnedDocument& owned,
                                       const std::string& term,
                                       PeerId owner) const {
  PostingEntry entry;
  entry.doc = owned.content->id;
  entry.owner = owner;
  entry.term_freq = owned.content->terms.Count(term);
  entry.doc_length = static_cast<uint32_t>(owned.content->length());
  entry.num_distinct_terms =
      static_cast<uint32_t>(owned.content->num_distinct_terms());
  return entry;
}

StatusOr<dht::ChordRing::LookupResult> SpriteSystem::CommitRoute(
    const dht::ChordRing::LookupPlan& plan, uint64_t* hops) {
  StatusOr<dht::ChordRing::LookupResult> target = ring_.CommitLookup(plan);
  bus_.ChargeLookupHops(static_cast<int>(plan.path.size()));
  if (hops != nullptr) *hops = plan.path.size();
  return target;
}

Status SpriteSystem::PublishTerm(PeerId owner, TermId term,
                                 const dht::ChordRing::LookupPlan& route,
                                 const PostingEntry& entry) {
  obs::ScopedSpan span(&tracer_, "publish.term", PeerNameOf(owner));
  span.Annotate("term", TermDict::Global().TermOf(term));
  StatusOr<dht::ChordRing::LookupResult> target = CommitRoute(route);
  if (!target.ok()) return target.status();
  const net::Charge sent =
      bus_.CostSend(target->node, p2p::MessageType::kPublishTerm,
                    p2p::kTermBytes + p2p::kPostingEntryBytes,
                    DirectCallOptions());
  tracer_.clock().AdvanceMs(latency_.RequestMs(1) +
                            latency_.TransferMs(sent.wire_bytes));
  indexing_.at(target->node).AddPosting(term, entry);
  // Feed the miss-attribution ledger: this (doc, term) pair has now been
  // published at least once, so a later absence means withdrawn (or
  // churn), not never-indexed.
  explain_.NotePublish(entry.doc, term);
  return Status::OK();
}

Status SpriteSystem::WithdrawTerm(PeerId owner, TermId term,
                                  const dht::ChordRing::LookupPlan& route,
                                  DocId doc) {
  obs::ScopedSpan span(&tracer_, "withdraw.term", PeerNameOf(owner));
  span.Annotate("term", TermDict::Global().TermOf(term));
  StatusOr<dht::ChordRing::LookupResult> target = CommitRoute(route);
  if (!target.ok()) return target.status();
  const net::Charge sent =
      bus_.CostSend(target->node, p2p::MessageType::kWithdrawTerm,
                    p2p::kTermBytes, DirectCallOptions());
  tracer_.clock().AdvanceMs(latency_.RequestMs(1) +
                            latency_.TransferMs(sent.wire_bytes));
  indexing_.at(target->node).RemovePosting(term, doc);
  return Status::OK();
}

Status SpriteSystem::ShareDocument(const corpus::Document& doc) {
  SharePlan plan;
  std::unordered_set<DocId> pending;
  SPRITE_RETURN_IF_ERROR(SharePrologue(&doc, pending, plan));
  PlanShare(plan);
  return CommitShare(plan);
}

Status SpriteSystem::ShareCorpus(const corpus::Corpus& corpus) {
  // The first invalid document truncates the batch exactly where a loop of
  // ShareDocument() calls would have stopped — earlier documents still
  // share, and its status is returned after their commits.
  obs::ScopedWallTimer prologue_wall(&wall_, "perf.epoch.share.prologue");
  Status deferred = Status::OK();
  std::vector<SharePlan> plans;
  plans.reserve(corpus.docs().size());
  std::unordered_set<DocId> pending;
  for (const corpus::Document& doc : corpus.docs()) {
    SharePlan plan;
    deferred = SharePrologue(&doc, pending, plan);
    if (!deferred.ok()) break;
    plans.push_back(std::move(plan));
  }
  prologue_wall.Stop();
  obs::ScopedWallTimer plan_wall(&wall_, "perf.epoch.share.plan");
  pool().ParallelFor(plans.size(), [&](size_t i) { PlanShare(plans[i]); });
  plan_wall.Stop();
  obs::ScopedWallTimer commit_wall(&wall_, "perf.epoch.share.commit");
  for (const SharePlan& plan : plans) {
    SPRITE_RETURN_IF_ERROR(CommitShare(plan));
  }
  return deferred;
}

Status SpriteSystem::SharePrologue(const corpus::Document* doc,
                                   std::unordered_set<DocId>& pending,
                                   SharePlan& plan) {
  if (doc->terms.empty()) {
    return Status::InvalidArgument("cannot share an empty document");
  }
  if (doc_owner_.count(doc->id) > 0 || !pending.insert(doc->id).second) {
    return Status::AlreadyExists(
        StrFormat("document %u is already shared", doc->id));
  }
  plan.doc = doc;
  plan.initial = OwnerPeer::SelectInitialTerms(*doc, config_.initial_terms);
  TermDict& dict = TermDict::Global();
  plan.ids.reserve(plan.initial.size());
  for (const std::string& term : plan.initial) {
    plan.ids.push_back(dict.Intern(term));
  }
  return Status::OK();
}

void SpriteSystem::PlanShare(SharePlan& plan) const {
  // A deterministic owner peer; mixing the id avoids correlating document
  // ids with ring positions.
  plan.owner = PickPeer(0x9e3779b97f4a7c15ULL * (plan.doc->id + 1));
  plan.routes.reserve(plan.ids.size());
  for (const TermId id : plan.ids) {
    plan.routes.push_back(PlanRoute(plan.owner, id));
  }
}

Status SpriteSystem::CommitShare(const SharePlan& plan) {
  const corpus::Document& doc = *plan.doc;
  obs::ScopedSpan span(&tracer_, "share.document", PeerNameOf(plan.owner));
  span.Annotate("doc", StrFormat("%u", doc.id));
  OwnedDocument& owned = owners_.at(plan.owner).AdoptDocument(&doc);
  doc_owner_[doc.id] = plan.owner;
  owned.index_terms = plan.initial;
  // A routing failure surfaces mid-document, with the earlier terms
  // already published.
  for (size_t t = 0; t < plan.initial.size(); ++t) {
    SPRITE_RETURN_IF_ERROR(
        PublishTerm(plan.owner, plan.ids[t], plan.routes[t],
                    MakePosting(owned, plan.initial[t], plan.owner)));
  }
  return Status::OK();
}

namespace {

// The query's deduplicated terms, interned, in query order.
std::vector<TermId> InternQueryTerms(const corpus::Query& query) {
  TermDict& dict = TermDict::Global();
  const std::vector<std::string> deduped = corpus::DedupTerms(query.terms);
  std::vector<TermId> ids;
  ids.reserve(deduped.size());
  for (const std::string& term : deduped) ids.push_back(dict.Intern(term));
  return ids;
}

}  // namespace

QueryRecord SpriteSystem::MakeQueryRecord(const corpus::Query& query) {
  QueryRecord record;
  record.id = query.id;
  record.terms = InternQueryTerms(query);
  record.hash_key = ring_.space().KeyForString(query.CanonicalKey());
  record.seq = ++seq_counter_;
  return record;
}

void SpriteSystem::RecordQuery(const corpus::Query& query) {
  if (query.empty()) return;
  RecordPlan plan;
  plan.rec = MakeQueryRecord(query);
  PlanRecord(plan);
  CommitRecord(plan);
}

void SpriteSystem::RecordQueryEpoch(
    const std::vector<const corpus::Query*>& queries) {
  obs::ScopedWallTimer prologue_wall(&wall_, "perf.epoch.record.prologue");
  std::vector<RecordPlan> plans;
  plans.reserve(queries.size());
  for (const corpus::Query* q : queries) {
    if (q->empty()) continue;
    plans.emplace_back();
    plans.back().rec = MakeQueryRecord(*q);
  }
  prologue_wall.Stop();
  obs::ScopedWallTimer plan_wall(&wall_, "perf.epoch.record.plan");
  pool().ParallelFor(plans.size(), [&](size_t i) { PlanRecord(plans[i]); });
  plan_wall.Stop();
  obs::ScopedWallTimer commit_wall(&wall_, "perf.epoch.record.commit");
  for (const RecordPlan& plan : plans) CommitRecord(plan);
}

void SpriteSystem::PlanRecord(RecordPlan& plan) const {
  plan.origin = PickPeer(plan.rec.hash_key);
  plan.routes.reserve(plan.rec.terms.size());
  for (const TermId term : plan.rec.terms) {
    plan.routes.push_back(PlanRoute(plan.origin, term));
  }
}

void SpriteSystem::CommitRecord(const RecordPlan& plan) {
  obs::ScopedSpan span(&tracer_, "record.query", PeerNameOf(plan.origin));
  span.Annotate("query", StrFormat("%u", plan.rec.id));
  // One history entry per responsible peer: a peer covering several of the
  // query's terms must not burn several slots of its bounded history on the
  // same issuance (the per-term lookups still happen — the origin needs
  // them to find the peers). The first successful route wins.
  std::unordered_set<PeerId> recorded_at;
  const TermDict& dict = TermDict::Global();
  for (size_t t = 0; t < plan.rec.terms.size(); ++t) {
    obs::ScopedSpan route_span(&tracer_, "route", PeerNameOf(plan.origin));
    route_span.Annotate("term", dict.TermOf(plan.rec.terms[t]));
    StatusOr<dht::ChordRing::LookupResult> target =
        CommitRoute(plan.routes[t]);
    route_span.End();
    if (!target.ok()) continue;  // unreachable arc: this copy is lost
    if (recorded_at.insert(target->node).second) {
      indexing_.at(target->node).RecordQuery(plan.rec);
    }
  }
}

StatusOr<ir::RankedList> SpriteSystem::Search(const corpus::Query& query,
                                              size_t k, bool record) {
  if (query.empty()) return Status::InvalidArgument("empty query");
  // Host-side wall profiling (DESIGN.md §13): the total timer covers every
  // exit (including cache-hit fast paths) via its destructor.
  obs::ScopedWallTimer total_wall(&wall_, "perf.search.total");
  SearchPlan plan;
  SearchPrologue(query, record, plan);
  // On the calling thread the route plans are part of this search's route
  // layer; a batch charges them to perf.epoch.search.plan instead.
  const bool wall_on = wall_.enabled();
  const uint64_t plan_start_ns = wall_on ? obs::MonotonicNowNs() : 0;
  PlanSearch(query, plan);
  if (wall_on) plan.plan_wall_ns = obs::MonotonicNowNs() - plan_start_ns;
  return CommitSearch(query, k, plan);
}

void SpriteSystem::SearchPrologue(const corpus::Query& query, bool record,
                                  SearchPlan& plan) {
  plan.issuance = ++search_counter_;
  // The issuance's record piggybacks on the search's own term requests
  // (Section 3's normal operation): each directly contacted peer caches it
  // in the same exchange, costing extra bytes but no additional Chord
  // lookups or messages. Standalone RecordQuery() stays available for
  // seeding history without executing the query.
  if (record) plan.rec = MakeQueryRecord(query);
  plan.terms = record ? plan.rec->terms : InternQueryTerms(query);
}

// One search as its stages record it (DESIGN.md §12): the cache, route/
// fetch and rank stages fill it; FinishSearch derives metrics, span summary,
// result-cache entry and explain record from it, whichever path was taken.
struct SpriteSystem::SearchRecord {
  // How a term's list was obtained.
  enum class Via : uint8_t {
    kFetched,       // routed to and fetched from its indexing peer
    kPostingCache,  // the querying peer's posting tier
    kHotExtra,      // rode in another term's response (hot-term cache)
    kResultCache,   // a source of the served result-cache entry (no list)
    kSkipped,       // unreachable, skipped by policy (no list)
  };
  struct Term {
    TermId term = kInvalidTermId;
    PeerId peer = 0;       // the serving peer; 0 when skipped
    uint32_t df = 0;       // postings obtained: n'_k
    uint64_t version = 0;  // the serving peer's term version, when known
    Via via = Via::kFetched;
    double idf = 0.0;      // written by the rank stage, for the explain
  };

  // The entry of `term` that carries a list, if any.
  Term* Listed(TermId term) {
    for (Term& t : terms) {
      if (t.term == term && t.via != Via::kSkipped) return &t;
    }
    return nullptr;
  }
  void AddList(TermId term, PeerId peer, uint64_t version, Via via,
               PostingListPtr list) {
    const size_t df = list->size();
    terms.push_back({term, peer, static_cast<uint32_t>(df), version, via});
    postings += df;
    lists.push_back({term, std::move(list)});
  }
  // Charges one direct exchange to the fetch phase. The simulated clock
  // moves by its round trips and transfer here; the bus already advanced
  // it by the retry backoff.
  void AddCost(const net::Charge& c, const obs::LatencyModel& latency,
               obs::SimClock& clock) {
    requests += c.attempts;
    wire_bytes += c.wire_bytes;
    backoff_ms += c.backoff_ms;
    clock.AdvanceMs(latency.OperationMs(0, c.attempts, c.wire_bytes));
  }
  size_t Count(Via via) const {
    size_t n = 0;
    for (const Term& t : terms) n += t.via == via;
    return n;
  }

  std::vector<Term> terms;           // in visit order
  std::vector<RetrievedList> lists;  // what the rank stage ranks
  std::unordered_set<PeerId> recorded_at;  // took the piggybacked record
  cache::ResultKey result_key;             // set when the result tier is on
  bool result_cache_hit = false;
  uint64_t route_hops = 0;
  // Fetch-phase cost: every direct exchange's net::Charge, summed.
  uint64_t requests = 0;
  uint64_t wire_bytes = 0;
  double backoff_ms = 0.0;
  size_t postings = 0;
  ir::RankedList results;
  uint64_t route_wall_ns = 0;  // perf.search.route
  uint64_t fetch_wall_ns = 0;  // perf.search.fetch
  // Explain only: the accumulators and per-doc (term, w_Qj*w_ij) pairs.
  RankAccumMap acc;
  std::unordered_map<DocId, std::vector<std::pair<std::string, double>>>
      contribs;
};

void SpriteSystem::NoteServed(PeerId peer, const SearchPlan& plan,
                              SearchRecord& record) {
  query_load_[peer] += 1;
  metrics_.Add("peer.queries_served",
               StrFormat("peer-%llu", static_cast<unsigned long long>(peer)),
               1);
  if (plan.rec.has_value() && record.recorded_at.insert(peer).second) {
    indexing_.at(peer).RecordQuery(*plan.rec);
  }
}

template <typename Sources>
bool SpriteSystem::ConsultCache(cache::CacheTier tier, TermId posting_term,
                                const Sources* sources, const SearchPlan& plan,
                                SearchRecord& record) {
  // The lookup itself takes no simulated time, so its span opens here.
  obs::ScopedSpan lookup_span(&tracer_, "cache.lookup",
                              PeerNameOf(plan.querying_peer));
  const bool result_tier = tier == cache::CacheTier::kResult;
  lookup_span.Annotate("tier", result_tier ? "result" : "posting");
  if (!result_tier) {
    lookup_span.Annotate("term", TermDict::Global().TermOf(posting_term));
  }
  if (sources == nullptr) {
    lookup_span.Annotate("outcome", "miss");
    return false;
  }
  // The one staleness predicate: the cached peer is still the term's
  // responsible (so alive) node and holds it at the cached version.
  const auto current = [this](const auto& entry) {
    const auto& [term, source] = entry;
    const StatusOr<uint64_t> responsible =
        ring_.ResponsibleNode(RingKeyOf(term));
    if (!responsible.ok() || responsible.value() != source.peer) return false;
    auto it = indexing_.find(source.peer);
    return it != indexing_.end() &&
           it->second.TermVersion(term) == source.version;
  };
  if (!cache_.validate()) {
    // Blind serving is free but may serve stale data, which stale_serves
    // measures instead of hiding.
    if (!std::all_of(sources->begin(), sources->end(), current)) {
      cache_.NoteStaleServe(tier);
    }
    lookup_span.Annotate("outcome", "hit");
    return true;
  }
  // The version-check protocol: one direct kVersionCheck round trip per
  // source peer, in ascending id order, verifies all of that peer's terms.
  cache_.NoteValidation(tier);
  std::vector<PeerId> peers;
  for (const auto& source : *sources) peers.push_back(source.second.peer);
  std::sort(peers.begin(), peers.end());
  peers.erase(std::unique(peers.begin(), peers.end()), peers.end());
  bool all_current = true;
  for (const PeerId peer_id : peers) {
    size_t num_terms = 0;
    bool peer_current = true;
    for (const auto& entry : *sources) {
      if (entry.second.peer != peer_id) continue;
      ++num_terms;
      peer_current = peer_current && current(entry);
    }
    obs::ScopedSpan span(&tracer_, "cache.validate", PeerNameOf(peer_id));
    span.Annotate("terms", StrFormat("%zu", num_terms));
    // A direct exchange to the cached address (no Chord routing). A
    // departed peer times out after the configured retries, every attempt
    // and backoff wait charged; with send_retries = 0, one request leg.
    net::Charge exchange = bus_.BeginExchange(
        peer_id, p2p::MessageType::kVersionCheck,
        num_terms * (p2p::kTermBytes + p2p::kVersionBytes) +
            (plan.rec.has_value() ? p2p::kQueryRecordBytes : 0),
        DirectCallOptions());
    const bool alive = exchange.status.ok();
    if (alive) {
      NoteServed(peer_id, plan, record);
      exchange.wire_bytes += bus_.CompleteExchange(  // the verdict
          p2p::MessageType::kVersionCheck, p2p::kVersionBytes);
    }
    record.AddCost(exchange, latency_, tracer_.clock());
    peer_current = alive && peer_current;
    span.Annotate("outcome",
                  !alive ? "dead" : peer_current ? "current" : "stale");
    all_current = all_current && peer_current;
  }
  if (!all_current) cache_.NoteStaleReject(tier);
  lookup_span.Annotate("outcome", all_current ? "hit" : "stale");
  return all_current;
}

StatusOr<ir::RankedList> SpriteSystem::CommitSearch(const corpus::Query& query,
                                                    size_t k,
                                                    const SearchPlan& plan) {
  // Its children advance the simulated clock by exactly the costs
  // FinishSearch sums, so the tree lasts the total_ms it reports.
  obs::ScopedSpan search_span(&tracer_, "search",
                              PeerNameOf(plan.querying_peer));
  search_span.Annotate("query", StrFormat("%u", query.id));
  search_span.Annotate("terms", StrFormat("%zu", plan.terms.size()));
  SearchRecord record;
  if (!ServeFromResultCache(plan, k, record)) {
    SPRITE_RETURN_IF_ERROR(RouteAndFetch(plan, record));
    RankSearch(plan, k, record);
  }
  FinishSearch(plan, k, record, search_span);
  return std::move(record.results);
}

bool SpriteSystem::ServeFromResultCache(const SearchPlan& plan, size_t k,
                                        SearchRecord& record) {
  if (!cache_.result_enabled()) return false;
  record.result_key = cache::MakeResultKey(plan.terms, k);
  const cache::CachedResult* hit = cache_.LookupResult(
      plan.querying_peer, record.result_key, tracer_.clock().now_ms());
  if (!ConsultCache(cache::CacheTier::kResult, kInvalidTermId,
                    hit != nullptr ? &hit->sources : nullptr, plan, record)) {
    if (hit) cache_.InvalidateResult(plan.querying_peer, record.result_key);
    return false;
  }
  // A hit answers the query for the cost of its validation exchanges: no
  // routing, no postings, no ranking.
  record.result_cache_hit = true;
  record.results = hit->results;
  for (const auto& [term, source] : hit->sources) {
    record.terms.push_back({term, source.peer, 0, source.version,
                            SearchRecord::Via::kResultCache});
  }
  return true;
}

bool SpriteSystem::ServeFromPostingCache(TermId term, const SearchPlan& plan,
                                         SearchRecord& record) {
  if (!cache_.posting_enabled()) return false;
  const cache::CachedPostings* hit = cache_.LookupPostings(
      plan.querying_peer, term, tracer_.clock().now_ms());
  const std::array<std::pair<TermId, cache::TermSource>, 1> sources = {
      {{term, hit != nullptr ? hit->source : cache::TermSource{}}}};
  if (!ConsultCache(cache::CacheTier::kPosting, term,
                    hit != nullptr ? &sources : nullptr, plan, record)) {
    if (hit) cache_.InvalidatePostings(plan.querying_peer, term);
    return false;
  }
  // The memoized decode: repeated hits share one snapshot.
  record.AddList(term, hit->source.peer, hit->source.version,
                 SearchRecord::Via::kPostingCache, hit->postings->Snapshot());
  return true;
}

Status SpriteSystem::RouteAndFetch(const SearchPlan& plan,
                                   SearchRecord& record) {
  using Via = SearchRecord::Via;
  const TermDict& dict = TermDict::Global();
  const bool wall_on = wall_.enabled();
  record.route_wall_ns = plan.plan_wall_ns;
  const size_t num_terms = plan.terms.size();
  record.terms.reserve(num_terms);
  record.lists.reserve(num_terms);
  for (size_t i = 0; i < num_terms; ++i) {
    // PlanSearch's contact rotation picks the first term visited.
    const size_t t = (plan.start + i) % num_terms;
    const TermId term = plan.terms[t];
    if (record.Listed(term) != nullptr) continue;  // a hot-term extra
    if (ServeFromPostingCache(term, plan, record)) continue;

    const uint64_t route_start_ns = wall_on ? obs::MonotonicNowNs() : 0;
    obs::ScopedSpan route_span(&tracer_, "route",
                               PeerNameOf(plan.querying_peer));
    route_span.Annotate("term", dict.TermOf(term));
    // A failed route still traversed (and timed) its hops, so they count
    // toward the search's route cost either way.
    uint64_t hops = 0;
    StatusOr<dht::ChordRing::LookupResult> route =
        CommitRoute(plan.routes[t], &hops);
    route_span.End();
    if (wall_on) {
      record.route_wall_ns += obs::MonotonicNowNs() - route_start_ns;
    }
    record.route_hops += hops;
    if (!route.ok()) {
      record.terms.push_back({term, 0, 0, 0, Via::kSkipped});
      if (config_.skip_unreachable_terms) continue;  // Section 7, scheme 1
      return route.status();
    }

    // One fetch span per exchange, attributed to the serving peer.
    const PeerId target = route->node;
    const uint64_t fetch_start_ns = wall_on ? obs::MonotonicNowNs() : 0;
    obs::ScopedSpan fetch_span(&tracer_, "fetch", PeerNameOf(target));
    const size_t postings_before = record.postings;
    net::Charge exchange = bus_.BeginExchange(
        target, p2p::MessageType::kQueryRequest,
        p2p::kTermBytes + (plan.rec.has_value() ? p2p::kQueryRecordBytes : 0),
        DirectCallOptions());
    NoteServed(target, plan, record);
    IndexingPeer& peer = indexing_.at(target);
    // Zero-copy fetch: the peer's immutable decoded snapshot is shared and
    // charged as if the full list crossed the wire. The posting cache keeps
    // the stored (compressed) handle instead.
    StoredPostingsPtr stored = peer.Stored(term);
    PostingListPtr plist = stored != nullptr ? stored->Snapshot() : nullptr;
    if (plist == nullptr) plist = EmptyPostingList();
    exchange.wire_bytes +=
        bus_.CompleteExchange(p2p::MessageType::kQueryResponse,
                              plist->size() * p2p::kPostingEntryBytes);
    // The response carries the serving peer's term version (one uint64),
    // which is what makes the fetched list cacheable and later checkable.
    const cache::TermSource source{target, peer.TermVersion(term)};
    if (cache_.posting_enabled()) {
      if (stored == nullptr) {
        stored = StoredPostings::Empty(peer.store_options());
      }
      cache_.InsertPostings(plan.querying_peer, term,
                            {std::move(stored), source},
                            tracer_.clock().now_ms());
    }
    record.AddList(term, target, source.version, Via::kFetched,
                   std::move(plist));
    // Hot-term caching: the peer's cached lists for the query's other terms
    // ride in the same response — bytes, but no request and no lookup
    // (Section 7: "the peer responsible for the hot term will not be
    // contacted").
    if (config_.use_hot_term_cache) {
      for (const TermId other : plan.terms) {
        if (record.Listed(other) != nullptr) continue;
        PostingListPtr cached = peer.CachedPostings(other);
        if (cached == nullptr) continue;
        exchange.wire_bytes +=
            bus_.CompleteExchange(p2p::MessageType::kQueryResponse,
                                  cached->size() * p2p::kPostingEntryBytes);
        record.AddList(other, target, 0, Via::kHotExtra, std::move(cached));
      }
    }
    record.AddCost(exchange, latency_, tracer_.clock());
    fetch_span.Annotate("term", dict.TermOf(term));
    fetch_span.Annotate(
        "peer_id", StrFormat("%llu", static_cast<unsigned long long>(target)));
    fetch_span.Annotate(
        "bytes", StrFormat("%llu", static_cast<unsigned long long>(
                                       exchange.wire_bytes)));
    fetch_span.Annotate(
        "postings", StrFormat("%zu", record.postings - postings_before));
    if (wall_on) {
      record.fetch_wall_ns += obs::MonotonicNowNs() - fetch_start_ns;
    }
  }
  return Status::OK();
}

void SpriteSystem::RankSearch(const SearchPlan& plan, size_t k,
                              SearchRecord& record) {
  // Lee et al. similarity at the querying peer, with the indexed document
  // frequency n'_k (the list length) and the fixed N of Section 4.
  const bool wall_on = wall_.enabled();
  const bool explain_on = explain_.enabled();
  const uint64_t rank_start_ns = wall_on ? obs::MonotonicNowNs() : 0;
  obs::ScopedSpan rank_span(&tracer_, "rank",
                            PeerNameOf(plan.querying_peer));
  rank_span.Annotate("postings", StrFormat("%zu", record.postings));
  tracer_.clock().AdvanceMs(latency_.RankMs(record.postings));
  // The plan's pre-ranking is reusable iff the commit fetched exactly the
  // snapshots the plan ranked — same lists, same order, by pointer
  // identity — and no explain decomposition is needed. The accumulation
  // below is then bit-for-bit the same arithmetic over the same inputs.
  if (plan.has_ranked && !explain_on &&
      std::equal(record.lists.begin(), record.lists.end(),
                 plan.ranked_over.begin(), plan.ranked_over.end(),
                 [](const RetrievedList& l, const PostingListPtr& p) {
                   return l.postings == p;
                 })) {
    record.results = plan.ranked;
  } else {
    // core/ranking.h, shared with PreRankSearch and the live ClusterNode;
    // the hooks feed the explain ledger without touching the arithmetic.
    struct ExplainHooks {
      bool on;
      SearchRecord& record;
      void OnListIdf(TermId term, double idf) {
        if (!on) return;
        if (SearchRecord::Term* t = record.Listed(term)) t->idf = idf;
      }
      void OnContribution(TermId term, const PostingEntry& p, double w) {
        if (!on) return;
        record.contribs[p.doc].push_back({TermDict::Global().TermOf(term), w});
      }
    };
    record.results = RankRetrievedLists(record.lists, config_.idf_corpus_size,
                                        record.postings, k, &record.acc,
                                        ExplainHooks{explain_on, record});
  }
  rank_span.End();
  if (wall_on) {
    wall_.RecordNs("perf.search.rank", obs::MonotonicNowNs() - rank_start_ns);
    wall_.RecordNs("perf.search.route", record.route_wall_ns);
    wall_.RecordNs("perf.search.fetch", record.fetch_wall_ns);
  }
}

void SpriteSystem::FinishSearch(const SearchPlan& plan, size_t k,
                                SearchRecord& record,
                                obs::ScopedSpan& search_span) {
  using Via = SearchRecord::Via;
  // Routing (sequential hops), fetching (round trips, transfer, retry
  // backoff), ranking (local merge). A result-cache hit has no hops and no
  // postings: its route and rank terms are exactly 0.
  const double route_ms = latency_.HopsMs(record.route_hops);
  const double fetch_ms =
      latency_.OperationMs(0, record.requests, record.wire_bytes) +
      record.backoff_ms;
  const double rank_ms = latency_.RankMs(record.postings);
  const double total_ms = route_ms + fetch_ms + rank_ms;
  metrics_.Add("search.queries");
  // A result-cache hit never reached the route stage.
  if (!record.result_cache_hit) {
    metrics_.Add("search.terms_skipped", record.Count(Via::kSkipped));
  }
  metrics_.Observe("search.route_hops",
                   static_cast<double>(record.route_hops));
  metrics_.Observe("search.postings_fetched",
                   static_cast<double>(record.postings));
  metrics_.Observe("search.results",
                   static_cast<double>(record.results.size()));
  metrics_.Observe("latency.search.route_ms", route_ms);
  metrics_.Observe("latency.search.fetch_ms", fetch_ms);
  metrics_.Observe("latency.search.rank_ms", rank_ms);
  metrics_.Observe("latency.search.total_ms", total_ms);
  if (record.result_cache_hit) search_span.Annotate("cache", "hit");
  search_span.Annotate("results", StrFormat("%zu", record.results.size()));
  search_span.Annotate("total_ms", StrFormat("%.3f", total_ms));

  // Only a fully attributable result is cacheable: no term skipped and none
  // from a hot-term extra, whose version is unknown.
  if (cache_.result_enabled() && !record.result_cache_hit &&
      record.Count(Via::kSkipped) + record.Count(Via::kHotExtra) == 0) {
    cache::CachedResult entry{record.results, {}};
    for (const SearchRecord::Term& t : record.terms) {
      entry.sources.emplace(t.term, cache::TermSource{t.peer, t.version});
    }
    cache_.InsertResult(plan.querying_peer, record.result_key,
                        std::move(entry), tracer_.clock().now_ms());
  }

  // Explain ledger: per-term provenance, per-candidate contributions.
  if (!explain_.enabled()) return;
  const TermDict& dict = TermDict::Global();
  obs::SearchExplain se{plan.issuance, "", k, record.result_cache_hit, {}, {}};
  for (const TermId term : plan.terms) {
    if (!se.query.empty()) se.query += ' ';
    se.query += dict.TermOf(term);
  }
  for (const SearchRecord::Term& t : record.terms) {
    se.terms.push_back(obs::TermExplain{
        dict.TermOf(t.term), t.peer, t.df, t.idf,
        /*from_cache=*/t.via != Via::kFetched && t.via != Via::kSkipped,
        /*skipped=*/t.via == Via::kSkipped});
  }
  const size_t keep =
      std::min(record.results.size(), explain_.options().max_candidates);
  for (size_t i = 0; i < keep; ++i) {
    obs::CandidateExplain ce{record.results[i].doc, record.results[i].score,
                             0, {}};
    if (auto it = record.acc.find(ce.doc); it != record.acc.end()) {
      ce.distinct_terms = it->second.distinct_terms;
    }
    if (auto it = record.contribs.find(ce.doc); it != record.contribs.end()) {
      ce.contributions = std::move(it->second);
    }
    se.candidates.push_back(std::move(ce));
  }
  explain_.RecordSearch(std::move(se));
}

void SpriteSystem::PlanSearch(const corpus::Query& query,
                              SearchPlan& plan) const {
  // The query's canonical hash serves both the querying-peer choice and
  // the contact rotation; compute the MD5 once.
  const uint64_t canonical_key =
      ring_.space().KeyForString(query.CanonicalKey());
  plan.querying_peer =
      PickPeer(canonical_key ^ (0x517cc1b727220a95ULL * (query.id + 1)) ^
               (0x2545f4914f6cdd1dULL * plan.issuance));
  // With caching enabled, different queriers start from different term
  // positions; first contact — and with it the serving load of cached hot
  // pairs — then spreads across the terms' peers instead of always landing
  // on the first (typically hottest) term's peer.
  plan.start = 0;
  if (config_.use_hot_term_cache && plan.terms.size() > 1) {
    plan.start = static_cast<size_t>(
        (canonical_key ^ (plan.issuance * 0x9e3779b97f4a7c15ULL)) %
        plan.terms.size());
  }
  plan.routes.reserve(plan.terms.size());
  for (const TermId term : plan.terms) {
    plan.routes.push_back(PlanRoute(plan.querying_peer, term));
  }
}

void SpriteSystem::PreRankSearch(size_t k, SearchPlan& plan) const {
  // Attempted only when the commit will walk the plain no-cache fetch path
  // (the cache tiers, hot-term extras, and the explain decomposition all
  // change what ranking must observe). Nothing mutates a posting list
  // between plan and commit — searches only read the indexes — so the
  // snapshots gathered here are normally the very lists the commit
  // fetches; the commit verifies that by pointer identity and falls back
  // to live ranking otherwise.
  if (explain_.enabled() || cache_.enabled() || config_.use_hot_term_cache) {
    return;
  }
  size_t fetched = 0;
  plan.ranked_over.reserve(plan.terms.size());
  for (size_t i = 0; i < plan.terms.size(); ++i) {
    if (plan.routes[i].outcome != dht::ChordRing::LookupOutcome::kOk) {
      // With skip_unreachable_terms off the commit fails mid-query; do not
      // pre-rank a result that will never be returned.
      if (!config_.skip_unreachable_terms) return;
      continue;
    }
    const IndexingPeer& peer = indexing_.at(plan.routes[i].result.node);
    PostingListPtr plist = peer.Postings(plan.terms[i]);
    plan.ranked_over.push_back(plist != nullptr ? std::move(plist)
                                                : EmptyPostingList());
    fetched += plan.ranked_over.back()->size();
  }
  // core/ranking.h runs the identical accumulation CommitSearch uses (same
  // reserve, same per-posting association), so the reused scores are
  // bit-identical.
  plan.ranked =
      RankPostingLists(plan.ranked_over, config_.idf_corpus_size, fetched, k);
  plan.has_ranked = true;
}

std::vector<StatusOr<ir::RankedList>> SpriteSystem::SearchEpoch(
    const std::vector<const corpus::Query*>& queries, size_t k, bool record) {
  std::vector<StatusOr<ir::RankedList>> out;
  out.reserve(queries.size());
  // Fixed chunk size bounds the plans held at once. A chunk's plans see the
  // state before any of its commits, which is safe: searches never change
  // the ring the routes were planned on, and a pre-rank is reused only over
  // identical snapshots. The boundaries change no observable byte.
  constexpr size_t kChunk = 64;
  for (size_t base = 0; base < queries.size(); base += kChunk) {
    const size_t n = std::min(kChunk, queries.size() - base);
    const auto query = [&](size_t i) -> const corpus::Query& {
      return *queries[base + i];
    };
    std::vector<SearchPlan> plans(n);
    obs::ScopedWallTimer prologue_wall(&wall_, "perf.epoch.search.prologue");
    for (size_t i = 0; i < n; ++i) {
      if (!query(i).empty()) SearchPrologue(query(i), record, plans[i]);
    }
    prologue_wall.Stop();
    obs::ScopedWallTimer plan_wall(&wall_, "perf.epoch.search.plan");
    pool().ParallelFor(n, [&](size_t i) {
      if (query(i).empty()) return;
      PlanSearch(query(i), plans[i]);
      PreRankSearch(k, plans[i]);
    });
    plan_wall.Stop();
    obs::ScopedWallTimer commit_wall(&wall_, "perf.epoch.search.commit");
    for (size_t i = 0; i < n; ++i) {
      if (query(i).empty()) {
        out.push_back(Status::InvalidArgument("empty query"));
        continue;
      }
      obs::ScopedWallTimer total_wall(&wall_, "perf.search.total");
      out.push_back(CommitSearch(query(i), k, plans[i]));
    }
  }
  return out;
}

void SpriteSystem::ApplyIndexUpdate(PeerId owner_id, OwnedDocument& owned,
                                    const OwnerPeer::IndexUpdate& update) {
  metrics_.Add("learning.terms_removed", update.remove.size());
  metrics_.Add("learning.terms_added", update.add.size());
  TermDict& dict = TermDict::Global();
  for (const std::string& term : update.remove) {
    const TermId id = dict.Intern(term);
    WithdrawTerm(owner_id, id, PlanRoute(owner_id, id),
                 owned.content->id);  // best effort
  }
  for (const std::string& term : update.add) {
    const TermId id = dict.Intern(term);
    PublishTerm(owner_id, id, PlanRoute(owner_id, id),
                MakePosting(owned, term, owner_id));
  }
}

void SpriteSystem::RunLearningIteration() {
  metrics_.Add("learning.iterations");
  ++learning_round_;
  obs::ScopedSpan iter_span(&tracer_, "learning.iteration", "system");

  // One work unit per (alive owner, document), in the deterministic
  // std::map order the sequential loop iterated.
  struct LearnUnit {
    PeerId owner_id = 0;
    DocId doc_id = 0;
    OwnerPeer* owner = nullptr;
    OwnedDocument* owned = nullptr;
    // kLearned plan outputs.
    std::vector<TermId> poll_terms;
    std::vector<uint64_t> poll_keys;
    std::vector<dht::ChordRing::LookupPlan> routes;  // parallel to poll_terms
    std::map<PeerId, std::vector<TermId>> by_peer;
    std::vector<size_t> recs_per_peer;  // in by_peer iteration order
    uint64_t poll_hops = 0;
    size_t pulled_count = 0;
    // Common outputs.
    OwnerPeer::IndexUpdate update;
    std::vector<ScoredTerm> ranked;
  };
  obs::ScopedWallTimer prologue_wall(&wall_, "perf.epoch.learning.prologue");
  std::vector<LearnUnit> units;
  for (auto& [owner_id, owner] : owners_) {
    const dht::ChordNode* node = ring_.node(owner_id);
    if (node == nullptr || !node->alive) continue;
    for (auto& [doc_id, owned] : owner.mutable_documents()) {
      LearnUnit unit;
      unit.owner_id = owner_id;
      unit.doc_id = doc_id;
      unit.owner = &owner;
      unit.owned = &owned;
      units.push_back(std::move(unit));
    }
  }

  const bool is_static =
      config_.selection == TermSelectionPolicy::kStaticFrequency;
  const bool explain_on = explain_.enabled();
  prologue_wall.Stop();

  obs::ScopedWallTimer plan_wall(&wall_, "perf.epoch.learning.plan");
  // Plan (parallel): route planning, history polling and the Algorithm-1
  // retune touch only unit-local state — `owned` belongs to exactly one
  // unit, the peers' query histories and the ring are only read — so the
  // units are independent and this plan-all-then-commit-all schedule is
  // effect-equivalent to the sequential per-document interleaving.
  pool().ParallelFor(units.size(), [&](size_t u) {
    LearnUnit& unit = units[u];
    OwnedDocument& owned = *unit.owned;
    if (is_static) {
      unit.update = unit.owner->GrowStatic(owned, config_);
      return;
    }
    // Group the document's current terms by responsible indexing peer.
    // Index terms were interned when first published, so these Intern
    // calls are lookups — a worker can never assign a new
    // (schedule-dependent) id here. Ring keys come precomputed from the
    // dictionary (no MD5 on the poll path).
    TermDict& dict = TermDict::Global();
    unit.poll_terms.reserve(owned.index_terms.size());
    unit.poll_keys.reserve(owned.index_terms.size());
    for (const std::string& term : owned.index_terms) {
      const TermId id = dict.Intern(term);
      unit.poll_terms.push_back(id);
      unit.poll_keys.push_back(RingKeyOf(id));
    }
    unit.routes.reserve(unit.poll_terms.size());
    for (size_t t = 0; t < unit.poll_terms.size(); ++t) {
      unit.routes.push_back(
          ring_.PlanFindSuccessor(unit.owner_id, unit.poll_keys[t]));
      const dht::ChordRing::LookupPlan& route = unit.routes.back();
      if (route.outcome == dht::ChordRing::LookupOutcome::kOk) {
        unit.by_peer[route.result.node].push_back(unit.poll_terms[t]);
        unit.poll_hops += static_cast<uint64_t>(route.result.hops);
      }
    }
    // Pull the deduplicated incremental query history from each peer.
    std::vector<const QueryRecord*> pulled;
    unit.recs_per_peer.reserve(unit.by_peer.size());
    for (const auto& [peer_id, my_terms] : unit.by_peer) {
      std::vector<const QueryRecord*> recs =
          indexing_.at(peer_id).CollectQueriesForPoll(
              unit.poll_terms, unit.poll_keys, my_terms, owned.poll_cursor,
              ring_.space());
      unit.recs_per_peer.push_back(recs.size());
      pulled.insert(pulled.end(), recs.begin(), recs.end());
    }
    unit.pulled_count = pulled.size();
    unit.update = unit.owner->LearnAndRetune(
        owned, pulled, config_, explain_on ? &unit.ranked : nullptr);
  });

  plan_wall.Stop();
  // Commit (sequential, unit order): replay the effect stream — spans,
  // lookup stats, poll traffic, cursor advances, metrics, publications —
  // exactly as the sequential engine ordered it.
  obs::ScopedWallTimer commit_wall(&wall_, "perf.epoch.learning.commit");
  TermDict& dict = TermDict::Global();
  for (LearnUnit& unit : units) {
    OwnedDocument& owned = *unit.owned;
    if (is_static) {
      obs::ScopedSpan grow_span(&tracer_, "learning.grow",
                                PeerNameOf(unit.owner_id));
      grow_span.Annotate("doc", StrFormat("%u", unit.doc_id));
      ApplyIndexUpdate(unit.owner_id, owned, unit.update);
      if (explain_on) {
        RecordLearningDecisions(unit.owner_id, unit.doc_id, owned, {},
                                unit.update);
      }
      continue;
    }

    obs::ScopedSpan poll_span(&tracer_, "learning.poll",
                              PeerNameOf(unit.owner_id));
    poll_span.Annotate("doc", StrFormat("%u", unit.doc_id));
    for (size_t t = 0; t < unit.poll_terms.size(); ++t) {
      obs::ScopedSpan route_span(&tracer_, "route",
                                 PeerNameOf(unit.owner_id));
      route_span.Annotate("term", dict.TermOf(unit.poll_terms[t]));
      (void)CommitRoute(unit.routes[t]);
    }

    // Poll each peer with the full term list (Section 3's index update
    // message); the pulled records were gathered in the plan phase.
    uint64_t poll_bytes = 0;
    size_t peer_idx = 0;
    for (const auto& [peer_id, my_terms] : unit.by_peer) {
      const size_t nrecs = unit.recs_per_peer[peer_idx++];
      obs::ScopedSpan exchange_span(&tracer_, "poll.exchange",
                                    PeerNameOf(peer_id));
      uint64_t exchange_bytes =
          bus_.BeginExchange(peer_id, p2p::MessageType::kPollRequest,
                             unit.poll_terms.size() * p2p::kTermBytes,
                             DirectCallOptions())
              .wire_bytes;
      exchange_bytes += bus_.CompleteExchange(p2p::MessageType::kPollResponse,
                                              nrecs * p2p::kQueryRecordBytes);
      poll_bytes += exchange_bytes;
      tracer_.clock().AdvanceMs(latency_.RequestMs(1) +
                                latency_.TransferMs(exchange_bytes));
      exchange_span.Annotate("queries", StrFormat("%zu", nrecs));
    }
    // Advance the cursors only for terms whose indexing peer was
    // actually polled. A term whose route failed keeps its old cursor:
    // the queries cached at its (temporarily unreachable) peer have not
    // been offered yet and must still be pulled once the arc heals.
    for (const auto& [peer_id, my_terms] : unit.by_peer) {
      for (const TermId term : my_terms) {
        owned.poll_cursor[term] = seq_counter_;
      }
    }
    metrics_.Add("learning.polls", unit.by_peer.size());
    metrics_.Add("learning.pulled_queries", unit.pulled_count);
    metrics_.Observe("latency.learning.poll_ms",
                     latency_.OperationMs(unit.poll_hops,
                                          unit.by_peer.size(), poll_bytes));

    ApplyIndexUpdate(unit.owner_id, owned, unit.update);
    if (explain_on) {
      RecordLearningDecisions(unit.owner_id, unit.doc_id, owned, unit.ranked,
                              unit.update);
    }
  }
}

void SpriteSystem::RecordLearningDecisions(
    PeerId owner_id, DocId doc, const OwnedDocument& owned,
    const std::vector<ScoredTerm>& ranked,
    const OwnerPeer::IndexUpdate& update) {
  std::unordered_map<std::string, const ScoredTerm*> by_term;
  by_term.reserve(ranked.size());
  for (const ScoredTerm& st : ranked) by_term[st.term] = &st;
  const auto record = [&](const std::string& term, const char* verdict) {
    obs::LearningDecision d;
    d.round = learning_round_;
    d.doc = doc;
    d.owner = owner_id;
    d.term = term;
    d.verdict = verdict;
    if (auto it = by_term.find(term); it != by_term.end()) {
      d.score = it->second->score;
      d.query_freq = it->second->query_freq;
    }
    if (auto it = owned.stats.find(term); it != owned.stats.end()) {
      d.qscore = it->second.best_qscore;
      d.query_freq = it->second.query_freq;
    }
    explain_.RecordDecision(std::move(d));
  };
  for (const std::string& term : update.remove) record(term, "withdraw");
  for (const std::string& term : update.add) record(term, "publish");
}

void SpriteSystem::ReplicateIndexes() {
  if (config_.replication_factor == 0) return;
  obs::ScopedWallTimer run_wall(&wall_, "perf.replication.run");
  obs::ScopedSpan run_span(&tracer_, "replication.run", "system");
  for (auto& [peer_id, peer] : indexing_) {
    const dht::ChordNode* node = ring_.node(peer_id);
    if (node == nullptr || !node->alive) continue;
    if (peer.num_terms() == 0) continue;
    obs::ScopedSpan push_span(&tracer_, "replication.push",
                              PeerNameOf(peer_id));
    const std::vector<PeerId> succs =
        ring_.SuccessorsOf(peer_id, config_.replication_factor);
    uint64_t push_bytes = 0;
    uint64_t pushes = 0;
    // The index iterates in hash order; the push order fixes each
    // successor's replica-store insertion order and the message stream, so
    // pin it to the term ids.
    std::vector<std::pair<TermId, StoredPostingsPtr>> lists(
        peer.index().begin(), peer.index().end());
    std::sort(lists.begin(), lists.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [term, plist] : lists) {
      for (PeerId s : succs) {
        push_bytes +=
            bus_.CostSend(s, p2p::MessageType::kReplicate,
                          p2p::kTermBytes +
                              plist->size() * p2p::kPostingEntryBytes,
                          DirectCallOptions())
                .wire_bytes;
        ++pushes;
        // The successor adopts a shared snapshot; copy-on-write at either
        // end keeps replica and primary independent without a deep copy.
        indexing_.at(s).StoreReplica(term, plist);
      }
    }
    metrics_.Add("replication.pushes", pushes);
    if (pushes > 0) {
      // Successors are one overlay hop away; the transfer dominates.
      metrics_.Observe("latency.replication.push_ms",
                       latency_.OperationMs(0, pushes, push_bytes));
      tracer_.clock().AdvanceMs(latency_.OperationMs(0, pushes, push_bytes));
    }
    push_span.Annotate("pushes", StrFormat(
        "%llu", static_cast<unsigned long long>(pushes)));
    push_span.Annotate("bytes", StrFormat(
        "%llu", static_cast<unsigned long long>(push_bytes)));
  }
}

Status SpriteSystem::FailPeer(PeerId id) {
  Status s = ring_.Fail(id);
  if (s.ok()) {
    metrics_.Add("peers.failed");
    UpdateMembershipGauges();
  }
  return s;
}

void SpriteSystem::StabilizeNetwork(int rounds) {
  ring_.StabilizeAll(rounds);
}

size_t SpriteSystem::RunOverloadAdvisories(uint32_t threshold) {
  // Collect the overloaded (peer, term) pairs first; owners mutate the
  // indexes while we act on the advisories.
  const TermDict& dict = TermDict::Global();
  struct Advisory {
    TermId term = kInvalidTermId;
    PeerId peer_id = 0;
    PostingListPtr postings;  // decoded snapshot, frozen by immutability
  };
  std::vector<Advisory> advisories;
  for (const auto& [peer_id, peer] : indexing_) {
    const dht::ChordNode* node = ring_.node(peer_id);
    if (node == nullptr || !node->alive) continue;
    for (const auto& [term, plist] : peer.index()) {
      if (plist->size() > threshold) {
        advisories.push_back({term, peer_id, plist->Snapshot()});
      }
    }
  }
  // Id-keyed stores iterate in hash order; process advisories in spelling
  // order so replacement choices are stable across runs and platforms. The
  // same term can be overloaded on two peers at once (a replica left behind
  // by churn), and std::sort is not stable — break spelling ties on the
  // holding peer so those duplicates keep a fixed relative order too.
  std::sort(advisories.begin(), advisories.end(),
            [&dict](const Advisory& a, const Advisory& b) {
              const std::string& sa = dict.TermOf(a.term);
              const std::string& sb = dict.TermOf(b.term);
              if (sa != sb) return sa < sb;
              return a.peer_id < b.peer_id;
            });

  size_t replacements = 0;
  for (const Advisory& adv : advisories) {
    const std::string& adv_term = dict.TermOf(adv.term);
    for (const PostingEntry& posting : *adv.postings) {
      auto owner_it = owners_.find(posting.owner);
      if (owner_it == owners_.end()) continue;
      OwnedDocument* owned = owner_it->second.document(posting.doc);
      if (owned == nullptr || !owned->IsIndexed(adv_term)) continue;
      const net::Charge advisory =
          bus_.CostSend(posting.owner, p2p::MessageType::kAdvisory,
                        p2p::kTermBytes, DirectCallOptions());
      if (!advisory.status.ok()) continue;  // a down owner changes nothing

      // The owner discards the popular term and publishes an analogously
      // important one: its best-ranked unindexed candidate, falling back
      // to the next most frequent document term.
      std::string replacement;
      std::vector<ScoredTerm> ranked = ProcessQueriesAndRank(
          owned->content->terms, owned->stats, {}, config_.score_variant);
      for (const ScoredTerm& cand : ranked) {
        if (cand.term != adv_term && !owned->IsIndexed(cand.term)) {
          replacement = cand.term;
          break;
        }
      }
      if (replacement.empty()) {
        for (const auto& tf : owned->content->terms.SortedTerms()) {
          if (tf.term != adv_term && !owned->IsIndexed(tf.term)) {
            replacement = tf.term;
            break;
          }
        }
      }

      WithdrawTerm(posting.owner, adv.term, PlanRoute(posting.owner, adv.term),
                   posting.doc);
      auto it = std::find(owned->index_terms.begin(),
                          owned->index_terms.end(), adv_term);
      if (it != owned->index_terms.end()) owned->index_terms.erase(it);
      owned->poll_cursor.erase(adv.term);
      if (!replacement.empty()) {
        owned->index_terms.push_back(replacement);
        const TermId id = TermDict::Global().Intern(replacement);
        PublishTerm(posting.owner, id, PlanRoute(posting.owner, id),
                    MakePosting(*owned, replacement, posting.owner));
      }
      ++replacements;
    }
  }
  return replacements;
}

Status SpriteSystem::UnshareDocument(DocId doc) {
  auto it = doc_owner_.find(doc);
  if (it == doc_owner_.end()) {
    return Status::NotFound(StrFormat("document %u is not shared", doc));
  }
  const PeerId owner_id = it->second;
  obs::ScopedSpan span(&tracer_, "unshare.document", PeerNameOf(owner_id));
  span.Annotate("doc", StrFormat("%u", doc));
  OwnerPeer& owner = owners_.at(owner_id);
  OwnedDocument* owned = owner.document(doc);
  SPRITE_CHECK(owned != nullptr);
  TermDict& dict = TermDict::Global();
  for (const std::string& term : owned->index_terms) {
    const TermId id = dict.Intern(term);
    WithdrawTerm(owner_id, id, PlanRoute(owner_id, id), doc);  // best effort
  }
  owner.mutable_documents().erase(doc);
  doc_owner_.erase(it);
  return Status::OK();
}

Status SpriteSystem::UpdateDocument(const corpus::Document& doc) {
  auto it = doc_owner_.find(doc.id);
  if (it == doc_owner_.end()) {
    return Status::NotFound(StrFormat("document %u is not shared", doc.id));
  }
  if (doc.terms.empty()) {
    return Status::InvalidArgument("updated document is empty; unshare it");
  }
  const PeerId owner_id = it->second;
  obs::ScopedSpan span(&tracer_, "update.document", PeerNameOf(owner_id));
  span.Annotate("doc", StrFormat("%u", doc.id));
  OwnedDocument* owned = owners_.at(owner_id).document(doc.id);
  SPRITE_CHECK(owned != nullptr);

  owned->content = &doc;

  // Withdraw index terms that vanished from the new content; re-publish
  // the rest with fresh term frequencies and lengths.
  TermDict& dict = TermDict::Global();
  std::vector<std::string> kept;
  for (const std::string& term : owned->index_terms) {
    const TermId id = dict.Intern(term);
    if (!doc.ContainsTerm(term)) {
      WithdrawTerm(owner_id, id, PlanRoute(owner_id, id), doc.id);
      owned->stats.erase(term);
      owned->poll_cursor.erase(id);
    } else {
      kept.push_back(term);
    }
  }
  owned->index_terms = std::move(kept);
  for (const std::string& term : owned->index_terms) {
    const TermId id = dict.Intern(term);
    SPRITE_RETURN_IF_ERROR(PublishTerm(owner_id, id, PlanRoute(owner_id, id),
                                       MakePosting(*owned, term, owner_id)));
  }
  return Status::OK();
}

StatusOr<PeerId> SpriteSystem::JoinPeer(const std::string& name) {
  StatusOr<uint64_t> id_or = ring_.Join(name);
  if (!id_or.ok()) return id_or.status();
  return CompleteJoin(id_or.value());
}

PeerId SpriteSystem::CompleteJoin(PeerId id) {
  obs::ScopedSpan span(&tracer_, "peer.join", PeerNameOf(id));
  indexing_.emplace(id, IndexingPeer(id, config_.history_capacity,
                                     StoreOptionsFromConfig(config_)));
  owners_.emplace(id, OwnerPeer(id));
  peer_ids_.insert(
      std::upper_bound(peer_ids_.begin(), peer_ids_.end(), id), id);

  // The successor hands over the inverted lists and cached queries of the
  // key arc the newcomer now owns.
  const std::vector<PeerId> succs = ring_.SuccessorsOf(id, 1);
  if (!succs.empty() && succs[0] != id) {
    const uint64_t handoff_bytes = TransferKeys(
        id, indexing_.at(succs[0]).ExtractEntries([&](TermId term) {
          StatusOr<uint64_t> owner = ring_.ResponsibleNode(RingKeyOf(term));
          return owner.ok() && owner.value() == id;
        }));
    span.Annotate("handoff_bytes",
                  StrFormat("%llu",
                            static_cast<unsigned long long>(handoff_bytes)));
  }
  metrics_.Add("peers.joined");
  UpdateMembershipGauges();
  return id;
}

uint64_t SpriteSystem::TransferKeys(PeerId to,
                                    const IndexingPeer::Handoff& handoff) {
  IndexingPeer& receiver = indexing_.at(to);
  uint64_t bytes = 0;
  for (const auto& [term, plist] : handoff.lists) {
    bytes += bus_.CostSend(to, p2p::MessageType::kKeyTransfer,
                           p2p::kTermBytes +
                               plist->size() * p2p::kPostingEntryBytes,
                           DirectCallOptions())
                 .wire_bytes;
    // Snapshot order is ascending doc id, so every AddPosting below hits
    // the append fast path of the receiving store.
    for (const PostingEntry& entry : *plist->Snapshot()) {
      receiver.AddPosting(term, entry);
    }
  }
  for (const QueryRecord& record : handoff.records) {
    bytes += bus_.CostSend(to, p2p::MessageType::kKeyTransfer,
                           p2p::kQueryRecordBytes, DirectCallOptions())
                 .wire_bytes;
    receiver.RecordQuery(record);
  }
  tracer_.clock().AdvanceMs(latency_.TransferMs(bytes));
  return bytes;
}

Status SpriteSystem::RebalanceRange() {
  metrics_.Add("rebalance.attempts");
  obs::ScopedSpan rebalance_span(&tracer_, "rebalance", "system");
  if (ring_.num_alive() < 3) {
    return Status::FailedPrecondition("need at least three alive peers");
  }
  // Most- and least-loaded indexing peers by stored postings.
  PeerId hot = 0, cold = 0;
  size_t hot_load = 0, cold_load = std::numeric_limits<size_t>::max();
  for (const auto& [id, peer] : indexing_) {
    const dht::ChordNode* node = ring_.node(id);
    if (node == nullptr || !node->alive) continue;
    const size_t load = peer.num_postings();
    if (load > hot_load || (load == hot_load && id < hot)) {
      hot = id;
      hot_load = load;
    }
    if (load < cold_load || (load == cold_load && id < cold)) {
      cold = id;
      cold_load = load;
    }
  }
  if (hot == cold || hot_load <= cold_load + 1) {
    return Status::FailedPrecondition("load is already balanced");
  }

  // The invitee abandons its current range (passing it to its successor)
  // and re-joins at the midpoint of the overloaded peer's arc.
  const dht::ChordNode* hot_node = ring_.node(hot);
  SPRITE_CHECK(hot_node != nullptr && hot_node->predecessor.has_value());
  const uint64_t pred = *hot_node->predecessor;
  const uint64_t span = ring_.space().Distance(pred, hot);
  if (span < 2) {
    return Status::FailedPrecondition("overloaded arc cannot be split");
  }
  SPRITE_RETURN_IF_ERROR(LeavePeer(cold));

  uint64_t mid = ring_.space().Add(pred, span / 2);
  StatusOr<uint64_t> joined(Status::Internal("unset"));
  for (int attempt = 0; attempt < 16; ++attempt) {
    joined = ring_.JoinWithId(
        mid, StrFormat("rebalance-%llu",
                       static_cast<unsigned long long>(mid)));
    if (joined.ok()) break;
    mid = ring_.space().Add(mid, 1);
  }
  if (!joined.ok()) return joined.status();
  CompleteJoin(joined.value());
  metrics_.Add("rebalance.moves");
  return Status::OK();
}

Status SpriteSystem::LeavePeer(PeerId id) {
  const dht::ChordNode* node = ring_.node(id);
  if (node == nullptr || !node->alive) {
    return Status::NotFound("no such alive peer");
  }
  if (ring_.num_alive() <= 1) {
    return Status::FailedPrecondition("cannot drain the last peer");
  }
  obs::ScopedSpan span(&tracer_, "peer.leave", PeerNameOf(id));

  // Hand every primary inverted list and cached query to the successor.
  const std::vector<PeerId> succs = ring_.SuccessorsOf(id, 1);
  SPRITE_CHECK(!succs.empty());
  const uint64_t handoff_bytes = TransferKeys(
      succs[0], indexing_.at(id).ExtractEntries([](TermId) { return true; }));
  span.Annotate("handoff_bytes",
                StrFormat("%llu",
                          static_cast<unsigned long long>(handoff_bytes)));

  // Patch the ring first so re-owned documents never pick the leaver.
  SPRITE_RETURN_IF_ERROR(ring_.Leave(id));
  peer_ids_.erase(std::remove(peer_ids_.begin(), peer_ids_.end(), id),
                  peer_ids_.end());

  // Shared documents migrate to new owner peers, and their postings are
  // re-published so indexing peers learn the new owner address.
  OwnerPeer& leaving_owner = owners_.at(id);
  std::vector<DocId> moved;
  for (const auto& [doc_id, _] : leaving_owner.documents()) {
    moved.push_back(doc_id);
  }
  for (DocId doc_id : moved) {
    OwnedDocument owned = std::move(leaving_owner.mutable_documents()[doc_id]);
    leaving_owner.mutable_documents().erase(doc_id);
    const PeerId new_owner_id =
        PickPeer(0x9e3779b97f4a7c15ULL * (doc_id + 1) ^ id);
    OwnerPeer& new_owner = owners_.at(new_owner_id);
    OwnedDocument& dest = new_owner.AdoptDocument(owned.content);
    dest = std::move(owned);
    doc_owner_[doc_id] = new_owner_id;
    for (const std::string& term : dest.index_terms) {
      const TermId tid = TermDict::Global().Intern(term);
      PublishTerm(new_owner_id, tid, PlanRoute(new_owner_id, tid),
                  MakePosting(dest, term, new_owner_id));
    }
  }

  indexing_.erase(id);
  owners_.erase(id);
  metrics_.Add("peers.left");
  UpdateMembershipGauges();
  return Status::OK();
}

size_t SpriteSystem::RunHeartbeats() {
  size_t probes = 0;
  size_t republished = 0;
  uint64_t probe_hops = 0;
  uint64_t probe_bytes = 0;
  obs::ScopedWallTimer round_wall(&wall_, "perf.heartbeats.run");
  obs::ScopedSpan round_span(&tracer_, "heartbeat.round", "system");
  for (auto& [owner_id, owner] : owners_) {
    const dht::ChordNode* node = ring_.node(owner_id);
    if (node == nullptr || !node->alive) continue;
    for (auto& [doc_id, owned] : owner.mutable_documents()) {
      for (const std::string& term : owned.index_terms) {
        const TermId id = TermDict::Global().Intern(term);
        obs::ScopedSpan probe_span(&tracer_, "heartbeat.probe",
                                   PeerNameOf(owner_id));
        probe_span.Annotate("term", term);
        uint64_t hops = 0;
        StatusOr<dht::ChordRing::LookupResult> target =
            CommitRoute(PlanRoute(owner_id, id), &hops);
        probe_hops += hops;
        if (!target.ok()) continue;  // arc unreachable; retry next period
        const uint64_t bytes_before = probe_bytes;
        probe_bytes += bus_.CostSend(target->node, p2p::MessageType::kHeartbeat,
                                     p2p::kTermBytes, DirectCallOptions())
                           .wire_bytes;
        ++probes;
        // A live peer that lost the posting (e.g. responsibility moved to
        // it after an unreplicated failure) gets it re-published.
        IndexingPeer& peer = indexing_.at(target->node);
        if (!peer.HasPosting(id, doc_id)) {
          probe_bytes +=
              bus_.CostSend(target->node, p2p::MessageType::kPublishTerm,
                            p2p::kTermBytes + p2p::kPostingEntryBytes,
                            DirectCallOptions())
                  .wire_bytes;
          peer.AddPosting(id, MakePosting(owned, term, owner_id));
          ++republished;
        }
        tracer_.clock().AdvanceMs(
            latency_.RequestMs(1) +
            latency_.TransferMs(probe_bytes - bytes_before));
      }
    }
  }
  metrics_.Add("heartbeat.rounds");
  metrics_.Add("heartbeat.probes", probes);
  metrics_.Add("heartbeat.republished", republished);
  metrics_.Observe("latency.heartbeat.round_ms",
                   latency_.OperationMs(probe_hops, probes, probe_bytes));
  return probes;
}

size_t SpriteSystem::RunHotTermCaching(size_t top_terms) {
  if (top_terms == 0) return 0;
  // Aggregate query frequencies and co-occurrences over the peers' caches,
  // deduplicating issuances (one query is stored at several peers).
  const TermDict& dict = TermDict::Global();
  std::unordered_set<uint64_t> seen;
  std::unordered_map<TermId, uint64_t> qf;
  std::vector<const QueryRecord*> unique_records;
  for (const auto& [peer_id, peer] : indexing_) {
    const dht::ChordNode* node = ring_.node(peer_id);
    if (node == nullptr || !node->alive) continue;
    for (const QueryRecord& record : peer.history()) {
      if (!seen.insert(record.seq).second) continue;
      unique_records.push_back(&record);
      for (const TermId term : record.terms) qf[term] += 1;
    }
  }

  // Bounded selection of the hottest terms: qf desc, spelling asc (the
  // same order the string-keyed full sort produced), cost O(n + k log k).
  std::vector<std::pair<TermId, uint64_t>> ranked(qf.begin(), qf.end());
  TopKInPlace(ranked, top_terms, [&dict](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return dict.TermOf(a.first) < dict.TermOf(b.first);
  });

  size_t placements = 0;
  for (const auto& [hot, _] : ranked) {
    StatusOr<uint64_t> hot_peer = ring_.ResponsibleNode(RingKeyOf(hot));
    if (!hot_peer.ok()) continue;
    StoredPostingsPtr plist = indexing_.at(hot_peer.value()).Stored(hot);
    if (plist == nullptr || plist->empty()) continue;

    // Terms that co-occur with the hot term in cached queries — their
    // peers receive the hot term's list.
    std::unordered_set<TermId> co_set;
    for (const QueryRecord* record : unique_records) {
      if (std::find(record->terms.begin(), record->terms.end(), hot) ==
          record->terms.end()) {
        continue;
      }
      for (const TermId other : record->terms) {
        if (other != hot) co_set.insert(other);
      }
    }
    // The set iterates in hash order, which would make the cache-push
    // message stream (and tie-breaks among co-terms) run-dependent; push
    // in spelling order instead.
    std::vector<TermId> co_terms(co_set.begin(), co_set.end());
    std::sort(co_terms.begin(), co_terms.end(),
              [&dict](TermId a, TermId b) {
                return dict.TermOf(a) < dict.TermOf(b);
              });
    for (const TermId co : co_terms) {
      StatusOr<uint64_t> target = ring_.ResponsibleNode(RingKeyOf(co));
      if (!target.ok() || target.value() == hot_peer.value()) continue;
      // The hot term's list goes to the co-term's peer: queries that reach
      // the co-term's peer first then never contact the hot peer at all
      // (the contact order rotates per issuance, so most multi-term
      // queries start at a non-hot term). The pushed list is a shared
      // snapshot; the bytes are accounted as a full transfer.
      (void)bus_.CostSend(target.value(), p2p::MessageType::kCachePush,
                          p2p::kTermBytes +
                              plist->size() * p2p::kPostingEntryBytes,
                          DirectCallOptions());
      indexing_.at(target.value()).CachePostings(hot, plist);
      ++placements;
    }
  }
  return placements;
}

StatusOr<ir::RankedList> SpriteSystem::SearchWithExpansion(
    const corpus::Query& query, size_t k, size_t extra_terms,
    size_t feedback_docs) {
  // The inner Search() calls and the feedback fetch nest under this root.
  obs::ScopedSpan span(&tracer_, "search.expanded", "system");
  span.Annotate("query", StrFormat("%u", query.id));
  StatusOr<ir::RankedList> initial =
      Search(query, std::max(k, feedback_docs), /*record=*/true);
  if (!initial.ok()) return initial.status();
  if (extra_terms == 0 || initial->empty()) {
    ir::RankedList out = std::move(initial).value();
    ir::SortRankedList(out, k);
    return out;
  }

  // Retrieval phase for the feedback set: download the top documents from
  // their owner peers and analyze them locally (local context analysis
  // needs no global statistics).
  const size_t depth = std::min(feedback_docs, initial->size());
  std::vector<const corpus::Document*> feedback;
  obs::ScopedSpan fetch_span(&tracer_, "feedback.fetch", "system");
  uint64_t feedback_requests = 0;
  uint64_t feedback_bytes = 0;
  for (size_t i = 0; i < depth; ++i) {
    const DocId doc = (*initial)[i].doc;
    auto owner_it = doc_owner_.find(doc);
    if (owner_it == doc_owner_.end()) continue;
    const OwnedDocument* owned =
        owners_.at(owner_it->second).document(doc);
    if (owned == nullptr) continue;
    const net::Charge request =
        bus_.BeginExchange(owner_it->second, p2p::MessageType::kQueryRequest,
                           p2p::kTermBytes, DirectCallOptions());
    ++feedback_requests;
    feedback_bytes += request.wire_bytes;
    // An owner that is down serves no content to analyze.
    if (!request.status.ok()) continue;
    feedback_bytes += bus_.CompleteExchange(
        p2p::MessageType::kQueryResponse,
        static_cast<size_t>(owned->content->length()) * 6);
    feedback.push_back(owned->content);
  }
  tracer_.clock().AdvanceMs(latency_.RequestMs(feedback_requests) +
                            latency_.TransferMs(feedback_bytes));
  fetch_span.Annotate("docs", StrFormat("%zu", feedback.size()));
  fetch_span.End();

  // Score co-occurring candidate terms within the feedback set: damped
  // term frequency times a feedback-set IDF, so terms concentrated in a
  // few top documents win over ubiquitous ones.
  std::unordered_map<std::string, double> tf_score;
  std::unordered_map<std::string, uint32_t> df;
  for (const corpus::Document* doc : feedback) {
    for (const auto& [term, freq] : doc->terms.counts()) {
      if (query.ContainsTerm(term)) continue;
      tf_score[term] += std::log(1.0 + static_cast<double>(freq));
      df[term] += 1;
    }
  }
  std::vector<std::pair<double, std::string>> candidates;
  candidates.reserve(tf_score.size());
  const double f = static_cast<double>(feedback.size());
  for (auto& [term, score] : tf_score) {
    const double idf = std::log((f + 1.0) / static_cast<double>(df[term]));
    candidates.emplace_back(score * idf, term);
  }
  // Only the top extra_terms candidates are ever consumed; bounded
  // selection replaces the full sort (same comparator, same winners).
  TopKInPlace(candidates, extra_terms,
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });

  // Expansion terms are evidence, not the user's words: retrieve with them
  // separately and fuse at reduced weight, so they can surface missed
  // documents without drowning the original ranking.
  corpus::Query expansion_only;
  expansion_only.id = query.id;
  for (size_t i = 0; i < candidates.size() && i < extra_terms; ++i) {
    expansion_only.terms.push_back(candidates[i].second);
  }
  if (expansion_only.empty()) {
    ir::RankedList out = std::move(initial).value();
    ir::SortRankedList(out, k);
    return out;
  }
  StatusOr<ir::RankedList> extra =
      Search(expansion_only, 0, /*record=*/false);

  constexpr double kExpansionWeight = 0.4;
  std::unordered_map<DocId, double> fused;
  for (const ir::ScoredDoc& scored : *initial) {
    fused[scored.doc] += scored.score;
  }
  if (extra.ok()) {
    for (const ir::ScoredDoc& scored : *extra) {
      fused[scored.doc] += kExpansionWeight * scored.score;
    }
  }
  ir::RankedList out;
  out.reserve(fused.size());
  for (const auto& [doc, score] : fused) out.push_back({doc, score});
  ir::SortRankedList(out, k);
  return out;
}

const std::vector<std::string>* SpriteSystem::IndexTermsOf(DocId doc) const {
  auto it = doc_owner_.find(doc);
  if (it == doc_owner_.end()) return nullptr;
  const OwnerPeer& owner = owners_.at(it->second);
  const OwnedDocument* owned = owner.document(doc);
  return owned == nullptr ? nullptr : &owned->index_terms;
}

PeerId SpriteSystem::OwnerOf(DocId doc) const {
  auto it = doc_owner_.find(doc);
  return it == doc_owner_.end() ? 0 : it->second;
}

size_t SpriteSystem::TotalIndexedTerms() const {
  size_t total = 0;
  for (const auto& [_, owner] : owners_) {
    for (const auto& [__, owned] : owner.documents()) {
      total += owned.index_terms.size();
    }
  }
  return total;
}

std::string SpriteSystem::PeerStoreDir(PeerId id) const {
  // Ring ids are stable across restarts (derived from the peer's name), so
  // a recovered process maps each directory back to the same peer.
  return config_.data_dir +
         StrFormat("/peer-%016llx", static_cast<unsigned long long>(id));
}

StatusOr<store::PeerStore*> SpriteSystem::StoreFor(PeerId id) {
  auto it = stores_.find(id);
  if (it != stores_.end()) return it->second.get();
  auto ps = std::make_unique<store::PeerStore>(
      PeerStoreDir(id), id, StoreOptionsFromConfig(config_),
      config_.store_compact_threshold);
  SPRITE_RETURN_IF_ERROR(ps->Open());
  store::PeerStore* raw = ps.get();
  stores_.emplace(id, std::move(ps));
  return raw;
}

Status SpriteSystem::Flush() {
  if (config_.data_dir.empty()) {
    return Status::FailedPrecondition("SpriteConfig::data_dir is not set");
  }
  const TermDict& dict = TermDict::Global();
  for (const auto& [peer_id, peer] : indexing_) {
    const dht::ChordNode* node = ring_.node(peer_id);
    if (node == nullptr || !node->alive) continue;
    StatusOr<store::PeerStore*> ps = StoreFor(peer_id);
    if (!ps.ok()) return ps.status();
    std::vector<store::PeerStore::TermState> live;
    live.reserve(peer.index().size());
    for (const auto& [term, stored] : peer.index()) {
      store::PeerStore::TermState state;
      state.term = dict.TermOf(term);
      state.version = peer.TermVersion(term);
      state.postings = stored;
      live.push_back(std::move(state));
    }
    SPRITE_RETURN_IF_ERROR((*ps)->Flush(std::move(live)));
  }
  return Status::OK();
}

Status SpriteSystem::Recover() {
  if (config_.data_dir.empty()) {
    return Status::FailedPrecondition("SpriteConfig::data_dir is not set");
  }
  TermDict& dict = TermDict::Global();
  for (auto& [peer_id, peer] : indexing_) {
    StatusOr<store::PeerStore*> ps = StoreFor(peer_id);
    if (!ps.ok()) return ps.status();
    for (store::PeerStore::TermState& state : (*ps)->TakeRecovered()) {
      peer.RestoreTerm(dict.Intern(state.term), std::move(state.postings),
                       state.version);
    }
  }
  return Status::OK();
}

const IndexingPeer* SpriteSystem::indexing_peer(PeerId id) const {
  auto it = indexing_.find(id);
  return it == indexing_.end() ? nullptr : &it->second;
}

const OwnerPeer* SpriteSystem::owner_peer(PeerId id) const {
  auto it = owners_.find(id);
  return it == owners_.end() ? nullptr : &it->second;
}

SpriteConfig MakeESearchConfig(SpriteConfig base, size_t num_index_terms) {
  base.selection = TermSelectionPolicy::kStaticFrequency;
  base.initial_terms = num_index_terms;
  base.max_index_terms = num_index_terms;
  return base;
}

}  // namespace sprite::core
