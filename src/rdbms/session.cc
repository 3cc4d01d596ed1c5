#include "rdbms/session.h"

#include <deque>
#include <iterator>

#include "rdbms/service.h"
#include "rdbms/shard.h"
#include "rdbms/sql.h"
#include "rdbms/staccato_db.h"
#include "telemetry/clock.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/slow_log.h"
#include "util/parallel.h"
#include "util/strings.h"
#include "util/timer.h"

namespace staccato::rdbms {

namespace {

/// What the memoized artifacts depend on — nothing else: the equality
/// bitmap is a function of the bound predicates, and the memoized
/// CandidateSet of the probed anchor. NumAns, threads, early-stop,
/// projection, and even the approach can differ between two plans that
/// share these artifacts. Every variable-length field is length-prefixed
/// so user-chosen strings (column values can contain any byte) can never
/// collide with the field structure.
std::string PlanFingerprint(const PlanSpec& plan) {
  std::string fp = CandidateSourceName(plan.source);
  auto append_field = [&fp](const std::string& field) {
    fp += StringPrintf("|%zu:", field.size());
    fp += field;
  };
  append_field(plan.anchor);
  for (const BoundEquality& eq : plan.equalities) {
    append_field(eq.column);
    append_field(eq.value.ToString());
  }
  return fp;
}

/// Artifact richness, for "publish only if we know more" comparisons.
int ArtifactCount(const PlanCache& cache) {
  return (cache.bitmap_valid ? 1 : 0) + (cache.candidates_valid ? 1 : 0);
}

/// Session-level query metrics, registered once (see service.cc for the
/// admission-side figures; these count every PreparedQuery::Execute,
/// budgeted or not).
struct SessionMetrics {
  telemetry::Counter* queries;
  telemetry::Counter* failures;
  telemetry::Histogram* query_us;
  telemetry::Histogram* prepare_us;
};

const SessionMetrics& Metrics() {
  static const SessionMetrics m = [] {
    auto& r = telemetry::MetricsRegistry::Global();
    SessionMetrics sm;
    sm.queries = r.GetCounter("staccato_queries_total");
    sm.failures = r.GetCounter("staccato_query_failures_total");
    sm.query_us = r.GetHistogram("staccato_query_us");
    sm.prepare_us = r.GetHistogram("staccato_prepare_us");
    return sm;
  }();
  return m;
}

/// Remaps one shard's ranked answers (shard-local doc ids) to global ids
/// through the id-map snapshot and appends them to `merged`.
Status GatherShardAnswers(const ShardMap& map, size_t shard,
                          const std::vector<Answer>& answers,
                          std::vector<Answer>* merged) {
  const std::vector<DocId>& l2g = map.local_to_global[shard];
  for (const Answer& a : answers) {
    if (a.doc >= l2g.size()) {
      return Status::Internal("shard answer missing from the id map");
    }
    merged->push_back(Answer{l2g[a.doc], a.prob});
  }
  return Status::OK();
}

}  // namespace

PreparedQuery::PreparedQuery(StaccatoDb* db, PlanSpec plan, Dfa dfa,
                             std::shared_ptr<SharedPlanCacheTable> shared)
    : db_(db),
      plan_(std::move(plan)),
      dfa_(std::move(dfa)),
      shared_(std::move(shared)),
      fingerprint_(PlanFingerprint(plan_)) {}

PreparedQuery::PreparedQuery(ShardedDb* db, std::vector<PlanSpec> shard_plans,
                             Dfa dfa)
    : db_(nullptr),
      plan_(shard_plans.front()),
      dfa_(std::move(dfa)),
      sdb_(db),
      shard_plans_(std::move(shard_plans)),
      shard_caches_(shard_plans_.size()) {}

bool PreparedQuery::AdoptSharedCache(uint64_t generation) {
  if (shared_ == nullptr) return false;
  const bool needs_bitmap = !plan_.equalities.empty();
  const bool needs_cands = plan_.source == CandidateSource::kIndexProbe;
  if (!needs_bitmap && !needs_cands) return false;  // nothing is memoized
  const bool local_current = cache_.generation == generation;
  if (local_current && (!needs_bitmap || cache_.bitmap_valid) &&
      (!needs_cands || cache_.candidates_valid)) {
    return false;  // locally warm already
  }
  std::shared_ptr<const PlanCache> entry;
  {
    util::MutexLock lock(&shared_->mu);
    auto it = shared_->entries.find(fingerprint_);
    if (it != shared_->entries.end()) entry = it->second;
  }
  if (entry == nullptr || entry->generation != generation) return false;
  if (!local_current) {
    cache_ = PlanCache{};
    cache_.generation = generation;
  }
  bool adopted = false;
  if (needs_bitmap && !cache_.bitmap_valid && entry->bitmap_valid) {
    cache_.bitmap = entry->bitmap;
    cache_.bitmap_valid = true;
    adopted = true;
  }
  if (needs_cands && !cache_.candidates_valid && entry->candidates_valid) {
    cache_.candidates = entry->candidates;
    cache_.candidates_valid = true;
    adopted = true;
  }
  if (adopted) shared_->hits.fetch_add(1, std::memory_order_relaxed);
  return adopted;
}

void PreparedQuery::PublishSharedCache(uint64_t generation) {
  if (shared_ == nullptr || cache_.generation != generation) return;
  if (ArtifactCount(cache_) == 0) return;
  util::MutexLock lock(&shared_->mu);
  // The table is bounded: these are memoizations, so dropping them only
  // costs a recompute. When full, first purge entries a reload already
  // killed; if every entry is current, start the table over rather than
  // grow without bound in a long-lived serving session.
  if (shared_->entries.size() >= SharedPlanCacheTable::kMaxEntries &&
      shared_->entries.find(fingerprint_) == shared_->entries.end()) {
    for (auto it = shared_->entries.begin(); it != shared_->entries.end();) {
      it = it->second->generation != generation ? shared_->entries.erase(it)
                                                : std::next(it);
    }
    if (shared_->entries.size() >= SharedPlanCacheTable::kMaxEntries) {
      shared_->entries.clear();
    }
  }
  std::shared_ptr<const PlanCache>& slot = shared_->entries[fingerprint_];
  if (slot == nullptr || slot->generation != generation ||
      ArtifactCount(*slot) < ArtifactCount(cache_)) {
    slot = std::make_shared<const PlanCache>(cache_);
  }
}

Result<PreparedQuery> Session::Prepare(Approach approach,
                                       const QueryOptions& q) {
  const uint64_t start_ns = telemetry::MonotonicNanos();
  Result<PreparedQuery> pq = PrepareUntimed(approach, q);
  Metrics().prepare_us->Record((telemetry::MonotonicNanos() - start_ns) / 1000);
  return pq;
}

Result<PreparedQuery> Session::PrepareUntimed(Approach approach,
                                              const QueryOptions& q) {
  // One parse serves the DFA and every shard's planner.
  STACCATO_ASSIGN_OR_RETURN(Pattern pattern, Pattern::Parse(q.pattern));
  STACCATO_ASSIGN_OR_RETURN(Dfa dfa,
                            Dfa::Compile(pattern, MatchMode::kContains));
  if (sdb_ != nullptr) {
    // Plan every shard independently: each shard's own TermStats and
    // table statistics price its scan-vs-probe choice, so a skewed shard
    // can probe while its siblings scan.
    std::vector<PlanSpec> plans;
    plans.reserve(sdb_->num_shards());
    for (size_t s = 0; s < sdb_->num_shards(); ++s) {
      PlanContext ctx = sdb_->shard(s)->MakePlanContext();
      STACCATO_ASSIGN_OR_RETURN(PlanSpec plan,
                                BuildPlan(ctx, approach, q, pattern,
                                          opts_.eval_threads));
      plans.push_back(std::move(plan));
    }
    PreparedQuery pq(sdb_, std::move(plans), std::move(dfa));
    pq.tracer_ = tracer_;
    return pq;
  }
  PlanContext ctx = db_->MakePlanContext();
  STACCATO_ASSIGN_OR_RETURN(PlanSpec plan,
                            BuildPlan(ctx, approach, q, pattern,
                                      opts_.eval_threads));
  PreparedQuery pq(db_, std::move(plan), std::move(dfa), shared_caches_);
  pq.tracer_ = tracer_;
  return pq;
}

Result<PreparedQuery> Session::PrepareSql(Approach approach,
                                          const std::string& sql) {
  STACCATO_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSelect(sql));
  if (!stmt.like.has_value()) {
    return Status::InvalidArgument("statement has no LIKE predicate");
  }
  QueryOptions q;
  q.pattern = stmt.like->pattern;
  q.num_ans = stmt.limit.has_value() ? static_cast<size_t>(*stmt.limit)
                                     : opts_.num_ans;
  q.equalities = stmt.equalities;
  return Prepare(approach, q);
}

Result<std::vector<PreparedQuery>> Session::PrepareBatch(
    Approach approach, const std::vector<QueryOptions>& queries) {
  std::vector<PreparedQuery> prepared;
  prepared.reserve(queries.size());
  for (const QueryOptions& q : queries) {
    STACCATO_ASSIGN_OR_RETURN(PreparedQuery pq, Prepare(approach, q));
    prepared.push_back(std::move(pq));
  }
  return prepared;
}

Result<std::vector<std::vector<Answer>>> Session::ExecuteBatch(
    const std::vector<PreparedQuery*>& queries, BatchStats* stats) {
  if (sdb_ != nullptr) return ExecuteBatchSharded(queries, stats);
  Timer timer;
  if (stats != nullptr) {
    *stats = BatchStats{};
    stats->per_query.assign(queries.size(), QueryStats{});
  }
  PlanContext ctx = db_->MakePlanContext();
  std::vector<BatchItem> items;
  std::vector<char> adopted(queries.size(), 0);
  items.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    PreparedQuery* pq = queries[i];
    if (pq == nullptr) {
      return Status::InvalidArgument("null PreparedQuery in batch");
    }
    if (pq->db_ != db_) {
      return Status::InvalidArgument(
          "batch contains a query prepared against a different database");
    }
    adopted[i] = pq->AdoptSharedCache(ctx.load_generation) ? 1 : 0;
    items.push_back({&pq->plan_, &pq->dfa_, &pq->cache_,
                     stats != nullptr ? &stats->per_query[i] : nullptr});
  }
  Result<std::vector<std::vector<Answer>>> result =
      ExecutePlanBatch(ctx, items, stats);
  if (result.ok()) {
    for (size_t i = 0; i < queries.size(); ++i) {
      queries[i]->PublishSharedCache(ctx.load_generation);
      if (stats != nullptr && adopted[i]) {
        stats->per_query[i].shared_plan_hit = true;
      }
    }
  }
  if (stats != nullptr) stats->seconds = timer.ElapsedSeconds();
  return result;
}

Result<std::vector<std::vector<Answer>>> Session::ExecuteBatchSharded(
    const std::vector<PreparedQuery*>& queries, BatchStats* stats) {
  Timer timer;
  const size_t num_shards = sdb_->num_shards();
  const size_t num_queries = queries.size();
  if (stats != nullptr) {
    *stats = BatchStats{};
    stats->per_query.assign(num_queries, QueryStats{});
  }
  for (PreparedQuery* pq : queries) {
    if (pq == nullptr) {
      return Status::InvalidArgument("null PreparedQuery in batch");
    }
    if (pq->sdb_ != sdb_) {
      return Status::InvalidArgument(
          "batch contains a query prepared against a different database");
    }
  }
  // Plan contexts first, id-map snapshot second: Append publishes its map
  // extension before touching the owning shard, so every document a
  // context can see is translatable (same ordering as ExecuteSharded).
  std::vector<PlanContext> ctxs(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    ctxs[s] = sdb_->shard(s)->MakePlanContext();
  }
  std::shared_ptr<const ShardMap> map = sdb_->map_snapshot();
  // One forwarded threshold per logical query: every shard's copy of that
  // query offers into (and prunes against) the same global k-th best,
  // exactly as in solo scatter-gather. With forwarding off each shard's
  // batch falls back to its own query-local thresholds.
  std::deque<TopKThreshold> thresholds;
  std::vector<TopKThreshold*> forwarded(num_queries, nullptr);
  if (sdb_->forward_threshold()) {
    for (size_t i = 0; i < num_queries; ++i) {
      thresholds.emplace_back(queries[i]->plan_.num_ans);
      forwarded[i] = &thresholds.back();
    }
  }
  std::vector<std::vector<QueryStats>> shard_query_stats(
      num_shards, std::vector<QueryStats>(num_queries));
  std::vector<std::vector<std::vector<Answer>>> shard_results(num_shards);
  std::vector<BatchStats> shard_batch_stats(num_shards);
  // Per-shard Status capture (lambda always returns OK): the first
  // failing shard in shard order is what the caller sees, not whichever
  // failure happened to race into the pool's error slot first.
  std::vector<Status> shard_status(num_shards);
  STACCATO_RETURN_NOT_OK(ParallelFor(num_shards, 1, [&](size_t s) -> Status {
    std::vector<BatchItem> items;
    items.reserve(num_queries);
    for (size_t i = 0; i < num_queries; ++i) {
      PreparedQuery* pq = queries[i];
      items.push_back({&pq->shard_plans_[s], &pq->dfa_, &pq->shard_caches_[s],
                       &shard_query_stats[s][i], forwarded[i]});
    }
    Result<std::vector<std::vector<Answer>>> r =
        ExecutePlanBatch(ctxs[s], items, &shard_batch_stats[s]);
    if (r.ok()) {
      shard_results[s] = std::move(r).ValueUnsafe();
    } else {
      shard_status[s] = r.status();
    }
    return Status::OK();
  }));
  for (size_t s = 0; s < num_shards; ++s) {
    STACCATO_RETURN_NOT_OK(shard_status[s]);
  }
  std::vector<std::vector<Answer>> out(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    std::vector<Answer> merged;
    std::vector<QueryStats> per_shard(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      STACCATO_RETURN_NOT_OK(
          GatherShardAnswers(*map, s, shard_results[s][i], &merged));
      per_shard[s] = shard_query_stats[s][i];
    }
    out[i] = RankAnswers(std::move(merged), queries[i]->plan_.num_ans);
    if (stats != nullptr) {
      FoldShardStats(per_shard, map->total, &stats->per_query[i]);
    }
  }
  if (stats != nullptr) {
    stats->queries = num_queries;
    for (size_t s = 0; s < num_shards; ++s) {
      const BatchStats& bs = shard_batch_stats[s];
      stats->kmap_scan_passes += bs.kmap_scan_passes;
      stats->distinct_docs_fetched += bs.distinct_docs_fetched;
      stats->total_candidates += bs.total_candidates;
      stats->fetch_threads = std::max(stats->fetch_threads, bs.fetch_threads);
      stats->eval_threads = std::max(stats->eval_threads, bs.eval_threads);
      stats->eval_pruned += bs.eval_pruned;
      stats->eval_steps_saved += bs.eval_steps_saved;
      stats->cache_hits += bs.cache_hits;
      stats->cache_misses += bs.cache_misses;
      stats->cache_bytes += bs.cache_bytes;
    }
    stats->seconds = timer.ElapsedSeconds();
  }
  return out;
}

Result<std::vector<Answer>> PreparedQuery::ExecuteSharded(
    QueryControl* control, QueryStats* stats, telemetry::QueryTrace* trace) {
  Timer timer;
  const size_t num_shards = sdb_->num_shards();
  // The scatter span: one child span per shard, so cross-shard skew shows
  // up in the trace the same way it does in the "Shards:" lines.
  telemetry::ScopedSpan scatter_span(trace, "Scatter");
  // Plan contexts first, id-map snapshot second (see ExecuteBatchSharded).
  std::vector<PlanContext> ctxs(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    ctxs[s] = sdb_->shard(s)->MakePlanContext();
    ctxs[s].control = control;  // one budget, shared across every shard
    ctxs[s].trace = trace;
  }
  std::shared_ptr<const ShardMap> map = sdb_->map_snapshot();
  // The forwarded global bound: every shard's Eval offers its answers
  // here and prunes against the global k-th best, so selective queries
  // kill candidates on one shard with answers found on another. Local
  // fallback when forwarding is ablated off.
  TopKThreshold global_topk(plan_.num_ans);
  TopKThreshold* forwarded =
      sdb_->forward_threshold() ? &global_topk : nullptr;
  std::vector<QueryStats> per_shard(num_shards);
  std::vector<std::vector<Answer>> shard_answers(num_shards);
  // Every shard records its own Status and the lambda always returns OK,
  // so (a) a failing shard never tears down its siblings mid-eval and
  // (b) the gather below surfaces the FIRST failing shard's Status in
  // shard order — deterministic, where propagating through the pool's
  // first-error capture would surface whichever failure raced first.
  std::vector<Status> shard_status(num_shards);
  STACCATO_RETURN_NOT_OK(ParallelFor(num_shards, 1, [&](size_t s) -> Status {
    telemetry::ScopedSpan shard_span(trace, StringPrintf("shard-%zu", s),
                                     scatter_span.id());
    ctxs[s].trace_parent = shard_span.id();
    Result<std::vector<Answer>> r =
        ExecutePlan(ctxs[s], shard_plans_[s], dfa_, &per_shard[s],
                    &shard_caches_[s], forwarded);
    if (r.ok()) {
      shard_answers[s] = std::move(r).ValueUnsafe();
    } else {
      shard_status[s] = r.status();
    }
    return Status::OK();
  }));
  // Gather: remap shard-local doc ids to global ones and re-rank. Each
  // shard already returned its own ranked top num_ans, and the global
  // top num_ans is a subset of their union, so one RankAnswers over the
  // concatenation reproduces the 1-shard answer bit for bit. The budget
  // is polled once per shard here (the gather cancellation point); a cut
  // only stops *new* work, so already-computed answers still merge.
  telemetry::ScopedSpan gather_span(trace, "Gather");
  std::vector<Answer> merged;
  for (size_t s = 0; s < num_shards; ++s) {
    STACCATO_RETURN_NOT_OK(shard_status[s]);
    if (control != nullptr && !control->allow_partial()) {
      STACCATO_RETURN_NOT_OK(control->Check());
    }
    STACCATO_RETURN_NOT_OK(
        GatherShardAnswers(*map, s, shard_answers[s], &merged));
  }
  std::vector<Answer> ranked = RankAnswers(std::move(merged), plan_.num_ans);
  if (stats != nullptr) {
    FoldShardStats(per_shard, map->total, stats);
    stats->seconds = timer.ElapsedSeconds();
  }
  return ranked;
}

Result<std::vector<Answer>> PreparedQuery::Execute(QueryStats* stats) {
  return Execute(/*control=*/nullptr, stats);
}

Result<std::vector<Answer>> PreparedQuery::Execute(QueryControl* control,
                                                   QueryStats* stats) {
  Result<std::vector<Answer>> result = Status::Internal("unreachable");
  Timer timer;
  const uint64_t start_ns = telemetry::MonotonicNanos();
  // Tracing is an observer only: `trace` stays null unless this query's
  // session turned it on, and nothing below ever *reads* it, so answers
  // are bit-identical either way (telemetry_test pins this down).
  std::shared_ptr<telemetry::QueryTrace> trace;
  if (tracer_ != nullptr && tracer_->enabled()) {
    trace = telemetry::QueryTrace::Make(plan_.pattern);
    if (control != nullptr && control->admission_wait_ns() > 0) {
      // Measured by the service before Execute began; backdate the span
      // so the trace timeline starts at "entered the admission queue".
      trace->AddSpan("admission-wait", start_ns - control->admission_wait_ns(),
                     start_ns);
    }
  }
  if (sdb_ != nullptr) {
    result = ExecuteSharded(control, stats, trace.get());
  } else {
    PlanContext ctx = db_->MakePlanContext();
    ctx.control = control;
    ctx.trace = trace.get();
    const bool adopted = AdoptSharedCache(ctx.load_generation);
    result = ExecutePlan(ctx, plan_, dfa_, stats, &cache_);
    if (result.ok()) PublishSharedCache(ctx.load_generation);
    if (stats != nullptr) {
      // Set after ExecutePlan: its stats prologue resets every run-scoped
      // field, this one included.
      stats->shared_plan_hit = adopted;
    }
  }
  if (stats != nullptr) {
    if (control != nullptr) {
      // One write at the top level: per-shard stats must not fold this
      // shared counter (see FoldShardStats).
      stats->io_retries = control->io_retries();
      if (result.ok()) stats->degraded = control->cut();
    }
    stats->seconds = timer.ElapsedSeconds();
    stats->trace = trace;  // after the executors: InitQueryStats resets it
  }
  const uint64_t wall_ns = telemetry::MonotonicNanos() - start_ns;
  const SessionMetrics& m = Metrics();
  m.queries->Increment();
  if (!result.ok()) m.failures->Increment();
  m.query_us->Record(wall_ns / 1000);
  if (trace != nullptr) tracer_->Push(trace);
  // Slow-query hook: plan summary, est-vs-actual stats, and the span tree
  // (when traced) go to the capped log. Render cost is paid only by
  // queries already past the threshold.
  telemetry::SlowQueryLog& slow = telemetry::SlowQueryLog::Global();
  if (slow.ShouldLog(wall_ns / 1000000)) {
    std::string entry = StringPrintf(
        "--- slow query: %.1f ms, pattern \"%s\", status %s\n",
        static_cast<double>(wall_ns) / 1e6, plan_.pattern.c_str(),
        result.ok() ? "ok" : result.status().ToString().c_str());
    if (stats != nullptr) {
      entry += ExplainPlan(plan_, *stats);
    } else {
      entry += ExplainPlan(plan_);
    }
    if (trace != nullptr) entry += telemetry::RenderTrace(*trace);
    slow.Append(entry);
  }
  return result;
}

Result<Cursor> PreparedQuery::Open(QueryStats* stats) {
  STACCATO_ASSIGN_OR_RETURN(std::vector<Answer> answers, Execute(stats));
  return Cursor(std::move(answers));
}

}  // namespace staccato::rdbms
