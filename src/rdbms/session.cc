#include "rdbms/session.h"

#include <algorithm>
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
  return (cache.bitmap != nullptr ? 1 : 0) +
         (cache.candidates != nullptr ? 1 : 0);
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

/// Remaps one partition's ranked answers (local doc ids) to global ids
/// through the id-map snapshot and appends them to `merged`. A null map is
/// the identity (a single StaccatoDb's local ids are the global ones).
Status GatherShardAnswers(const ShardMap* map, size_t shard,
                          const std::vector<Answer>& answers,
                          std::vector<Answer>* merged) {
  if (map == nullptr) {
    merged->insert(merged->end(), answers.begin(), answers.end());
    return Status::OK();
  }
  const std::vector<DocId>& l2g = map->local_to_global[shard];
  for (const Answer& a : answers) {
    if (a.doc >= l2g.size()) {
      return Status::Internal("shard answer missing from the id map");
    }
    merged->push_back(Answer{l2g[a.doc], a.prob});
  }
  return Status::OK();
}

}  // namespace

Session::Session(StaccatoDb* db, SessionOptions opts)
    : parts_{db},
      opts_(opts),
      shared_caches_(std::make_shared<SharedPlanCacheTable>(1)) {}

Session::Session(ShardedDb* db, SessionOptions opts)
    : sharded_(db),
      opts_(opts),
      shared_caches_(
          std::make_shared<SharedPlanCacheTable>(db->num_shards())) {
  for (size_t s = 0; s < db->num_shards(); ++s) parts_.push_back(db->shard(s));
}

PreparedQuery::PreparedQuery(ShardedDb* sharded, std::vector<Partition> parts,
                             Dfa dfa,
                             std::shared_ptr<SharedPlanCacheTable> shared,
                             std::shared_ptr<telemetry::TraceSink> tracer)
    : sharded_(sharded),
      parts_(std::move(parts)),
      dfa_(std::move(dfa)),
      shared_(std::move(shared)),
      tracer_(std::move(tracer)) {
  for (Partition& part : parts_) part.fingerprint = PlanFingerprint(part.plan);
}

bool PreparedQuery::AdoptSharedCache(size_t s, uint64_t generation) {
  const PlanSpec& plan = parts_[s].plan;
  PlanCache& cache = parts_[s].cache;
  const bool needs_bitmap = !plan.equalities.empty();
  const bool needs_cands = plan.source == CandidateSource::kIndexProbe;
  if (!needs_bitmap && !needs_cands) return false;  // nothing is memoized
  const bool local_current = cache.generation == generation;
  if (local_current && (!needs_bitmap || cache.bitmap != nullptr) &&
      (!needs_cands || cache.candidates != nullptr)) {
    return false;  // locally warm already
  }
  std::shared_ptr<const PlanCache> entry;
  {
    util::MutexLock lock(&shared_->mu);
    const auto& entries = shared_->entries[s];
    auto it = entries.find(parts_[s].fingerprint);
    if (it != entries.end()) entry = it->second;
  }
  if (entry == nullptr || entry->generation != generation) return false;
  if (!local_current) {
    cache = PlanCache{};
    cache.generation = generation;
  }
  bool adopted = false;
  // Shared, not copied: the artifacts are immutable (see PlanCache).
  if (needs_bitmap && cache.bitmap == nullptr && entry->bitmap != nullptr) {
    cache.bitmap = entry->bitmap;
    adopted = true;
  }
  if (needs_cands && cache.candidates == nullptr &&
      entry->candidates != nullptr) {
    cache.candidates = entry->candidates;
    adopted = true;
  }
  return adopted;
}

void PreparedQuery::PublishSharedCache(size_t s, uint64_t generation) {
  const PlanCache& cache = parts_[s].cache;
  const std::string& fingerprint = parts_[s].fingerprint;
  if (cache.generation != generation || ArtifactCount(cache) == 0) return;
  // A map started over is freed here, after the lock is released: it may
  // hold the last reference to many artifacts.
  SharedPlanCacheTable::Map dropped;
  util::MutexLock lock(&shared_->mu);
  auto& entries = shared_->entries[s];
  // The table is bounded: these are memoizations, so dropping them only
  // costs a recompute. When this partition's share is full, first purge
  // its entries a reload already killed; if every entry is current, start
  // its map over rather than grow without bound in a long-lived serving
  // session.
  const size_t cap = std::max<size_t>(
      1, SharedPlanCacheTable::kMaxEntries / shared_->entries.size());
  if (entries.size() >= cap && entries.find(fingerprint) == entries.end()) {
    for (auto it = entries.begin(); it != entries.end();) {
      it = it->second->generation != generation ? entries.erase(it)
                                                : std::next(it);
    }
    if (entries.size() >= cap) dropped.swap(entries);
  }
  std::shared_ptr<const PlanCache>& slot = entries[fingerprint];
  if (slot == nullptr || slot->generation != generation ||
      ArtifactCount(*slot) < ArtifactCount(cache)) {
    slot = std::make_shared<const PlanCache>(cache);
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
  // Plan every partition independently: each shard's own TermStats and
  // table statistics price its scan-vs-probe choice, so a skewed shard
  // can probe while its siblings scan.
  std::vector<PreparedQuery::Partition> parts(parts_.size());
  for (size_t s = 0; s < parts_.size(); ++s) {
    PlanContext ctx = parts_[s]->MakePlanContext();
    STACCATO_ASSIGN_OR_RETURN(parts[s].plan,
                              BuildPlan(ctx, approach, q, pattern,
                                        opts_.eval_threads));
    parts[s].db = parts_[s];
  }
  return PreparedQuery(sharded_, std::move(parts), std::move(dfa),
                       shared_caches_, tracer_);
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

Result<std::vector<Answer>> PreparedQuery::ScatterGather(
    QueryControl* control, QueryStats* stats, telemetry::QueryTrace* trace) {
  const size_t n = parts_.size();
  // The scatter span: one child span per partition, so cross-shard skew
  // shows up in the trace the same way it does in the "Shards:" lines.
  telemetry::ScopedSpan scatter_span(trace, "Scatter");
  // Plan contexts first, id-map snapshot second: ShardedDb::Append
  // publishes its map extension before touching the owning shard, so
  // every document a context can see is translatable.
  std::vector<PlanContext> ctxs(n);
  for (size_t s = 0; s < n; ++s) {
    ctxs[s] = parts_[s].db->MakePlanContext();
    ctxs[s].control = control;  // one budget, shared across every shard
    ctxs[s].trace = trace;
  }
  std::shared_ptr<const ShardMap> map =
      sharded_ != nullptr ? sharded_->map_snapshot() : nullptr;
  // The forwarded global bound: every shard's Eval offers its answers
  // here and prunes against the global k-th best, so selective queries
  // kill candidates on one shard with answers found on another. Local
  // fallback when forwarding is ablated off (and on one partition, where
  // the local bound is the global one).
  TopKThreshold global_topk(plan().num_ans);
  TopKThreshold* forwarded =
      sharded_ != nullptr && sharded_->forward_threshold() ? &global_topk
                                                           : nullptr;
  std::vector<QueryStats> per_part(stats != nullptr ? n : 0);
  std::vector<std::vector<Answer>> part_answers(n);
  std::vector<char> adopted(n, 0);
  // Every partition records its own Status and the lambda always returns
  // OK, so (a) a failing shard never tears down its siblings mid-eval and
  // (b) the gather below surfaces the FIRST failing shard's Status in
  // shard order — deterministic, where propagating through the pool's
  // first-error capture would surface whichever failure raced first.
  std::vector<Status> part_status(n);
  STACCATO_RETURN_NOT_OK(ParallelFor(n, 1, [&](size_t s) -> Status {
    telemetry::ScopedSpan shard_span(trace, StringPrintf("shard-%zu", s),
                                     scatter_span.id());
    ctxs[s].trace_parent = shard_span.id();
    const uint64_t generation = ctxs[s].load_generation;
    adopted[s] = AdoptSharedCache(s, generation) ? 1 : 0;
    QueryStats* part_stats = stats != nullptr ? &per_part[s] : nullptr;
    Result<std::vector<Answer>> r =
        ExecutePlan(ctxs[s], parts_[s].plan, dfa_, part_stats,
                    &parts_[s].cache, forwarded);
    if (r.ok()) {
      PublishSharedCache(s, generation);
      part_answers[s] = std::move(r).ValueUnsafe();
    } else {
      part_status[s] = r.status();
    }
    // After ExecutePlan: its stats prologue resets every run-scoped
    // field, this one included.
    if (part_stats != nullptr) part_stats->shared_plan_hit = adopted[s] != 0;
    return Status::OK();
  }));
  if (std::find(adopted.begin(), adopted.end(), 1) != adopted.end()) {
    shared_->hits.fetch_add(1, std::memory_order_relaxed);
  }
  // Gather: remap local doc ids to global ones and re-rank. Each
  // partition already returned its own ranked top num_ans, and the global
  // top num_ans is a subset of their union, so one RankAnswers over the
  // concatenation reproduces the 1-shard answer bit for bit (and, being a
  // total order, leaves one partition's list as it is). The budget is
  // polled once per partition here (the gather cancellation point); a cut
  // only stops *new* work, so already-computed answers still merge.
  telemetry::ScopedSpan gather_span(trace, "Gather");
  std::vector<Answer> merged;
  for (size_t s = 0; s < n; ++s) {
    STACCATO_RETURN_NOT_OK(part_status[s]);
    if (control != nullptr && !control->allow_partial()) {
      STACCATO_RETURN_NOT_OK(control->Check());
    }
    STACCATO_RETURN_NOT_OK(
        GatherShardAnswers(map.get(), s, part_answers[s], &merged));
  }
  std::vector<Answer> ranked = RankAnswers(std::move(merged), plan().num_ans);
  if (stats != nullptr) {
    FoldShardStats(per_part, map != nullptr ? map->total : ctxs[0].num_sfas,
                   stats);
  }
  return ranked;
}

Result<std::vector<Answer>> PreparedQuery::Execute(QueryStats* stats) {
  return Execute(/*control=*/nullptr, stats);
}

Result<std::vector<Answer>> PreparedQuery::Execute(QueryControl* control,
                                                   QueryStats* stats) {
  Timer timer;
  const uint64_t start_ns = telemetry::MonotonicNanos();
  // Tracing is an observer only: `trace` stays null unless this query's
  // session turned it on, and nothing below ever *reads* it, so answers
  // are bit-identical either way (telemetry_test pins this down).
  std::shared_ptr<telemetry::QueryTrace> trace;
  if (tracer_->enabled()) {
    trace = telemetry::QueryTrace::Make(plan().pattern);
    if (control != nullptr && control->admission_wait_ns() > 0) {
      // Measured by the service before Execute began; backdate the span
      // so the trace timeline starts at "entered the admission queue".
      trace->AddSpan("admission-wait", start_ns - control->admission_wait_ns(),
                     start_ns);
    }
  }
  Result<std::vector<Answer>> result =
      ScatterGather(control, stats, trace.get());
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
        static_cast<double>(wall_ns) / 1e6, plan().pattern.c_str(),
        result.ok() ? "ok" : result.status().ToString().c_str());
    entry += stats != nullptr ? ExplainPlan(plan(), *stats) : Explain();
    if (trace != nullptr) entry += telemetry::RenderTrace(*trace);
    slow.Append(entry);
  }
  return result;
}

}  // namespace staccato::rdbms
