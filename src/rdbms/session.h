// The prepared-query surface of the engine.
//
// A Session borrows a StaccatoDb (or a ShardedDb) and turns logical
// queries (pattern + options, or the paper's SQL) into PreparedQuery
// objects:
//
//   Session session(db.get());
//   STACCATO_ASSIGN_OR_RETURN(
//       PreparedQuery pq,
//       session.PrepareSql(Approach::kStaccato,
//                          "SELECT DocID FROM Claims "
//                          "WHERE Year = 2010 AND DocData LIKE '%Ford%';"));
//   puts(pq.Explain().c_str());
//   auto answers = pq.Execute();       // repeatable; plan + DFA reused
//
// A Session sees its database as an ordered list of partitions: a
// StaccatoDb is one partition whose local doc ids are the global ones, a
// ShardedDb is its N shards plus the id map that translates them. Every
// path below runs per partition, and there is exactly one execution path.
//
// Prepare parses the pattern once (for the DFA and every partition's
// planner), compiles the pattern DFA once, binds equality literals against
// the MasterData schema, and freezes a *cost-based* physical plan (plan.h)
// per partition:
// the planner prices the full-scan and index-probe paths from posting
// counts and table statistics and keeps the cheaper one, unless
// QueryOptions::index_mode pins the choice. A SQL LIMIT clause maps to the
// TopK answer budget (NumAns).
//
// Execute scatters the plans over the shared pool (inline for one
// partition), gathers the per-partition answers into one global ranking,
// and folds the per-partition stats (one QueryStats::shards row each).
// Each PreparedQuery carries a plan-level cache per partition:
// the first Execute memoizes the index-probe CandidateSet and the
// equality-filter bitmap, so warm Executes skip the CandidateGen and
// Filter operators entirely (QueryStats::candidates_from_cache /
// filter_from_cache report this). Cached entries live until the database's
// load generation moves — any Load or BuildInvertedIndex invalidates them
// on the next Execute — and warm answers are always bit-identical to cold
// ones. Plan caches are also shared *across* the PreparedQueries of one
// Session: after a successful Execute the warmed artifacts are published
// (as immutable snapshots, keyed by partition and plan fingerprint) into a
// session-wide table, and a cold PreparedQuery with the same fingerprint
// adopts them on its first Execute instead of recomputing
// (QueryStats::shared_plan_hit, Session::shared_plan_hits). A
// PreparedQuery is not synchronized: run concurrent Executes on separate
// PreparedQuery objects. The legacy StaccatoDb::Query call is a thin
// flag-driven wrapper over this engine (it pins index_mode from use_index);
// StaccatoDb::QuerySql is cost-based like any SQL prepare. Both run
// prepare + execute in one shot, so they never hit the warm path.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "automata/dfa.h"
#include "rdbms/plan.h"
#include "util/mutex.h"
#include "util/result.h"

namespace staccato::rdbms {

class StaccatoDb;
class ShardedDb;
class PreparedQuery;

/// \brief The session-wide shared plan-cache table: immutable snapshots of
/// warmed PlanCache artifacts, keyed by partition index and plan
/// fingerprint (candidate source + anchor + bound equalities — exactly
/// what the memoized CandidateSet and bitmap depend on). Each partition
/// has its own map: its artifacts hold its local doc ids and carry its
/// own load generation inside the PlanCache. A PreparedQuery adopts an
/// entry only when the generation still matches, and publishes a fresh
/// snapshot after warming its own cache. Shared (via shared_ptr) between
/// a Session and every PreparedQuery it creates, so queries stay valid if
/// the Session dies first. All access goes through the mutex; the
/// snapshots themselves are immutable, so concurrent Executes on separate
/// PreparedQuery objects stay safe.
struct SharedPlanCacheTable {
  /// Bound on the entries retained over all partitions (each entry can
  /// hold an O(num_docs) bitmap plus a CandidateSet); a partition's map
  /// holds at most its even share. Publishing past the share purges that
  /// partition's stale-generation entries first, then starts its map
  /// over — entries are memoizations, so the worst case is a recompute,
  /// never growth without bound in a long-lived serving session.
  static constexpr size_t kMaxEntries = 256;

  using Map = std::unordered_map<std::string, std::shared_ptr<const PlanCache>>;

  explicit SharedPlanCacheTable(size_t partitions) : entries(partitions) {}

  util::Mutex mu;
  std::vector<Map> entries GUARDED_BY(mu);  ///< [partition][fingerprint]
  std::atomic<uint64_t> hits{0};  ///< Executes that adopted an entry
};

/// \brief Session-wide defaults applied at prepare time.
struct SessionOptions {
  /// Default Eval-stage workers when QueryOptions::eval_threads == 0.
  /// 0 = hardware concurrency (sessions are parallel by default).
  size_t eval_threads = 0;
  /// Default NumAns for SQL statements (SQL has no NumAns syntax).
  size_t num_ans = 100;
};

/// \brief Prepared-query factory over one database.
class Session {
 public:
  /// A session over one StaccatoDb: a single partition.
  explicit Session(StaccatoDb* db, SessionOptions opts = {});

  /// A session over a sharded database, one partition per shard. Prepare
  /// plans every shard independently (each shard's own statistics drive
  /// its scan-vs-probe choice) and Execute scatter-gathers: shard evals
  /// fan out over the shared pool, share one global TopKThreshold when the
  /// database has threshold forwarding on, and the merged ranking is
  /// bit-identical to the 1-shard answer.
  explicit Session(ShardedDb* db, SessionOptions opts = {});

  /// Compiles + plans a pattern query. The returned PreparedQuery remains
  /// valid as long as the database outlives it.
  Result<PreparedQuery> Prepare(Approach approach, const QueryOptions& q);

  /// Parses the paper's SQL subset (single-table select-project with one
  /// LIKE and any number of equality predicates) and prepares it.
  Result<PreparedQuery> PrepareSql(Approach approach, const std::string& sql);

  const SessionOptions& options() const { return opts_; }

  /// How many Executes served CandidateGen/Filter on at least one
  /// partition from the session's shared plan-cache table — i.e. were
  /// warmed by a *different* PreparedQuery with the same plan fingerprint
  /// (QueryStats::shared_plan_hit flags the individual executions).
  uint64_t shared_plan_hits() const {
    return shared_caches_->hits.load(std::memory_order_relaxed);
  }

  /// Per-query tracing (telemetry/trace.h). The sink is shared with every
  /// PreparedQuery this session creates (queries stay valid if the
  /// Session dies first, like the plan-cache table); its enabled bit
  /// seeds from STACCATO_TRACE and can be toggled here at any time.
  /// While enabled, each Execute records a span tree — answer-neutral,
  /// a few dozen spans per query — and publishes it to the sink's
  /// bounded ring (and to QueryStats::trace).
  void set_tracing(bool on) { tracer_->set_enabled(on); }
  bool tracing() const { return tracer_->enabled(); }
  /// The most recent finished traces, newest first.
  std::vector<std::shared_ptr<const telemetry::QueryTrace>> recent_traces()
      const {
    return tracer_->Recent();
  }

 private:
  /// Prepare's body; Prepare times it into staccato_prepare_us.
  Result<PreparedQuery> PrepareUntimed(Approach approach,
                                       const QueryOptions& q);

  /// The partitions every query plans and scatters over, in shard order.
  std::vector<StaccatoDb*> parts_;
  /// The sharded database's id map and threshold-forwarding switch; null
  /// for a single StaccatoDb, whose local doc ids are the global ones.
  ShardedDb* sharded_ = nullptr;
  SessionOptions opts_;
  std::shared_ptr<SharedPlanCacheTable> shared_caches_;
  std::shared_ptr<telemetry::TraceSink> tracer_ =
      std::make_shared<telemetry::TraceSink>();
};

/// \brief A compiled, planned, repeatedly executable query.
class PreparedQuery {
 public:
  /// Runs the plan and returns the ranked answers. Thread-count changes
  /// never change the answers, only the wall clock — and neither does
  /// early termination: the Eval stage streams candidates against the
  /// running k-th best answer and aborts provably-hopeless ones, but a
  /// pruned candidate can never have entered the top-k. Repeated calls
  /// serve CandidateGen/Filter from the plan cache (bit-identical
  /// results); the cache self-invalidates when the database reloads data.
  /// Non-const because it warms the cache — the honest signal that one
  /// PreparedQuery must not Execute concurrently with itself.
  Result<std::vector<Answer>> Execute(QueryStats* stats = nullptr);

  /// Execute under a per-query budget/cancellation block (rdbms/service.h):
  /// the executor polls `control` at its cancellation points, retries
  /// transient I/O against its retry budget, and either fails with
  /// DeadlineExceeded or (allow_partial) degrades to the exact top-k of
  /// the visited candidates, reporting QueryStats::degraded /
  /// visited_candidates / io_retries. `control` may be null (identical to
  /// the overload above); both parameters are explicit so the overloads
  /// never collide. This is what QueryService::Execute runs.
  Result<std::vector<Answer>> Execute(QueryControl* control,
                                      QueryStats* stats);

  /// Stable text rendering of the physical plan (shard 0's on a sharded
  /// database, where every shard plans for itself).
  std::string Explain() const { return ExplainPlan(plan()); }

  const PlanSpec& plan() const { return parts_.front().plan; }
  const Dfa& dfa() const { return dfa_; }

  /// Re-binds the answer budget without re-planning. (Cache-safe: the
  /// memoized CandidateSet/bitmap do not depend on NumAns.)
  void set_num_ans(size_t n) {
    for (Partition& p : parts_) p.plan.num_ans = n;
  }
  /// Re-binds the Eval worker count without re-planning (>= 1).
  void set_eval_threads(size_t t) {
    for (Partition& p : parts_) p.plan.eval_threads = t == 0 ? 1 : t;
  }
  /// Toggles threshold-pruned top-k Eval without re-planning. Answer sets
  /// are identical either way; only the work performed changes
  /// (QueryStats::eval_pruned / eval_steps_saved report it).
  void set_early_stop(bool on) {
    for (Partition& p : parts_) p.plan.early_stop = on;
  }

 private:
  friend class Session;

  /// One partition's independently planned query and its memoized
  /// CandidateGen/Filter artifacts (generation-tagged, plan.h).
  struct Partition {
    StaccatoDb* db = nullptr;
    PlanSpec plan;
    PlanCache cache;
    /// Key of this partition's artifacts in its map of the session table.
    std::string fingerprint;
  };

  PreparedQuery(ShardedDb* sharded, std::vector<Partition> parts, Dfa dfa,
                std::shared_ptr<SharedPlanCacheTable> shared,
                std::shared_ptr<telemetry::TraceSink> tracer);

  /// Scatter-gather over the partitions (see session.cc). `control`
  /// (nullable) threads the query budget into every partition's
  /// ExecutePlan and is polled again at the per-partition gather. `trace`
  /// (nullable) receives a scatter span with one child span per shard.
  Result<std::vector<Answer>> ScatterGather(QueryControl* control,
                                            QueryStats* stats,
                                            telemetry::QueryTrace* trace);

  /// Copies any artifacts partition `s`'s plan will need from the session
  /// table into its local cache, when the local cache lacks them for
  /// `generation`. Returns true if anything was adopted.
  bool AdoptSharedCache(size_t s, uint64_t generation);
  /// Publishes a snapshot of partition `s`'s warmed local cache into the
  /// session table when it carries more artifacts than the current entry.
  void PublishSharedCache(size_t s, uint64_t generation);

  /// The id map and forwarding switch (null for one StaccatoDb; see
  /// Session::sharded_).
  ShardedDb* sharded_;
  std::vector<Partition> parts_;  ///< never empty
  Dfa dfa_;
  /// The owning session's shared plan-cache table and trace sink, shared
  /// so the query stays valid (and keeps tracing) if the Session dies
  /// first.
  std::shared_ptr<SharedPlanCacheTable> shared_;
  std::shared_ptr<telemetry::TraceSink> tracer_;
};

}  // namespace staccato::rdbms
