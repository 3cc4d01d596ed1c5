// Sharded buffer cache: cold vs warm Fetch, and hit rate vs memory budget.
//
// Three sections:
//
//  1. Fetch-stage microbench: the executor's per-candidate fetch unit
//     (StaccatoDb::FetchBlobCached: on a miss, heap point get -> blob
//     read -> decode into the SFA image the cache keeps) over every
//     stored Staccato blob — cold (both cache tiers dropped) vs warm
//     (images resident in the shared BufferCache). The warm pass serves
//     pinned decoded images; the headline is the speedup.
//
//  2. End-to-end cold vs warm Execute of a full-scan STACCATO query (scan
//     plans memoize nothing in the plan cache, so the delta is the buffer
//     cache alone), plus the same query on a cache-disabled database to
//     confirm identical answer counts.
//
//  3. Hit rate vs budget sweep: a standalone BufferCache at budgets from
//     an eighth of the working set to 2x, driven by two passes over every
//     wire blob (the sweep exercises the cache policy, not the decode)
//     — reports the steady-state hit rate, residency (always within
//     budget), and evictions at each point.
//
// Writes BENCH_cache.json with the headline numbers plus the calibrated
// planner CostConstants, so CI artifacts carry the constants the cost
// model ran with alongside the measured cache behavior.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "cache/buffer_cache.h"
#include "eval/workbench.h"
#include "rdbms/session.h"
#include "rdbms/staccato_db.h"
#include "util/timer.h"

using namespace staccato;
using cache::BufferCache;
using cache::CacheConfig;
using cache::CacheKey;
using cache::CacheStats;
using eval::Workbench;
using eval::WorkbenchSpec;
using rdbms::Approach;
using rdbms::CostConstants;
using rdbms::IndexMode;
using rdbms::QueryOptions;
using rdbms::QueryStats;
using rdbms::Session;

namespace {

constexpr int kWarmRuns = 5;

WorkbenchSpec BenchSpec(size_t cache_budget) {
  WorkbenchSpec spec;
  spec.corpus.kind = DatasetKind::kCongressActs;
  spec.corpus.num_pages = 5;
  spec.corpus.lines_per_page = 40;
  spec.corpus.seed = 4242;
  spec.noise.alternatives = 12;
  spec.load.kmap_k = 10;
  spec.load.staccato = {25, 10, true};
  spec.build_index = true;
  spec.cache = CacheConfig{cache_budget, /*shards=*/0};
  return spec;
}

/// One pass of the executor's fetch unit over every Staccato blob; returns
/// the wall seconds and accumulates the decoded image bytes seen (a
/// checksum that also defeats dead-code elimination).
double FetchPass(rdbms::StaccatoDb& db, uint64_t* bytes_seen) {
  Timer t;
  for (DocId doc = 0; doc < db.NumSfas(); ++doc) {
    auto h = db.FetchBlobCached(doc, /*full_sfa=*/false);
    if (!h.ok()) {
      fprintf(stderr, "fetch(%zu): %s\n", static_cast<size_t>(doc),
              h.status().ToString().c_str());
      return -1.0;
    }
    *bytes_seen += h->value().size();
  }
  return t.ElapsedSeconds();
}

}  // namespace

int main() {
  const size_t kBudget = 64ull << 20;
  auto wb = Workbench::Create(BenchSpec(kBudget));
  if (!wb.ok()) {
    fprintf(stderr, "workbench: %s\n", wb.status().ToString().c_str());
    return 1;
  }
  rdbms::StaccatoDb& db = (*wb)->db();
  const size_t docs = db.NumSfas();

  // Working-set size: total bytes of the Staccato blobs (what the sweep's
  // budgets are scaled against).
  uint64_t working_set = 0;
  std::vector<std::string> blobs;
  blobs.reserve(docs);
  for (DocId doc = 0; doc < docs; ++doc) {
    auto blob = db.ReadStaccatoBlob(doc);
    if (!blob.ok()) return 1;
    working_set += blob->size();
    blobs.push_back(std::move(*blob));
  }

  // ---- 1. Fetch-stage microbench: cold vs warm ----------------------------
  eval::PrintHeader(
      "Fetch unit (heap get + blob read + decode, cached as an image): "
      "cold vs warm");
  printf("%zu docs, %.1f KiB Staccato working set, %zu MiB budget, %zu shards\n\n",
         docs, working_set / 1024.0, kBudget >> 20,
         db.buffer_cache()->num_shards());
  if (!db.DropCaches().ok()) return 1;
  uint64_t sink = 0;
  double cold_s = FetchPass(db, &sink);
  if (cold_s < 0) return 1;
  double warm_s = 0.0;
  for (int r = 0; r < kWarmRuns; ++r) {
    double s = FetchPass(db, &sink);
    if (s < 0) return 1;
    if (r == 0 || s < warm_s) warm_s = s;
  }
  const double fetch_speedup = warm_s > 0 ? cold_s / warm_s : 0.0;
  printf("%-24s %12s %12s\n", "pass", "total(ms)", "us/fetch");
  printf("%-24s %12.3f %12.3f\n", "cold (disk + decode)", cold_s * 1e3,
         cold_s / docs * 1e6);
  printf("%-24s %12.3f %12.3f\n", "warm (image hits)", warm_s * 1e3,
         warm_s / docs * 1e6);
  printf("speedup: %.2fx %s\n", fetch_speedup,
         fetch_speedup >= 3.0 ? "(>= 3x target met)" : "(below 3x target!)");
  CacheStats cs = db.buffer_cache()->stats();
  printf("cache: hits=%llu misses=%llu resident=%.1f KiB (budget %.1f KiB)\n",
         static_cast<unsigned long long>(cs.hits),
         static_cast<unsigned long long>(cs.misses), cs.bytes_in_use / 1024.0,
         kBudget / 1024.0);
  if (cs.bytes_in_use > kBudget) {
    fprintf(stderr, "BUG: cache exceeded its budget\n");
    return 1;
  }

  // ---- 2. End-to-end cold vs warm Execute ---------------------------------
  eval::PrintHeader("End-to-end STACCATO scan Execute: cold vs warm vs cache-off");
  QueryOptions q;
  q.pattern = "President";
  q.index_mode = IndexMode::kNever;  // scan: plan cache memoizes nothing
  q.eval_threads = 1;
  auto pq = (*wb)->session().Prepare(Approach::kStaccato, q);
  if (!pq.ok()) return 1;
  if (!db.DropCaches().ok()) return 1;
  QueryStats e2e_cold;
  auto cold_ans = pq->Execute(&e2e_cold);
  if (!cold_ans.ok()) return 1;
  QueryStats e2e_warm;
  double warm_best = 0.0;
  for (int r = 0; r < kWarmRuns; ++r) {
    QueryStats s;
    if (!pq->Execute(&s).ok()) return 1;
    if (r == 0 || s.seconds < warm_best) warm_best = s.seconds;
    e2e_warm = s;
  }
  auto off_wb = Workbench::Create([] {
    WorkbenchSpec s = BenchSpec(0);  // same corpus, caching disabled
    return s;
  }());
  if (!off_wb.ok()) return 1;
  auto off_pq = (*off_wb)->session().Prepare(Approach::kStaccato, q);
  if (!off_pq.ok()) return 1;
  auto off_ans = off_pq->Execute();
  if (!off_ans.ok()) return 1;
  printf("%-24s %10s %12s %12s %10s\n", "run", "ms", "blob-bytes",
         "cache h/m", "answers");
  printf("%-24s %10.2f %12llu %6llu/%-6llu %8zu\n", "cold", e2e_cold.seconds * 1e3,
         static_cast<unsigned long long>(e2e_cold.blob_bytes_read),
         static_cast<unsigned long long>(e2e_cold.cache_hits),
         static_cast<unsigned long long>(e2e_cold.cache_misses),
         cold_ans->size());
  printf("%-24s %10.2f %12llu %6llu/%-6llu %8zu\n", "warm (best of 5)",
         warm_best * 1e3,
         static_cast<unsigned long long>(e2e_warm.blob_bytes_read),
         static_cast<unsigned long long>(e2e_warm.cache_hits),
         static_cast<unsigned long long>(e2e_warm.cache_misses),
         cold_ans->size());
  printf("%-24s %10s %12s %12s %8zu\n", "cache-off (reference)", "-", "-", "-",
         off_ans->size());
  if (off_ans->size() != cold_ans->size()) {
    fprintf(stderr, "BUG: cache-on and cache-off answer counts differ\n");
    return 1;
  }
  const double e2e_speedup =
      warm_best > 0 ? e2e_cold.seconds / warm_best : 0.0;
  printf("end-to-end warm speedup: %.2fx (Fetch is one stage of the "
         "pipeline;\nEval dominates a scan, so this is smaller than the "
         "fetch-unit speedup)\n", e2e_speedup);

  // ---- 3. Hit rate vs budget sweep ----------------------------------------
  eval::PrintHeader("Hit rate vs budget (standalone cache, 2 passes over all blobs)");
  printf("%-14s %10s %12s %12s %10s\n", "budget", "hit-rate", "resident(KiB)",
         "evictions", "within");
  struct SweepPoint {
    double budget_frac;
    size_t budget;
    double hit_rate;
    uint64_t resident;
    uint64_t evictions;
  };
  std::vector<SweepPoint> sweep;
  for (double frac : {0.125, 0.25, 0.5, 1.0, 2.0}) {
    // Head-room for the per-entry overhead at frac >= 1 so "covers the
    // working set" means what it says.
    size_t budget = static_cast<size_t>(
        working_set * frac + docs * BufferCache::kEntryOverhead * frac);
    BufferCache c(budget, /*shards=*/4);
    CacheStats after_pass1;
    for (int pass = 0; pass < 2; ++pass) {
      for (DocId doc = 0; doc < docs; ++doc) {
        CacheKey key{1, doc, 1};
        if (BufferCache::Handle h = c.Lookup(key)) continue;
        c.Insert(key, blobs[doc]);
      }
      if (pass == 0) after_pass1 = c.stats();
    }
    CacheStats s = c.stats();
    // Steady-state rate: pass 2 only (pass 1 misses everything cold).
    const uint64_t p2_hits = s.hits - after_pass1.hits;
    const uint64_t p2_lookups =
        (s.hits + s.misses) - (after_pass1.hits + after_pass1.misses);
    double hit_rate = p2_lookups > 0
                          ? static_cast<double>(p2_hits) /
                                static_cast<double>(p2_lookups)
                          : 0.0;
    bool within = s.bytes_in_use <= budget;
    printf("%13.3gx %9.2f%% %13.1f %12llu %10s\n", frac, hit_rate * 100.0,
           s.bytes_in_use / 1024.0,
           static_cast<unsigned long long>(s.evictions),
           within ? "yes" : "NO (BUG)");
    if (!within) return 1;
    sweep.push_back({frac, budget, hit_rate, s.bytes_in_use, s.evictions});
  }
  printf("\nWith headroom above the working set (2x) the second pass hits "
         "everything;\nat exactly 1x, shard imbalance still evicts a "
         "little; below it, LRU keeps\nresidency pinned to the budget and "
         "the hit rate degrades smoothly.\n");

  // ---- 4. Machine-readable trajectory point -------------------------------
  // The JSON also carries the calibrated CostConstants the planner ran
  // with, so the perf artifacts and the cost model stay reviewable side
  // by side as hardware drifts.
  const CostConstants consts;
  FILE* json = fopen("BENCH_cache.json", "w");
  if (json != nullptr) {
    fprintf(json,
            "{\n"
            "  \"bench\": \"blob_cache\",\n"
            "  \"docs\": %zu,\n"
            "  \"working_set_bytes\": %llu,\n"
            "  \"budget_bytes\": %llu,\n"
            "  \"fetch_cold_us_per_doc\": %.3f,\n"
            "  \"fetch_warm_us_per_doc\": %.3f,\n"
            "  \"fetch_speedup\": %.3f,\n"
            "  \"e2e_cold_ms\": %.3f,\n"
            "  \"e2e_warm_ms\": %.3f,\n"
            "  \"e2e_speedup\": %.3f,\n"
            "  \"sweep\": [",
            docs, static_cast<unsigned long long>(working_set),
            static_cast<unsigned long long>(kBudget), cold_s / docs * 1e6,
            warm_s / docs * 1e6, fetch_speedup, e2e_cold.seconds * 1e3,
            warm_best * 1e3, e2e_speedup);
    for (size_t i = 0; i < sweep.size(); ++i) {
      fprintf(json,
              "%s\n    {\"budget_frac\": %.3f, \"budget_bytes\": %zu, "
              "\"hit_rate\": %.4f, \"resident_bytes\": %llu, "
              "\"evictions\": %llu}",
              i == 0 ? "" : ",", sweep[i].budget_frac, sweep[i].budget,
              sweep[i].hit_rate,
              static_cast<unsigned long long>(sweep[i].resident),
              static_cast<unsigned long long>(sweep[i].evictions));
    }
    fprintf(json,
            "\n  ],\n"
            "  \"cost_constants\": {\n"
            "    \"point_read_cost\": %.4f,\n"
            "    \"eval_cost_per_byte\": %.6f,\n"
            "    \"projection_eval_discount\": %.4f,\n"
            "    \"string_match_cost_per_tuple\": %.6f,\n"
            "    \"equality_default_selectivity\": %.4f,\n"
            "    \"cache_hit_cost\": %.4f\n"
            "  }\n"
            "}\n",
            consts.point_read_cost, consts.eval_cost_per_byte,
            consts.projection_eval_discount, consts.string_match_cost_per_tuple,
            consts.equality_default_selectivity, consts.cache_hit_cost);
    fclose(json);
    printf("wrote BENCH_cache.json\n");
  }
  (void)sink;
  return 0;
}
