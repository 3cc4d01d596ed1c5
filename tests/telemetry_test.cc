// Tests for the telemetry subsystem (src/telemetry/): histogram quantile
// bounds against a sorted-vector oracle, lock-free concurrent recording
// (raced under the TSan CI job), fake-clock-driven span trees, slow-query
// log rotation, trace answer neutrality across the shard/thread/early-stop
// matrix, and one end-to-end Prometheus dump covering the service, pool,
// cache, blob, and WAL instrumentation points.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "eval/workbench.h"
#include "ocr/corpus.h"
#include "ocr/generator.h"
#include "rdbms/service.h"
#include "rdbms/session.h"
#include "rdbms/shard.h"
#include "rdbms/staccato_db.h"
#include "telemetry/clock.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/slow_log.h"
#include "telemetry/trace.h"
#include "util/strings.h"

namespace staccato {
namespace telemetry {
namespace {

// ---------------------------------------------------------------------------
// Histogram vs sorted-vector oracle.

uint64_t ExactQuantile(std::vector<uint64_t> sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  if (rank == 0) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

/// The log-bucket guarantee: the reported quantile is never below the
/// exact one and at most 2x it (bucket upper bounds are 2^i - 1, and the
/// exact value shares the reported value's bucket).
void CheckQuantiles(const std::vector<uint64_t>& values, const char* what) {
  auto& reg = MetricsRegistry::Global();
  static int n = 0;
  Histogram* h = reg.GetHistogram(
      StringPrintf("staccato_test_oracle_%d_us", n++));
  for (uint64_t v : values) h->Record(v);
  std::vector<uint64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.5, 0.95, 0.99}) {
    const uint64_t exact = ExactQuantile(sorted, q);
    const uint64_t got = h->ValueAtQuantile(q);
    EXPECT_GE(got, exact) << what << " q=" << q;
    EXPECT_LE(got, 2 * std::max<uint64_t>(exact, 1)) << what << " q=" << q;
  }
  EXPECT_EQ(h->count(), values.size()) << what;
}

TEST(HistogramTest, QuantilesMatchSortedOracleAcrossDistributions) {
  std::mt19937_64 rng(42);
  {
    std::vector<uint64_t> uniform;
    std::uniform_int_distribution<uint64_t> d(0, 1000000);
    for (int i = 0; i < 10000; ++i) uniform.push_back(d(rng));
    CheckQuantiles(uniform, "uniform");
  }
  {
    std::vector<uint64_t> expo;
    std::exponential_distribution<double> d(1.0 / 5000.0);
    for (int i = 0; i < 10000; ++i) {
      expo.push_back(static_cast<uint64_t>(d(rng)));
    }
    CheckQuantiles(expo, "exponential");
  }
  {
    std::vector<uint64_t> constant(5000, 777);
    CheckQuantiles(constant, "constant");
  }
  {
    // Heavy mass at zero: exercises the dedicated zero bucket.
    std::vector<uint64_t> zero_heavy(9000, 0);
    for (int i = 0; i < 1000; ++i) zero_heavy.push_back(1u << (i % 20));
    std::shuffle(zero_heavy.begin(), zero_heavy.end(), rng);
    CheckQuantiles(zero_heavy, "zero-heavy");
  }
  {
    std::vector<uint64_t> tiny = {3};
    CheckQuantiles(tiny, "single-sample");
  }
}

TEST(HistogramTest, BucketIndexCoversFullRange) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(~uint64_t{0}), 64u);
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::BucketUpperBound(64), ~uint64_t{0});
}

// Raced under the TSan CI job: Record is two relaxed fetch_adds, readers
// snapshot concurrently. The assertion is only that every sample lands.
TEST(HistogramTest, ConcurrentRecordingLosesNothing) {
  auto& reg = MetricsRegistry::Global();
  Histogram* h = reg.GetHistogram("staccato_test_concurrent_us");
  Counter* c = reg.GetCounter("staccato_test_concurrent_total");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h, c, t] {
      std::mt19937_64 rng(t);
      std::uniform_int_distribution<uint64_t> d(0, 1 << 20);
      for (int i = 0; i < kPerThread; ++i) {
        h->Record(d(rng));
        c->Increment();
      }
      // Concurrent dumps must see a consistent snapshot, not crash.
      if (t == 0) (void)MetricsRegistry::Global().DumpPrometheus();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h->count(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(c->value(), uint64_t{kThreads} * kPerThread);
}

TEST(MetricsRegistryTest, SameNameReturnsSamePointerAndDumpsRender) {
  auto& reg = MetricsRegistry::Global();
  Counter* a = reg.GetCounter("staccato_test_same_total");
  Counter* b = reg.GetCounter("staccato_test_same_total");
  EXPECT_EQ(a, b);
  a->Increment(3);
  reg.GetGauge("staccato_test_gauge{space=\"blob\"}")->Set(12);
  reg.GetGauge("staccato_test_gauge{space=\"page\"}")->Set(34);
  const std::string prom = reg.DumpPrometheus();
  EXPECT_NE(prom.find("staccato_test_same_total 3"), std::string::npos);
  // Labeled gauges share one TYPE line under the base name.
  EXPECT_NE(prom.find("# TYPE staccato_test_gauge gauge"), std::string::npos);
  EXPECT_NE(prom.find("staccato_test_gauge{space=\"blob\"} 12"),
            std::string::npos);
  const std::string json = reg.DumpJson();
  EXPECT_NE(json.find("\"staccato_test_same_total\":3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fake clock + span trees.

TEST(TraceTest, FakeClockMakesSpanTreeDeterministic) {
  FakeClock clock(1000);
  auto trace = QueryTrace::Make("test-query");
  const uint64_t root = trace->StartSpan("Execute");
  clock.Advance(1000000);  // 1 ms
  {
    ScopedSpan child(trace.get(), "CandidateGen", root);
    clock.Advance(2000000);  // 2 ms
  }
  const uint64_t eval = trace->StartSpan("Eval", root);
  clock.Advance(5000000);  // 5 ms
  trace->EndSpan(eval);
  trace->EndSpan(root);

  const std::vector<TraceSpan> spans = trace->spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "Execute");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[0].start_ns, 1000u);
  EXPECT_EQ(spans[0].end_ns - spans[0].start_ns, 8000000u);
  EXPECT_EQ(spans[1].name, "CandidateGen");
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[1].start_ns, 1001000u);
  EXPECT_EQ(spans[1].end_ns - spans[1].start_ns, 2000000u);
  EXPECT_EQ(spans[2].name, "Eval");
  EXPECT_EQ(spans[2].parent, root);
  EXPECT_EQ(spans[2].end_ns - spans[2].start_ns, 5000000u);

  const std::string text = RenderTrace(*trace);
  EXPECT_NE(text.find("test-query"), std::string::npos);
  EXPECT_NE(text.find("CandidateGen"), std::string::npos);
  const std::string json = TraceToJson(*trace);
  EXPECT_NE(json.find("\"Eval\""), std::string::npos);
}

TEST(TraceTest, NullTraceScopedSpanIsANoop) {
  ScopedSpan span(nullptr, "nothing");
  EXPECT_EQ(span.id(), 0u);
}

TEST(TraceTest, SinkKeepsOnlyTheLastCapacityTraces) {
  TraceSink sink(/*capacity=*/3);
  sink.set_enabled(true);
  for (int i = 0; i < 5; ++i) {
    sink.Push(QueryTrace::Make(StringPrintf("q%d", i)));
  }
  auto recent = sink.Recent();
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent[0]->label(), "q4");  // newest first
  EXPECT_EQ(recent[2]->label(), "q2");
}

// ---------------------------------------------------------------------------
// Slow-query log rotation.

uint64_t FileBytes(const std::string& path) {
  struct ::stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

TEST(SlowQueryLogTest, RotationKeepsTotalUnderTwiceTheCap) {
  const std::string dir = eval::MakeScratchDir("slow_log");
  SlowQueryLog::Config cfg;
  cfg.path = dir + "/slow.log";
  cfg.threshold_ms = 10;
  cfg.max_bytes = 4096;
  SlowQueryLog log(cfg);
  EXPECT_TRUE(log.enabled());
  EXPECT_FALSE(log.ShouldLog(9.0));
  EXPECT_TRUE(log.ShouldLog(10.0));

  const std::string entry(200, 'x');
  for (int i = 0; i < 200; ++i) log.Append(entry);

  const uint64_t live = FileBytes(cfg.path);
  const uint64_t rotated = FileBytes(cfg.path + ".1");
  EXPECT_GT(live, 0u);
  EXPECT_GT(rotated, 0u) << "200 * 201 bytes must have rotated at least once";
  EXPECT_LE(live, cfg.max_bytes + entry.size() + 1);
  EXPECT_LE(rotated, cfg.max_bytes + entry.size() + 1);
  EXPECT_LE(live + rotated, 2 * cfg.max_bytes + 2 * (entry.size() + 1));
  std::remove(cfg.path.c_str());
  std::remove((cfg.path + ".1").c_str());
}

TEST(SlowQueryLogTest, ZeroThresholdDisables) {
  SlowQueryLog::Config cfg;
  cfg.path = "/nonexistent/never-written.log";
  cfg.threshold_ms = 0;
  SlowQueryLog log(cfg);
  EXPECT_FALSE(log.enabled());
  EXPECT_FALSE(log.ShouldLog(1e9));
}

// ---------------------------------------------------------------------------
// End-to-end: trace answer neutrality + the full-dump integration check.

CorpusSpec SmallSpec() {
  CorpusSpec spec;
  spec.kind = DatasetKind::kCongressActs;
  spec.num_pages = 2;
  spec.lines_per_page = 10;
  spec.max_line_chars = 40;
  spec.seed = 4242;
  return spec;
}

rdbms::LoadOptions SmallLoad() {
  rdbms::LoadOptions opts;
  opts.kmap_k = 8;
  opts.staccato.m = 16;
  opts.staccato.k = 8;
  return opts;
}

class TelemetryEndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    OcrNoiseModel noise;
    noise.alternatives = 6;
    auto data = GenerateOcrDataset(SmallSpec(), noise);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    dataset_ = new OcrDataset(std::move(*data));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }

  static OcrDataset* dataset_;
};

OcrDataset* TelemetryEndToEndTest::dataset_ = nullptr;

template <typename Db>
std::vector<Answer> RunTraced(Db* db, const std::string& pattern,
                                     size_t threads, bool early_stop,
                                     bool tracing,
                                     rdbms::QueryStats* stats = nullptr) {
  rdbms::Session session(db, rdbms::SessionOptions{threads, 50});
  session.set_tracing(tracing);
  rdbms::QueryOptions q;
  q.pattern = pattern;
  q.num_ans = 50;
  q.eval_threads = threads;
  q.early_stop = early_stop;
  auto pq = session.Prepare(rdbms::Approach::kStaccato, q);
  EXPECT_TRUE(pq.ok()) << pq.status().ToString();
  if (!pq.ok()) return {};
  auto ans = pq->Execute(stats);
  EXPECT_TRUE(ans.ok()) << ans.status().ToString();
  if (tracing) {
    auto recent = session.recent_traces();
    EXPECT_FALSE(recent.empty()) << "tracing on must publish a trace";
    if (!recent.empty()) {
      EXPECT_FALSE(recent[0]->spans().empty());
    }
  } else {
    EXPECT_TRUE(session.recent_traces().empty());
  }
  return ans.ok() ? *ans : std::vector<Answer>{};
}

TEST_F(TelemetryEndToEndTest, TracingIsAnswerNeutralAcrossTheMatrix) {
  const std::vector<std::string> patterns = {
      DatasetQueries(DatasetKind::kCongressActs)[0]};
  for (size_t shards : {1u, 2u}) {
    auto db = rdbms::ShardedDb::Open(
        eval::MakeScratchDir(StringPrintf("telemetry_neutral_%zu", shards)),
        rdbms::ShardConfig{shards, cache::CacheConfig()});
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->Load(*dataset_, SmallLoad()).ok());
    for (size_t threads : {1u, 4u}) {
      for (bool early_stop : {true, false}) {
        for (const std::string& pat : patterns) {
          auto off = RunTraced(db->get(), pat, threads, early_stop,
                               /*tracing=*/false);
          rdbms::QueryStats on_stats;
          auto on = RunTraced(db->get(), pat, threads, early_stop,
                              /*tracing=*/true, &on_stats);
          ASSERT_EQ(off.size(), on.size());
          for (size_t i = 0; i < off.size(); ++i) {
            EXPECT_EQ(off[i].doc, on[i].doc)
                << pat << " shards=" << shards << " threads=" << threads
                << " early=" << early_stop << " rank " << i;
            EXPECT_EQ(off[i].prob, on[i].prob)
                << pat << " rank " << i << " (must be bit-identical)";
          }
          // The traced run carried its span tree out through the stats.
          ASSERT_NE(on_stats.trace, nullptr);
          EXPECT_FALSE(on_stats.trace->spans().empty());
          // One span shape for every shard count: Scatter, its shard
          // children, then Gather.
          const std::string text = RenderTrace(*on_stats.trace);
          const size_t scatter = text.find("Scatter");
          const size_t shard0 = text.find("shard-0");
          const size_t gather = text.find("Gather");
          ASSERT_NE(scatter, std::string::npos) << text;
          ASSERT_NE(shard0, std::string::npos) << text;
          ASSERT_NE(gather, std::string::npos) << text;
          EXPECT_LT(scatter, shard0) << text;
          EXPECT_LT(shard0, gather) << text;
        }
      }
    }
  }
}

TEST_F(TelemetryEndToEndTest, StageTimingsFillAndExplainRendersThem) {
  auto db = rdbms::StaccatoDb::Open(eval::MakeScratchDir("telemetry_stage"));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Load(*dataset_, SmallLoad()).ok());
  rdbms::Session session(db->get(), rdbms::SessionOptions{2, 50});
  rdbms::QueryOptions q;
  q.pattern = DatasetQueries(DatasetKind::kCongressActs)[0];
  q.num_ans = 20;
  auto pq = session.Prepare(rdbms::Approach::kStaccato, q);
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  rdbms::QueryStats stats;
  auto ans = pq->Execute(&stats);
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  EXPECT_GT(stats.stage.total_s, 0.0);
  EXPECT_GE(stats.stage.fetch_eval_s, 0.0);
  // The executor-measured total never exceeds the caller-measured wall
  // time, and the stage sum never exceeds the executor total (stages are
  // disjoint slices of it).
  EXPECT_LE(stats.stage.total_s, stats.seconds * 1.5 + 0.1);
  const double stage_sum = stats.stage.candidate_gen_s +
                           stats.stage.filter_s + stats.stage.fetch_eval_s +
                           stats.stage.topk_s;
  EXPECT_LE(stage_sum, stats.stage.total_s + 0.001);
  const std::string text = rdbms::ExplainPlan(pq->plan(), stats);
  EXPECT_NE(text.find("Stages:"), std::string::npos);
  EXPECT_NE(text.find("fetch+eval="), std::string::npos);
}

TEST_F(TelemetryEndToEndTest, OneDumpShowsEverySubsystem) {
  const std::string dir = eval::MakeScratchDir("telemetry_dump");
  auto db = rdbms::StaccatoDb::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Histogram* construct_us =
      MetricsRegistry::Global().GetHistogram("staccato_construct_us");
  const uint64_t constructed_before = construct_us->count();
  ASSERT_TRUE((*db)->Load(*dataset_, SmallLoad()).ok());
  // WAL: one live Append.
  rdbms::DocumentInput in;
  in.doc_name = "telemetry-doc";
  in.year = 2026;
  in.truth = dataset_->corpus.lines[0];
  in.sfa = dataset_->sfas[0];
  ASSERT_TRUE((*db)->Append(in).ok());
  // One construction sample per loaded document plus the appended one.
  EXPECT_EQ(construct_us->count() - constructed_before,
            dataset_->sfas.size() + 1);
  // Service-governed query: admission + latency histograms.
  rdbms::Session session(db->get(), rdbms::SessionOptions{2, 50});
  rdbms::QueryOptions q;
  q.pattern = DatasetQueries(DatasetKind::kCongressActs)[0];
  q.num_ans = 20;
  Histogram* prepare_us =
      MetricsRegistry::Global().GetHistogram("staccato_prepare_us");
  const uint64_t prepared_before = prepare_us->count();
  auto pq = session.Prepare(rdbms::Approach::kStaccato, q);
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  // One prepare sample per Session::Prepare.
  EXPECT_EQ(prepare_us->count() - prepared_before, 1u);
  rdbms::QueryService svc(&session);
  rdbms::QueryStats stats;
  auto ans = svc.Execute(&*pq, &stats);
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();

  const std::string prom = MetricsRegistry::Global().DumpPrometheus();
  for (const char* name : {
           "staccato_service_admitted_total",
           "staccato_service_query_us",
           "staccato_queries_total",
           "staccato_query_us",
           "staccato_pool_queue_depth",
           "staccato_cache_hits_total",
           "staccato_cache_bytes",
           "staccato_blob_reads_total",
           "staccato_blob_bytes_read_total",
           "staccato_wal_commits_total",
           "staccato_wal_commit_us",
           "staccato_construct_us",
           "staccato_prepare_us",
       }) {
    EXPECT_NE(prom.find(name), std::string::npos)
        << "DumpPrometheus is missing " << name;
  }
  const std::string json = MetricsRegistry::Global().DumpJson();
  EXPECT_NE(json.find("staccato_wal_commit_us"), std::string::npos);
}

}  // namespace
}  // namespace telemetry
}  // namespace staccato
