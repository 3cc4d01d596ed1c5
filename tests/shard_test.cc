// Differential property tests for corpus sharding (rdbms/shard.h).
//
// The invariant under test: a ShardedDb answers every query bit-identically
// to the single-partition StaccatoDb holding the same dataset — the same
// ranked documents with exactly equal probabilities — for every shard
// count (1/2/4/7), eval thread count (1/4/8), early-stop setting, and
// threshold-forwarding setting, including Append/Checkpoint interleavings
// and reopen with per-shard WAL replay. Concurrent Executes race against
// Append under the TSan CI job.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "eval/workbench.h"
#include "ocr/corpus.h"
#include "ocr/generator.h"
#include "rdbms/session.h"
#include "rdbms/shard.h"
#include "rdbms/staccato_db.h"
#include "util/strings.h"

namespace staccato {
namespace rdbms {
namespace {

CorpusSpec SmallSpec() {
  CorpusSpec spec;
  spec.kind = DatasetKind::kCongressActs;
  spec.num_pages = 2;
  spec.lines_per_page = 12;
  spec.max_line_chars = 40;
  spec.seed = 777;
  return spec;
}

OcrNoiseModel Noise() {
  OcrNoiseModel noise;
  noise.alternatives = 6;
  return noise;
}

LoadOptions SmallLoad() {
  LoadOptions opts;
  opts.kmap_k = 8;
  opts.staccato.m = 16;
  opts.staccato.k = 8;
  return opts;
}

/// Mirrors what Load() derives for document i (see ingest_test.cc).
DocumentInput InputFor(const OcrDataset& d, size_t i) {
  DocumentInput in;
  const uint32_t page = d.corpus.page_of_line[i];
  in.doc_name = StringPrintf("%s-page-%u", d.corpus.name.c_str(), page);
  in.year = 2010 + page;
  in.truth = d.corpus.lines[i];
  in.sfa = d.sfas[i];
  return in;
}

OcrDataset Prefix(const OcrDataset& d, size_t n) {
  OcrDataset p;
  p.corpus.name = d.corpus.name;
  p.corpus.num_pages = d.corpus.num_pages;
  p.corpus.lines.assign(d.corpus.lines.begin(), d.corpus.lines.begin() + n);
  p.corpus.page_of_line.assign(d.corpus.page_of_line.begin(),
                               d.corpus.page_of_line.begin() + n);
  p.sfas.assign(d.sfas.begin(), d.sfas.begin() + n);
  return p;
}

template <typename Db>
std::vector<Answer> RunQuery(Db* db, Approach approach,
                             const std::string& pattern, size_t threads,
                             bool early_stop, QueryStats* stats = nullptr) {
  Session session(db, SessionOptions{threads, 50});
  QueryOptions q;
  q.pattern = pattern;
  q.num_ans = 50;
  q.eval_threads = threads;
  q.early_stop = early_stop;
  auto pq = session.Prepare(approach, q);
  EXPECT_TRUE(pq.ok()) << pq.status().ToString();
  if (!pq.ok()) return {};
  auto ans = pq->Execute(stats);
  EXPECT_TRUE(ans.ok()) << ans.status().ToString();
  return ans.ok() ? *ans : std::vector<Answer>{};
}

void ExpectSameAnswers(const std::vector<Answer>& want,
                       const std::vector<Answer>& got, const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].doc, got[i].doc) << what << " rank " << i;
    EXPECT_EQ(want[i].prob, got[i].prob)
        << what << " rank " << i << " (must be bit-identical)";
  }
}

/// Shared corpus + single-partition oracle, built once for the suite.
class ShardTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto data = GenerateOcrDataset(SmallSpec(), Noise());
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    dataset_ = new OcrDataset(std::move(*data));
    auto oracle = StaccatoDb::Open(eval::MakeScratchDir("shard_oracle"));
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    oracle_ = oracle->release();
    ASSERT_TRUE(oracle_->Load(*dataset_, SmallLoad()).ok());
    ASSERT_TRUE(
        oracle_->BuildInvertedIndex(DatasetQueries(DatasetKind::kCongressActs))
            .ok());
  }
  static void TearDownTestSuite() {
    delete oracle_;
    oracle_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }

  static std::vector<std::string> Patterns() {
    std::vector<std::string> qs = DatasetQueries(DatasetKind::kCongressActs);
    return {qs[0], qs[1]};
  }

  static OcrDataset* dataset_;
  static StaccatoDb* oracle_;
};

OcrDataset* ShardTest::dataset_ = nullptr;
StaccatoDb* ShardTest::oracle_ = nullptr;

TEST_F(ShardTest, ShardDirAndPartitionAreStable) {
  EXPECT_EQ(ShardDirName("/tmp/db", 3), "/tmp/db/shard.3");
  EXPECT_EQ(ShardOfDoc(42, 1), 0u);
  for (size_t n : {2u, 4u, 7u}) {
    for (DocId g = 0; g < 100; ++g) {
      size_t s = ShardOfDoc(g, n);
      EXPECT_LT(s, n);
      EXPECT_EQ(s, ShardOfDoc(g, n)) << "placement must be deterministic";
    }
  }
}

TEST_F(ShardTest, AnswersBitIdenticalAcrossShardThreadEarlyStopMatrix) {
  const auto patterns = Patterns();
  for (size_t shards : {1u, 2u, 4u, 7u}) {
    auto db = ShardedDb::Open(
        eval::MakeScratchDir(StringPrintf("shard_inv_%zu", shards)),
        ShardConfig{shards, cache::CacheConfig()});
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_EQ((*db)->num_shards(), shards);
    ASSERT_TRUE((*db)->Load(*dataset_, SmallLoad()).ok());
    ASSERT_TRUE((*db)
                    ->BuildInvertedIndex(
                        DatasetQueries(DatasetKind::kCongressActs))
                    .ok());
    ASSERT_EQ((*db)->NumSfas(), oracle_->NumSfas());
    for (Approach approach :
         {Approach::kMap, Approach::kKMap, Approach::kStaccato}) {
      for (size_t threads : {1u, 4u, 8u}) {
        for (bool early_stop : {true, false}) {
          for (const std::string& pat : patterns) {
            auto want = RunQuery(oracle_, approach, pat, threads, early_stop);
            auto got = RunQuery(db->get(), approach, pat, threads, early_stop);
            ExpectSameAnswers(
                want, got,
                StringPrintf("%s shards=%zu threads=%zu early=%d",
                             pat.c_str(), shards, threads, early_stop ? 1 : 0));
          }
        }
      }
    }
    // Ground truth remaps to the same global ids.
    auto truth_want = oracle_->GroundTruthFor(patterns[0]);
    auto truth_got = (*db)->GroundTruthFor(patterns[0]);
    ASSERT_TRUE(truth_want.ok());
    ASSERT_TRUE(truth_got.ok()) << truth_got.status().ToString();
    EXPECT_EQ(*truth_want, *truth_got);
  }
}

TEST_F(ShardTest, ThresholdForwardingIsAnswerNeutral) {
  auto db = ShardedDb::Open(eval::MakeScratchDir("shard_fwd"),
                            ShardConfig{4, cache::CacheConfig()});
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Load(*dataset_, SmallLoad()).ok());
  for (const std::string& pat : Patterns()) {
    (*db)->set_forward_threshold(true);
    QueryStats fwd_stats;
    auto fwd = RunQuery(db->get(), Approach::kStaccato, pat, 4, true,
                        &fwd_stats);
    (*db)->set_forward_threshold(false);
    auto solo = RunQuery(db->get(), Approach::kStaccato, pat, 4, true);
    ExpectSameAnswers(fwd, solo, "forwarding on vs off: " + pat);
    // Per-shard breakdown reaches the stats and the Explain rendering.
    ASSERT_EQ(fwd_stats.shards.size(), 4u);
    Session session(db->get(), SessionOptions{1, 50});
    QueryOptions q;
    q.pattern = pat;
    auto pq = session.Prepare(Approach::kStaccato, q);
    ASSERT_TRUE(pq.ok());
    std::string rendered = ExplainPlan(pq->plan(), fwd_stats);
    EXPECT_NE(rendered.find("Shards: 4"), std::string::npos) << rendered;
    EXPECT_NE(rendered.find("shard 3:"), std::string::npos) << rendered;
  }
}

TEST_F(ShardTest, AppendCheckpointInterleavingsMatchBulkLoad) {
  const size_t total = dataset_->sfas.size();
  const size_t base = total / 2;
  auto db = ShardedDb::Open(eval::MakeScratchDir("shard_ingest"),
                            ShardConfig{4, cache::CacheConfig()});
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Load(Prefix(*dataset_, base), SmallLoad()).ok());
  for (size_t i = base; i < total; ++i) {
    ASSERT_TRUE((*db)->Append(InputFor(*dataset_, i)).ok()) << i;
    if (i == base + (total - base) / 2) {
      ASSERT_TRUE((*db)->Checkpoint().ok());
    }
  }
  ASSERT_EQ((*db)->NumSfas(), oracle_->NumSfas());
  for (const std::string& pat : Patterns()) {
    auto want = RunQuery(oracle_, Approach::kStaccato, pat, 4, true);
    auto got = RunQuery(db->get(), Approach::kStaccato, pat, 4, true);
    ExpectSameAnswers(want, got, "append+checkpoint: " + pat);
  }
  auto truth_want = oracle_->GroundTruthFor(Patterns()[0]);
  auto truth_got = (*db)->GroundTruthFor(Patterns()[0]);
  ASSERT_TRUE(truth_want.ok());
  ASSERT_TRUE(truth_got.ok());
  EXPECT_EQ(*truth_want, *truth_got);
}

TEST_F(ShardTest, ReopenReplaysEveryShardWal) {
  const std::string dir = eval::MakeScratchDir("shard_reopen");
  const size_t total = dataset_->sfas.size();
  const size_t base = total - 5;
  {
    auto db = ShardedDb::Open(dir, ShardConfig{3, cache::CacheConfig()});
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->Load(Prefix(*dataset_, base), SmallLoad()).ok());
    // Uncheckpointed appends: recovery must come from each shard's WAL.
    for (size_t i = base; i < total; ++i) {
      ASSERT_TRUE((*db)->Append(InputFor(*dataset_, i)).ok());
    }
  }  // destructor: no checkpoint, WALs hold the tail
  // Reopening with the wrong shard count must refuse.
  auto wrong = ShardedDb::OpenExisting(dir, ShardConfig{5});
  EXPECT_FALSE(wrong.ok());
  auto db = ShardedDb::OpenExisting(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->num_shards(), 3u);
  ASSERT_EQ((*db)->NumSfas(), oracle_->NumSfas());
  for (const std::string& pat : Patterns()) {
    auto want = RunQuery(oracle_, Approach::kKMap, pat, 4, true);
    auto got = RunQuery(db->get(), Approach::kKMap, pat, 4, true);
    ExpectSameAnswers(want, got, "reopen-replay: " + pat);
  }
}

/// The fold invariant: per-shard rows carry every counter the top-level
/// totals are made of, in shard order.
void ExpectRowsSumToTotals(const QueryStats& st, const std::string& what) {
  uint64_t blob = 0, pages = 0, hits = 0, misses = 0;
  for (size_t s = 0; s < st.shards.size(); ++s) {
    const ShardStats& row = st.shards[s];
    EXPECT_EQ(row.shard, s) << what;
    blob += row.blob_bytes_read;
    pages += row.heap_pages_read;
    hits += row.cache_hits;
    misses += row.cache_misses;
  }
  // A row set that sums to zero while the top-level counters are non-zero
  // is precisely the dropped-counters bug.
  if (st.blob_bytes_read > 0) {
    EXPECT_GT(blob, 0u) << what;
  }
  if (st.heap_pages_read > 0) {
    EXPECT_GT(pages, 0u) << what;
  }
  EXPECT_EQ(st.blob_bytes_read, blob) << what;
  EXPECT_EQ(st.heap_pages_read, pages) << what;
  EXPECT_EQ(st.cache_hits, hits) << what;
  EXPECT_EQ(st.cache_misses, misses) << what;
}

// Regression: per-shard stats were once folded by an ad-hoc loop that
// dropped the cache/io counters from the ShardStats rows. Every Execute
// now folds through the one FoldShardStats, so the rows must carry the
// counters the totals are made of — cold and warm on N shards, and on a
// single StaccatoDb, which is one partition with one row.
TEST_F(ShardTest, FoldPreservesPerShardCounters) {
  auto db = ShardedDb::Open(eval::MakeScratchDir("shard_fold"),
                            ShardConfig{4, cache::CacheConfig()});
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Load(*dataset_, SmallLoad()).ok());
  const std::string pattern = Patterns()[0];
  QueryStats cold;
  (void)RunQuery(db->get(), Approach::kStaccato, pattern, 2, true, &cold);
  ASSERT_EQ(cold.shards.size(), 4u);
  ExpectRowsSumToTotals(cold, "cold");
  // The warm run is served (partly) from the cache the cold run filled;
  // its rows must still sum to its own totals, shard by shard.
  QueryStats warm;
  (void)RunQuery(db->get(), Approach::kStaccato, pattern, 2, true, &warm);
  ASSERT_EQ(warm.shards.size(), 4u);
  ExpectRowsSumToTotals(warm, "warm");
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(warm.shards[s].candidates, cold.shards[s].candidates)
        << "shard " << s;
  }

  QueryStats single;
  (void)RunQuery(oracle_, Approach::kStaccato, pattern, 2, true, &single);
  ASSERT_EQ(single.shards.size(), 1u);
  ExpectRowsSumToTotals(single, "single partition");
  const ShardStats& row = single.shards[0];
  EXPECT_EQ(row.candidates, single.candidates);
  EXPECT_EQ(row.eval_pruned, single.eval_pruned);
  EXPECT_EQ(row.eval_steps_saved, single.eval_steps_saved);
  EXPECT_EQ(row.est_cost, single.est_cost);
  EXPECT_EQ(single.selectivity,
            static_cast<double>(single.candidates) /
                static_cast<double>(oracle_->NumSfas()));
}

TEST_F(ShardTest, ConcurrentExecutesRaceAppendsSafely) {
  auto db = ShardedDb::Open(eval::MakeScratchDir("shard_race"),
                            ShardConfig{4, cache::CacheConfig()});
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const size_t base = dataset_->sfas.size() - 6;
  ASSERT_TRUE((*db)->Load(Prefix(*dataset_, base), SmallLoad()).ok());
  std::atomic<bool> failed{false};
  std::vector<std::thread> workers;
  // Query threads: separate PreparedQuery objects, concurrent Executes.
  for (size_t t = 0; t < 3; ++t) {
    workers.emplace_back([&, t] {
      Session session(db->get(), SessionOptions{2, 25});
      QueryOptions q;
      q.pattern = Patterns()[t % Patterns().size()];
      q.num_ans = 25;
      auto pq = session.Prepare(Approach::kStaccato, q);
      if (!pq.ok()) {
        failed = true;
        return;
      }
      for (int iter = 0; iter < 8; ++iter) {
        if (!pq->Execute().ok()) failed = true;
      }
    });
  }
  // Ingest thread: appends race the executes.
  workers.emplace_back([&] {
    for (size_t i = base; i < dataset_->sfas.size(); ++i) {
      if (!(*db)->Append(InputFor(*dataset_, i)).ok()) failed = true;
    }
  });
  for (std::thread& w : workers) w.join();
  EXPECT_FALSE(failed.load());
  // Quiesced: the grown database answers like the oracle.
  ASSERT_EQ((*db)->NumSfas(), oracle_->NumSfas());
  for (const std::string& pat : Patterns()) {
    auto want = RunQuery(oracle_, Approach::kStaccato, pat, 2, true);
    auto got = RunQuery(db->get(), Approach::kStaccato, pat, 2, true);
    ExpectSameAnswers(want, got, "post-race: " + pat);
  }
}

}  // namespace
}  // namespace rdbms
}  // namespace staccato
