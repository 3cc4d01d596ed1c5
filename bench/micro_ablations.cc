// Micro-benchmarks (google-benchmark) for the design choices DESIGN.md
// calls out: the k-best DP vs naive enumeration, the DFAxSFA dynamic
// program vs brute-force string enumeration, the candidate cache in the
// greedy chunker, B+-tree lookups vs heap scans for postings, and the
// cost of compiling a query pattern to its contains-DFA.
#include <benchmark/benchmark.h>

#include "automata/dfa.h"
#include "inference/kbest.h"
#include "inference/query_eval.h"
#include "ocr/corpus.h"
#include "ocr/generator.h"
#include "rdbms/btree.h"
#include "sfa/sfa.h"
#include "staccato/chunking.h"
#include "util/random.h"
#include "util/strings.h"

namespace staccato {
namespace {

Sfa BenchSfa(size_t len, size_t alternatives) {
  Rng rng(1);
  OcrNoiseModel model;
  model.alternatives = alternatives;
  std::string line;
  const std::string vocab = "the public law on acts ";
  while (line.size() < len) line += vocab;
  line.resize(len);
  auto sfa = OcrLineToSfa(line, model, &rng);
  return *sfa;
}

void BM_KBestDp(benchmark::State& state) {
  Sfa sfa = BenchSfa(16, 3);
  size_t k = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(KBestStrings(sfa, k));
  }
}
BENCHMARK(BM_KBestDp)->Arg(1)->Arg(10)->Arg(100);

void BM_KBestEnumeration(benchmark::State& state) {
  Sfa sfa = BenchSfa(16, 3);
  size_t k = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(KBestStringsByEnumeration(sfa, k, 1 << 26));
  }
}
BENCHMARK(BM_KBestEnumeration)->Arg(1)->Arg(10)->Arg(100);

void BM_QueryEvalDp(benchmark::State& state) {
  Sfa sfa = BenchSfa(static_cast<size_t>(state.range(0)), 10);
  auto dfa = Dfa::Compile("public", MatchMode::kContains);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvalSfaQuery(sfa, *dfa));
  }
}
BENCHMARK(BM_QueryEvalDp)->Arg(16)->Arg(64)->Arg(256);

void BM_QueryEvalBruteForce(benchmark::State& state) {
  Sfa sfa = BenchSfa(static_cast<size_t>(state.range(0)), 2);
  auto dfa = Dfa::Compile("public", MatchMode::kContains);
  for (auto _ : state) {
    auto strings = sfa.EnumerateStrings(1 << 24);
    double p = 0;
    for (const auto& [s, pr] : *strings) {
      if (dfa->Matches(s)) p += pr;
    }
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_QueryEvalBruteForce)->Arg(8)->Arg(12)->Arg(16);

// Arg 0: the 21 Table 6 queries, all compiled per iteration. Arg 1: one
// 40-character literal, whose Thompson NFA has 83 states (two bitset
// words per DFA subset).
void BM_DfaCompile(benchmark::State& state) {
  std::vector<std::string> patterns;
  if (state.range(0) == 0) {
    for (DatasetKind kind : {DatasetKind::kCongressActs,
                             DatasetKind::kLiterature, DatasetKind::kDbPapers}) {
      for (std::string& q : DatasetQueries(kind)) patterns.push_back(std::move(q));
    }
  } else {
    patterns.push_back("Congressional Budget and Impoundment Act");
  }
  for (auto _ : state) {
    for (const std::string& p : patterns) {
      benchmark::DoNotOptimize(Dfa::Compile(p, MatchMode::kContains));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(patterns.size()));
}
BENCHMARK(BM_DfaCompile)->Arg(0)->Arg(1);

void BM_ChunkerWithCache(benchmark::State& state) {
  Sfa sfa = BenchSfa(64, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ApproximateSfa(sfa, {static_cast<size_t>(state.range(0)), 25, true}));
  }
}
BENCHMARK(BM_ChunkerWithCache)->Arg(40)->Arg(10)->Arg(1);

void BM_ChunkerNoCache(benchmark::State& state) {
  Sfa sfa = BenchSfa(64, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ApproximateSfa(sfa, {static_cast<size_t>(state.range(0)), 25, false}));
  }
}
BENCHMARK(BM_ChunkerNoCache)->Arg(40)->Arg(10)->Arg(1);

void BM_BTreeLookup(benchmark::State& state) {
  rdbms::BPlusTree tree;
  Rng rng(9);
  std::vector<std::string> keys;
  for (int i = 0; i < 100000; ++i) {
    keys.push_back(StringPrintf("term%06lld", static_cast<long long>(
                                                  rng.UniformInt(0, 999999))));
    tree.Insert(keys.back(), static_cast<uint64_t>(i));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Lookup(keys[i++ % keys.size()]));
  }
}
BENCHMARK(BM_BTreeLookup);

void BM_PostingsLinearScan(benchmark::State& state) {
  Rng rng(9);
  std::vector<std::pair<std::string, uint64_t>> rows;
  for (int i = 0; i < 100000; ++i) {
    rows.emplace_back(StringPrintf("term%06lld", static_cast<long long>(
                                                     rng.UniformInt(0, 999999))),
                      static_cast<uint64_t>(i));
  }
  size_t i = 0;
  for (auto _ : state) {
    const std::string& needle = rows[i++ % rows.size()].first;
    std::vector<uint64_t> hits;
    for (const auto& [k, v] : rows) {
      if (k == needle) hits.push_back(v);
    }
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_PostingsLinearScan);

void BM_SfaSerialize(benchmark::State& state) {
  Sfa sfa = BenchSfa(64, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sfa.Serialize());
  }
}
BENCHMARK(BM_SfaSerialize);

void BM_SfaDeserialize(benchmark::State& state) {
  std::string blob = BenchSfa(64, 12).Serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sfa::Deserialize(blob));
  }
}
BENCHMARK(BM_SfaDeserialize);

}  // namespace
}  // namespace staccato

BENCHMARK_MAIN();
