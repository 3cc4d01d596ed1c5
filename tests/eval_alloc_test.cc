// The zero-allocation contract of the executor's per-candidate eval unit:
// with a warm EvalScratch, EvalSerializedSfaBounded performs no heap
// allocation (query_eval.h). A replacement global operator new counts
// every allocation in this test binary; the library never depends on it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "automata/dfa.h"
#include "inference/query_eval.h"
#include "ocr/generator.h"
#include "staccato/chunking.h"
#include "util/random.h"

namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace staccato {
namespace {

TEST(EvalAllocTest, WarmScratchEvaluatesWithoutHeapAllocation) {
  Rng rng(17);
  OcrNoiseModel model;
  model.alternatives = 12;
  auto full = OcrLineToSfa("Public Law 89 of the United States Code", model,
                           &rng);
  ASSERT_TRUE(full.ok());
  auto chunked = ApproximateSfa(*full, StaccatoParams{});
  ASSERT_TRUE(chunked.ok());
  const std::vector<std::string> blobs = {chunked->Serialize(),
                                          full->Serialize()};

  std::vector<Dfa> dfas;
  for (const char* pat : {"Law", "Public Law (8|9)\\d",
                          "(b|u)\\x\\x\\x\\x\\x\\x(w|8)"}) {
    auto dfa = Dfa::Compile(pat, MatchMode::kContains);
    ASSERT_TRUE(dfa.ok());
    dfas.push_back(std::move(*dfa));
  }
  ASSERT_EQ(dfas.back().NumStates(), 512);  // an 8-word live-state bitset

  // One warm-up call per blob with the widest DFA sizes every buffer.
  EvalScratch scratch;
  for (const std::string& blob : blobs) {
    ASSERT_TRUE(
        EvalSerializedSfaBounded(blob, dfas.back(), 0.0, &scratch).ok());
  }

  uint64_t allocs = 0;
  size_t calls = 0;
  bool all_ok = true;
  for (const std::string& blob : blobs) {
    for (const Dfa& dfa : dfas) {
      for (double threshold : {0.0, 0.5}) {
        EvalBound bound;
        const uint64_t before = g_allocs.load(std::memory_order_relaxed);
        Result<double> p =
            EvalSerializedSfaBounded(blob, dfa, threshold, &scratch, &bound);
        allocs += g_allocs.load(std::memory_order_relaxed) - before;
        all_ok &= p.ok();
        ++calls;
      }
    }
  }
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(calls, 12u);
  EXPECT_EQ(allocs, 0u);
}

}  // namespace
}  // namespace staccato
