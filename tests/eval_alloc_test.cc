// The zero-allocation contract of the executor's per-candidate eval unit:
// with a warm EvalScratch, EvalSerializedSfaBounded performs no heap
// allocation (query_eval.h), and neither does evaluating a view attached
// to a cached image. A replacement global operator new counts
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

// A Staccato blob and a FullSFA blob of one noisy OCR line.
std::vector<std::string> TestBlobs() {
  Rng rng(17);
  OcrNoiseModel model;
  model.alternatives = 12;
  auto full = OcrLineToSfa("Public Law 89 of the United States Code", model,
                           &rng);
  EXPECT_TRUE(full.ok());
  if (!full.ok()) return {};
  auto chunked = ApproximateSfa(*full, StaccatoParams{});
  EXPECT_TRUE(chunked.ok());
  if (!chunked.ok()) return {};
  return {chunked->Serialize(), full->Serialize()};
}

// Three patterns, the last one with a 512-state contains-DFA.
std::vector<Dfa> TestDfas() {
  std::vector<Dfa> dfas;
  for (const char* pat : {"Law", "Public Law (8|9)\\d",
                          "(b|u)\\x\\x\\x\\x\\x\\x(w|8)"}) {
    auto dfa = Dfa::Compile(pat, MatchMode::kContains);
    EXPECT_TRUE(dfa.ok());
    if (dfa.ok()) dfas.push_back(std::move(*dfa));
  }
  return dfas;
}

TEST(EvalAllocTest, WarmScratchEvaluatesWithoutHeapAllocation) {
  const std::vector<std::string> blobs = TestBlobs();
  ASSERT_EQ(blobs.size(), 2u);
  std::vector<Dfa> dfas = TestDfas();
  ASSERT_EQ(dfas.size(), 3u);
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

// The warm-query path: a view attached to a cached image, evaluated with a
// warm scratch, allocates nothing either (attaching is O(1) and touches
// no arena).
TEST(EvalAllocTest, AttachedImageEvaluatesWithoutHeapAllocation) {
  const std::vector<std::string> blobs = TestBlobs();
  ASSERT_EQ(blobs.size(), 2u);
  const std::vector<Dfa> dfas = TestDfas();
  ASSERT_EQ(dfas.size(), 3u);
  SfaViewArena arena;
  std::vector<std::string> images;
  for (const std::string& blob : blobs) {
    auto image = DecodeSfaImage(blob, &arena);
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    images.push_back(std::move(*image));
  }

  EvalScratch scratch;
  for (const std::string& image : images) {
    SfaView view;
    ASSERT_TRUE(view.Attach(image).ok());
    EvalSfaViewBounded(view, dfas.back(), 0.0, &scratch);
  }

  uint64_t allocs = 0;
  size_t calls = 0;
  bool all_ok = true;
  for (const std::string& image : images) {
    for (const Dfa& dfa : dfas) {
      for (double threshold : {0.0, 0.5}) {
        EvalBound bound;
        const uint64_t before = g_allocs.load(std::memory_order_relaxed);
        SfaView view;
        all_ok &= view.Attach(image).ok();
        EvalSfaViewBounded(view, dfa, threshold, &scratch, &bound);
        allocs += g_allocs.load(std::memory_order_relaxed) - before;
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
