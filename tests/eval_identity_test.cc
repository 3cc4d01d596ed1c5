// Bit-identity guard for the bounded DFA×SFA eval kernel.
//
// Every ranked answer is a probability EvalSerializedSfaBounded returns,
// and the executor's pruning stats are its EvalBound. This test pins
// CRC-32 digests of the raw IEEE-754 bits of those probabilities, with
// the bound's pruned flag, steps and steps_total, over generated OCR
// corpora (CA/LT/DB) stored both as Staccato graphs (m=40, k=25) and as
// full SFAs, against the 21 Table 6 queries and against patterns whose
// contains-DFA has more than 64 and more than 128 states. Threshold 0
// pins the full evaluation; a positive threshold pins where the DP
// aborts. Any change to the kernel that moves one bit of one answer, or
// one step of the accounting, fails here; the failure message prints the
// new row. The same digests must come out when each blob is decoded once
// into the image the buffer cache keeps and every evaluation attaches to
// it. The last test runs the kernel on 4 pool workers, each with its
// own EvalScratch as in the executor, against one.
//
// perfbench's answer check cannot catch such drift: its reference
// execution runs this same kernel at threshold 0.
//
// The corpora come from the generator's libstdc++ <random> distributions
// (implementation-defined); a different standard library would need new
// digests.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "automata/dfa.h"
#include "inference/query_eval.h"
#include "ocr/corpus.h"
#include "staccato/chunking.h"
#include "util/crc32.h"
#include "util/parallel.h"

namespace staccato {
namespace {

constexpr double kThresholds[] = {0.0, 0.1};

std::vector<std::string> TableSixQueries() {
  std::vector<std::string> out;
  for (DatasetKind kind : {DatasetKind::kCongressActs, DatasetKind::kLiterature,
                           DatasetKind::kDbPapers}) {
    for (std::string& q : DatasetQueries(kind)) out.push_back(std::move(q));
  }
  return out;
}

// Contains-DFAs of 160 and 512 states (asserted below): the kernel's
// per-character live set then spans three and eight 64-bit words.
std::vector<std::string> WidePatterns() {
  return {"e\\x\\x\\x\\x\\xs", "(t|a)\\x\\x\\x\\x\\x\\x(e|s)"};
}

struct Blobs {
  std::vector<std::string> staccato;
  std::vector<std::string> full;
};

Blobs CorpusBlobs(DatasetKind kind, uint64_t seed) {
  CorpusSpec spec;
  spec.kind = kind;
  spec.num_pages = 2;
  spec.lines_per_page = 8;
  spec.seed = seed;
  Blobs out;
  auto ds = GenerateOcrDataset(spec, OcrNoiseModel{});
  EXPECT_TRUE(ds.ok());
  if (!ds.ok()) return out;
  StaccatoParams params;
  params.m = 40;
  params.k = 25;
  for (const Sfa& sfa : ds->sfas) {
    out.full.push_back(sfa.Serialize());
    auto approx = ApproximateSfa(sfa, params);
    EXPECT_TRUE(approx.ok()) << approx.status().ToString();
    if (approx.ok()) out.staccato.push_back(approx->Serialize());
  }
  return out;
}

std::vector<Dfa> CompileAll(const std::vector<std::string>& patterns) {
  std::vector<Dfa> out;
  for (const std::string& p : patterns) {
    auto dfa = Dfa::Compile(p, MatchMode::kContains);
    EXPECT_TRUE(dfa.ok()) << p << ": " << dfa.status().ToString();
    if (dfa.ok()) out.push_back(std::move(*dfa));
  }
  return out;
}

// One evaluation of blob number `blob` against `dfa` at `threshold`.
using EvalFn = std::function<Result<double>(size_t blob, const Dfa& dfa,
                                            double threshold, EvalBound*)>;

// Per (blob, dfa, threshold): the result's bits, then pruned, steps and
// steps_total.
uint32_t DigestOf(size_t num_blobs, const std::vector<Dfa>& dfas,
                  const EvalFn& eval) {
  std::string bytes;
  auto put = [&bytes](const void* p, size_t n) {
    bytes.append(static_cast<const char*>(p), n);
  };
  for (size_t b = 0; b < num_blobs; ++b) {
    for (const Dfa& dfa : dfas) {
      for (double threshold : kThresholds) {
        EvalBound bound;
        auto p = eval(b, dfa, threshold, &bound);
        EXPECT_TRUE(p.ok()) << p.status().ToString();
        const double v = p.ok() ? *p : -1.0;
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        put(&bits, sizeof(bits));
        const uint8_t pruned = bound.pruned ? 1 : 0;
        put(&pruned, 1);
        put(&bound.steps, sizeof(bound.steps));
        put(&bound.steps_total, sizeof(bound.steps_total));
      }
    }
  }
  return util::Crc32(bytes);
}

// Decodes each blob on every call. One scratch serves every call, as on
// an executor worker.
uint32_t Digest(const std::vector<std::string>& blobs,
                const std::vector<Dfa>& dfas) {
  EvalScratch scratch;
  return DigestOf(blobs.size(), dfas,
                  [&](size_t b, const Dfa& dfa, double threshold,
                      EvalBound* bound) {
                    return EvalSerializedSfaBounded(blobs[b], dfa, threshold,
                                                    &scratch, bound);
                  });
}

// Decodes each blob once into the image the buffer cache keeps, then
// evaluates every call on a view attached to that image, as a warm query
// does.
uint32_t ImageDigest(const std::vector<std::string>& blobs,
                     const std::vector<Dfa>& dfas) {
  SfaViewArena arena;
  std::vector<std::string> images;
  for (const std::string& blob : blobs) {
    auto image = DecodeSfaImage(blob, &arena);
    EXPECT_TRUE(image.ok()) << image.status().ToString();
    images.push_back(image.ok() ? std::move(*image) : std::string());
  }
  EvalScratch scratch;
  return DigestOf(
      images.size(), dfas,
      [&](size_t b, const Dfa& dfa, double threshold,
          EvalBound* bound) -> Result<double> {
        SfaView view;
        STACCATO_RETURN_NOT_OK(view.Attach(images[b]));
        return EvalSfaViewBounded(view, dfa, threshold, &scratch, bound);
      });
}

using DigestFn = uint32_t (*)(const std::vector<std::string>&,
                              const std::vector<Dfa>&);

struct Pinned {
  const char* name;
  DatasetKind kind;
  uint64_t seed;
  uint32_t staccato_table6;
  uint32_t full_table6;
  uint32_t staccato_wide;
  uint32_t full_wide;
};

// Digests of the reference kernel. Regenerate only for an intended
// change of answers or step accounting.
const Pinned kPinned[] = {
    {"CA-21", DatasetKind::kCongressActs, 21, 0x58c7f3c8u, 0xde076189u,
     0xcce1e208u, 0x204baaf8u},
    {"LT-21", DatasetKind::kLiterature, 21, 0x4ebda978u, 0xae2f507du,
     0xdd0140d8u, 0x5db060ffu},
    {"DB-21", DatasetKind::kDbPapers, 21, 0xe716e7c8u, 0x3225797eu,
     0xdf8ddfa2u, 0x60858fddu},
};

void CheckRow(const Pinned& p, DigestFn digest = Digest) {
  const Blobs blobs = CorpusBlobs(p.kind, p.seed);
  ASSERT_EQ(blobs.staccato.size(), 16u) << p.name;
  ASSERT_EQ(blobs.full.size(), 16u) << p.name;
  const std::vector<Dfa> table6 = CompileAll(TableSixQueries());
  const std::vector<Dfa> wide = CompileAll(WidePatterns());
  ASSERT_EQ(table6.size(), 21u);
  ASSERT_EQ(wide.size(), 2u);
  ASSERT_EQ(wide[0].NumStates(), 160);
  ASSERT_EQ(wide[1].NumStates(), 512);
  const uint32_t got[4] = {
      digest(blobs.staccato, table6), digest(blobs.full, table6),
      digest(blobs.staccato, wide), digest(blobs.full, wide)};
  const uint32_t want[4] = {p.staccato_table6, p.full_table6, p.staccato_wide,
                            p.full_wide};
  static const char* const kCols[4] = {"Staccato x Table 6",
                                       "FullSFA x Table 6", "Staccato x wide",
                                       "FullSFA x wide"};
  bool all_match = true;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(got[i], want[i]) << p.name << " " << kCols[i];
    all_match &= got[i] == want[i];
  }
  if (!all_match) {
    static const char* const kKindEnum[] = {"kCongressActs", "kLiterature",
                                            "kDbPapers"};
    char row[160];
    std::snprintf(row, sizeof(row),
                  "{\"%s\", DatasetKind::%s, %llu, 0x%08xu, 0x%08xu, "
                  "0x%08xu, 0x%08xu},",
                  p.name, kKindEnum[static_cast<int>(p.kind)],
                  static_cast<unsigned long long>(p.seed), got[0], got[1],
                  got[2], got[3]);
    ADD_FAILURE() << "actual row: " << row;
  }
}

TEST(EvalIdentityTest, CongressActsDigestsMatchReference) {
  CheckRow(kPinned[0]);
}

TEST(EvalIdentityTest, LiteratureDigestsMatchReference) {
  CheckRow(kPinned[1]);
}

TEST(EvalIdentityTest, DbPapersDigestsMatchReference) {
  CheckRow(kPinned[2]);
}

// The cached-image path: each blob decoded once, every evaluation on an
// attached image, must reproduce the same pinned digests.
TEST(EvalIdentityTest, AttachedImagesMatchReference) {
  for (const Pinned& p : kPinned) CheckRow(p, ImageDigest);
}

// Worker-slot scratches, as in the executor's Eval stage: each pair's
// answer bits must match the 1-worker run.
TEST(EvalIdentityTest, ParallelWorkersMatchSerial) {
  const Blobs blobs = CorpusBlobs(DatasetKind::kCongressActs, 21);
  std::vector<std::string> all = blobs.staccato;
  all.insert(all.end(), blobs.full.begin(), blobs.full.end());
  std::vector<Dfa> dfas = CompileAll(TableSixQueries());
  for (Dfa& d : CompileAll(WidePatterns())) dfas.push_back(std::move(d));
  const size_t n = all.size() * dfas.size();
  auto run = [&](size_t threads) {
    std::vector<EvalScratch> scratches(threads);
    std::vector<double> out(n, -1.0);
    Status st = ParallelForWorker(
        n, /*grain=*/1,
        [&](size_t worker, size_t i) -> Status {
          STACCATO_ASSIGN_OR_RETURN(
              out[i], EvalSerializedSfaBounded(all[i / dfas.size()],
                                               dfas[i % dfas.size()], 0.0,
                                               &scratches[worker]));
          return Status::OK();
        },
        ParallelOptions{threads});
    EXPECT_TRUE(st.ok()) << st.ToString();
    return out;
  };
  const std::vector<double> serial = run(1);
  for (int round = 0; round < 3; ++round) {
    const std::vector<double> parallel = run(4);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(parallel[i], serial[i]) << "pair " << i;
    }
  }
}

}  // namespace
}  // namespace staccato
