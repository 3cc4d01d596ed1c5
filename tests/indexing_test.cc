#include <gtest/gtest.h>

#include "indexing/index_builder.h"
#include "indexing/projection.h"
#include "inference/query_eval.h"
#include "ocr/generator.h"
#include "staccato/chunking.h"
#include "util/random.h"

namespace staccato {
namespace {

// Chain SFA emitting exactly one string (useful to pin down postings).
Sfa SingleStringSfa(const std::string& s) {
  SfaBuilder b;
  NodeId first = b.AddNodes(s.size() + 1);
  for (size_t i = 0; i < s.size(); ++i) {
    EXPECT_TRUE(b.AddTransition(static_cast<NodeId>(first + i),
                                static_cast<NodeId>(first + i + 1),
                                std::string(1, s[i]), 1.0)
                    .ok());
  }
  b.SetStart(first);
  b.SetFinal(static_cast<NodeId>(first + s.size()));
  return *b.Build(true);
}

TEST(PostingTest, PackUnpackRoundTrip) {
  Posting p{12345, 67, 89};
  Posting q = UnpackPosting(PackPosting(p));
  EXPECT_EQ(p, q);
}

TEST(IndexBuilderTest, FindsTermsOnChain) {
  Sfa sfa = SingleStringSfa("the public law about public welfare");
  auto dict = DictionaryTrie::Build({"public", "law", "welfare"});
  ASSERT_TRUE(dict.ok());
  auto postings = BuildPostings(sfa, *dict);
  ASSERT_TRUE(postings.ok());
  TermId pub = dict->Find("public");
  TermId law = dict->Find("law");
  TermId wel = dict->Find("welfare");
  ASSERT_TRUE(postings->count(pub));
  EXPECT_EQ((*postings)[pub].size(), 2u);  // two occurrences
  EXPECT_EQ((*postings)[law].size(), 1u);
  EXPECT_EQ((*postings)[wel].size(), 1u);
  // Chain SFA: each edge holds one character; the posting edge id equals
  // the character offset of the occurrence.
  EXPECT_EQ((*postings)[pub][0].edge, 4u);
  EXPECT_EQ((*postings)[pub][1].edge, 21u);
}

TEST(IndexBuilderTest, CaseInsensitive) {
  Sfa sfa = SingleStringSfa("Public LAW");
  auto dict = DictionaryTrie::Build({"public", "law"});
  ASSERT_TRUE(dict.ok());
  auto postings = BuildPostings(sfa, *dict);
  ASSERT_TRUE(postings.ok());
  EXPECT_EQ(postings->size(), 2u);
}

TEST(IndexBuilderTest, TermStraddlingEdges) {
  // After collapsing, labels are multi-character; a term can straddle the
  // boundary between two edges. "pub" ends on edge 0, "lic" begins edge 1.
  SfaBuilder b;
  NodeId a = b.AddNode(), m = b.AddNode(), f = b.AddNode();
  ASSERT_TRUE(b.AddTransition(a, m, "the pub", 0.7).ok());
  ASSERT_TRUE(b.AddTransition(a, m, "xxx xxx", 0.3).ok());
  ASSERT_TRUE(b.AddTransition(m, f, "lic act", 0.6).ok());
  ASSERT_TRUE(b.AddTransition(m, f, "yyy yyy", 0.4).ok());
  b.SetStart(a);
  b.SetFinal(f);
  auto sfa = b.Build(true);
  ASSERT_TRUE(sfa.ok());
  auto dict = DictionaryTrie::Build({"public", "act"});
  ASSERT_TRUE(dict.ok());
  auto postings = BuildPostings(*sfa, *dict);
  ASSERT_TRUE(postings.ok());
  TermId pub = dict->Find("public");
  ASSERT_TRUE(postings->count(pub)) << "straddling term missed";
  ASSERT_EQ((*postings)[pub].size(), 1u);
  // The posting records where the term *starts*: edge 0, path 0, offset 4.
  EXPECT_EQ((*postings)[pub][0], (Posting{0, 0, 4}));
  TermId act = dict->Find("act");
  ASSERT_TRUE(postings->count(act));
  EXPECT_EQ((*postings)[act][0], (Posting{1, 0, 4}));
}

TEST(IndexBuilderTest, TermAcrossThreeEdges) {
  SfaBuilder b;
  NodeId n0 = b.AddNode(), n1 = b.AddNode(), n2 = b.AddNode(), n3 = b.AddNode();
  ASSERT_TRUE(b.AddTransition(n0, n1, "pu", 1.0).ok());
  ASSERT_TRUE(b.AddTransition(n1, n2, "bl", 1.0).ok());
  ASSERT_TRUE(b.AddTransition(n2, n3, "ic", 1.0).ok());
  b.SetStart(n0);
  b.SetFinal(n3);
  auto sfa = b.Build(true);
  ASSERT_TRUE(sfa.ok());
  auto dict = DictionaryTrie::Build({"public"});
  ASSERT_TRUE(dict.ok());
  auto postings = BuildPostings(*sfa, *dict);
  ASSERT_TRUE(postings.ok());
  ASSERT_EQ(postings->size(), 1u);
  EXPECT_EQ(postings->begin()->second[0], (Posting{0, 0, 0}));
}

TEST(IndexBuilderTest, BranchingPathsBothIndexed) {
  // Both alternatives of a branch contain different dictionary terms.
  SfaBuilder b;
  NodeId a = b.AddNode(), f = b.AddNode();
  ASSERT_TRUE(b.AddTransition(a, f, "law", 0.6).ok());
  ASSERT_TRUE(b.AddTransition(a, f, "act", 0.4).ok());
  b.SetStart(a);
  b.SetFinal(f);
  auto sfa = b.Build(true);
  ASSERT_TRUE(sfa.ok());
  auto dict = DictionaryTrie::Build({"law", "act"});
  ASSERT_TRUE(dict.ok());
  auto postings = BuildPostings(*sfa, *dict);
  ASSERT_TRUE(postings.ok());
  EXPECT_EQ(postings->size(), 2u);
  EXPECT_EQ((*postings)[dict->Find("law")][0], (Posting{0, 0, 0}));
  EXPECT_EQ((*postings)[dict->Find("act")][0], (Posting{0, 1, 0}));
}

TEST(IndexBuilderTest, NoFalsePostings) {
  Sfa sfa = SingleStringSfa("nothing matches here");
  auto dict = DictionaryTrie::Build({"public", "law"});
  ASSERT_TRUE(dict.ok());
  auto postings = BuildPostings(sfa, *dict);
  ASSERT_TRUE(postings.ok());
  EXPECT_TRUE(postings->empty());
}

TEST(IndexBuilderTest, WorksOnOcrAndStaccatoRepresentations) {
  Rng rng(42);
  OcrNoiseModel model;
  model.alternatives = 6;
  model.p_error = 0.0;  // truth is the MAP, so the term is surely present
  auto sfa = OcrLineToSfa("the public law stands", model, &rng);
  ASSERT_TRUE(sfa.ok());
  auto dict = DictionaryTrie::Build({"public"});
  ASSERT_TRUE(dict.ok());
  auto full = BuildPostings(*sfa, *dict);
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full->empty());
  auto approx = ApproximateSfa(*sfa, {8, 4, true});
  ASSERT_TRUE(approx.ok());
  auto chunked = BuildPostings(*approx, *dict);
  ASSERT_TRUE(chunked.ok());
  EXPECT_FALSE(chunked->empty()) << "term lost after chunking";
}

TEST(IndexBuilderTest, StatsPopulated) {
  Sfa sfa = SingleStringSfa("public law");
  auto dict = DictionaryTrie::Build({"public", "law"});
  ASSERT_TRUE(dict.ok());
  IndexBuildStats stats;
  auto postings = BuildPostings(sfa, *dict, &stats);
  ASSERT_TRUE(postings.ok());
  EXPECT_EQ(stats.postings, 2u);
  EXPECT_EQ(stats.terms_matched, 2u);
}

TEST(DirectPostingsTest, GrowsExponentiallyWithChunks) {
  // Chain with 2 alternatives per edge: #strings = 2^length.
  auto sfa10 = MakeChainSfa(10, 2);
  auto sfa20 = MakeChainSfa(20, 2);
  ASSERT_TRUE(sfa10.ok() && sfa20.ok());
  double p10 = EstimateDirectIndexPostings(*sfa10);
  double p20 = EstimateDirectIndexPostings(*sfa20);
  EXPECT_GT(p10, 1000.0);
  EXPECT_GT(p20 / p10, 500.0) << "expected ~2^10 growth";
}

TEST(ProjectionTest, NodesWithinHorizon) {
  Sfa sfa = SingleStringSfa("abcdefghij");
  auto nodes = ProjectNodes(sfa, 2, 3);
  // From node 2, nodes 2,3,4,5 are within 3 edges.
  EXPECT_EQ(nodes.size(), 4u);
  auto all = ProjectNodes(sfa, 0, 100);
  EXPECT_EQ(all.size(), sfa.NumNodes());
}

TEST(ProjectionTest, EvalFindsTermAtLocation) {
  Sfa sfa = SingleStringSfa("xx public yy");
  auto dfa = Dfa::Compile("public", MatchMode::kContains);
  ASSERT_TRUE(dfa.ok());
  // Start at node 3 (offset of 'p'): with horizon covering the term the
  // conditional match probability is 1.
  EXPECT_NEAR(EvalProjected(sfa, *dfa, 3, 8), 1.0, 1e-12);
  // Horizon too small to complete the term.
  EXPECT_EQ(EvalProjected(sfa, *dfa, 3, 3), 0.0);
}

// The executor projects on the SfaView of a cached image; for every
// posting anchor and horizon the view must return exactly the double the
// Sfa object graph does.
TEST(ProjectionTest, ImageViewMatchesObjectGraphBitForBit) {
  auto dict = DictionaryTrie::Build({"public", "law", "act", "the", "of"});
  ASSERT_TRUE(dict.ok());
  std::vector<Dfa> dfas;
  for (const char* pat : {"public", "law", "(a|e)ct", "the"}) {
    auto dfa = Dfa::Compile(pat, MatchMode::kContains);
    ASSERT_TRUE(dfa.ok());
    dfas.push_back(std::move(*dfa));
  }
  SfaViewArena arena;
  size_t compared = 0, nonzero = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 7919);
    OcrNoiseModel model;
    model.alternatives = 4;
    model.p_branch = 0.3;
    auto full = OcrLineToSfa("the public law of the act", model, &rng);
    ASSERT_TRUE(full.ok());
    auto chunked = ApproximateSfa(*full, {6, 3, true});
    ASSERT_TRUE(chunked.ok());
    for (const Sfa* sfa : {&*full, &*chunked}) {
      auto image = DecodeSfaImage(sfa->Serialize(), &arena);
      ASSERT_TRUE(image.ok()) << image.status().ToString();
      SfaView view;
      ASSERT_TRUE(view.Attach(*image).ok());
      auto postings = BuildPostings(*sfa, *dict);
      ASSERT_TRUE(postings.ok());
      for (const auto& [term, vec] : *postings) {
        for (const Posting& p : vec) {
          const NodeId from = sfa->edge(p.edge).from;
          ASSERT_EQ(view.edge(p.edge).from, from);
          for (size_t horizon : {1, 3, 6, 14}) {
            for (const Dfa& dfa : dfas) {
              const double want = EvalProjected(*sfa, dfa, from, horizon);
              EXPECT_EQ(EvalProjected(view, dfa, from, horizon), want)
                  << "seed " << seed << " edge " << p.edge << " horizon "
                  << horizon;
              ++compared;
              nonzero += want > 0.0 ? 1 : 0;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 100u);
  EXPECT_GT(nonzero, 0u);
}

TEST(ProjectionTest, BytesSmallerThanFullSfa) {
  Sfa sfa = SingleStringSfa("a longer line of text for projection");
  size_t proj = ProjectionBytes(sfa, 5, 6);
  EXPECT_LT(proj, sfa.SizeBytes());
  EXPECT_GT(proj, 0u);
}

}  // namespace
}  // namespace staccato
