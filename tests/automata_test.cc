#include <gtest/gtest.h>

#include <string>

#include "automata/dfa.h"
#include "automata/pattern.h"
#include "automata/trie.h"

namespace staccato {
namespace {

TEST(PatternTest, ParsesKeyword) {
  auto p = Pattern::Parse("President");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->IsLiteral());
  EXPECT_EQ(p->LiteralPrefix(), "President");
  EXPECT_EQ(p->AnchorTerm(), "president");
}

TEST(PatternTest, ParsesDigitClass) {
  auto p = Pattern::Parse("U.S.C. 2\\d\\d\\d");
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(p->IsLiteral());
  EXPECT_EQ(p->LiteralPrefix(), "U.S.C. 2");
  EXPECT_EQ(p->AnchorTerm(), "u.s.c.");
}

TEST(PatternTest, ParsesAlternation) {
  auto p = Pattern::Parse("Public Law (8|9)\\d");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->LiteralPrefix(), "Public Law ");
  EXPECT_EQ(p->AnchorTerm(), "public");
}

TEST(PatternTest, ParsesStar) {
  auto p = Pattern::Parse("Sec(\\x)*\\d");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->LiteralPrefix(), "Sec");
}

TEST(PatternTest, RejectsMalformed) {
  EXPECT_FALSE(Pattern::Parse("").ok());
  EXPECT_FALSE(Pattern::Parse("(ab").ok());
  EXPECT_FALSE(Pattern::Parse("ab)").ok());
  EXPECT_FALSE(Pattern::Parse("*ab").ok());
  EXPECT_FALSE(Pattern::Parse("a\\").ok());
  EXPECT_FALSE(Pattern::Parse("a|b").ok());  // top-level '|' needs a group
}

TEST(PatternTest, EscapedLiteral) {
  auto p = Pattern::Parse("a\\*b");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->IsLiteral());
  EXPECT_EQ(p->LiteralPrefix(), "a*b");
}

TEST(DfaExactTest, Keyword) {
  auto dfa = Dfa::Compile("Ford", MatchMode::kExact);
  ASSERT_TRUE(dfa.ok());
  EXPECT_TRUE(dfa->Matches("Ford"));
  EXPECT_FALSE(dfa->Matches("ford"));
  EXPECT_FALSE(dfa->Matches("Fordx"));
  EXPECT_FALSE(dfa->Matches("xFord"));
  EXPECT_FALSE(dfa->Matches(""));
}

TEST(DfaContainsTest, Keyword) {
  auto dfa = Dfa::Compile("Ford", MatchMode::kContains);
  ASSERT_TRUE(dfa.ok());
  EXPECT_TRUE(dfa->Matches("Ford"));
  EXPECT_TRUE(dfa->Matches("a Ford car"));
  EXPECT_TRUE(dfa->Matches("FoFord"));
  EXPECT_FALSE(dfa->Matches("F0rd"));
  EXPECT_FALSE(dfa->Matches("For"));
}

TEST(DfaContainsTest, AcceptIsAbsorbing) {
  auto dfa = Dfa::Compile("ab", MatchMode::kContains);
  ASSERT_TRUE(dfa.ok());
  DfaState s = dfa->Step(dfa->start(), "xxabyy");
  EXPECT_TRUE(dfa->IsAccept(s));
  // Once accepted, any continuation stays accepted.
  s = dfa->Step(s, "zzzz");
  EXPECT_TRUE(dfa->IsAccept(s));
}

TEST(DfaContainsTest, DigitWildcards) {
  auto dfa = Dfa::Compile("U.S.C. 2\\d\\d\\d", MatchMode::kContains);
  ASSERT_TRUE(dfa.ok());
  EXPECT_TRUE(dfa->Matches("see U.S.C. 2301 for details"));
  EXPECT_TRUE(dfa->Matches("U.S.C. 2999"));
  EXPECT_FALSE(dfa->Matches("U.S.C. 3301"));
  EXPECT_FALSE(dfa->Matches("U.S.C. 23a1"));
  EXPECT_FALSE(dfa->Matches("USC 2301"));
}

// `(a|b)` + k × `\x` + `(b|c)` needs 2^(k+3) contains-DFA states: k=11 is
// exactly the cap, k=12 one doubling past it.
std::string WildcardRun(size_t k) {
  std::string p = "(a|b)";
  for (size_t i = 0; i < k; ++i) p += "\\x";
  return p + "(b|c)";
}

TEST(DfaContainsTest, StateCapAdmitsAtCapAndRejectsPastIt) {
  auto at_cap = Dfa::Compile(WildcardRun(11), MatchMode::kContains);
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap->NumStates(), kMaxDfaStates);
  EXPECT_TRUE(at_cap->Matches("xxa01234567890cyy"));

  auto past = Dfa::Compile(WildcardRun(12), MatchMode::kContains);
  ASSERT_FALSE(past.ok());
  EXPECT_TRUE(past.status().IsInvalidArgument());
  EXPECT_NE(past.status().ToString().find(std::to_string(kMaxDfaStates)),
            std::string::npos)
      << past.status().ToString();
  // The exact-mode DFA of the same pattern is linear in k.
  EXPECT_TRUE(Dfa::Compile(WildcardRun(12), MatchMode::kExact).ok());
}

TEST(DfaContainsTest, Alternation) {
  auto dfa = Dfa::Compile("Public Law (8|9)\\d", MatchMode::kContains);
  ASSERT_TRUE(dfa.ok());
  EXPECT_TRUE(dfa->Matches("the Public Law 89 act"));
  EXPECT_TRUE(dfa->Matches("Public Law 97"));
  EXPECT_FALSE(dfa->Matches("Public Law 79"));
  EXPECT_FALSE(dfa->Matches("Public Law 8"));
}

TEST(DfaContainsTest, KleeneStar) {
  auto dfa = Dfa::Compile("Sec(\\x)*\\d", MatchMode::kContains);
  ASSERT_TRUE(dfa.ok());
  EXPECT_TRUE(dfa->Matches("Sec7"));
  EXPECT_TRUE(dfa->Matches("Sec. 4 says"));
  EXPECT_TRUE(dfa->Matches("Section number 9"));
  EXPECT_FALSE(dfa->Matches("Sec and nothing"));
  EXPECT_FALSE(dfa->Matches("sEc 4"));
}

TEST(DfaContainsTest, AnyCharRuns) {
  auto dfa = Dfa::Compile("\\x\\x\\x\\d\\d", MatchMode::kContains);
  ASSERT_TRUE(dfa.ok());
  EXPECT_TRUE(dfa->Matches("VLDB 04"));   // "DB 04"
  EXPECT_TRUE(dfa->Matches("abc12"));
  EXPECT_FALSE(dfa->Matches("ab12"));  // only two leading chars
  EXPECT_FALSE(dfa->Matches("abcd1"));  // only one trailing digit
}

TEST(DfaContainsTest, DigitsCanFillAnyWildcards) {
  auto dfa = Dfa::Compile("\\x\\x\\x\\d\\d", MatchMode::kContains);
  ASSERT_TRUE(dfa.ok());
  EXPECT_TRUE(dfa->Matches("12345"));
}

TEST(DfaTest, DeadStateIsAbsorbing) {
  auto dfa = Dfa::Compile("ab", MatchMode::kExact);
  ASSERT_TRUE(dfa.ok());
  DfaState s = dfa->Step(dfa->start(), "zz");
  EXPECT_EQ(s, kDfaDead);
  EXPECT_EQ(dfa->Next(s, 'a'), kDfaDead);
  EXPECT_FALSE(dfa->IsAccept(s));
}

TEST(DfaTest, EmptyStarMatchesEverythingInContainsMode) {
  auto dfa = Dfa::Compile("(\\x)*", MatchMode::kContains);
  ASSERT_TRUE(dfa.ok());
  EXPECT_TRUE(dfa->Matches(""));
  EXPECT_TRUE(dfa->Matches("anything"));
}

TEST(TrieTest, BuildAndFind) {
  auto trie = DictionaryTrie::Build({"public", "law", "president", "pub"});
  ASSERT_TRUE(trie.ok());
  EXPECT_EQ(trie->NumTerms(), 4u);
  EXPECT_NE(trie->Find("public"), kInvalidTerm);
  EXPECT_NE(trie->Find("pub"), kInvalidTerm);
  EXPECT_EQ(trie->Find("publ"), kInvalidTerm);
  EXPECT_EQ(trie->Find("absent"), kInvalidTerm);
}

TEST(TrieTest, CaseInsensitive) {
  auto trie = DictionaryTrie::Build({"Public"});
  ASSERT_TRUE(trie.ok());
  EXPECT_NE(trie->Find("PUBLIC"), kInvalidTerm);
  EXPECT_NE(trie->Find("public"), kInvalidTerm);
}

TEST(TrieTest, StepSemantics) {
  auto trie = DictionaryTrie::Build({"ab"});
  ASSERT_TRUE(trie.ok());
  int32_t s = trie->Step(trie->root(), 'a');
  ASSERT_NE(s, DictionaryTrie::kDead);
  EXPECT_EQ(trie->TermAt(s), kInvalidTerm);
  s = trie->Step(s, 'b');
  ASSERT_NE(s, DictionaryTrie::kDead);
  EXPECT_NE(trie->TermAt(s), kInvalidTerm);
  EXPECT_EQ(trie->Step(s, 'c'), DictionaryTrie::kDead);
}

TEST(TrieTest, DuplicatesCollapse) {
  auto trie = DictionaryTrie::Build({"law", "Law", "LAW"});
  ASSERT_TRUE(trie.ok());
  EXPECT_EQ(trie->NumTerms(), 1u);
}

TEST(TrieTest, RejectsEmptyTerm) {
  EXPECT_FALSE(DictionaryTrie::Build({"ok", ""}).ok());
}

TEST(DictionaryFromCorpusTest, HarvestsWords) {
  auto dict = BuildDictionaryFromCorpus(
      {"The President signed Public Law 89", "public welfare act"});
  // Lower-cased, deduplicated, words of length >= 3 only.
  EXPECT_NE(std::find(dict.begin(), dict.end(), "president"), dict.end());
  EXPECT_NE(std::find(dict.begin(), dict.end(), "public"), dict.end());
  EXPECT_EQ(std::count(dict.begin(), dict.end(), "public"), 1);
  EXPECT_EQ(std::find(dict.begin(), dict.end(), "89"), dict.end());
}

TEST(CharSetTest, Basics) {
  CharSet digits = CharSet::Digits();
  EXPECT_TRUE(digits.Test('5'));
  EXPECT_FALSE(digits.Test('a'));
  EXPECT_EQ(digits.Count(), 10u);
  CharSet any = CharSet::Any();
  EXPECT_EQ(any.Count(), static_cast<size_t>(kAlphabetSize));
  EXPECT_TRUE(any.Test(' '));
  EXPECT_TRUE(any.Test('~'));
}

}  // namespace
}  // namespace staccato
