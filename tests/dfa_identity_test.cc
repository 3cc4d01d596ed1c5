// Byte-identity guard for pattern compilation.
//
// The DFA×SFA dynamic program walks DFA states by number, so every answer
// probability is a function of the exact table Dfa::Compile emits: its
// state count, start state, accept flags and every transition. This test
// pins CRC-32 digests of those bytes, in both match modes, over four
// pattern families: the 21 Table 6 benchmark queries, the distinct words
// of a generated Congress Acts corpus, seeded random patterns built from
// every construct of the pattern language, and long patterns whose
// Thompson NFA has more than 64 and more than 128 states. Any change to
// the subset construction that renumbers a state or moves a transition
// fails here; the failure message prints the new row.
//
// The corpus words come from the generator's libstdc++ <random>
// distributions (implementation-defined); the random patterns use raw
// std::mt19937_64 output, which the standard fixes.
#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "automata/dfa.h"
#include "ocr/corpus.h"
#include "util/crc32.h"

namespace staccato {
namespace {

// NumStates, start, the accept flags, then the full NumStates x 95 table.
void AppendDfa(const Dfa& dfa, std::string* out) {
  auto put = [out](int32_t v) {
    out->append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(dfa.NumStates());
  put(dfa.start());
  for (DfaState s = 0; s < dfa.NumStates(); ++s) {
    out->push_back(dfa.IsAccept(s) ? 1 : 0);
  }
  for (DfaState s = 0; s < dfa.NumStates(); ++s) {
    for (int ci = 0; ci < kAlphabetSize; ++ci) put(dfa.Next(s, IndexChar(ci)));
  }
}

uint32_t Digest(const std::vector<std::string>& patterns, MatchMode mode) {
  std::string bytes;
  for (const std::string& p : patterns) {
    auto dfa = Dfa::Compile(p, mode);
    EXPECT_TRUE(dfa.ok()) << p << ": " << dfa.status().ToString();
    if (dfa.ok()) AppendDfa(*dfa, &bytes);
  }
  return util::Crc32(bytes);
}

std::vector<std::string> TableSixQueries() {
  std::vector<std::string> out;
  for (DatasetKind kind : {DatasetKind::kCongressActs, DatasetKind::kLiterature,
                           DatasetKind::kDbPapers}) {
    for (std::string& q : DatasetQueries(kind)) out.push_back(std::move(q));
  }
  return out;
}

// Distinct words of a seeded CA corpus, in first-seen order, with the
// pattern metacharacters escaped so each compiles as a literal.
std::vector<std::string> CorpusWords() {
  CorpusSpec spec;
  spec.kind = DatasetKind::kCongressActs;
  spec.num_pages = 2;
  spec.lines_per_page = 20;
  spec.seed = 31;
  std::set<std::string> seen;
  std::vector<std::string> out;
  for (const std::string& line : GenerateCorpus(spec).lines) {
    std::string word;
    for (size_t i = 0; i <= line.size(); ++i) {
      if (i < line.size() && line[i] != ' ') {
        const char c = line[i];
        if (c == '(' || c == ')' || c == '|' || c == '*' || c == '\\') {
          word.push_back('\\');
        }
        word.push_back(c);
        continue;
      }
      if (!word.empty() && seen.insert(word).second) out.push_back(word);
      word.clear();
    }
  }
  return out;
}

// Up to six items drawn from literals, \d, \x, (a|bc), (ab)* and starred
// or alternated single characters. Kept short: the contains-DFA of k
// wildcards after a literal can have 2^k states.
std::vector<std::string> RandomPatterns() {
  static const char* const kItems[] = {
      "a", "b", "c", "A", "1", " ", ".", "\\d", "\\x",
      "(a|bc)", "(ab)*", "(\\x)*", "(1|\\d)", "b*", "(a|b|)",
  };
  std::mt19937_64 rng(2011);
  std::vector<std::string> out;
  for (int i = 0; i < 300; ++i) {
    const size_t len = 1 + rng() % 6;
    std::string p;
    for (size_t j = 0; j < len; ++j) p += kItems[rng() % std::size(kItems)];
    out.push_back(std::move(p));
  }
  return out;
}

// A Thompson NFA has 2 states per character, one per sequence and 2 for
// the wrapper: a 40-item sequence has 83 states (two 64-bit words), a
// 70-item one 143 (three words).
std::vector<std::string> LongPatterns() {
  std::string x40;
  for (int i = 0; i < 40; ++i) x40 += "\\x";
  std::string d70;
  for (int i = 0; i < 70; ++i) d70 += i % 7 == 3 ? "\\d" : "a";
  return {
      "Congressional Budget and Impoundment Act",  // 40 chars
      x40,
      "abababababababababababababababababababababababababababababababababababab",
      d70,
      "Public Law (8|9)\\d of the United States Code, section 2\\d\\d\\d (a|b)",
  };
}

struct Pinned {
  const char* name;
  size_t num_patterns;
  uint32_t exact;
  uint32_t contains;
};

// Digests of the reference implementation. Regenerate only for an
// intended output change.
const Pinned kPinned[] = {
    {"table6", 21, 0x5b75885du, 0x067253d6u},
    {"corpus", 94, 0x6f058901u, 0xf263866au},
    {"random", 300, 0xd574c175u, 0x13a42673u},
    {"long", 5, 0xb239dd37u, 0x70eb1836u},
};

void CheckRow(const Pinned& p, const std::vector<std::string>& patterns) {
  EXPECT_EQ(patterns.size(), p.num_patterns) << p.name;
  const uint32_t exact = Digest(patterns, MatchMode::kExact);
  const uint32_t contains = Digest(patterns, MatchMode::kContains);
  EXPECT_EQ(exact, p.exact) << p.name << " kExact";
  EXPECT_EQ(contains, p.contains) << p.name << " kContains";
  if (exact != p.exact || contains != p.contains) {
    char row[96];
    std::snprintf(row, sizeof(row), "{\"%s\", %zu, 0x%08xu, 0x%08xu},", p.name,
                  patterns.size(), exact, contains);
    ADD_FAILURE() << "actual row: " << row;
  }
}

TEST(DfaIdentityTest, TableSixQueryDigestsMatchReference) {
  CheckRow(kPinned[0], TableSixQueries());
}

TEST(DfaIdentityTest, CorpusWordDigestsMatchReference) {
  CheckRow(kPinned[1], CorpusWords());
}

TEST(DfaIdentityTest, RandomPatternDigestsMatchReference) {
  CheckRow(kPinned[2], RandomPatterns());
}

TEST(DfaIdentityTest, MultiWordSubsetDigestsMatchReference) {
  CheckRow(kPinned[3], LongPatterns());
}

}  // namespace
}  // namespace staccato
