#include "automata/dfa.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

namespace staccato {

namespace {

// Thompson-style NFA with CharSet-labeled and epsilon transitions.
struct Nfa {
  struct Trans {
    CharSet on;
    int to;
  };
  std::vector<std::vector<Trans>> trans;
  std::vector<std::vector<int>> eps;
  int start = 0;
  int accept = 0;

  int AddState() {
    trans.emplace_back();
    eps.emplace_back();
    return static_cast<int>(trans.size()) - 1;
  }
  void AddEps(int from, int to) { eps[from].push_back(to); }
  void AddTrans(int from, const CharSet& on, int to) {
    trans[from].push_back({on, to});
  }
};

struct Fragment {
  int in;
  int out;
};

Fragment BuildFragment(Nfa* nfa, const PatternNode& node) {
  switch (node.kind) {
    case PatternNode::Kind::kChar: {
      int a = nfa->AddState();
      int b = nfa->AddState();
      nfa->AddTrans(a, node.chars, b);
      return {a, b};
    }
    case PatternNode::Kind::kSeq: {
      int a = nfa->AddState();
      int cur = a;
      for (const auto& child : node.children) {
        Fragment f = BuildFragment(nfa, *child);
        nfa->AddEps(cur, f.in);
        cur = f.out;
      }
      return {a, cur};
    }
    case PatternNode::Kind::kAlt: {
      int a = nfa->AddState();
      int b = nfa->AddState();
      for (const auto& child : node.children) {
        Fragment f = BuildFragment(nfa, *child);
        nfa->AddEps(a, f.in);
        nfa->AddEps(f.out, b);
      }
      return {a, b};
    }
    case PatternNode::Kind::kStar: {
      int a = nfa->AddState();
      int b = nfa->AddState();
      Fragment f = BuildFragment(nfa, *node.children[0]);
      nfa->AddEps(a, f.in);
      nfa->AddEps(f.out, b);
      nfa->AddEps(a, b);       // zero repetitions
      nfa->AddEps(f.out, f.in);  // loop
      return {a, b};
    }
  }
  return {0, 0};
}

// DFA subsets are fixed-width bitsets over NFA states.
bool TestBit(const uint64_t* set, int s) { return (set[s >> 6] >> (s & 63)) & 1; }
void SetBit(uint64_t* set, int s) { set[s >> 6] |= uint64_t{1} << (s & 63); }

struct WordsHash {
  size_t operator()(const std::vector<uint64_t>& set) const {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (uint64_t w : set) h = (h ^ w) * 0xff51afd7ed558ccdULL;
    return static_cast<size_t>(h ^ (h >> 32));
  }
};

// The ε-closure of every NFA state, row s at closure[s * words].
std::vector<uint64_t> EpsClosures(const Nfa& nfa, size_t words) {
  const int n = static_cast<int>(nfa.eps.size());
  std::vector<uint64_t> closure(static_cast<size_t>(n) * words, 0);
  std::vector<int> stack;
  for (int root = 0; root < n; ++root) {
    uint64_t* row = &closure[static_cast<size_t>(root) * words];
    SetBit(row, root);
    stack.assign(1, root);
    while (!stack.empty()) {
      const int s = stack.back();
      stack.pop_back();
      for (int t : nfa.eps[s]) {
        if (TestBit(row, t)) continue;
        SetBit(row, t);
        stack.push_back(t);
      }
    }
  }
  return closure;
}

// Partitions the alphabet into classes of characters that every
// transition CharSet treats alike. Class ids follow each class's smallest
// character, so walking classes in id order visits successors in the same
// order as walking characters in ascending order.
int AlphabetClasses(const Nfa& nfa, int class_of[kAlphabetSize]) {
  std::fill(class_of, class_of + kAlphabetSize, 0);
  int num_classes = 1;
  int split[2 * kAlphabetSize] = {};
  for (const auto& row : nfa.trans) {
    for (const auto& t : row) {
      std::fill(split, split + 2 * num_classes, -1);
      int next = 0;
      for (int ci = 0; ci < kAlphabetSize; ++ci) {
        int& id = split[2 * class_of[ci] + (t.on.TestIndex(ci) ? 1 : 0)];
        if (id < 0) id = next++;
        class_of[ci] = id;
      }
      num_classes = next;
    }
  }
  return num_classes;
}

}  // namespace

Result<Dfa> Dfa::Compile(const std::string& pattern_text, MatchMode mode) {
  auto pat = Pattern::Parse(pattern_text);
  if (!pat.ok()) return pat.status();
  return Compile(*pat, mode);
}

Result<Dfa> Dfa::Compile(const Pattern& pattern, MatchMode mode) {
  Nfa nfa;
  Fragment body = BuildFragment(&nfa, pattern.root());
  nfa.start = nfa.AddState();
  nfa.accept = nfa.AddState();
  nfa.AddEps(nfa.start, body.in);
  nfa.AddEps(body.out, nfa.accept);
  if (mode == MatchMode::kContains) {
    // Σ* on both sides; the accept state is absorbing.
    nfa.AddTrans(nfa.start, CharSet::Any(), nfa.start);
    nfa.AddTrans(nfa.accept, CharSet::Any(), nfa.accept);
  }

  // Subset construction over bitset subsets and alphabet classes. Each
  // (subset, class) successor is computed once, at the class's smallest
  // character, and a new subset is numbered when first found; that is the
  // order a per-character scan finds them in, so state numbers match it.
  const size_t words = (nfa.trans.size() + 63) / 64;
  const std::vector<uint64_t> closure = EpsClosures(nfa, words);
  int class_of[kAlphabetSize] = {};
  const int num_classes = AlphabetClasses(nfa, class_of);
  int first_char[kAlphabetSize] = {};
  for (int ci = kAlphabetSize - 1; ci >= 0; --ci) first_char[class_of[ci]] = ci;

  Dfa dfa;
  dfa.mode_ = mode;
  dfa.start_ = 0;
  std::unordered_map<std::vector<uint64_t>, DfaState, WordsHash> ids;
  std::vector<const uint64_t*> subsets;  // by state id; map nodes are stable
  const uint64_t* start_row = &closure[static_cast<size_t>(nfa.start) * words];
  std::vector<uint64_t> next(start_row, start_row + words);
  // A new subset past the cap stops construction: the caller sees
  // kDfaDead and `over_cap`, and nothing further is allocated.
  bool over_cap = false;
  auto intern = [&]() {
    auto it = ids.find(next);
    if (it != ids.end()) return it->second;
    if (subsets.size() == static_cast<size_t>(kMaxDfaStates)) {
      over_cap = true;
      return kDfaDead;
    }
    const auto id = static_cast<DfaState>(subsets.size());
    subsets.push_back(ids.emplace(next, id).first->first.data());
    return id;
  };
  intern();

  std::vector<uint64_t> moved(static_cast<size_t>(num_classes) * words);
  std::vector<DfaState> succ(static_cast<size_t>(num_classes));
  for (size_t cur = 0; cur < subsets.size(); ++cur) {
    const uint64_t* set = subsets[cur];
    dfa.accept_.push_back(TestBit(set, nfa.accept) ? 1 : 0);
    std::fill(moved.begin(), moved.end(), 0);
    for (size_t w = 0; w < words; ++w) {
      for (uint64_t bits = set[w]; bits != 0; bits &= bits - 1) {
        const int s = static_cast<int>(w * 64) + __builtin_ctzll(bits);
        for (const auto& t : nfa.trans[s]) {
          const uint64_t* to = &closure[static_cast<size_t>(t.to) * words];
          for (int c = 0; c < num_classes; ++c) {
            if (!t.on.TestIndex(first_char[c])) continue;
            uint64_t* dst = &moved[static_cast<size_t>(c) * words];
            for (size_t i = 0; i < words; ++i) dst[i] |= to[i];
          }
        }
      }
    }
    for (int c = 0; c < num_classes; ++c) {
      const uint64_t* row = &moved[static_cast<size_t>(c) * words];
      next.assign(row, row + words);
      const bool empty = std::all_of(next.begin(), next.end(),
                                     [](uint64_t w) { return w == 0; });
      succ[c] = empty ? kDfaDead : intern();
    }
    if (over_cap) {
      return Status::InvalidArgument(
          "pattern '" + pattern.text() + "' needs more than " +
          std::to_string(kMaxDfaStates) + " DFA states (kMaxDfaStates)");
    }
    for (int ci = 0; ci < kAlphabetSize; ++ci) {
      dfa.table_.push_back(succ[class_of[ci]]);
    }
  }
  return dfa;
}

bool Dfa::Matches(const std::string& s) const {
  DfaState st = Step(start_, s);
  return IsAccept(st);
}

DfaState Dfa::Step(DfaState from, const std::string& s) const {
  DfaState st = from;
  for (char c : s) {
    if (st == kDfaDead) return kDfaDead;
    st = Next(st, c);
  }
  return st;
}

}  // namespace staccato
