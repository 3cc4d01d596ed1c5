// Deterministic finite automata compiled from query patterns
// (Thompson NFA construction + subset construction), plus the two match
// semantics the paper uses:
//
//  * kExact:    L(pat) — the DFA accepts exactly the pattern language.
//  * kContains: Σ*·L(pat)·Σ* — the DFA accepts any string containing a
//               pattern match; this implements `LIKE '%pat%'`. Accepting
//               states are absorbing, which is what makes the probabilistic
//               DP over SFAs compute Pr[q] correctly.
//
// The subset construction works on bitsets: each NFA state's ε-closure is
// precomputed once, a DFA state is a fixed-width bitset of NFA states, and
// the alphabet is split into classes of characters that every transition
// treats alike, so each (state, class) successor is computed once. States
// are numbered in the order a scan of the characters in ascending order
// first finds them, so the table is byte-identical to the plain
// per-character construction (tests/dfa_identity_test.cc pins it). The
// DFA is not minimized.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "automata/pattern.h"
#include "util/result.h"

namespace staccato {

using DfaState = int32_t;
inline constexpr DfaState kDfaDead = -1;

/// Compile refuses a pattern whose DFA would need more states than this,
/// with InvalidArgument, and stops as soon as the cap is passed. A contains
/// pattern with k wildcards between two literals can need 5·2^k states, so
/// one ad-hoc LIKE string could otherwise allocate gigabytes: the table
/// (states × 95 entries) and, at eval time, a nodes × states mass table
/// per candidate. At the cap the table is 6.2 MB.
inline constexpr int kMaxDfaStates = 1 << 14;

enum class MatchMode {
  kExact,
  kContains,
};

/// \brief Table-driven DFA over the printable-ASCII alphabet.
class Dfa {
 public:
  /// Compiles a pattern under the given match semantics. InvalidArgument
  /// if the DFA would have more than kMaxDfaStates states.
  static Result<Dfa> Compile(const Pattern& pattern, MatchMode mode);
  static Result<Dfa> Compile(const std::string& pattern_text, MatchMode mode);

  int NumStates() const { return static_cast<int>(accept_.size()); }
  DfaState start() const { return start_; }
  bool IsAccept(DfaState s) const { return s >= 0 && accept_[s]; }

  /// One transition step; kDfaDead is absorbing.
  DfaState Next(DfaState s, char c) const {
    if (s < 0 || !IsAlphabetChar(c)) return kDfaDead;
    return table_[static_cast<size_t>(s) * kAlphabetSize + CharIndex(c)];
  }

  /// Runs the DFA over a whole string from the start state.
  bool Matches(const std::string& s) const;

  /// Steps through each character of `s` from state `from`; returns the
  /// resulting state (possibly kDfaDead).
  DfaState Step(DfaState from, const std::string& s) const;

  MatchMode mode() const { return mode_; }

 private:
  MatchMode mode_ = MatchMode::kExact;
  DfaState start_ = 0;
  std::vector<uint8_t> accept_;
  std::vector<DfaState> table_;  // NumStates x kAlphabetSize
};

}  // namespace staccato
