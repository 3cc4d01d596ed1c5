// MAP and k-MAP inference over SFAs.
//
// Because OCR SFAs are DAGs with the unique-path property, the k highest
// probability strings can be computed exactly by a Viterbi-style dynamic
// program that keeps a k-best list per node in topological order (the
// incremental flavour of Yen's k-shortest-paths specialized to DAGs, which
// is what the paper uses via [54]).
#pragma once

#include <string>
#include <vector>

#include "sfa/sfa.h"
#include "util/result.h"

namespace staccato {

/// \brief A string with its path probability.
struct ScoredString {
  std::string str;
  double prob = 0.0;

  bool operator==(const ScoredString& o) const {
    return str == o.str && prob == o.prob;
  }
};

/// Returns k highest-probability strings emitted by the SFA, sorted by
/// descending probability, equal probabilities by ascending string. Returns
/// fewer than k if the SFA emits fewer strings.
///
/// The probabilities always equal the k largest of exhaustive enumeration
/// (KBestStringsByEnumeration). The strings may not when several strings
/// tie for the k-th place: the DP prunes every node's prefixes to the k
/// best by (probability desc, prefix asc), so among tied strings the choice
/// follows that per-node prefix order, not whole-string order.
std::vector<ScoredString> KBestStrings(const Sfa& sfa, size_t k);

/// The maximum a-posteriori string (k = 1). Fails only on an empty SFA.
Result<ScoredString> MapString(const Sfa& sfa);

/// Reference implementation by exhaustive enumeration; exponential, for
/// tests and the ablation micro-benchmarks only.
Result<std::vector<ScoredString>> KBestStringsByEnumeration(const Sfa& sfa,
                                                            size_t k,
                                                            size_t max_paths);

}  // namespace staccato
