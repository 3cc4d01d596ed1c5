// Projection (Section 4): given a posting's start location and the length
// of the query term, fetch only the small portion of the SFA that can
// contain the match — the descendants reachable within `u` edges of the
// start (a breadth-first overestimate, as in the paper).
#pragma once

#include <vector>

#include "automata/dfa.h"
#include "indexing/postings.h"
#include "sfa/sfa.h"

namespace staccato {

/// Nodes reachable from `from` by directed paths of at most `max_edges`
/// edges (inclusive of `from`).
std::vector<NodeId> ProjectNodes(const Sfa& sfa, NodeId from, size_t max_edges);

/// Evaluates a kContains query DFA over just the projected region, starting
/// with unit mass at `from`. Returns the conditional probability that the
/// pattern matches within the region given that a path reaches `from` —
/// an (over)estimate of the term's contribution, consistent with the
/// paper's use of projection as an I/O optimization. The SfaView overload
/// (what the executor runs on a cached image) is the same template over
/// the graph adapters of sfa/sfa_graph.h, so the two return bit-identical
/// doubles.
double EvalProjected(const Sfa& sfa, const Dfa& dfa, NodeId from,
                     size_t max_edges);
double EvalProjected(const SfaView& view, const Dfa& dfa, NodeId from,
                     size_t max_edges);

/// Bytes of SFA data covered by the projection (labels + metadata of edges
/// inside the region), for the I/O accounting in the Figure-9 bench.
size_t ProjectionBytes(const Sfa& sfa, NodeId from, size_t max_edges);

}  // namespace staccato
