// Graph adapters: one read interface over the two in-memory forms of an
// SFA — the Sfa object graph and an SfaView (a decode arena or a cached
// image) — so a dynamic program written once as a template over the
// adapter runs on either with the same visit order and the same
// arithmetic, bit for bit. The bounded eval kernel
// (inference/query_eval.cc) and the projection DP (indexing/projection.cc)
// are both written this way.
//
// Both adapters visit a node's out-edges in ascending edge id and an
// edge's transitions in stored order, and both walk the same Kahn
// topological order.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "sfa/sfa.h"

namespace staccato {

/// \brief Adapter over the deserialized Sfa object graph. `mass_safe` and
/// `label_chars` are the per-Sfa invariants the bounded kernel reads
/// (MakeSfaGraph computes them); DPs that read neither may leave them
/// at their defaults.
struct SfaGraph {
  const Sfa& sfa;
  bool mass_safe = false;
  uint64_t label_chars = 0;

  size_t NumNodes() const { return sfa.NumNodes(); }
  NodeId start() const { return sfa.start(); }
  NodeId final() const { return sfa.final(); }
  const std::vector<NodeId>& Topo() const { return sfa.TopologicalOrder(); }
  bool MassBoundSafe() const { return mass_safe; }
  uint64_t TotalLabelChars() const { return label_chars; }
  NodeId EdgeTo(EdgeId e) const { return sfa.edge(e).to; }

  template <typename F>
  void ForEachOutEdge(NodeId n, F&& f) const {
    for (EdgeId eid : sfa.OutEdges(n)) f(eid);
  }

  template <typename F>
  void ForEachTransition(EdgeId e, F&& f) const {
    for (const Transition& t : sfa.edge(e).transitions) {
      f(std::string_view(t.label), t.prob);
    }
  }

  template <typename F>
  void ForEachOutTransition(NodeId n, F&& f) const {
    for (EdgeId eid : sfa.OutEdges(n)) {
      const Edge& e = sfa.edge(eid);
      for (const Transition& t : e.transitions) {
        f(e.to, std::string_view(t.label), t.prob);
      }
    }
  }
};

/// The object-graph adapter with its per-Sfa invariants — total label
/// chars (for steps accounting) and mass-bound safety — computed by two
/// O(transitions) sweeps.
inline SfaGraph MakeSfaGraph(const Sfa& sfa) {
  uint64_t label_chars = 0;
  for (const Edge& e : sfa.edges()) {
    for (const Transition& t : e.transitions) label_chars += t.label.size();
  }
  // The bound is only an upper bound when no node amplifies mass.
  bool mass_safe = true;
  for (NodeId n = 0; n < sfa.NumNodes() && mass_safe; ++n) {
    double sum = 0.0;
    for (EdgeId eid : sfa.OutEdges(n)) {
      for (const Transition& t : sfa.edge(eid).transitions) sum += t.prob;
    }
    if (sum > 1.0 + 1e-6) mass_safe = false;
  }
  return SfaGraph{sfa, mass_safe, label_chars};
}

/// \brief Adapter over a flat SfaView (decoded into an arena, or attached
/// to a cached image); the view carries its own invariants.
struct ViewGraph {
  const SfaView& view;

  size_t NumNodes() const { return view.NumNodes(); }
  NodeId start() const { return view.start(); }
  NodeId final() const { return view.final(); }
  NodeSpan Topo() const { return view.TopologicalOrder(); }
  bool MassBoundSafe() const { return view.MassBoundSafe(); }
  uint64_t TotalLabelChars() const { return view.TotalLabelChars(); }
  NodeId EdgeTo(EdgeId e) const { return view.edge(e).to; }

  template <typename F>
  void ForEachOutEdge(NodeId n, F&& f) const {
    for (const EdgeId* it = view.out_begin(n); it != view.out_end(n); ++it) {
      f(*it);
    }
  }

  template <typename F>
  void ForEachTransition(EdgeId e, F&& f) const {
    const ViewEdge& edge = view.edge(e);
    const uint32_t end = edge.first_transition + edge.num_transitions;
    for (uint32_t t = edge.first_transition; t < end; ++t) {
      f(view.label(t), view.prob(t));
    }
  }

  template <typename F>
  void ForEachOutTransition(NodeId n, F&& f) const {
    for (const EdgeId* it = view.out_begin(n); it != view.out_end(n); ++it) {
      const ViewEdge& e = view.edge(*it);
      const uint32_t end = e.first_transition + e.num_transitions;
      for (uint32_t t = e.first_transition; t < end; ++t) {
        f(e.to, view.label(t), view.prob(t));
      }
    }
  }
};

}  // namespace staccato
