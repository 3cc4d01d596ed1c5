#include "indexing/projection.h"

#include <algorithm>
#include <deque>
#include <string_view>

#include "sfa/sfa_graph.h"

namespace staccato {

namespace {

template <typename G>
std::vector<NodeId> ProjectNodesImpl(const G& g, NodeId from,
                                     size_t max_edges) {
  std::vector<uint32_t> depth(g.NumNodes(), UINT32_MAX);
  std::deque<NodeId> q{from};
  depth[from] = 0;
  std::vector<NodeId> out{from};
  while (!q.empty()) {
    NodeId n = q.front();
    q.pop_front();
    if (depth[n] >= max_edges) continue;
    g.ForEachOutEdge(n, [&](EdgeId eid) {
      NodeId t = g.EdgeTo(eid);
      if (depth[t] == UINT32_MAX) {
        depth[t] = depth[n] + 1;
        out.push_back(t);
        q.push_back(t);
      } else {
        depth[t] = std::min(depth[t], depth[n] + 1);
      }
    });
  }
  return out;
}

template <typename G>
double EvalProjectedImpl(const G& g, const Dfa& dfa, NodeId from,
                         size_t max_edges) {
  std::vector<NodeId> region = ProjectNodesImpl(g, from, max_edges);
  std::vector<bool> in_region(g.NumNodes(), false);
  for (NodeId n : region) in_region[n] = true;

  const int q = dfa.NumStates();
  std::vector<std::vector<double>> mass(
      g.NumNodes(), std::vector<double>(static_cast<size_t>(q), 0.0));
  mass[from][dfa.start()] = 1.0;
  std::vector<double> cur(static_cast<size_t>(q));
  std::vector<double> next(static_cast<size_t>(q));
  double accepted = 0.0;
  for (NodeId n : g.Topo()) {
    if (!in_region[n]) continue;
    bool exits_region = true;  // also true for a node without out-edges
    g.ForEachOutEdge(n, [&](EdgeId eid) {
      if (in_region[g.EdgeTo(eid)]) exits_region = false;
    });
    if (exits_region) {
      // Region boundary: bank whatever mass already reached an accept state
      // (accept states of a kContains DFA are absorbing).
      for (int s = 0; s < q; ++s) {
        if (dfa.IsAccept(s)) accepted += mass[n][s];
      }
      continue;
    }
    g.ForEachOutEdge(n, [&](EdgeId eid) {
      const NodeId to = g.EdgeTo(eid);
      if (!in_region[to]) {
        // Mass leaving the region: bank its accepted share.
        for (int s = 0; s < q; ++s) {
          if (dfa.IsAccept(s)) {
            double p = 0.0;
            g.ForEachTransition(eid, [&](std::string_view, double prob) {
              p += prob;
            });
            accepted += mass[n][s] * p;
          }
        }
        return;
      }
      g.ForEachTransition(eid, [&](std::string_view label, double prob) {
        // Step the state mass through the label characters.
        for (int s = 0; s < q; ++s) cur[s] = mass[n][s] * prob;
        for (char c : label) {
          std::fill(next.begin(), next.end(), 0.0);
          for (int s = 0; s < q; ++s) {
            if (cur[s] == 0.0) continue;
            DfaState d = dfa.Next(s, c);
            if (d != kDfaDead) next[d] += cur[s];
          }
          cur.swap(next);
        }
        for (int s = 0; s < q; ++s) mass[to][s] += cur[s];
      });
    });
  }
  return std::min(accepted, 1.0);
}

}  // namespace

std::vector<NodeId> ProjectNodes(const Sfa& sfa, NodeId from,
                                 size_t max_edges) {
  return ProjectNodesImpl(SfaGraph{sfa}, from, max_edges);
}

double EvalProjected(const Sfa& sfa, const Dfa& dfa, NodeId from,
                     size_t max_edges) {
  return EvalProjectedImpl(SfaGraph{sfa}, dfa, from, max_edges);
}

double EvalProjected(const SfaView& view, const Dfa& dfa, NodeId from,
                     size_t max_edges) {
  return EvalProjectedImpl(ViewGraph{view}, dfa, from, max_edges);
}

size_t ProjectionBytes(const Sfa& sfa, NodeId from, size_t max_edges) {
  std::vector<NodeId> region = ProjectNodes(sfa, from, max_edges);
  std::vector<bool> in_region(sfa.NumNodes(), false);
  for (NodeId n : region) in_region[n] = true;
  size_t bytes = 0;
  for (const Edge& e : sfa.edges()) {
    if (!in_region[e.from] || !in_region[e.to]) continue;
    for (const Transition& t : e.transitions) bytes += t.label.size() + 16;
  }
  return bytes;
}

}  // namespace staccato
