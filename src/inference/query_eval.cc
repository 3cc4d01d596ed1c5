#include "inference/query_eval.h"

#include <algorithm>
#include <string_view>

#include "sfa/sfa_graph.h"

namespace staccato {

namespace {

// Steps a dense DFA-state mass vector through one label string.
// in/out have dfa.NumStates() entries; `scratch` and `next` are reused
// across calls (the per-transition `next` vector used to be constructed
// here on every call — the dominant allocation of the whole Eval stage).
void StepLabel(const Dfa& dfa, const std::string& label,
               const std::vector<double>& in, std::vector<double>* out,
               std::vector<double>* scratch, std::vector<double>* next_buf) {
  const int q = dfa.NumStates();
  std::vector<double>* cur = scratch;
  *cur = in;
  std::vector<double>& next = *next_buf;
  for (char c : label) {
    std::fill(next.begin(), next.end(), 0.0);
    for (int s = 0; s < q; ++s) {
      double m = (*cur)[s];
      if (m == 0.0) continue;
      DfaState t = dfa.Next(s, c);
      if (t == kDfaDead) continue;  // mass of strings the DFA rejects is dropped
      next[t] += m;
    }
    std::swap(*cur, next);
  }
  for (int s = 0; s < q; ++s) (*out)[s] += (*cur)[s];
}

// Slack on the pruning comparison: `live` is an exact bound only up to
// floating-point accumulation error, which is *absolute* (operands have
// magnitude up to 1.0, so error ~1e-12 even over the longest documents)
// — a purely relative slack would be tighter than the error whenever the
// threshold itself is tiny. The cutoff therefore backs off by both a
// relative and an absolute margin, each orders of magnitude above any
// reachable error, so a candidate whose true probability ties or beats
// the k-th best answer can never be pruned. The lost pruning power
// (candidates within ~1e-9 of the cutoff) is negligible, and a threshold
// below the absolute slack simply disables pruning (cutoff <= 0).
constexpr double kBoundSlackRel = 1e-9;
constexpr double kBoundSlackAbs = 1e-9;

/// The early-terminating DFA×SFA dynamic program, templated over the graph
/// representation so the Sfa-object and SfaView entry points are one
/// kernel — and therefore bit-identical to each other and to EvalSfaQuery
/// (same topological order, same edge/transition order, same arithmetic;
/// the live-mass bookkeeping never touches the mass arrays).
///
/// Invariant behind the bound: `live` = Σ mass pending at unprocessed
/// non-final nodes + accepting mass already at the final node. Mass only
/// ever leaves that sum — dropped at dead DFA states, dropped when it
/// reaches the final node in a non-accepting state (the final node has no
/// out-edges, so such mass can never be accepted), or shrunk by node
/// probability sums below 1 (approximation leak). Provided no node's
/// outgoing probabilities sum above 1 (G::MassBoundSafe), pending mass can
/// at best funnel into accepting states unshrunk, so `live` bounds the
/// final probability from above and only tightens as the DP advances.
///
/// Live-state walk: each label character steps only the DFA states that
/// carry mass, kept as an ascending list. A deterministic step never grows
/// that list; its successor list is built by marking targets in a bitset
/// and reading the marks back in ascending order. Every `+=` therefore
/// happens in the ascending-state order of the dense loop in StepLabel,
/// and the entries it skips are exact zeros, so every sum is the same to
/// the bit. Once one state is left, the walk is a plain DFA run: the mass
/// moves unchanged (0.0 + m == m).
template <typename G>
double EvalBoundedImpl(const G& g, const Dfa& dfa, double threshold,
                       EvalScratch* scratch, EvalBound* bound) {
  const size_t q = static_cast<size_t>(dfa.NumStates());
  if (bound != nullptr) {
    bound->pruned = false;
    bound->steps = 0;
    bound->steps_total = g.TotalLabelChars() * q;
  }
  if (g.NumNodes() == 0) return 0.0;

  std::vector<double>& mass = scratch->mass;
  mass.assign(g.NumNodes() * q, 0.0);
  std::vector<double>& cur = scratch->cur;
  std::vector<double>& next = scratch->next;
  std::vector<DfaState>& live_in = scratch->live_in;
  std::vector<DfaState>& live_cur = scratch->live_cur;
  std::vector<DfaState>& live_next = scratch->live_next;
  std::vector<uint64_t>& marks = scratch->marks;
  cur.resize(q);
  next.resize(q);
  live_in.resize(q);
  live_cur.resize(q);
  live_next.resize(q);
  marks.assign((q + 63) / 64, 0);

  const NodeId fin = g.final();
  mass[static_cast<size_t>(g.start()) * q + static_cast<size_t>(dfa.start())] =
      1.0;
  const bool can_prune = threshold > 0.0 && g.MassBoundSafe();
  const double cutoff = threshold * (1.0 - kBoundSlackRel) - kBoundSlackAbs;
  double live = 1.0;
  uint64_t steps = 0;
  bool pruned = false;

  for (NodeId n : g.Topo()) {
    if (n == fin) continue;  // no out-edges; its mass is scored at the end
    const double* in = &mass[static_cast<size_t>(n) * q];
    double sum_in = 0.0;
    size_t n_in = 0;
    for (size_t s = 0; s < q; ++s) {
      sum_in += in[s];
      if (in[s] != 0.0) live_in[n_in++] = static_cast<DfaState>(s);
    }
    if (sum_in == 0.0) continue;  // masses are non-negative: all-zero node
    live -= sum_in;
    g.ForEachOutTransition(n, [&](NodeId to, std::string_view label,
                                  double prob) {
      size_t n_cur = 0;
      for (size_t i = 0; i < n_in; ++i) {
        const DfaState s = live_in[i];
        const double m = in[s] * prob;
        if (m == 0.0) continue;  // the dense step skips zeros too
        cur[static_cast<size_t>(s)] = m;
        live_cur[n_cur++] = s;
      }
      size_t pos = 0;
      for (; pos < label.size() && n_cur > 1; ++pos) {
        const char c = label[pos];
        for (size_t i = 0; i < n_cur; ++i) {
          const DfaState s = live_cur[i];
          const DfaState t = dfa.Next(s, c);
          if (t == kDfaDead) continue;  // rejected mass is dropped
          const size_t ti = static_cast<size_t>(t);
          uint64_t& word = marks[ti >> 6];
          const uint64_t bit = uint64_t{1} << (ti & 63);
          if ((word & bit) != 0) {
            next[ti] += cur[static_cast<size_t>(s)];
          } else {
            word |= bit;
            next[ti] = cur[static_cast<size_t>(s)];
          }
        }
        n_cur = 0;
        for (size_t w = 0; w < marks.size(); ++w) {
          for (uint64_t bits = marks[w]; bits != 0; bits &= bits - 1) {
            live_next[n_cur++] =
                static_cast<DfaState>(w * 64 + __builtin_ctzll(bits));
          }
          marks[w] = 0;
        }
        cur.swap(next);
        live_cur.swap(live_next);
      }
      if (n_cur == 1 && pos < label.size()) {
        DfaState s = live_cur[0];
        const double m = cur[static_cast<size_t>(s)];
        for (; pos < label.size() && s != kDfaDead; ++pos) {
          s = dfa.Next(s, label[pos]);
        }
        if (s == kDfaDead) {
          n_cur = 0;
        } else {
          cur[static_cast<size_t>(s)] = m;
          live_cur[0] = s;
        }
      }
      steps += static_cast<uint64_t>(label.size()) * q;
      double* out = &mass[static_cast<size_t>(to) * q];
      if (to == fin) {
        // Only accepting arrivals stay alive: the final node has no
        // out-edges, so non-accepting mass here is already dead.
        double accepted = 0.0;
        for (size_t i = 0; i < n_cur; ++i) {
          const DfaState s = live_cur[i];
          out[s] += cur[static_cast<size_t>(s)];
          if (dfa.IsAccept(s)) accepted += cur[static_cast<size_t>(s)];
        }
        live += accepted;
      } else {
        double survived = 0.0;
        for (size_t i = 0; i < n_cur; ++i) {
          const size_t s = static_cast<size_t>(live_cur[i]);
          out[s] += cur[s];
          survived += cur[s];
        }
        live += survived;
      }
    });
    // Check only at node boundaries: mid-node, the not-yet-propagated
    // share of sum_in is missing from `live`, which would over-prune.
    if (can_prune && live < cutoff) {
      pruned = true;
      break;
    }
  }

  if (bound != nullptr) {
    bound->steps = steps;
    bound->pruned = pruned;
  }
  if (pruned) return 0.0;
  double p = 0.0;
  const double* fin_mass = &mass[static_cast<size_t>(fin) * q];
  for (size_t s = 0; s < q; ++s) {
    if (dfa.IsAccept(static_cast<DfaState>(s))) p += fin_mass[s];
  }
  // Guard against accumulated floating point drift above 1.
  return p > 1.0 ? 1.0 : p;
}

}  // namespace

double EvalSfaQuery(const Sfa& sfa, const Dfa& dfa) {
  if (sfa.NumNodes() == 0) return 0.0;
  const int q = dfa.NumStates();
  // mass[n][s]: probability mass of prefixes reaching SFA node n with the
  // DFA in state s. A kContains DFA has absorbing accept states, so mass in
  // accepting states at the final node is exactly Pr[q].
  std::vector<std::vector<double>> mass(
      sfa.NumNodes(), std::vector<double>(static_cast<size_t>(q), 0.0));
  mass[sfa.start()][dfa.start()] = 1.0;
  std::vector<double> scratch(static_cast<size_t>(q), 0.0);
  std::vector<double> next(static_cast<size_t>(q), 0.0);
  std::vector<double> scaled(static_cast<size_t>(q), 0.0);
  for (NodeId n : sfa.TopologicalOrder()) {
    const auto& in = mass[n];
    bool live = false;
    for (double m : in) {
      if (m != 0.0) {
        live = true;
        break;
      }
    }
    if (!live) continue;
    for (EdgeId eid : sfa.OutEdges(n)) {
      const Edge& e = sfa.edge(eid);
      for (const Transition& t : e.transitions) {
        for (int s = 0; s < q; ++s) scaled[s] = in[s] * t.prob;
        StepLabel(dfa, t.label, scaled, &mass[e.to], &scratch, &next);
      }
    }
    if (n != sfa.final()) {
      mass[n].clear();
      mass[n].shrink_to_fit();
    }
  }
  double p = 0.0;
  for (int s = 0; s < q; ++s) {
    if (dfa.IsAccept(s)) p += mass[sfa.final()][s];
  }
  // Guard against accumulated floating point drift above 1.
  return p > 1.0 ? 1.0 : p;
}

double EvalSfaQueryBounded(const Sfa& sfa, const Dfa& dfa, double threshold,
                           EvalScratch* scratch, EvalBound* bound) {
  EvalScratch local;
  return EvalBoundedImpl(MakeSfaGraph(sfa), dfa, threshold,
                         scratch != nullptr ? scratch : &local, bound);
}

double EvalSfaViewBounded(const SfaView& view, const Dfa& dfa,
                          double threshold, EvalScratch* scratch,
                          EvalBound* bound) {
  return EvalBoundedImpl(ViewGraph{view}, dfa, threshold, scratch, bound);
}

Result<double> EvalSerializedSfaBounded(const std::string& blob,
                                        const Dfa& dfa, double threshold,
                                        EvalScratch* scratch,
                                        EvalBound* bound) {
  SfaView view;
  STACCATO_RETURN_NOT_OK(view.Decode(blob, &scratch->arena));
  return EvalSfaViewBounded(view, dfa, threshold, scratch, bound);
}

double EvalStringsQuery(const std::vector<ScoredString>& strings,
                        const Dfa& dfa) {
  double p = 0.0;
  for (const ScoredString& s : strings) {
    if (dfa.Matches(s.str)) p += s.prob;
  }
  return p > 1.0 ? 1.0 : p;
}

double EvalSfaQueryMatrix(const Sfa& sfa, const Dfa& dfa) {
  if (sfa.NumNodes() == 0) return 0.0;
  const size_t q = static_cast<size_t>(dfa.NumStates());
  // M[n][i*q + j]: mass arriving at SFA node n having moved the DFA from
  // state i (at the SFA start) to state j.
  std::vector<std::vector<double>> node_mat(sfa.NumNodes());
  node_mat[sfa.start()].assign(q * q, 0.0);
  for (size_t i = 0; i < q; ++i) node_mat[sfa.start()][i * q + i] = 1.0;

  std::vector<double> edge_mat(q * q), tmp(q * q);
  for (NodeId n : sfa.TopologicalOrder()) {
    if (node_mat[n].empty()) continue;
    for (EdgeId eid : sfa.OutEdges(n)) {
      const Edge& e = sfa.edge(eid);
      // Edge matrix: Σ over transitions of prob × Π over label chars of the
      // (deterministic) per-character DFA step matrix.
      std::fill(edge_mat.begin(), edge_mat.end(), 0.0);
      for (const Transition& t : e.transitions) {
        std::fill(tmp.begin(), tmp.end(), 0.0);
        for (size_t i = 0; i < q; ++i) tmp[i * q + i] = t.prob;
        for (char c : t.label) {
          // Right-multiply tmp by the char's step matrix: column j of the
          // product collects columns whose state steps to j.
          std::vector<double> next(q * q, 0.0);
          for (size_t j = 0; j < q; ++j) {
            DfaState d = dfa.Next(static_cast<DfaState>(j), c);
            if (d == kDfaDead) continue;
            for (size_t i = 0; i < q; ++i) {
              next[i * q + static_cast<size_t>(d)] += tmp[i * q + j];
            }
          }
          tmp.swap(next);
        }
        for (size_t i = 0; i < q * q; ++i) edge_mat[i] += tmp[i];
      }
      // node_mat[to] += node_mat[n] × edge_mat  — the q³ step of Table 1.
      auto& dst = node_mat[e.to];
      if (dst.empty()) dst.assign(q * q, 0.0);
      const auto& src = node_mat[n];
      for (size_t i = 0; i < q; ++i) {
        for (size_t l = 0; l < q; ++l) {
          double v = src[i * q + l];
          if (v == 0.0) continue;
          for (size_t j = 0; j < q; ++j) {
            dst[i * q + j] += v * edge_mat[l * q + j];
          }
        }
      }
    }
    if (n != sfa.final()) {
      node_mat[n].clear();
      node_mat[n].shrink_to_fit();
    }
  }
  const auto& fin = node_mat[sfa.final()];
  if (fin.empty()) return 0.0;
  double p = 0.0;
  size_t s0 = static_cast<size_t>(dfa.start());
  for (size_t j = 0; j < q; ++j) {
    if (dfa.IsAccept(static_cast<DfaState>(j))) p += fin[s0 * q + j];
  }
  return p > 1.0 ? 1.0 : p;
}

uint64_t CountEvalWork(const Sfa& sfa, const Dfa& dfa) {
  uint64_t chars = 0;
  for (const Edge& e : sfa.edges()) {
    for (const Transition& t : e.transitions) chars += t.label.size();
  }
  return chars * static_cast<uint64_t>(dfa.NumStates());
}

Result<double> EvalSerializedSfa(const std::string& blob, const Dfa& dfa) {
  STACCATO_ASSIGN_OR_RETURN(Sfa sfa, Sfa::Deserialize(blob));
  return EvalSfaQuery(sfa, dfa);
}

}  // namespace staccato
