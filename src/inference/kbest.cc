#include "inference/kbest.h"

#include <algorithm>

#include "inference/kbest_dag.h"

namespace staccato {

namespace {

bool ScoredLess(const ScoredString& a, const ScoredString& b) {
  if (a.prob != b.prob) return a.prob > b.prob;
  return a.str < b.str;
}

// Keeps the top-k of `cand` in-place (sorted by descending probability).
void PruneToK(std::vector<ScoredString>* cand, size_t k) {
  if (cand->size() > k) {
    std::partial_sort(cand->begin(), cand->begin() + static_cast<long>(k),
                      cand->end(), ScoredLess);
    cand->resize(k);
  } else {
    std::sort(cand->begin(), cand->end(), ScoredLess);
  }
}

using Slot = KBestDag::Slot;
using Row = KBestDag::Row;

// A max-heap of rows by head probability. Rows with equal heads may pop in
// any order: the merge takes every candidate down to the k-th probability.
void SiftUp(std::vector<Row>* heap, size_t i) {
  const Row r = (*heap)[i];
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!(r.prob > (*heap)[parent].prob)) break;
    (*heap)[i] = (*heap)[parent];
    i = parent;
  }
  (*heap)[i] = r;
}

void SiftDown(std::vector<Row>* heap, size_t i) {
  const Row r = (*heap)[i];
  const size_t n = heap->size();
  for (;;) {
    size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && (*heap)[child + 1].prob > (*heap)[child].prob) {
      ++child;
    }
    if (!((*heap)[child].prob > r.prob)) break;
    (*heap)[i] = (*heap)[child];
    i = child;
  }
  (*heap)[i] = r;
}

// Writes the string `s` spells into *out: the labels along its
// back-pointer chain, oldest first.
void Spell(const Slot& s, KBestDag* dag, std::string* out) {
  dag->labels.clear();
  size_t len = 0;
  for (const Slot* p = &s; p->trans != nullptr; p = &dag->slots[p->prev]) {
    dag->labels.push_back(&p->trans->label);
    len += p->trans->label.size();
  }
  out->clear();
  out->reserve(len);
  for (auto it = dag->labels.rbegin(); it != dag->labels.rend(); ++it) {
    out->append(**it);
  }
}

// dag->cand holds more than k candidates sorted by descending probability,
// and the ones past the cut tie with the k-th. Keeps the k best by
// (probability desc, string asc): everything above the tied probability,
// then the smallest strings among the tied. Only the tied are spelled.
void BreakTieAtCut(KBestDag* dag, size_t k) {
  std::vector<Slot>& c = dag->cand;
  const double kth = c[k - 1].prob;
  size_t lo = k - 1;
  while (lo > 0 && c[lo - 1].prob == kth) --lo;
  const size_t num_tied = c.size() - lo;
  // Grow only: shrinking would free the strings' buffers.
  if (dag->tied.size() < num_tied) dag->tied.resize(num_tied);
  for (size_t i = 0; i < num_tied; ++i) {
    Spell(c[lo + i], dag, &dag->tied[i].first);
    dag->tied[i].second = c[lo + i];
  }
  const auto tied = dag->tied.begin();
  std::partial_sort(tied, tied + static_cast<long>(k - lo),
                    tied + static_cast<long>(num_tied),
                    [](const auto& a, const auto& b) { return a.first < b.first; });
  for (size_t i = lo; i < k; ++i) c[i] = dag->tied[i - lo].second;
  c.resize(k);
}

}  // namespace

void KBestStringsOverDag(uint32_t start, uint32_t final, size_t k,
                         KBestDag* dag, std::vector<ScoredString>* out) {
  if (out != nullptr) out->clear();
  dag->slots.clear();
  dag->result_begin = 0;
  const size_t n = dag->in_begin.size() - 1;
  if (k == 0 || start >= n || final >= n) return;
  dag->slot_begin.assign(n + 1, 0);
  // Nodes in topological order, so all of v's predecessors are settled when
  // v is reached. Each node keeps its k best prefixes by (probability desc,
  // prefix asc). For probabilities this is exact: a dropped prefix has k
  // better ones, which the unique-path property extends to k distinct
  // better strings. For strings it is not: at a tie on the k-th place the
  // prefix order picks the survivor, which need not lead to the smallest
  // full string. A prefix's probability is the product along its path,
  // prev.prob * transition.prob.
  //
  // A node's kept prefixes are stored by descending probability. Then each
  // (in-edge, transition) pair yields a row of candidates that descends
  // too (rounding is monotone), and a heap merge of the rows pops them in
  // order: the k best, plus any that tie with the k-th, without building
  // the rest. An edge's rows descend by transition as well, so row t+1
  // enters the heap only when row t's first candidate leaves it.
  for (uint32_t v = 0; v <= final; ++v) {
    dag->slot_begin[v] = static_cast<uint32_t>(dag->slots.size());
    if (v == start) {
      dag->slots.push_back({1.0, 0, nullptr});
      continue;
    }
    std::vector<Row>& rows = dag->rows;
    rows.clear();
    for (uint32_t i = dag->in_begin[v]; i < dag->in_begin[v + 1]; ++i) {
      const KBestDag::InEdge& e = dag->in_edges[i];
      const uint32_t first = dag->slot_begin[e.from];
      if (first == dag->slot_begin[e.from + 1] || e.num_trans == 0) continue;
      rows.push_back({dag->slots[first].prob * e.trans->prob, first, i, e.trans});
      SiftUp(&rows, rows.size() - 1);
    }
    std::vector<Slot>& cand = dag->cand;
    cand.clear();
    while (!rows.empty()) {
      Row& top = rows[0];
      if (cand.size() >= k && top.prob < cand[k - 1].prob) break;
      cand.push_back({top.prob, top.next, top.trans});
      const uint32_t in_edge = top.in_edge;
      const KBestDag::InEdge& e = dag->in_edges[in_edge];
      const uint32_t first = dag->slot_begin[e.from];
      // Only the top-k transitions of an edge can contribute to a k-best
      // list downstream; transitions are sorted by probability.
      const Transition* next_trans = top.trans + 1;
      const bool activate =
          top.next == first &&
          next_trans != e.trans + std::min<size_t>(e.num_trans, k);
      if (++top.next < dag->slot_begin[e.from + 1]) {
        top.prob = dag->slots[top.next].prob * top.trans->prob;
      } else {
        top = rows.back();
        rows.pop_back();
      }
      if (!rows.empty()) SiftDown(&rows, 0);
      if (activate) {
        rows.push_back({dag->slots[first].prob * next_trans->prob, first,
                        in_edge, next_trans});
        SiftUp(&rows, rows.size() - 1);
      }
    }
    if (cand.size() > k) BreakTieAtCut(dag, k);
    dag->slots.insert(dag->slots.end(), cand.begin(), cand.end());
  }
  dag->result_begin = dag->slot_begin[final];
  if (out == nullptr) return;
  // The final list is sorted by probability; sort runs of equal
  // probability by string to finish the (prob desc, string asc) order.
  out->resize(dag->slots.size() - dag->result_begin);
  for (size_t i = 0; i < out->size(); ++i) {
    const Slot& s = dag->slots[dag->result_begin + i];
    Spell(s, dag, &(*out)[i].str);
    (*out)[i].prob = s.prob;
  }
  for (auto run = out->begin(); run != out->end();) {
    auto run_end = std::find_if(run, out->end(), [&](const ScoredString& s) {
      return s.prob != run->prob;
    });
    if (run_end - run > 1) std::sort(run, run_end, ScoredLess);
    run = run_end;
  }
}

std::vector<ScoredString> KBestStrings(const Sfa& sfa, size_t k) {
  std::vector<ScoredString> out;
  if (k == 0 || sfa.NumNodes() == 0) return out;
  const std::vector<NodeId>& topo = sfa.TopologicalOrder();
  const std::vector<uint32_t>& pos = sfa.TopoIndex();
  KBestDag dag;
  dag.in_begin.assign(topo.size() + 1, 0);
  for (size_t i = 0; i < topo.size(); ++i) {
    dag.in_begin[i + 1] = dag.in_begin[i] +
                          static_cast<uint32_t>(sfa.InEdges(topo[i]).size());
  }
  dag.in_edges.reserve(dag.in_begin.back());
  for (NodeId n : topo) {
    for (EdgeId eid : sfa.InEdges(n)) {
      const Edge& e = sfa.edge(eid);
      dag.in_edges.push_back({pos[e.from], e.transitions.data(),
                              static_cast<uint32_t>(e.transitions.size())});
    }
  }
  KBestStringsOverDag(pos[sfa.start()], pos[sfa.final()], k, &dag, &out);
  return out;
}

Result<ScoredString> MapString(const Sfa& sfa) {
  auto top = KBestStrings(sfa, 1);
  if (top.empty()) return Status::InvalidArgument("SFA emits no strings");
  return top[0];
}

Result<std::vector<ScoredString>> KBestStringsByEnumeration(const Sfa& sfa,
                                                            size_t k,
                                                            size_t max_paths) {
  auto all = sfa.EnumerateStrings(max_paths);
  if (!all.ok()) return all.status();
  std::vector<ScoredString> scored;
  scored.reserve(all->size());
  for (auto& [s, p] : *all) scored.push_back({std::move(s), p});
  PruneToK(&scored, k);
  return scored;
}

}  // namespace staccato
