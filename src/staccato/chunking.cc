#include "staccato/chunking.h"

#include <algorithm>
#include <array>
#include <map>
#include <unordered_map>

#include "inference/kbest.h"
#include "inference/kbest_dag.h"
#include "util/strings.h"

namespace staccato {

namespace {

// ---------------------------------------------------------------------------
// Mutable stable-id graph used by the greedy loop. Node ids never change
// across collapses, which is what makes the candidate cache sound.
// ---------------------------------------------------------------------------
struct MGraph {
  struct MEdge {
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    std::vector<Transition> trans;
    double mass = 0.0;   // Σ trans[i].prob, summed in order
    bool valid = false;  // every transition passes Sfa::Validate's checks
    bool alive = false;
  };

  std::vector<MEdge> edges;
  std::vector<std::vector<EdgeId>> out, in;  // may reference dead edges
  std::vector<bool> node_alive;
  NodeId start = kInvalidNode;
  NodeId final = kInvalidNode;
  size_t alive_edges = 0;

  static MGraph FromSfa(const Sfa& sfa, size_t k) {
    MGraph g;
    g.start = sfa.start();
    g.final = sfa.final();
    g.node_alive.assign(sfa.NumNodes(), true);
    g.out.assign(sfa.NumNodes(), {});
    g.in.assign(sfa.NumNodes(), {});
    for (const Edge& e : sfa.edges()) {
      // Transitions are already sorted by descending probability.
      const size_t keep = std::min(e.transitions.size(), k);
      g.AddEdge(e.from, e.to,
                std::vector<Transition>(e.transitions.begin(),
                                        e.transitions.begin() + keep));
    }
    return g;
  }

  EdgeId AddEdge(NodeId from, NodeId to, std::vector<Transition> trans) {
    MEdge me;
    me.from = from;
    me.to = to;
    me.trans = std::move(trans);
    me.valid = !me.trans.empty();
    for (const Transition& t : me.trans) {
      me.mass += t.prob;
      if (t.label.empty() || !(t.prob > 0.0) || t.prob > 1.0 + 1e-9) {
        me.valid = false;
      }
    }
    me.alive = true;
    EdgeId id = static_cast<EdgeId>(edges.size());
    edges.push_back(std::move(me));
    out[from].push_back(id);
    in[to].push_back(id);
    ++alive_edges;
    return id;
  }

  void KillEdge(EdgeId id) {
    if (edges[id].alive) {
      edges[id].alive = false;
      --alive_edges;
    }
  }

  Result<Sfa> ToSfa() const {
    std::vector<NodeId> remap(node_alive.size(), kInvalidNode);
    SfaBuilder b;
    for (NodeId n = 0; n < node_alive.size(); ++n) {
      if (node_alive[n]) remap[n] = b.AddNode();
    }
    b.SetStart(remap[start]);
    b.SetFinal(remap[final]);
    for (const MEdge& e : edges) {
      if (!e.alive) continue;
      for (const Transition& t : e.trans) {
        STACCATO_RETURN_NOT_OK(
            b.AddTransition(remap[e.from], remap[e.to], t.label, t.prob));
      }
    }
    return b.Build();
  }
};

// ---------------------------------------------------------------------------
// Graph adapters so FindMinSFA runs identically on Sfa and MGraph.
// ---------------------------------------------------------------------------
struct SfaNodeGraph {
  const Sfa& sfa;
  size_t NumNodes() const { return sfa.NumNodes(); }
  bool Alive(NodeId) const { return true; }
  template <typename F>
  void ForOut(NodeId n, F&& f) const {
    for (EdgeId e : sfa.OutEdges(n)) f(sfa.edge(e).to);
  }
  template <typename F>
  void ForIn(NodeId n, F&& f) const {
    for (EdgeId e : sfa.InEdges(n)) f(sfa.edge(e).from);
  }
};

struct MGraphView {
  const MGraph& g;
  size_t NumNodes() const { return g.node_alive.size(); }
  bool Alive(NodeId n) const { return g.node_alive[n]; }
  template <typename F>
  void ForOut(NodeId n, F&& f) const {
    for (EdgeId e : g.out[n]) {
      if (g.edges[e].alive) f(g.edges[e].to);
    }
  }
  template <typename F>
  void ForIn(NodeId n, F&& f) const {
    for (EdgeId e : g.in[n]) {
      if (g.edges[e].alive) f(g.edges[e].from);
    }
  }
};

// Visited marks that clear in O(1): n is marked iff mark[n] == epoch.
struct Marks {
  std::vector<uint32_t> mark;
  uint32_t epoch = 0;

  void Clear(size_t num_nodes) {
    if (mark.size() != num_nodes || epoch == UINT32_MAX) {
      mark.assign(num_nodes, 0);
      epoch = 0;
    }
    ++epoch;
  }
  bool Has(NodeId n) const { return mark[n] == epoch; }
  bool Add(NodeId n) {
    if (mark[n] == epoch) return false;
    mark[n] = epoch;
    return true;
  }
};

// Reusable buffers of FindMinSfaImpl, so the greedy loop's many calls
// allocate only their results.
struct FindMinScratch {
  std::vector<uint8_t> in_x;  // membership of the growing node set
  std::vector<NodeId> x;      // its members, in insertion order
  Marks desc, anc;
  std::vector<NodeId> stack;
  std::vector<uint8_t> common;
  std::vector<NodeId> mins, maxs;
};

// Marks every node reachable from `seeds` (inclusive) along out-edges
// (forward) or in-edges (backward), not entering nodes whose topological
// index lies beyond `limit` (above it forward, below it backward).
template <typename View, typename Seeds>
void Reach(const View& v, bool forward, const Seeds& seeds, uint32_t limit,
           const std::vector<uint32_t>& topo, Marks* marks,
           std::vector<NodeId>* stack) {
  marks->Clear(v.NumNodes());
  stack->clear();
  for (NodeId n : seeds) {
    if (marks->Add(n)) stack->push_back(n);
  }
  auto visit = [&](NodeId t) {
    if ((forward ? topo[t] <= limit : topo[t] >= limit) && marks->Add(t)) {
      stack->push_back(t);
    }
  };
  while (!stack->empty()) {
    NodeId n = stack->back();
    stack->pop_back();
    if (forward) {
      v.ForOut(n, visit);
    } else {
      v.ForIn(n, visit);
    }
  }
}

// Kahn topological order over alive nodes: a FIFO seeded with the
// zero-indegree nodes in ascending id. `index` maps a node to its position
// (dead nodes get UINT32_MAX); `order` lists the nodes.
struct TopoOrder {
  std::vector<uint32_t> index;
  std::vector<NodeId> order;
};

template <typename View>
void ComputeTopo(const View& v, TopoOrder* topo, std::vector<uint32_t>* indeg) {
  topo->index.assign(v.NumNodes(), UINT32_MAX);
  topo->order.clear();
  indeg->assign(v.NumNodes(), 0);
  for (NodeId n = 0; n < v.NumNodes(); ++n) {
    if (!v.Alive(n)) continue;
    v.ForOut(n, [&](NodeId t) { ++(*indeg)[t]; });
  }
  for (NodeId n = 0; n < v.NumNodes(); ++n) {
    if (v.Alive(n) && (*indeg)[n] == 0) topo->order.push_back(n);
  }
  for (size_t head = 0; head < topo->order.size(); ++head) {
    NodeId n = topo->order[head];
    topo->index[n] = static_cast<uint32_t>(head);
    v.ForOut(n, [&](NodeId t) {
      if (--(*indeg)[t] == 0) topo->order.push_back(t);
    });
  }
}

// The core of Algorithm 1, parameterized over the graph representation.
// `topo` is the graph's Kahn index: it bounds the betweenness search and
// ranks candidate LCA/GCD nodes.
template <typename View, typename Seed>
Result<MinSfaResult> FindMinSfaImpl(const View& v,
                                    const std::vector<uint32_t>& topo,
                                    const Seed& seed, FindMinScratch* s) {
  if (seed.begin() == seed.end()) {
    return Status::InvalidArgument("FindMinSFA: empty seed");
  }
  for (NodeId n : seed) {
    if (n >= v.NumNodes() || !v.Alive(n)) {
      return Status::InvalidArgument("FindMinSFA: seed node invalid");
    }
  }
  const size_t num_nodes = v.NumNodes();
  s->in_x.assign(num_nodes, 0);
  s->x.clear();
  auto in_x = [&](NodeId n) { return s->in_x[n] != 0; };
  auto add = [&](NodeId n) {
    s->in_x[n] = 1;
    s->x.push_back(n);
  };
  for (NodeId n : seed) {
    if (!in_x(n)) add(n);
  }
  constexpr uint32_t kNoLimit = UINT32_MAX;
  // Each pass strictly grows x or returns, so the loop is bounded.
  for (size_t guard = 0; guard <= 2 * num_nodes + 2; ++guard) {
    // (a) Betweenness closure: include every node lying on a path between
    // two members of x; this keeps the induced subgraph connected. Such a
    // node lies between them in topological order too, so both searches
    // stay inside x's topological range.
    {
      uint32_t lo = kNoLimit, hi = 0;
      for (NodeId n : s->x) {
        lo = std::min(lo, topo[n]);
        hi = std::max(hi, topo[n]);
      }
      Reach(v, /*forward=*/true, s->x, hi, topo, &s->desc, &s->stack);
      Reach(v, /*forward=*/false, s->x, lo, topo, &s->anc, &s->stack);
      bool grew = false;
      for (NodeId n = 0; n < num_nodes; ++n) {
        if (s->desc.Has(n) && s->anc.Has(n) && v.Alive(n) && !in_x(n)) {
          add(n);
          grew = true;
        }
      }
      if (grew) continue;
    }
    // (b) Unique entry / exit nodes within x.
    s->mins.clear();
    s->maxs.clear();
    for (NodeId n : s->x) {
      bool has_in_from_x = false, has_out_to_x = false;
      v.ForIn(n, [&](NodeId p) { has_in_from_x |= in_x(p); });
      v.ForOut(n, [&](NodeId t) { has_out_to_x |= in_x(t); });
      if (!has_in_from_x) s->mins.push_back(n);
      if (!has_out_to_x) s->maxs.push_back(n);
    }
    if (s->mins.size() != 1) {
      // No unique start: add the least common ancestor (the nearest node
      // from which every minimal element is reachable).
      s->common.assign(num_nodes, 1);
      for (NodeId n : s->mins) {
        Reach(v, /*forward=*/false, std::array<NodeId, 1>{n}, /*limit=*/0,
              topo, &s->anc, &s->stack);
        for (NodeId i = 0; i < num_nodes; ++i) {
          s->common[i] &= s->anc.Has(i) ? 1 : 0;
        }
      }
      NodeId lca = kInvalidNode;
      for (NodeId i = 0; i < num_nodes; ++i) {
        if (!s->common[i] || !v.Alive(i) || in_x(i)) continue;
        if (lca == kInvalidNode || topo[i] > topo[lca]) lca = i;
      }
      if (lca == kInvalidNode) {
        return Status::Internal("FindMinSFA: no common ancestor found");
      }
      add(lca);
      continue;
    }
    if (s->maxs.size() != 1) {
      // No unique end: add the greatest common descendant.
      s->common.assign(num_nodes, 1);
      for (NodeId n : s->maxs) {
        Reach(v, /*forward=*/true, std::array<NodeId, 1>{n}, kNoLimit, topo,
              &s->desc, &s->stack);
        for (NodeId i = 0; i < num_nodes; ++i) {
          s->common[i] &= s->desc.Has(i) ? 1 : 0;
        }
      }
      NodeId gcd = kInvalidNode;
      for (NodeId i = 0; i < num_nodes; ++i) {
        if (!s->common[i] || !v.Alive(i) || in_x(i)) continue;
        if (gcd == kInvalidNode || topo[i] < topo[gcd]) gcd = i;
      }
      if (gcd == kInvalidNode) {
        return Status::Internal("FindMinSFA: no common descendant found");
      }
      add(gcd);
      continue;
    }
    const NodeId start = s->mins[0];
    const NodeId final = s->maxs[0];
    if (start == final) {
      return Status::InvalidArgument("FindMinSFA: degenerate single-node chunk");
    }
    // (c) Interior nodes must have no edges crossing the chunk boundary.
    bool grew = false;
    const size_t num_before = s->x.size();
    for (size_t i = 0; i < num_before; ++i) {
      const NodeId n = s->x[i];
      if (n == start || n == final) continue;
      auto pull_in = [&](NodeId t) {
        if (!in_x(t)) {
          add(t);
          grew = true;
        }
      };
      v.ForIn(n, pull_in);
      v.ForOut(n, pull_in);
    }
    if (grew) continue;
    MinSfaResult r;
    r.nodes.insert(s->x.begin(), s->x.end());
    r.start = start;
    r.final = final;
    return r;
  }
  return Status::Internal("FindMinSFA did not converge");
}

// A chunk's masses and, once it is chosen for a collapse, its top-k strings.
struct ChunkSummary {
  double total_mass = 0.0;        // conditional mass of all chunk paths
  double kept_mass = 0.0;         // conditional mass of the retained top-k
  std::vector<Transition> top_k;  // top-k strings of the chunk, as transitions
};

// Reusable buffers of SummarizeChunk. `pos`, `indeg` and `mass` are indexed
// by MGraph node and restored after every call.
struct SummaryScratch {
  static constexpr uint32_t kOutside = UINT32_MAX;
  static constexpr uint32_t kUnplaced = UINT32_MAX - 1;
  std::vector<uint32_t> pos;  // chunk node -> position in `order`
  std::vector<uint32_t> indeg;
  std::vector<double> mass;
  std::vector<NodeId> order;     // the chunk's Kahn order
  std::vector<uint32_t> cursor;  // in-edge fill position per node
  KBestDag dag;
  std::vector<ScoredString> best;
};

// Scores the chunk's induced sub-SFA in place on the MGraph: its total mass
// (Sfa::TotalMass) and its top-k strings (the KBestStrings kernel), spelled
// only if `spell`. Both DPs walk the sub-SFA's own Kahn order — the order an
// Sfa built from the chunk would have (nodes renumbered ascending, edges in
// id order, FIFO from the unique start) — so sums accumulate in the same
// order and the results are bit-identical to scoring that Sfa. Fails where
// building that Sfa would: an unreachable node or an invalid edge.
Result<ChunkSummary> SummarizeChunk(const MGraph& g, const MinSfaResult& chunk,
                                    size_t k, bool spell, SummaryScratch* s) {
  const size_t num_nodes = g.node_alive.size();
  if (s->pos.size() != num_nodes) {
    s->pos.assign(num_nodes, SummaryScratch::kOutside);
    s->indeg.assign(num_nodes, 0);
    s->mass.assign(num_nodes, 0.0);
  }
  for (NodeId n : chunk.nodes) s->pos[n] = SummaryScratch::kUnplaced;
  auto inside = [&](const MGraph::MEdge& e) {
    return e.alive && s->pos[e.to] != SummaryScratch::kOutside;
  };
  bool valid = true;
  for (NodeId n : chunk.nodes) {
    for (EdgeId eid : g.out[n]) {
      const MGraph::MEdge& e = g.edges[eid];
      if (!inside(e)) continue;
      ++s->indeg[e.to];
      valid &= e.valid;
    }
  }
  // Kahn from the start, running the mass DP as nodes settle.
  s->order.assign(1, chunk.start);
  s->mass[chunk.start] = 1.0;
  for (size_t head = 0; head < s->order.size(); ++head) {
    const NodeId n = s->order[head];
    s->pos[n] = static_cast<uint32_t>(head);
    for (EdgeId eid : g.out[n]) {
      const MGraph::MEdge& e = g.edges[eid];
      if (!inside(e)) continue;
      if (s->mass[n] != 0.0) s->mass[e.to] += s->mass[n] * e.mass;
      if (--s->indeg[e.to] == 0) s->order.push_back(e.to);
    }
  }
  valid &= s->order.size() == chunk.nodes.size();
  ChunkSummary out;
  out.total_mass = s->mass[chunk.final];
  if (valid) {
    // In-edges per position, listed in the order their sources settle.
    KBestDag& dag = s->dag;
    dag.in_begin.assign(s->order.size() + 1, 0);
    for (NodeId n : s->order) {
      for (EdgeId eid : g.out[n]) {
        if (inside(g.edges[eid])) ++dag.in_begin[s->pos[g.edges[eid].to] + 1];
      }
    }
    for (size_t i = 0; i < s->order.size(); ++i) {
      dag.in_begin[i + 1] += dag.in_begin[i];
    }
    dag.in_edges.resize(dag.in_begin.back());
    s->cursor.assign(dag.in_begin.begin(), dag.in_begin.end() - 1);
    for (NodeId n : s->order) {
      for (EdgeId eid : g.out[n]) {
        const MGraph::MEdge& e = g.edges[eid];
        if (!inside(e)) continue;
        dag.in_edges[s->cursor[s->pos[e.to]]++] = {
            s->pos[n], e.trans.data(), static_cast<uint32_t>(e.trans.size())};
      }
    }
    KBestStringsOverDag(s->pos[chunk.start], s->pos[chunk.final], k, &dag,
                        spell ? &s->best : nullptr);
    // Summed by descending probability, as over the sorted strings.
    for (size_t i = dag.result_begin; i < dag.slots.size(); ++i) {
      out.kept_mass += dag.slots[i].prob;
    }
    if (spell) {
      out.top_k.reserve(s->best.size());
      for (ScoredString& str : s->best) {
        out.top_k.push_back({std::move(str.str), str.prob});
      }
    }
  }
  for (NodeId n : chunk.nodes) {
    s->pos[n] = SummaryScratch::kOutside;
    s->indeg[n] = 0;
    s->mass[n] = 0.0;
  }
  if (!valid) return Status::InvalidArgument("chunk is not a valid sub-SFA");
  return out;
}

// Start→node and node→final path masses, used to weight a chunk's local
// probability loss into a global retained-mass loss.
void ComputeFlow(const MGraph& g, const TopoOrder& topo,
                 std::vector<double>* fwd, std::vector<double>* bwd) {
  fwd->assign(g.node_alive.size(), 0.0);
  bwd->assign(g.node_alive.size(), 0.0);
  (*fwd)[g.start] = 1.0;
  for (NodeId n : topo.order) {
    for (EdgeId eid : g.out[n]) {
      const auto& e = g.edges[eid];
      if (e.alive) (*fwd)[e.to] += (*fwd)[n] * e.mass;
    }
  }
  (*bwd)[g.final] = 1.0;
  for (auto it = topo.order.rbegin(); it != topo.order.rend(); ++it) {
    for (EdgeId eid : g.in[*it]) {
      const auto& e = g.edges[eid];
      if (e.alive) (*bwd)[e.from] += (*bwd)[*it] * e.mass;
    }
  }
}

// A candidate seed {x, y, z}, ascending.
using Triple = std::array<NodeId, 3>;

struct TripleHash {
  size_t operator()(const Triple& t) const {
    uint64_t h = (static_cast<uint64_t>(t[0]) << 32) | t[1];
    h ^= (static_cast<uint64_t>(t[2]) + 0x9e3779b97f4a7c15ULL) *
         0xbf58476d1ce4e5b9ULL;
    return std::hash<uint64_t>()(h);
  }
};

std::string ChunkKey(const std::set<NodeId>& nodes) {
  std::string key;
  key.reserve(nodes.size() * 4);
  for (NodeId n : nodes) {
    key.append(reinterpret_cast<const char*>(&n), sizeof(n));
  }
  return key;
}

}  // namespace

Result<MinSfaResult> FindMinSfa(const Sfa& sfa, const std::set<NodeId>& seed) {
  TopoOrder topo;
  std::vector<uint32_t> indeg;
  ComputeTopo(SfaNodeGraph{sfa}, &topo, &indeg);
  FindMinScratch scratch;
  return FindMinSfaImpl(SfaNodeGraph{sfa}, topo.index, seed, &scratch);
}

Result<Sfa> ExtractChunk(const Sfa& sfa, const MinSfaResult& chunk) {
  SfaBuilder b;
  std::map<NodeId, NodeId> remap;
  for (NodeId n : chunk.nodes) remap[n] = b.AddNode();
  b.SetStart(remap[chunk.start]);
  b.SetFinal(remap[chunk.final]);
  for (const Edge& e : sfa.edges()) {
    if (!chunk.nodes.count(e.from) || !chunk.nodes.count(e.to)) continue;
    for (const Transition& t : e.transitions) {
      STACCATO_RETURN_NOT_OK(
          b.AddTransition(remap[e.from], remap[e.to], t.label, t.prob));
    }
  }
  return b.Build();
}

Result<Sfa> CollapseChunk(const Sfa& sfa, const MinSfaResult& chunk, size_t k) {
  STACCATO_ASSIGN_OR_RETURN(Sfa sub, ExtractChunk(sfa, chunk));
  std::vector<ScoredString> best = KBestStrings(sub, k);
  if (best.empty()) return Status::Internal("chunk emits no strings");
  SfaBuilder b;
  std::vector<NodeId> remap(sfa.NumNodes(), kInvalidNode);
  for (NodeId n = 0; n < sfa.NumNodes(); ++n) {
    bool interior = chunk.nodes.count(n) && n != chunk.start && n != chunk.final;
    if (!interior) remap[n] = b.AddNode();
  }
  b.SetStart(remap[sfa.start()]);
  b.SetFinal(remap[sfa.final()]);
  for (const Edge& e : sfa.edges()) {
    if (chunk.nodes.count(e.from) && chunk.nodes.count(e.to)) continue;
    for (const Transition& t : e.transitions) {
      STACCATO_RETURN_NOT_OK(
          b.AddTransition(remap[e.from], remap[e.to], t.label, t.prob));
    }
  }
  for (const ScoredString& s : best) {
    STACCATO_RETURN_NOT_OK(b.AddTransition(remap[chunk.start],
                                           remap[chunk.final], s.str, s.prob));
  }
  return b.Build();
}

Result<Sfa> ApproximateSfa(const Sfa& sfa, const StaccatoParams& params,
                           ApproxStats* stats) {
  if (params.m == 0 || params.k == 0) {
    return Status::InvalidArgument("ApproximateSfa: m and k must be >= 1");
  }
  ApproxStats local;
  local.input_edges = sfa.NumEdges();

  MGraph g = MGraph::FromSfa(sfa, params.k);

  struct CacheEntry {
    std::string key;
    MinSfaResult chunk;
    ChunkSummary summary;
    bool live = true;
  };
  // Scored chunks, referred to by index; an entry dies when a collapse
  // overlaps it.
  std::vector<CacheEntry> entries;
  // Chunk cache: canonical node set -> its live entry. Entries stay valid
  // as long as the collapsed region does not overlap them (a collapse never
  // creates new paths, so a chunk whose nodes are untouched resolves and
  // scores identically on the new graph).
  std::unordered_map<std::string, size_t> cache;
  // Triple memo: seed {x,y,z} -> the entry its chunk resolved to. A dead
  // entry is a hint by key: a live entry for the same node set still
  // serves, otherwise the seed is resolved again.
  std::unordered_map<Triple, size_t, TripleHash> triple_memo;

  // One topological order per greedy iteration: the graph changes only at
  // a collapse, so the flow DP and every FindMinSFA call share it.
  TopoOrder topo;
  std::vector<uint32_t> indeg;
  FindMinScratch find_scratch;
  SummaryScratch summary_scratch;
  std::vector<double> fwd, bwd;
  std::vector<uint8_t> collapsed;
  while (g.alive_edges > params.m) {
    ComputeTopo(MGraphView{g}, &topo, &indeg);
    ComputeFlow(g, topo, &fwd, &bwd);
    // Enumerate candidate triples {x, y, z} with alive edges (x,y), (y,z).
    size_t best = SIZE_MAX;
    double best_loss = 0.0;
    for (NodeId y = 0; y < g.node_alive.size(); ++y) {
      if (!g.node_alive[y] || y == g.start || y == g.final) continue;
      for (EdgeId ie : g.in[y]) {
        if (!g.edges[ie].alive) continue;
        for (EdgeId oe : g.out[y]) {
          if (!g.edges[oe].alive) continue;
          Triple seed{g.edges[ie].from, y, g.edges[oe].to};
          std::sort(seed.begin(), seed.end());
          size_t entry = SIZE_MAX;
          auto memo_it = params.use_candidate_cache ? triple_memo.find(seed)
                                                    : triple_memo.end();
          if (memo_it != triple_memo.end()) {
            if (entries[memo_it->second].live) {
              entry = memo_it->second;
            } else {
              auto it = cache.find(entries[memo_it->second].key);
              if (it != cache.end()) entry = it->second;
            }
            if (entry != SIZE_MAX) ++local.cache_hits;
          }
          if (entry == SIZE_MAX) {
            auto min_sfa =
                FindMinSfaImpl(MGraphView{g}, topo.index, seed, &find_scratch);
            if (!min_sfa.ok()) continue;
            std::string key = ChunkKey(min_sfa->nodes);
            auto it = cache.find(key);
            if (it == cache.end()) {
              auto summary = SummarizeChunk(g, *min_sfa, params.k,
                                            /*spell=*/false, &summary_scratch);
              if (!summary.ok()) continue;
              ++local.candidates_scored;
              entries.push_back(CacheEntry{key, std::move(*min_sfa),
                                           std::move(*summary)});
              it = cache.emplace(std::move(key), entries.size() - 1).first;
            }
            triple_memo[seed] = it->second;
            entry = it->second;
          }
          const CacheEntry& e = entries[entry];
          double loss = fwd[e.chunk.start] *
                        (e.summary.total_mass - e.summary.kept_mass) *
                        bwd[e.chunk.final];
          if (best == SIZE_MAX || loss < best_loss) {
            best = entry;
            best_loss = loss;
          }
        }
      }
    }
    if (best == SIZE_MAX) break;  // no collapsible structure remains

    // Apply the collapse: kill interior nodes and intra-chunk edges, add the
    // chunk edge with the retained strings. The chunk is unchanged since it
    // was scored, so spelling its strings now gives what scoring would have.
    const MinSfaResult chosen = entries[best].chunk;
    STACCATO_ASSIGN_OR_RETURN(
        ChunkSummary kept,
        SummarizeChunk(g, chosen, params.k, /*spell=*/true, &summary_scratch));
    collapsed.assign(g.node_alive.size(), 0);
    for (NodeId n : chosen.nodes) collapsed[n] = 1;
    for (EdgeId e = 0; e < g.edges.size(); ++e) {
      if (g.edges[e].alive && collapsed[g.edges[e].from] &&
          collapsed[g.edges[e].to]) {
        g.KillEdge(e);
      }
    }
    for (NodeId n : chosen.nodes) {
      if (n != chosen.start && n != chosen.final) g.node_alive[n] = false;
    }
    g.AddEdge(chosen.start, chosen.final, std::move(kept.top_k));
    ++local.iterations;

    // Invalidate cache entries overlapping the collapsed region.
    for (auto it = cache.begin(); it != cache.end();) {
      CacheEntry& e = entries[it->second];
      e.live = std::none_of(e.chunk.nodes.begin(), e.chunk.nodes.end(),
                            [&](NodeId n) { return collapsed[n] != 0; });
      it = e.live ? std::next(it) : cache.erase(it);
    }
    if (!params.use_candidate_cache) {
      entries.clear();
      cache.clear();
      triple_memo.clear();
    }
  }

  auto out = g.ToSfa();
  if (!out.ok()) return out.status();
  local.output_edges = out->NumEdges();
  local.output_transitions = out->NumTransitions();
  local.retained_mass = out->TotalMass();
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace staccato
