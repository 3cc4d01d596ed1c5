#include "sfa/sfa.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "util/strings.h"

namespace staccato {

namespace {

void SortTransitions(std::vector<Transition>* ts) {
  std::sort(ts->begin(), ts->end(), [](const Transition& a, const Transition& b) {
    if (a.prob != b.prob) return a.prob > b.prob;
    return a.label < b.label;
  });
}

}  // namespace

size_t Sfa::NumTransitions() const {
  size_t n = 0;
  for (const Edge& e : edges_) n += e.transitions.size();
  return n;
}

double Sfa::TotalMass() const {
  if (num_nodes_ == 0) return 0.0;
  std::vector<double> mass(num_nodes_, 0.0);
  mass[start_] = 1.0;
  for (NodeId n : topo_) {
    if (mass[n] == 0.0) continue;
    for (EdgeId eid : out_[n]) {
      const Edge& e = edges_[eid];
      double p = 0.0;
      for (const Transition& t : e.transitions) p += t.prob;
      mass[e.to] += mass[n] * p;
    }
  }
  return mass[final_];
}

Status Sfa::ComputeTopologicalOrder() {
  topo_.clear();
  topo_.reserve(num_nodes_);
  std::vector<uint32_t> indegree(num_nodes_, 0);
  for (const Edge& e : edges_) ++indegree[e.to];
  std::deque<NodeId> frontier;
  for (NodeId n = 0; n < num_nodes_; ++n) {
    if (indegree[n] == 0) frontier.push_back(n);
  }
  while (!frontier.empty()) {
    NodeId n = frontier.front();
    frontier.pop_front();
    topo_.push_back(n);
    for (EdgeId eid : out_[n]) {
      if (--indegree[edges_[eid].to] == 0) frontier.push_back(edges_[eid].to);
    }
  }
  if (topo_.size() != num_nodes_) {
    return Status::InvalidArgument("SFA graph contains a cycle");
  }
  topo_index_.assign(num_nodes_, 0);
  for (uint32_t i = 0; i < topo_.size(); ++i) topo_index_[topo_[i]] = i;
  return Status::OK();
}

Status Sfa::Validate(bool require_stochastic) const {
  if (num_nodes_ == 0) return Status::InvalidArgument("SFA has no nodes");
  if (start_ >= num_nodes_) return Status::InvalidArgument("invalid start node");
  if (final_ >= num_nodes_) return Status::InvalidArgument("invalid final node");
  if (start_ == final_ && num_nodes_ > 1) {
    return Status::InvalidArgument("start equals final in multi-node SFA");
  }
  for (const Edge& e : edges_) {
    if (e.from >= num_nodes_ || e.to >= num_nodes_) {
      return Status::InvalidArgument("edge endpoint out of range");
    }
    if (e.transitions.empty()) {
      return Status::InvalidArgument("edge with no transitions");
    }
    for (const Transition& t : e.transitions) {
      if (t.label.empty()) return Status::InvalidArgument("empty transition label");
      if (!(t.prob > 0.0) || t.prob > 1.0 + 1e-9) {
        return Status::InvalidArgument(
            StringPrintf("transition probability %f out of (0,1]", t.prob));
      }
    }
  }
  // Reachability from start, and co-reachability to final.
  std::vector<bool> fwd(num_nodes_, false), bwd(num_nodes_, false);
  fwd[start_] = true;
  for (NodeId n : topo_) {
    if (!fwd[n]) continue;
    for (EdgeId eid : out_[n]) fwd[edges_[eid].to] = true;
  }
  bwd[final_] = true;
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    if (!bwd[*it]) continue;
    for (EdgeId eid : in_[*it]) bwd[edges_[eid].from] = true;
  }
  for (NodeId n = 0; n < num_nodes_; ++n) {
    if (!fwd[n] || !bwd[n]) {
      return Status::InvalidArgument(
          StringPrintf("node %u not on a start-to-final path", n));
    }
  }
  if (!out_[final_].empty()) {
    return Status::InvalidArgument("final node has outgoing edges");
  }
  if (!in_[start_].empty()) {
    return Status::InvalidArgument("start node has incoming edges");
  }
  if (require_stochastic) {
    for (NodeId n = 0; n < num_nodes_; ++n) {
      if (n == final_) continue;
      double sum = 0.0;
      for (EdgeId eid : out_[n]) {
        for (const Transition& t : edges_[eid].transitions) sum += t.prob;
      }
      if (std::fabs(sum - 1.0) > 1e-6) {
        return Status::InvalidArgument(StringPrintf(
            "node %u outgoing probability sums to %f, expected 1", n, sum));
      }
    }
  }
  return Status::OK();
}

Result<std::vector<std::pair<std::string, double>>> Sfa::EnumerateStrings(
    size_t max_paths) const {
  std::vector<std::pair<std::string, double>> out;
  // DFS over partial paths; path count is bounded by max_paths.
  struct Frame {
    NodeId node;
    std::string prefix;
    double prob;
  };
  std::vector<Frame> stack;
  stack.push_back({start_, "", 1.0});
  while (!stack.empty()) {
    Frame f = std::move(stack.back());
    stack.pop_back();
    if (f.node == final_) {
      out.emplace_back(std::move(f.prefix), f.prob);
      if (out.size() > max_paths) {
        return Status::OutOfRange("SFA has more paths than max_paths");
      }
      continue;
    }
    for (EdgeId eid : out_[f.node]) {
      const Edge& e = edges_[eid];
      for (const Transition& t : e.transitions) {
        stack.push_back({e.to, f.prefix + t.label, f.prob * t.prob});
        if (stack.size() > 4 * max_paths) {
          return Status::OutOfRange("SFA path expansion exceeds max_paths");
        }
      }
    }
  }
  return out;
}

Status Sfa::CheckUniquePaths(size_t max_paths) const {
  auto strings = EnumerateStrings(max_paths);
  if (!strings.ok()) return strings.status();
  std::unordered_set<std::string> seen;
  for (const auto& [s, p] : *strings) {
    if (!seen.insert(s).second) {
      return Status::InvalidArgument("string emitted by two paths: '" + s + "'");
    }
  }
  return Status::OK();
}

size_t Sfa::SizeBytes() const {
  // Mirrors the Table-1 accounting: label bytes plus 16 bytes of metadata
  // (ids, location, probability) per stored transition.
  size_t bytes = 0;
  for (const Edge& e : edges_) {
    for (const Transition& t : e.transitions) {
      bytes += t.label.size() + 16;
    }
  }
  return bytes;
}

namespace {
constexpr uint32_t kSfaMagic = 0x53464131;  // "SFA1"
}

std::string Sfa::Serialize() const {
  BinaryWriter w;
  w.PutU32(kSfaMagic);
  w.PutVarint(num_nodes_);
  w.PutVarint(start_);
  w.PutVarint(final_);
  w.PutVarint(edges_.size());
  for (const Edge& e : edges_) {
    w.PutVarint(e.from);
    w.PutVarint(e.to);
    w.PutVarint(e.transitions.size());
    for (const Transition& t : e.transitions) {
      w.PutString(t.label);
      w.PutDouble(t.prob);
    }
  }
  return w.Release();
}

Result<Sfa> Sfa::Deserialize(const std::string& blob) {
  BinaryReader r(blob);
  STACCATO_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kSfaMagic) return Status::Corruption("bad SFA magic");
  SfaBuilder b;
  STACCATO_ASSIGN_OR_RETURN(uint64_t num_nodes, r.GetVarint());
  // Every node except the start must have at least one incident edge (each
  // at least a few bytes), so a node count far beyond the blob size is
  // corruption — reject before allocating.
  if (num_nodes > blob.size() + 2) {
    return Status::Corruption("node count exceeds plausible blob capacity");
  }
  b.AddNodes(num_nodes);
  STACCATO_ASSIGN_OR_RETURN(uint64_t start, r.GetVarint());
  STACCATO_ASSIGN_OR_RETURN(uint64_t final, r.GetVarint());
  b.SetStart(static_cast<NodeId>(start));
  b.SetFinal(static_cast<NodeId>(final));
  STACCATO_ASSIGN_OR_RETURN(uint64_t num_edges, r.GetVarint());
  for (uint64_t i = 0; i < num_edges; ++i) {
    STACCATO_ASSIGN_OR_RETURN(uint64_t from, r.GetVarint());
    STACCATO_ASSIGN_OR_RETURN(uint64_t to, r.GetVarint());
    STACCATO_ASSIGN_OR_RETURN(uint64_t nt, r.GetVarint());
    for (uint64_t j = 0; j < nt; ++j) {
      STACCATO_ASSIGN_OR_RETURN(std::string label, r.GetString());
      STACCATO_ASSIGN_OR_RETURN(double prob, r.GetDouble());
      STACCATO_RETURN_NOT_OK(b.AddTransition(static_cast<NodeId>(from),
                                             static_cast<NodeId>(to),
                                             std::move(label), prob));
    }
  }
  if (!r.AtEnd()) return Status::Corruption("trailing bytes after SFA blob");
  return b.Build();
}

namespace {

constexpr uint32_t kSfaImageMagic = 0x53464931;  // "SFI1"

/// The fixed head of an SFA image; the arrays follow at offsets that
/// ImageLayout derives from these counts alone.
struct ImageHeader {
  uint32_t magic;
  uint32_t num_nodes;
  uint32_t num_edges;
  uint32_t num_transitions;
  uint32_t start;
  uint32_t final;
  uint64_t total_label_chars;
  uint64_t wire_bytes;
  uint32_t mass_bound_safe;
  uint32_t reserved;
};
static_assert(sizeof(ImageHeader) % alignof(double) == 0,
              "the probability array follows the header");

/// Byte offsets of each array inside an image. The 8-byte probabilities
/// come first, right after the header, so every array is naturally
/// aligned when the image itself is 8-byte aligned.
struct ImageLayout {
  size_t probs, edges, label_offsets, out_offsets, out_edges, topo, labels;
  size_t total;
};

ImageLayout LayoutFor(uint64_t nodes, uint64_t edges, uint64_t transitions,
                      uint64_t label_bytes) {
  ImageLayout l;
  size_t at = sizeof(ImageHeader);
  l.probs = at;
  at += transitions * sizeof(double);
  l.edges = at;
  at += edges * sizeof(ViewEdge);
  l.label_offsets = at;
  at += (transitions + 1) * sizeof(uint32_t);
  l.out_offsets = at;
  at += (nodes + 1) * sizeof(uint32_t);
  l.out_edges = at;
  at += edges * sizeof(EdgeId);
  l.topo = at;
  at += nodes * sizeof(NodeId);
  l.labels = at;
  at += label_bytes;
  l.total = at;
  return l;
}

void CopyBytes(char* dst, const void* src, size_t bytes) {
  if (bytes > 0) std::memcpy(dst, src, bytes);
}

}  // namespace

Status SfaView::Decode(std::string_view blob, SfaViewArena* arena) {
  // Node and edge ids, label offsets and counts are 32-bit in a view.
  if (blob.size() >= std::numeric_limits<uint32_t>::max()) {
    return Status::Corruption("SFA blob too large for a view");
  }
  BinaryReader r(blob.data(), blob.size());
  STACCATO_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kSfaMagic) return Status::Corruption("bad SFA magic");
  STACCATO_ASSIGN_OR_RETURN(uint64_t num_nodes, r.GetVarint());
  // Same plausibility guard as Sfa::Deserialize: reject before allocating.
  if (num_nodes > blob.size() + 2) {
    return Status::Corruption("node count exceeds plausible blob capacity");
  }
  if (num_nodes == 0) return Status::Corruption("SFA has no nodes");
  STACCATO_ASSIGN_OR_RETURN(uint64_t start, r.GetVarint());
  STACCATO_ASSIGN_OR_RETURN(uint64_t final, r.GetVarint());
  if (start >= num_nodes || final >= num_nodes) {
    return Status::Corruption("start/final node out of range");
  }
  STACCATO_ASSIGN_OR_RETURN(uint64_t num_edges, r.GetVarint());
  if (num_edges > blob.size()) {
    return Status::Corruption("edge count exceeds plausible blob capacity");
  }

  arena->edges.clear();
  arena->probs.clear();
  arena->label_offsets.assign(1, 0);
  arena->labels.clear();
  arena->indegree.assign(num_nodes, 0);
  // out_offsets doubles as the out-degree histogram during the first pass.
  arena->out_offsets.assign(num_nodes + 1, 0);
  for (uint64_t i = 0; i < num_edges; ++i) {
    STACCATO_ASSIGN_OR_RETURN(uint64_t from, r.GetVarint());
    STACCATO_ASSIGN_OR_RETURN(uint64_t to, r.GetVarint());
    if (from >= num_nodes || to >= num_nodes) {
      return Status::Corruption("edge endpoint out of range");
    }
    STACCATO_ASSIGN_OR_RETURN(uint64_t nt, r.GetVarint());
    if (nt == 0) return Status::Corruption("edge with no transitions");
    if (nt > r.remaining()) {
      return Status::Corruption("transition count exceeds blob capacity");
    }
    ViewEdge e;
    e.from = static_cast<NodeId>(from);
    e.to = static_cast<NodeId>(to);
    e.first_transition = static_cast<uint32_t>(arena->probs.size());
    e.num_transitions = static_cast<uint32_t>(nt);
    for (uint64_t j = 0; j < nt; ++j) {
      STACCATO_ASSIGN_OR_RETURN(std::string_view label, r.GetStringView());
      STACCATO_ASSIGN_OR_RETURN(double prob, r.GetDouble());
      if (label.empty()) return Status::Corruption("empty transition label");
      if (!(prob > 0.0) || prob > 1.0 + 1e-9) {
        return Status::Corruption("transition probability out of (0,1]");
      }
      arena->probs.push_back(prob);
      arena->labels.append(label);
      arena->label_offsets.push_back(
          static_cast<uint32_t>(arena->labels.size()));
    }
    arena->edges.push_back(e);
    ++arena->out_offsets[from + 1];
    ++arena->indegree[to];
  }
  if (!r.AtEnd()) return Status::Corruption("trailing bytes after SFA blob");

  // CSR adjacency: prefix-sum the histogram, then fill slots in edge-id
  // order so each node's out-list ascends by edge id (matching Sfa::Build).
  for (size_t n = 0; n < num_nodes; ++n) {
    arena->out_offsets[n + 1] += arena->out_offsets[n];
  }
  arena->out_cursor.assign(arena->out_offsets.begin(),
                           arena->out_offsets.end() - 1);
  arena->out_edges.resize(arena->edges.size());
  for (EdgeId e = 0; e < arena->edges.size(); ++e) {
    arena->out_edges[arena->out_cursor[arena->edges[e].from]++] = e;
  }
  // The evaluator skips the final node outright (it scores its mass at the
  // end), which is only sound if the final node has no out-edges — the
  // same invariant Sfa::Validate enforces on the deserialization path.
  if (arena->out_offsets[final + 1] != arena->out_offsets[final]) {
    return Status::Corruption("final node has outgoing edges");
  }

  // Mass-bound safety: no node's outgoing probabilities may sum above 1.
  // CSR is ready, so walk nodes and sum their out-transitions directly.
  mass_bound_safe_ = true;
  for (size_t n = 0; n < num_nodes && mass_bound_safe_; ++n) {
    double sum = 0.0;
    for (uint32_t k = arena->out_offsets[n]; k < arena->out_offsets[n + 1];
         ++k) {
      const ViewEdge& e = arena->edges[arena->out_edges[k]];
      for (uint32_t t = 0; t < e.num_transitions; ++t) {
        sum += arena->probs[e.first_transition + t];
      }
    }
    if (sum > 1.0 + 1e-6) mass_bound_safe_ = false;
  }

  // Topological order by the exact Kahn FIFO Sfa uses: seed with zero
  // indegree nodes in ascending id, pop from the front, append new zeros.
  // `topo` is both the queue and the result; `head` is the queue front.
  arena->topo.clear();
  for (NodeId n = 0; n < num_nodes; ++n) {
    if (arena->indegree[n] == 0) arena->topo.push_back(n);
  }
  for (size_t head = 0; head < arena->topo.size(); ++head) {
    NodeId n = arena->topo[head];
    for (const EdgeId* e = arena->out_edges.data() + arena->out_offsets[n];
         e != arena->out_edges.data() + arena->out_offsets[n + 1]; ++e) {
      if (--arena->indegree[arena->edges[*e].to] == 0) {
        arena->topo.push_back(arena->edges[*e].to);
      }
    }
  }
  if (arena->topo.size() != num_nodes) {
    return Status::Corruption("SFA graph contains a cycle");
  }

  num_nodes_ = num_nodes;
  num_edges_ = arena->edges.size();
  num_transitions_ = arena->probs.size();
  start_ = static_cast<NodeId>(start);
  final_ = static_cast<NodeId>(final);
  total_label_chars_ = arena->labels.size();
  wire_bytes_ = blob.size();
  edges_ = arena->edges.data();
  probs_ = arena->probs.data();
  label_offsets_ = arena->label_offsets.data();
  labels_ = arena->labels.data();
  out_offsets_ = arena->out_offsets.data();
  out_edges_ = arena->out_edges.data();
  topo_ = arena->topo.data();
  return Status::OK();
}

std::string SfaView::ToImage() const {
  const ImageLayout l =
      LayoutFor(num_nodes_, num_edges_, num_transitions_, total_label_chars_);
  std::string image(l.total, '\0');
  char* base = image.data();
  ImageHeader h{};
  h.magic = kSfaImageMagic;
  h.num_nodes = static_cast<uint32_t>(num_nodes_);
  h.num_edges = static_cast<uint32_t>(num_edges_);
  h.num_transitions = static_cast<uint32_t>(num_transitions_);
  h.start = start_;
  h.final = final_;
  h.total_label_chars = total_label_chars_;
  h.wire_bytes = wire_bytes_;
  h.mass_bound_safe = mass_bound_safe_ ? 1 : 0;
  CopyBytes(base, &h, sizeof(h));
  CopyBytes(base + l.probs, probs_, num_transitions_ * sizeof(double));
  CopyBytes(base + l.edges, edges_, num_edges_ * sizeof(ViewEdge));
  CopyBytes(base + l.label_offsets, label_offsets_,
            (num_transitions_ + 1) * sizeof(uint32_t));
  CopyBytes(base + l.out_offsets, out_offsets_,
            (num_nodes_ + 1) * sizeof(uint32_t));
  CopyBytes(base + l.out_edges, out_edges_, num_edges_ * sizeof(EdgeId));
  CopyBytes(base + l.topo, topo_, num_nodes_ * sizeof(NodeId));
  CopyBytes(base + l.labels, labels_, total_label_chars_);
  return image;
}

Status SfaView::Attach(std::string_view image) {
  if (image.size() < sizeof(ImageHeader) ||
      reinterpret_cast<uintptr_t>(image.data()) % alignof(double) != 0) {
    return Status::Corruption("not an aligned SFA image");
  }
  ImageHeader h;
  std::memcpy(&h, image.data(), sizeof(h));
  if (h.magic != kSfaImageMagic) {
    return Status::Corruption("bad SFA image magic");
  }
  if (h.num_nodes == 0 || h.start >= h.num_nodes || h.final >= h.num_nodes) {
    return Status::Corruption("SFA image header out of range");
  }
  const ImageLayout l = LayoutFor(h.num_nodes, h.num_edges, h.num_transitions,
                                  h.total_label_chars);
  if (l.total != image.size()) {
    return Status::Corruption("SFA image size does not match its header");
  }
  // ToImage wrote every array with memcpy, which creates the objects the
  // typed pointers below read.
  const char* base = image.data();
  num_nodes_ = h.num_nodes;
  num_edges_ = h.num_edges;
  num_transitions_ = h.num_transitions;
  start_ = h.start;
  final_ = h.final;
  total_label_chars_ = h.total_label_chars;
  wire_bytes_ = h.wire_bytes;
  mass_bound_safe_ = h.mass_bound_safe != 0;
  edges_ = reinterpret_cast<const ViewEdge*>(base + l.edges);
  probs_ = reinterpret_cast<const double*>(base + l.probs);
  label_offsets_ = reinterpret_cast<const uint32_t*>(base + l.label_offsets);
  labels_ = base + l.labels;
  out_offsets_ = reinterpret_cast<const uint32_t*>(base + l.out_offsets);
  out_edges_ = reinterpret_cast<const EdgeId*>(base + l.out_edges);
  topo_ = reinterpret_cast<const NodeId*>(base + l.topo);
  return Status::OK();
}

Result<std::string> DecodeSfaImage(std::string_view blob,
                                   SfaViewArena* arena) {
  SfaView view;
  STACCATO_RETURN_NOT_OK(view.Decode(blob, arena));
  return view.ToImage();
}

NodeId SfaBuilder::AddNode() { return static_cast<NodeId>(num_nodes_++); }

NodeId SfaBuilder::AddNodes(size_t count) {
  NodeId first = static_cast<NodeId>(num_nodes_);
  num_nodes_ += count;
  return first;
}

Status SfaBuilder::AddTransition(NodeId from, NodeId to, std::string label,
                                 double prob) {
  if (from >= num_nodes_ || to >= num_nodes_) {
    return Status::InvalidArgument("AddTransition: node id out of range");
  }
  if (label.empty()) {
    return Status::InvalidArgument("AddTransition: empty label");
  }
  uint64_t key = (static_cast<uint64_t>(from) << 32) | to;
  auto it = edge_index_.find(key);
  if (it != edge_index_.end()) {
    pending_[it->second].transitions.push_back({std::move(label), prob});
    return Status::OK();
  }
  pending_.push_back({from, to, {{std::move(label), prob}}});
  edge_index_.emplace(key, pending_.size() - 1);
  return Status::OK();
}

Result<Sfa> SfaBuilder::Build(bool require_stochastic) {
  if (start_ == kInvalidNode || final_ == kInvalidNode) {
    return Status::InvalidArgument("start/final node not set");
  }
  Sfa sfa;
  sfa.num_nodes_ = num_nodes_;
  sfa.start_ = start_;
  sfa.final_ = final_;
  sfa.edges_.reserve(pending_.size());
  for (auto& pe : pending_) {
    SortTransitions(&pe.transitions);
    sfa.edges_.push_back(Edge{pe.from, pe.to, std::move(pe.transitions)});
  }
  sfa.out_.assign(num_nodes_, {});
  sfa.in_.assign(num_nodes_, {});
  for (EdgeId i = 0; i < sfa.edges_.size(); ++i) {
    sfa.out_[sfa.edges_[i].from].push_back(i);
    sfa.in_[sfa.edges_[i].to].push_back(i);
  }
  STACCATO_RETURN_NOT_OK(sfa.ComputeTopologicalOrder());
  STACCATO_RETURN_NOT_OK(sfa.Validate(require_stochastic));
  return sfa;
}

Result<Sfa> MakeChainSfa(size_t length, size_t alternatives) {
  if (length == 0 || alternatives == 0 || alternatives > 52) {
    return Status::InvalidArgument("MakeChainSfa: bad parameters");
  }
  SfaBuilder b;
  NodeId first = b.AddNodes(length + 1);
  double p = 1.0 / static_cast<double>(alternatives);
  for (size_t i = 0; i < length; ++i) {
    for (size_t a = 0; a < alternatives; ++a) {
      char c = a < 26 ? static_cast<char>('a' + a) : static_cast<char>('A' + a - 26);
      STACCATO_RETURN_NOT_OK(b.AddTransition(
          static_cast<NodeId>(first + i), static_cast<NodeId>(first + i + 1),
          std::string(1, c), p));
    }
  }
  b.SetStart(first);
  b.SetFinal(static_cast<NodeId>(first + length));
  return b.Build(/*require_stochastic=*/true);
}

}  // namespace staccato
