// The Stochastic Finite Automaton (SFA) data model of Kumar & Ré,
// "Probabilistic Management of OCR Data using an RDBMS" (VLDB 2011).
//
// An SFA is a DAG with a unique start and final node. Each edge carries a
// set of labeled transitions; a label is a non-empty string over the ASCII
// alphabet and has a probability conditioned on the source node. A
// source-to-sink labeled path emits the concatenation of its labels with
// probability equal to the product of its transition probabilities.
//
// This is the *generalized* SFA of Section 3.1 (labels in Σ+ rather than Σ),
// which subsumes the raw per-character model produced by OCR and is closed
// under the Staccato Collapse operation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/result.h"
#include "util/serde.h"
#include "util/status.h"

namespace staccato {

using NodeId = uint32_t;
using EdgeId = uint32_t;

inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
inline constexpr EdgeId kInvalidEdge = std::numeric_limits<EdgeId>::max();

/// \brief One labeled alternative on an edge: emit `label` with conditional
/// probability `prob` when leaving the edge's source node.
struct Transition {
  std::string label;
  double prob = 0.0;

  bool operator==(const Transition& o) const {
    return label == o.label && prob == o.prob;
  }
};

/// \brief A directed edge bundling all transitions between one node pair.
/// Transitions are kept sorted by descending probability (ties by label) so
/// the MAP alternative is always front().
struct Edge {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  std::vector<Transition> transitions;
};

/// \brief Immutable SFA. Construct through SfaBuilder.
class Sfa {
 public:
  Sfa() = default;

  size_t NumNodes() const { return num_nodes_; }
  size_t NumEdges() const { return edges_.size(); }
  NodeId start() const { return start_; }
  NodeId final() const { return final_; }

  const Edge& edge(EdgeId e) const { return edges_[e]; }
  const std::vector<Edge>& edges() const { return edges_; }
  const std::vector<EdgeId>& OutEdges(NodeId n) const { return out_[n]; }
  const std::vector<EdgeId>& InEdges(NodeId n) const { return in_[n]; }

  /// Total number of labeled transitions across all edges.
  size_t NumTransitions() const;

  /// Nodes in a topological order (start first, final last).
  const std::vector<NodeId>& TopologicalOrder() const { return topo_; }

  /// Position of each node in TopologicalOrder(); usable as a partial order.
  const std::vector<uint32_t>& TopoIndex() const { return topo_index_; }

  /// Total probability mass over all source-to-sink labeled paths, computed
  /// by the sum-product DP. Equals 1.0 for a stochastic SFA; may be < 1
  /// after approximation prunes strings.
  double TotalMass() const;

  /// Structural sanity checks: DAG with the stored topo order, unique
  /// start/final, every node on some start→final path, probabilities in
  /// (0, 1], non-empty labels. If `require_stochastic`, additionally checks
  /// each non-final node's outgoing mass sums to 1 (±1e-6).
  Status Validate(bool require_stochastic = false) const;

  /// Exhaustively enumerates emitted strings (up to `max_paths`) and checks
  /// the unique-path property: no string is emitted by two distinct labeled
  /// paths. Intended for tests; cost is linear in the number of paths.
  /// Returns InvalidArgument naming a duplicated string on violation, or
  /// OutOfRange if the SFA has more than `max_paths` paths.
  Status CheckUniquePaths(size_t max_paths = 1 << 20) const;

  /// Enumerates all emitted (string, probability) pairs; test/debug helper.
  /// Fails with OutOfRange if there are more than `max_paths` paths.
  Result<std::vector<std::pair<std::string, double>>> EnumerateStrings(
      size_t max_paths = 1 << 20) const;

  /// Approximate in-memory footprint in bytes (labels + per-transition
  /// metadata), mirroring the accounting of Table 1 in the paper.
  size_t SizeBytes() const;

  /// Binary blob encoding (the FullSFA BLOB stored in the RDBMS).
  std::string Serialize() const;
  static Result<Sfa> Deserialize(const std::string& blob);

 private:
  friend class SfaBuilder;

  Status ComputeTopologicalOrder();

  size_t num_nodes_ = 0;
  NodeId start_ = kInvalidNode;
  NodeId final_ = kInvalidNode;
  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> out_;
  std::vector<std::vector<EdgeId>> in_;
  std::vector<NodeId> topo_;
  std::vector<uint32_t> topo_index_;
};

/// \brief Mutable construction interface for SFAs.
///
/// Usage:
///   SfaBuilder b;
///   NodeId s = b.AddNode(); ... b.AddTransition(s, t, "F", 0.8);
///   b.SetStart(s); b.SetFinal(f);
///   STACCATO_ASSIGN_OR_RETURN(Sfa sfa, b.Build());
class SfaBuilder {
 public:
  NodeId AddNode();
  /// Adds `count` nodes, returning the id of the first.
  NodeId AddNodes(size_t count);

  /// Adds one labeled alternative between `from` and `to`; transitions for
  /// the same node pair accumulate on a single edge.
  Status AddTransition(NodeId from, NodeId to, std::string label, double prob);

  void SetStart(NodeId n) { start_ = n; }
  void SetFinal(NodeId n) { final_ = n; }

  size_t NumNodes() const { return num_nodes_; }

  /// Validates and freezes into an immutable Sfa. If `require_stochastic`,
  /// insists outgoing probabilities sum to 1 per node.
  Result<Sfa> Build(bool require_stochastic = false);

 private:
  struct PendingEdge {
    NodeId from, to;
    std::vector<Transition> transitions;
  };

  size_t num_nodes_ = 0;
  NodeId start_ = kInvalidNode;
  NodeId final_ = kInvalidNode;
  std::vector<PendingEdge> pending_;
  // (from << 32 | to) -> index into pending_.
  std::unordered_map<uint64_t, size_t> edge_index_;
};

/// Builds the simple chain SFA used by the Table-1 cost model: `length`
/// single-character positions, each with `alternatives` equally weighted
/// candidate labels. Useful for tests and the cost-model bench.
Result<Sfa> MakeChainSfa(size_t length, size_t alternatives);

/// \brief One labeled alternative as seen by SfaView: the label is a slice
/// of the view's label bytes, not an owned string.
struct ViewTransition {
  std::string_view label;
  double prob = 0.0;
};

/// \brief One edge as seen by SfaView: a [first, first+count) range into
/// the view's transition arrays.
struct ViewEdge {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  uint32_t first_transition = 0;
  uint32_t num_transitions = 0;
};

/// \brief A read-only run of node ids (SfaView's topological order); it
/// compares equal to a vector holding the same ids.
struct NodeSpan {
  using value_type = NodeId;
  using iterator = const NodeId*;
  using const_iterator = const NodeId*;

  const NodeId* first = nullptr;
  size_t count = 0;

  const NodeId* begin() const { return first; }
  const NodeId* end() const { return first + count; }
  bool operator==(const std::vector<NodeId>& v) const {
    return count == v.size() && std::equal(begin(), end(), v.begin());
  }
};

/// \brief Reusable backing storage for SfaView decoding. All buffers are
/// plain containers that grow to the largest blob seen and are then
/// reused, so decoding candidate number N+1 performs no heap allocation
/// once the arena is warm. One arena serves one worker; it is not
/// synchronized.
struct SfaViewArena {
  std::vector<ViewEdge> edges;
  std::vector<double> probs;              ///< one per transition
  std::vector<uint32_t> label_offsets;    ///< transitions + 1 entries
  std::string labels;                     ///< label bytes, transition order
  std::vector<uint32_t> out_offsets;  ///< CSR offsets, num_nodes + 1 entries
  std::vector<EdgeId> out_edges;      ///< CSR payload, edge ids ascending
  std::vector<NodeId> topo;           ///< Kahn order (also the work queue)
  std::vector<uint32_t> indegree;     ///< decode scratch
  std::vector<uint32_t> out_cursor;   ///< decode scratch
};

/// \brief Flat decoding of a serialized SFA blob, and the position-
/// independent *image* the buffer cache keeps instead of the blob.
///
/// Where Sfa::Deserialize rebuilds the full object graph (SfaBuilder,
/// per-edge transition vectors, owned label strings, hash-map edge
/// dedup), a view is a handful of flat arrays: edges and transitions are
/// index ranges, probabilities and label offsets are parallel arrays, the
/// label bytes are one run in transition order, and adjacency is CSR.
///
/// The arrays live in one of two places. Decode parses a blob into a
/// caller-owned SfaViewArena (the view borrows the arena). ToImage copies
/// the decoded arrays into one flat byte string — a fixed header, then
/// each array at an offset computed from the header's counts — and Attach
/// points a view at such an image in O(1) (the view borrows the image).
/// An image holds 8 B of probability and 4 B of label offset per
/// transition plus its label bytes, 20 B per edge and 8 B per node. Only
/// Decode validates: Attach checks the header and the size, and trusts
/// the arrays because only ToImage writes them.
///
/// Structural guarantees match what the DFA×SFA dynamic program needs and
/// what Sfa::Deserialize produces for engine-written blobs: edge order is
/// wire order, per-node out-edges ascend by edge id, transitions keep wire
/// order (the engine serializes them already sorted), and the topological
/// order is computed by the identical Kahn FIFO — so evaluating through a
/// view is bit-identical to evaluating the deserialized Sfa. Validation is
/// the subset that protects the evaluator (ids in range, non-empty labels,
/// probabilities in (0,1], acyclicity); full path-reachability checking
/// remains Sfa::Validate's job.
class SfaView {
 public:
  /// Decodes `blob` into `arena`'s buffers and points this view at them.
  /// Returns Corruption on malformed input; the arena contents are
  /// unspecified after a failure (the next Decode resets them).
  Status Decode(std::string_view blob, SfaViewArena* arena);

  /// Points this view at an image ToImage wrote, in O(1). The image must
  /// be 8-byte aligned (std::string storage is) and outlive the view.
  /// Returns Corruption when the header or the size does not match.
  Status Attach(std::string_view image);

  /// The view's arrays as one image, allocated once at exactly its size.
  std::string ToImage() const;

  size_t NumNodes() const { return num_nodes_; }
  size_t NumEdges() const { return num_edges_; }
  size_t NumTransitions() const { return num_transitions_; }
  NodeId start() const { return start_; }
  NodeId final() const { return final_; }

  const ViewEdge& edge(EdgeId e) const { return edges_[e]; }
  std::string_view label(uint32_t t) const {
    return std::string_view(labels_ + label_offsets_[t],
                            label_offsets_[t + 1] - label_offsets_[t]);
  }
  double prob(uint32_t t) const { return probs_[t]; }
  ViewTransition transition(uint32_t t) const { return {label(t), prob(t)}; }
  /// Out-edge ids of `n`, ascending — same order as Sfa::OutEdges.
  const EdgeId* out_begin(NodeId n) const {
    return out_edges_ + out_offsets_[n];
  }
  const EdgeId* out_end(NodeId n) const {
    return out_edges_ + out_offsets_[n + 1];
  }
  /// Nodes in topological order (identical to Sfa::TopologicalOrder()).
  NodeSpan TopologicalOrder() const { return {topo_, num_nodes_}; }

  /// Σ label lengths over all transitions; with the DFA state count this
  /// prices a full evaluation (the steps_total of EvalBound).
  uint64_t TotalLabelChars() const { return total_label_chars_; }

  /// Size of the serialized blob this view was decoded from — what the
  /// Fetch stage charges to a query's byte budget, cached or not.
  size_t WireBytes() const { return wire_bytes_; }

  /// True iff every node's outgoing transition probabilities sum to at most
  /// 1 (+ε). This is the precondition for the live-mass upper bound of the
  /// early-terminating evaluator: mass can then never amplify downstream,
  /// so accepted + pending mass bounds the final probability. Engine-built
  /// SFAs (stochastic, or approximations that only drop mass) satisfy it.
  bool MassBoundSafe() const { return mass_bound_safe_; }

 private:
  size_t num_nodes_ = 0;
  size_t num_edges_ = 0;
  size_t num_transitions_ = 0;
  NodeId start_ = kInvalidNode;
  NodeId final_ = kInvalidNode;
  uint64_t total_label_chars_ = 0;
  size_t wire_bytes_ = 0;
  bool mass_bound_safe_ = false;
  const ViewEdge* edges_ = nullptr;
  const double* probs_ = nullptr;
  const uint32_t* label_offsets_ = nullptr;
  const char* labels_ = nullptr;
  const uint32_t* out_offsets_ = nullptr;
  const EdgeId* out_edges_ = nullptr;
  const NodeId* topo_ = nullptr;
};

/// Decodes `blob` with every check of SfaView::Decode and returns its
/// image (SfaView::ToImage); `arena` is decode scratch. This is what the
/// buffer cache holds for a stored SFA blob.
Result<std::string> DecodeSfaImage(std::string_view blob, SfaViewArena* arena);

}  // namespace staccato
