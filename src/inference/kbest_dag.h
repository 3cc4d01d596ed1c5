// The k-best kernel behind KBestStrings, over a DAG layout the caller
// builds. Internal to the engine: KBestStrings (kbest.cc) lays out an Sfa
// here and Staccato construction (staccato/chunking.cc) lays out candidate
// chunks in place, so both score with one kernel and agree bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "inference/kbest.h"
#include "sfa/sfa.h"

namespace staccato {

/// \brief A DAG laid out for the k-best kernel, plus the kernel's buffers.
///
/// Nodes are numbered by a topological order. Node i's in-edges are
/// in_edges[in_begin[i] .. in_begin[i+1]); each points at its source's
/// position and at the edge's transitions (sorted by descending
/// probability, as on Sfa edges). Callers that run many DPs refill one
/// KBestDag, so the kernel stops allocating once its buffers have grown.
/// Not shared between threads.
struct KBestDag {
  // Input, filled by the caller.
  struct InEdge {
    uint32_t from = 0;
    const Transition* trans = nullptr;
    uint32_t num_trans = 0;
  };
  std::vector<uint32_t> in_begin;  ///< num_nodes + 1 offsets
  std::vector<InEdge> in_edges;

  /// One kept prefix (or candidate): its probability and its back-pointer,
  /// the previous prefix's slot plus the transition appended to it.
  struct Slot {
    double prob = 0.0;
    uint32_t prev = 0;
    const Transition* trans = nullptr;  ///< nullptr: the empty start prefix
  };
  // Output: every node's kept prefixes, by descending probability; the
  // final node's are slots[result_begin..].
  std::vector<Slot> slots;
  uint32_t result_begin = 0;

  /// One (in-edge, transition) pair's candidates, merged lazily: the
  /// source's kept prefixes, each extended by `trans`; `next` is the slot
  /// of the one not yet taken. The row of the edge's next transition joins
  /// the merge once this row's first candidate is taken.
  struct Row {
    double prob = 0.0;  ///< probability of the next candidate
    uint32_t next = 0;
    uint32_t in_edge = 0;  ///< index into in_edges
    const Transition* trans = nullptr;
  };
  // Kernel buffers.
  std::vector<uint32_t> slot_begin;  ///< node i's prefixes start here
  std::vector<Row> rows;             ///< heap of the current node's rows
  std::vector<Slot> cand;            ///< candidates of the current node
  std::vector<std::pair<std::string, Slot>> tied;  ///< k-th place ties
  std::vector<const std::string*> labels;          ///< for spelling
};

/// KBestStrings over the DAG in `dag` from node `start` to node `final`;
/// the result is identical to KBestStrings on the equivalent Sfa. Pass
/// `out` = nullptr to skip spelling the strings: their probabilities are
/// in dag->slots either way.
void KBestStringsOverDag(uint32_t start, uint32_t final, size_t k,
                         KBestDag* dag, std::vector<ScoredString>* out);

}  // namespace staccato
