// Branch-and-bound probabilistic skyline over the PR-tree (paper Sec. 6.2).
//
// Best-first traversal in ascending L1 key (the paper's "mindist to the
// origin"), with subtree pruning by the threshold rule: a node e can be
// skipped when
//
//     P₂(e) · Π_{t' ≺ e.mbr.lo} (1 − P(t'))  <  q
//
// which generalises the paper's single-witness rule (P₂(b)·(1−P(a)) < q) to
// *all* known dominators of the node's low corner, computed in one aggregate
// descent.  The same low-corner survival filters a leaf's tuples one by one
// (P(t) · survival < q), and the tuples that pass get their exact skyline
// probabilities from one batched dominance-survival descent per leaf, so
// the returned set is exactly {t : P_sky(t, D) >= q} — no approximation is
// introduced by pruning, and each P_sky carries the bits a single-point
// query would return.
#pragma once

#include <functional>

#include "index/prtree.hpp"
#include "skyline/skyline_result.hpp"
#include "skyline/spec.hpp"

namespace dsud {

/// Counters describing how much work a BBS run performed (for benches and
/// pruning-effectiveness tests).
struct BbsStats {
  std::size_t nodesVisited = 0;
  std::size_t nodesPruned = 0;
  /// Tuples that passed the per-entry filter and got an exact P_sky.
  std::size_t tuplesEvaluated = 0;
};

/// Qualified probabilistic skyline of the indexed database, sorted by
/// descending skyline probability.  A non-null `spec.clip` restricts the
/// query to the window (constrained skyline, Wu et al.): only tuples inside
/// the window are candidates AND only in-window dominators count.
std::vector<ProbSkylineEntry> bbsSkyline(const PRTree& tree,
                                         const SkylineSpec& spec = {},
                                         BbsStats* stats = nullptr);

/// Streaming variant: invokes `emit` for each qualified tuple in ascending
/// L1-key order (the BBS progressive order), ties broken by ascending id.
/// Returning false from `emit` stops the traversal early.
void bbsSkylineStream(
    const PRTree& tree, const SkylineSpec& spec,
    const std::function<bool(const ProbSkylineEntry&)>& emit);

}  // namespace dsud
