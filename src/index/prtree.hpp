// Probabilistic R-tree (PR-tree, paper Sec. 6.1) with aggregate augmentation.
//
// The PR-tree is an R-tree over uncertain tuples whose nodes carry, in
// addition to the MBR, the minimum and maximum existential probability of the
// subtree (paper's P1/P2) plus two aggregates this reproduction adds:
//
//   * count     — number of tuples below the node;
//   * survival  — Π (1 − P(t)) over every tuple below the node.
//
// The survival product turns the paper's enumerating window query (Sec. 6.3,
// Fig. 6) into an aggregate descent: a subtree wholly inside the dominance
// region of a query point contributes its cached product in O(1).  Both query
// styles are provided and cross-checked in tests.
//
// Storage is an arena of fixed-stride nodes (in the spirit of tarantool's
// salad/rtree): every node occupies one `nodeStride()`-byte slot inside a
// 64-byte-aligned extent, children are referenced by 32-bit index, and leaf
// payloads are stored column-major (per-dimension value columns plus prob and
// log1p(-P) columns, padded to a whole number of kernel blocks) so the
// partially-dominating leaf case of dominance queries runs through
// kernel::blockSurvival.  No per-node malloc; freed slots are recycled
// through a free list; extents never move, so node addresses are stable
// across inserts.
//
// Construction is STR bulk load (sort-tile-recursive); maintenance is
// Guttman/R*-style insert with margin-driven splits and condense-tree
// deletion, as required by the paper's update protocols (Sec. 5.4).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/dataset.hpp"
#include "geometry/rect.hpp"

namespace dsud {

/// PR-tree node-capacity configuration.
struct PRTreeOptions {
  /// Maximum entries per node (fanout).  >= 4.
  std::size_t maxEntries = 32;
  /// Minimum entries per non-root node.  In [2, maxEntries/2].
  std::size_t minEntries = 12;
};

/// Probabilistic R-tree over uncertain tuples.
class PRTree {
 public:
  using Options = PRTreeOptions;

  /// Tuple stored at a leaf.  Values use inline storage so leaves never
  /// allocate per entry.  Inside the tree the fields live in column-major
  /// node slots; a LeafEntry is the row-major value type assembled at the
  /// API boundary (bulk-load input, query callbacks, NodeRef::entry).
  struct LeafEntry {
    std::array<double, kMaxDims> values{};
    double prob = 0.0;
    TupleId id = 0;

    std::span<const double> valueSpan(std::size_t dims) const noexcept {
      return {values.data(), dims};
    }
  };

  /// Empty tree of the given dimensionality.
  explicit PRTree(std::size_t dims, Options options = {});

  PRTree(PRTree&&) noexcept;
  PRTree& operator=(PRTree&&) noexcept;
  PRTree(const PRTree&) = delete;
  PRTree& operator=(const PRTree&) = delete;
  ~PRTree();

  /// STR bulk load of a whole dataset: O(N log N), produces a packed tree.
  static PRTree bulkLoad(const Dataset& data, Options options = {});

  std::size_t dims() const noexcept { return dims_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  const Options& options() const noexcept { return options_; }

  /// Bytes per arena node slot (header + column payload, 64-byte rounded).
  std::size_t nodeStride() const noexcept { return stride_; }

  /// Inserts one tuple.  Throws std::invalid_argument on bad dims/prob.
  void insert(TupleId id, std::span<const double> values, double prob);
  void insert(const Tuple& t) { insert(t.id, t.values, t.prob); }

  /// Deletes the tuple with the given id located at `values` (point search).
  /// Returns false if no such tuple exists.
  bool erase(TupleId id, std::span<const double> values);

  void clear();

  // --- Queries ------------------------------------------------------------

  /// Π (1 − P(t')) over every stored tuple t' that dominates `b` on the
  /// selected dimensions.  This is the paper's local skyline probability
  /// P_sky(b, D) *without* the P(b) factor (Observation 1); exact, via
  /// aggregate descent; partially-dominating leaves are resolved by the
  /// blocked SIMD/scalar kernel.
  ///
  /// When `clip` is non-null only dominators inside the clip rectangle
  /// count — the constrained-skyline semantics (Wu et al., reviewed in the
  /// paper's Sec. 2.1): the query behaves as if the database were first
  /// filtered to the window.
  double dominanceSurvival(std::span<const double> b, DimMask mask,
                           const Rect* clip = nullptr) const;
  double dominanceSurvival(std::span<const double> b) const {
    return dominanceSurvival(b, fullMask(dims_));
  }

  /// dominanceSurvival for a group of points in one descent: `points` is
  /// row-major (`out.size()` points of dims() values) and out[i] receives
  /// exactly the bits the single-point call returns for point i.  Each node
  /// is read once per group and splits it into the points it cannot
  /// dominate, the points it wholly dominates and the points that need its
  /// children; each point's child factors multiply in the single-point
  /// order.  Scratch lives on the stack (groups of kSurvivalBatch points,
  /// one frame per tree level), so a call allocates nothing.
  void dominanceSurvival(std::span<const double> points, DimMask mask,
                         const Rect* clip, std::span<double> out) const;

  /// Enumerates every tuple dominating `b` (the paper's window query of
  /// Sec. 6.3).  Slower than dominanceSurvival; kept for cross-checking and
  /// for callers that need the witnesses themselves.
  void forEachDominating(std::span<const double> b, DimMask mask,
                         const std::function<void(const LeafEntry&)>& fn) const;

  /// Enumerates tuples whose point lies inside `window`.
  void windowQuery(const Rect& window,
                   const std::function<void(const LeafEntry&)>& fn) const;

  /// Enumerates all stored tuples (arbitrary order).
  void forEach(const std::function<void(const LeafEntry&)>& fn) const;

  /// True when a stored tuple has this id: a scan of every leaf's id column.
  bool contains(TupleId id) const;

  // --- Structure access (BBS traversal, tests) -----------------------------

  /// Read-only handle to a tree node.  Valid only while the tree is not
  /// modified or moved.
  class NodeRef {
   public:
    bool isLeaf() const noexcept;
    const Rect& mbr() const noexcept;
    double pMin() const noexcept;   ///< paper's P1
    double pMax() const noexcept;   ///< paper's P2
    double survival() const noexcept;
    std::size_t count() const noexcept;
    std::size_t fanout() const noexcept;
    NodeRef child(std::size_t i) const noexcept;  ///< internal nodes
    /// Row-major copy of leaf slot `i` (leaves store columns, so this
    /// assembles a value — it cannot return a reference).
    LeafEntry entry(std::size_t i) const noexcept;

   private:
    friend class PRTree;
    NodeRef(const PRTree* tree, std::uint32_t node) noexcept
        : tree_(tree), node_(node) {}
    const PRTree* tree_;
    std::uint32_t node_;
  };

  /// Root handle; only meaningful when !empty().
  NodeRef root() const noexcept;

  /// Height of the tree (0 when empty, 1 for a single leaf root).
  std::size_t height() const noexcept;

  /// Nodes visited by the query walks (dominanceSurvival,
  /// forEachDominating, windowQuery) since construction or the last
  /// `resetNodeAccesses()` — the index-side work metric the observability
  /// layer reports per site.  Plain counter: a PRTree serves one site's
  /// single-threaded protocol session, so no atomics on this path.
  std::uint64_t nodeAccesses() const noexcept { return nodeAccesses_; }
  void resetNodeAccesses() noexcept { nodeAccesses_ = 0; }

  /// Verifies every structural invariant (MBR containment, aggregate
  /// correctness, fanout bounds, uniform leaf depth, leaf padding-slot
  /// neutrality).  Throws std::logic_error with a description on the first
  /// violation.  Intended for tests; O(N).
  void checkInvariants() const;

 private:
  /// Fixed-size node header at the start of every arena slot.  The payload
  /// that follows is either a child-index array (internal nodes) or the
  /// column-major leaf block.
  struct NodeHeader {
    Rect mbr;
    double pMin = 1.0;      // paper's P1
    double pMax = 0.0;      // paper's P2
    double survival = 1.0;  // Π (1 − P) over the subtree
    std::uint32_t count = 0;
    std::uint16_t fanout = 0;
    std::uint8_t leaf = 1;
  };

  static constexpr std::uint32_t kNoNode = 0xFFFFFFFFu;

  struct ExtentFree {
    void operator()(std::byte* p) const noexcept;
  };

  // --- Arena --------------------------------------------------------------
  std::byte* at(std::uint32_t node) noexcept;
  const std::byte* at(std::uint32_t node) const noexcept;
  NodeHeader& header(std::uint32_t node) noexcept;
  const NodeHeader& header(std::uint32_t node) const noexcept;
  std::uint32_t allocNode(bool leaf);
  void freeNode(std::uint32_t node);
  void freeSubtree(std::uint32_t node);

  // --- Payload access -----------------------------------------------------
  std::uint32_t* childArray(std::uint32_t node) noexcept;
  const std::uint32_t* childArray(std::uint32_t node) const noexcept;
  double* leafCol(std::uint32_t node, std::size_t j) noexcept;
  const double* leafCol(std::uint32_t node, std::size_t j) const noexcept;
  double* leafProb(std::uint32_t node) noexcept;
  const double* leafProb(std::uint32_t node) const noexcept;
  double* leafLogSurv(std::uint32_t node) noexcept;
  const double* leafLogSurv(std::uint32_t node) const noexcept;
  TupleId* leafIds(std::uint32_t node) noexcept;
  const TupleId* leafIds(std::uint32_t node) const noexcept;

  // --- Leaf slot manipulation ---------------------------------------------
  /// Resets slots [from, padCap) to padding values (+inf coords, 0 prob/log).
  void padLeafSlots(std::uint32_t node, std::size_t from) noexcept;
  void appendLeafEntry(std::uint32_t node, const LeafEntry& e) noexcept;
  /// Swap-removes leaf slot `i`, restoring the vacated slot to padding.
  void removeLeafSlot(std::uint32_t node, std::size_t i) noexcept;
  LeafEntry leafEntry(std::uint32_t node, std::size_t i) const noexcept;
  bool leafSlotDominates(std::uint32_t node, std::size_t i,
                         std::span<const double> b, DimMask mask) const noexcept;

  // --- Maintenance --------------------------------------------------------
  void recomputeAggregates(std::uint32_t node);
  LeafEntry makeEntry(TupleId id, std::span<const double> values,
                      double prob) const;
  /// Inserts into the subtree; returns the index of a new sibling if `node`
  /// split, kNoNode otherwise.
  std::uint32_t insertRecurse(std::uint32_t node, const LeafEntry& e);
  /// Splits an overfull node (R*-style margin/overlap split); returns the
  /// new right sibling.  Aggregates of both halves are recomputed.
  std::uint32_t split(std::uint32_t node);
  bool eraseRecurse(std::uint32_t node, TupleId id,
                    std::span<const double> values,
                    std::vector<LeafEntry>& orphans);
  void collectEntries(std::uint32_t node, std::vector<LeafEntry>& out) const;
  void growRootIfSplit(std::uint32_t sibling);
  /// Points per batched descent (bounds its per-level stack scratch).
  static constexpr std::size_t kSurvivalBatch = 64;

  /// Kernel survival of `n` points against a partially dominating leaf.
  void leafSurvival(std::uint32_t node, const double* const* points,
                    std::size_t n, DimMask mask, const Rect* clip,
                    double* out) const noexcept;
  double survivalDescend(std::uint32_t node, std::span<const double> b,
                         DimMask mask, const Rect* clip) const;
  /// out[k] = survivalDescend(node, point group[k]) for k < n; the group
  /// indexes `points` (row-major), n <= kSurvivalBatch, and `box` bounds
  /// the group's points.
  void survivalDescendBatch(std::uint32_t node, const double* points,
                            const std::uint8_t* group, std::size_t n,
                            const Rect& box, DimMask mask, const Rect* clip,
                            double* out) const;

  std::size_t dims_;
  Options options_;

  // Layout metrics, fixed at construction (see prtree.cpp).
  std::size_t stride_ = 0;        // bytes per node slot (64-byte multiple)
  std::size_t capSlots_ = 0;      // maxEntries + 1 (transient overflow slot)
  std::size_t padCap_ = 0;        // capSlots_ rounded up to the kernel block
  std::size_t colOff_ = 0;        // first value column, bytes from node start
  std::size_t probOff_ = 0;
  std::size_t logOff_ = 0;
  std::size_t idsOff_ = 0;
  std::size_t childOff_ = 0;
  std::size_t nodesPerExtent_ = 0;

  std::vector<std::unique_ptr<std::byte[], ExtentFree>> extents_;
  std::vector<std::uint32_t> freeList_;
  std::uint32_t allocated_ = 0;  // slot high-water mark

  std::uint32_t root_ = kNoNode;
  std::size_t size_ = 0;
  std::size_t height_ = 0;
  mutable std::uint64_t nodeAccesses_ = 0;
};

}  // namespace dsud
