#include "index/prtree.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <numeric>
#include <stdexcept>
#include <string>

#include "kernel/kernel.hpp"

namespace dsud {

namespace {

constexpr std::size_t kExtentBytes = 64 * 1024;
constexpr std::size_t kNodeAlign = 64;

constexpr std::size_t roundUp(std::size_t v, std::size_t a) noexcept {
  return (v + a - 1) / a * a;
}

}  // namespace

// ---------------------------------------------------------------------------
// Arena

void PRTree::ExtentFree::operator()(std::byte* p) const noexcept {
  std::free(p);
}

std::byte* PRTree::at(std::uint32_t node) noexcept {
  return extents_[node / nodesPerExtent_].get() +
         (node % nodesPerExtent_) * stride_;
}
const std::byte* PRTree::at(std::uint32_t node) const noexcept {
  return extents_[node / nodesPerExtent_].get() +
         (node % nodesPerExtent_) * stride_;
}
PRTree::NodeHeader& PRTree::header(std::uint32_t node) noexcept {
  return *reinterpret_cast<NodeHeader*>(at(node));
}
const PRTree::NodeHeader& PRTree::header(std::uint32_t node) const noexcept {
  return *reinterpret_cast<const NodeHeader*>(at(node));
}

std::uint32_t PRTree::allocNode(bool leaf) {
  std::uint32_t idx;
  if (!freeList_.empty()) {
    idx = freeList_.back();
    freeList_.pop_back();
  } else {
    if (allocated_ == extents_.size() * nodesPerExtent_) {
      // stride_ is a 64-byte multiple, so the size honours the
      // aligned_alloc size-multiple-of-alignment requirement.
      void* raw = std::aligned_alloc(kNodeAlign, nodesPerExtent_ * stride_);
      if (raw == nullptr) throw std::bad_alloc();
      extents_.emplace_back(static_cast<std::byte*>(raw));
    }
    idx = allocated_++;
  }
  NodeHeader& h = *new (at(idx)) NodeHeader;
  h.mbr = Rect(dims_);
  h.leaf = leaf ? 1 : 0;
  if (leaf) padLeafSlots(idx, 0);
  return idx;
}

void PRTree::freeNode(std::uint32_t node) { freeList_.push_back(node); }

void PRTree::freeSubtree(std::uint32_t node) {
  if (!header(node).leaf) {
    const std::uint32_t* kids = childArray(node);
    const std::size_t n = header(node).fanout;
    for (std::size_t i = 0; i < n; ++i) freeSubtree(kids[i]);
  }
  freeNode(node);
}

// ---------------------------------------------------------------------------
// Payload access

std::uint32_t* PRTree::childArray(std::uint32_t node) noexcept {
  return reinterpret_cast<std::uint32_t*>(at(node) + childOff_);
}
const std::uint32_t* PRTree::childArray(std::uint32_t node) const noexcept {
  return reinterpret_cast<const std::uint32_t*>(at(node) + childOff_);
}
double* PRTree::leafCol(std::uint32_t node, std::size_t j) noexcept {
  return reinterpret_cast<double*>(at(node) + colOff_) + j * padCap_;
}
const double* PRTree::leafCol(std::uint32_t node, std::size_t j) const noexcept {
  return reinterpret_cast<const double*>(at(node) + colOff_) + j * padCap_;
}
double* PRTree::leafProb(std::uint32_t node) noexcept {
  return reinterpret_cast<double*>(at(node) + probOff_);
}
const double* PRTree::leafProb(std::uint32_t node) const noexcept {
  return reinterpret_cast<const double*>(at(node) + probOff_);
}
double* PRTree::leafLogSurv(std::uint32_t node) noexcept {
  return reinterpret_cast<double*>(at(node) + logOff_);
}
const double* PRTree::leafLogSurv(std::uint32_t node) const noexcept {
  return reinterpret_cast<const double*>(at(node) + logOff_);
}
TupleId* PRTree::leafIds(std::uint32_t node) noexcept {
  return reinterpret_cast<TupleId*>(at(node) + idsOff_);
}
const TupleId* PRTree::leafIds(std::uint32_t node) const noexcept {
  return reinterpret_cast<const TupleId*>(at(node) + idsOff_);
}

// ---------------------------------------------------------------------------
// Leaf slots

void PRTree::padLeafSlots(std::uint32_t node, std::size_t from) noexcept {
  // Padding rows must stay kernel-neutral: +inf coordinates never dominate,
  // prob 0 / logSurv 0 are identities under product and sum accumulation.
  constexpr double kPad = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < dims_; ++j) {
    double* col = leafCol(node, j);
    std::fill(col + from, col + padCap_, kPad);
  }
  double* prob = leafProb(node);
  double* log = leafLogSurv(node);
  std::fill(prob + from, prob + padCap_, 0.0);
  std::fill(log + from, log + padCap_, 0.0);
}

void PRTree::appendLeafEntry(std::uint32_t node, const LeafEntry& e) noexcept {
  NodeHeader& h = header(node);
  const std::size_t slot = h.fanout;
  for (std::size_t j = 0; j < dims_; ++j) leafCol(node, j)[slot] = e.values[j];
  leafProb(node)[slot] = e.prob;
  // -inf when P == 1: a certain dominator zeroes the survival product.
  leafLogSurv(node)[slot] = std::log1p(-e.prob);
  leafIds(node)[slot] = e.id;
  h.fanout = static_cast<std::uint16_t>(slot + 1);
}

void PRTree::removeLeafSlot(std::uint32_t node, std::size_t i) noexcept {
  NodeHeader& h = header(node);
  const std::size_t last = h.fanout - std::size_t{1};
  if (i != last) {
    for (std::size_t j = 0; j < dims_; ++j) {
      leafCol(node, j)[i] = leafCol(node, j)[last];
    }
    leafProb(node)[i] = leafProb(node)[last];
    leafLogSurv(node)[i] = leafLogSurv(node)[last];
    leafIds(node)[i] = leafIds(node)[last];
  }
  h.fanout = static_cast<std::uint16_t>(last);
  padLeafSlots(node, last);
}

PRTree::LeafEntry PRTree::leafEntry(std::uint32_t node,
                                    std::size_t i) const noexcept {
  LeafEntry e;
  for (std::size_t j = 0; j < dims_; ++j) e.values[j] = leafCol(node, j)[i];
  e.prob = leafProb(node)[i];
  e.id = leafIds(node)[i];
  return e;
}

bool PRTree::leafSlotDominates(std::uint32_t node, std::size_t i,
                               std::span<const double> b,
                               DimMask mask) const noexcept {
  bool strict = false;
  for (std::size_t j = 0; j < dims_; ++j) {
    if ((mask & (DimMask{1} << j)) == 0) continue;
    const double a = leafCol(node, j)[i];
    if (a > b[j]) return false;
    if (a < b[j]) strict = true;
  }
  return strict;
}

// ---------------------------------------------------------------------------
// Construction

PRTree::PRTree(PRTree&&) noexcept = default;
PRTree& PRTree::operator=(PRTree&&) noexcept = default;
PRTree::~PRTree() = default;

PRTree::PRTree(std::size_t dims, Options options)
    : dims_(dims), options_(options) {
  if (dims == 0 || dims > kMaxDims) {
    throw std::invalid_argument("PRTree: dims must be in [1, " +
                                std::to_string(kMaxDims) + "]");
  }
  if (options_.maxEntries < 4) {
    throw std::invalid_argument("PRTree: maxEntries must be >= 4");
  }
  if (options_.minEntries < 2 || options_.minEntries > options_.maxEntries / 2) {
    throw std::invalid_argument(
        "PRTree: minEntries must be in [2, maxEntries/2]");
  }

  // Node slot layout: header, then either the child-index array (internal)
  // or the column-major leaf block (dims value columns + prob + logSurv +
  // ids).  One extra slot beyond maxEntries absorbs the transient overflow
  // between insertion and split.
  capSlots_ = options_.maxEntries + 1;
  padCap_ = roundUp(capSlots_, kernel::kBlock);
  const std::size_t payloadOff = roundUp(sizeof(NodeHeader), sizeof(double));
  childOff_ = payloadOff;
  colOff_ = payloadOff;
  probOff_ = colOff_ + dims_ * padCap_ * sizeof(double);
  logOff_ = probOff_ + padCap_ * sizeof(double);
  idsOff_ = logOff_ + padCap_ * sizeof(double);
  const std::size_t leafEnd = idsOff_ + capSlots_ * sizeof(TupleId);
  const std::size_t internalEnd = childOff_ + capSlots_ * sizeof(std::uint32_t);
  stride_ = roundUp(std::max(leafEnd, internalEnd), kNodeAlign);
  nodesPerExtent_ = std::max<std::size_t>(1, kExtentBytes / stride_);
}

PRTree::LeafEntry PRTree::makeEntry(TupleId id, std::span<const double> values,
                                    double prob) const {
  if (values.size() != dims_) {
    throw std::invalid_argument("PRTree: dimensionality mismatch");
  }
  if (!(prob > 0.0) || prob > 1.0) {
    throw std::invalid_argument("PRTree: probability must be in (0, 1]");
  }
  if (!std::all_of(values.begin(), values.end(),
                   [](double v) { return std::isfinite(v); })) {
    throw std::invalid_argument("PRTree: coordinates must be finite");
  }
  LeafEntry e;
  std::copy(values.begin(), values.end(), e.values.begin());
  e.prob = prob;
  e.id = id;
  return e;
}

void PRTree::recomputeAggregates(std::uint32_t node) {
  NodeHeader& h = header(node);
  h.mbr = Rect(dims_);
  h.pMin = 1.0;
  h.pMax = 0.0;
  h.survival = 1.0;
  h.count = 0;
  if (h.leaf) {
    // Scalar-sequential in slot order: node aggregates are maintained
    // identically in SIMD and scalar builds.
    for (std::size_t i = 0; i < h.fanout; ++i) {
      double point[kMaxDims];
      for (std::size_t j = 0; j < dims_; ++j) point[j] = leafCol(node, j)[i];
      h.mbr.expand(std::span<const double>(point, dims_));
      const double p = leafProb(node)[i];
      h.pMin = std::min(h.pMin, p);
      h.pMax = std::max(h.pMax, p);
      h.survival *= 1.0 - p;
      ++h.count;
    }
  } else {
    const std::uint32_t* kids = childArray(node);
    for (std::size_t i = 0; i < h.fanout; ++i) {
      const NodeHeader& c = header(kids[i]);
      h.mbr.expand(c.mbr);
      h.pMin = std::min(h.pMin, c.pMin);
      h.pMax = std::max(h.pMax, c.pMax);
      h.survival *= c.survival;
      h.count += c.count;
    }
  }
}

// ---------------------------------------------------------------------------
// STR bulk load

namespace {

/// Sort-tile-recursive packing: partitions `items` into groups of at most
/// `cap` and (except when the whole input is smaller) at least `minFill`,
/// tiling one dimension per recursion level.  `coord(item, dim)` must return
/// the sort key on the given dimension.  Requires cap >= 2 * minFill, which
/// PRTreeOptions enforces, so undersized tails can always be rebalanced.
template <typename Item, typename Coord>
void strPack(std::vector<Item>& items, std::size_t begin, std::size_t end,
             std::size_t dim, std::size_t dims, std::size_t cap,
             std::size_t minFill, const Coord& coord,
             std::vector<std::pair<std::size_t, std::size_t>>& groups) {
  const std::size_t n = end - begin;
  if (n <= cap) {
    groups.emplace_back(begin, end);
    return;
  }
  const auto cmp = [&](const Item& a, const Item& b) {
    return coord(a, dim) < coord(b, dim);
  };
  std::sort(items.begin() + static_cast<std::ptrdiff_t>(begin),
            items.begin() + static_cast<std::ptrdiff_t>(end), cmp);
  const std::size_t remainingDims = dims - dim;
  if (remainingDims <= 1) {
    std::size_t i = begin;
    while (i < end) {
      const std::size_t rem = end - i;
      if (rem <= cap) {
        groups.emplace_back(i, end);
        break;
      }
      if (rem < cap + minFill) {
        // A plain cap-sized chunk would leave an underfull tail; split the
        // remainder evenly (both halves land in [minFill, cap]).
        const std::size_t half = rem / 2;
        groups.emplace_back(i, i + half);
        groups.emplace_back(i + half, end);
        break;
      }
      groups.emplace_back(i, i + cap);
      i += cap;
    }
    return;
  }
  const auto pages = static_cast<double>((n + cap - 1) / cap);
  const auto slabCount = static_cast<std::size_t>(std::max(
      1.0, std::ceil(std::pow(pages, 1.0 / static_cast<double>(remainingDims)))));
  const std::size_t slabSize = std::max<std::size_t>(
      cap, (n + slabCount - 1) / slabCount);
  std::size_t i = begin;
  while (i < end) {
    // Absorb a tail too small to stand alone into the current slab.
    std::size_t take = std::min(slabSize, end - i);
    if (end - i - take < minFill) take = end - i;
    strPack(items, i, i + take, dim + 1, dims, cap, minFill, coord, groups);
    i += take;
  }
}

}  // namespace

PRTree PRTree::bulkLoad(const Dataset& data, Options options) {
  PRTree tree(data.dims(), options);
  const std::size_t dims = data.dims();
  const std::size_t cap = options.maxEntries;

  if (data.empty()) return tree;

  std::vector<LeafEntry> items;
  items.reserve(data.size());
  for (std::size_t row = 0; row < data.size(); ++row) {
    items.push_back(tree.makeEntry(data.id(row), data.values(row),
                                   data.prob(row)));
  }

  // Pack tuples into leaves.
  std::vector<std::pair<std::size_t, std::size_t>> groups;
  strPack(items, 0, items.size(), 0, dims, cap, options.minEntries,
          [](const LeafEntry& e, std::size_t dim) { return e.values[dim]; },
          groups);

  std::vector<std::uint32_t> level;
  level.reserve(groups.size());
  for (const auto& [b, e] : groups) {
    const std::uint32_t node = tree.allocNode(/*leaf=*/true);
    for (std::size_t i = b; i < e; ++i) tree.appendLeafEntry(node, items[i]);
    tree.recomputeAggregates(node);
    level.push_back(node);
  }
  tree.height_ = 1;

  // Pack nodes into parent levels until a single root remains.
  while (level.size() > 1) {
    std::vector<std::pair<std::size_t, std::size_t>> nodeGroups;
    strPack(level, 0, level.size(), 0, dims, cap, options.minEntries,
            [&tree](std::uint32_t n, std::size_t dim) {
              const Rect& mbr = tree.header(n).mbr;
              return 0.5 * (mbr.lo(dim) + mbr.hi(dim));
            },
            nodeGroups);
    std::vector<std::uint32_t> parents;
    parents.reserve(nodeGroups.size());
    for (const auto& [b, e] : nodeGroups) {
      const std::uint32_t parent = tree.allocNode(/*leaf=*/false);
      NodeHeader& h = tree.header(parent);
      std::uint32_t* kids = tree.childArray(parent);
      for (std::size_t i = b; i < e; ++i) {
        kids[h.fanout++] = level[i];
      }
      tree.recomputeAggregates(parent);
      parents.push_back(parent);
    }
    level = std::move(parents);
    ++tree.height_;
  }

  tree.root_ = level.front();
  tree.size_ = data.size();
  return tree;
}

// ---------------------------------------------------------------------------
// Insert

std::uint32_t PRTree::split(std::uint32_t node) {
  NodeHeader& h = header(node);
  const std::size_t total = h.fanout;
  const std::size_t minE = options_.minEntries;
  const bool leaf = h.leaf != 0;

  // Snapshot the routing items (leaf rows or child indices) so the node can
  // be rebuilt in place below.
  std::vector<LeafEntry> entries;
  std::vector<std::uint32_t> kids;
  std::vector<Rect> rects;
  rects.reserve(total);
  if (leaf) {
    entries.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
      entries.push_back(leafEntry(node, i));
      rects.push_back(Rect::point(entries.back().valueSpan(dims_)));
    }
  } else {
    kids.assign(childArray(node), childArray(node) + total);
    for (std::uint32_t c : kids) rects.push_back(header(c).mbr);
  }

  // R*-style: pick the axis with the smallest margin sum over all valid
  // distributions, then the split index with the smallest overlap (ties:
  // smallest combined area).
  std::vector<std::size_t> bestOrder;
  std::size_t bestIndex = minE;
  double bestOverlap = std::numeric_limits<double>::infinity();
  double bestArea = std::numeric_limits<double>::infinity();
  double bestMarginSum = std::numeric_limits<double>::infinity();

  std::vector<std::size_t> order(total);
  std::vector<Rect> prefix(total, Rect(dims_));
  std::vector<Rect> suffix(total, Rect(dims_));

  for (std::size_t axis = 0; axis < dims_; ++axis) {
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (rects[a].lo(axis) != rects[b].lo(axis)) {
        return rects[a].lo(axis) < rects[b].lo(axis);
      }
      return rects[a].hi(axis) < rects[b].hi(axis);
    });
    Rect acc(dims_);
    for (std::size_t i = 0; i < total; ++i) {
      acc.expand(rects[order[i]]);
      prefix[i] = acc;
    }
    acc = Rect(dims_);
    for (std::size_t i = total; i-- > 0;) {
      acc.expand(rects[order[i]]);
      suffix[i] = acc;
    }
    double marginSum = 0.0;
    for (std::size_t k = minE; k + minE <= total; ++k) {
      marginSum += prefix[k - 1].margin() + suffix[k].margin();
    }
    // An overflowing margin (coordinates near the double range) compares
    // false; the first axis then stands in, since any order is a valid split.
    if (bestOrder.empty() || marginSum < bestMarginSum) {
      bestMarginSum = marginSum;
      bestOrder = order;
    }
  }

  // Recompute prefix/suffix on the winning axis order.
  {
    Rect acc(dims_);
    for (std::size_t i = 0; i < total; ++i) {
      acc.expand(rects[bestOrder[i]]);
      prefix[i] = acc;
    }
    acc = Rect(dims_);
    for (std::size_t i = total; i-- > 0;) {
      acc.expand(rects[bestOrder[i]]);
      suffix[i] = acc;
    }
  }
  for (std::size_t k = minE; k + minE <= total; ++k) {
    const double overlap = prefix[k - 1].overlapArea(suffix[k]);
    const double area = prefix[k - 1].area() + suffix[k].area();
    if (overlap < bestOverlap ||
        (overlap == bestOverlap && area < bestArea)) {
      bestOverlap = overlap;
      bestArea = area;
      bestIndex = k;
    }
  }

  const std::uint32_t sibling = allocNode(leaf);
  // allocNode may grow the arena; re-fetch the header reference.
  NodeHeader& hh = header(node);
  if (leaf) {
    hh.fanout = 0;
    padLeafSlots(node, 0);
    for (std::size_t i = 0; i < bestIndex; ++i) {
      appendLeafEntry(node, entries[bestOrder[i]]);
    }
    for (std::size_t i = bestIndex; i < total; ++i) {
      appendLeafEntry(sibling, entries[bestOrder[i]]);
    }
  } else {
    std::uint32_t* left = childArray(node);
    std::uint32_t* right = childArray(sibling);
    for (std::size_t i = 0; i < bestIndex; ++i) {
      left[i] = kids[bestOrder[i]];
    }
    hh.fanout = static_cast<std::uint16_t>(bestIndex);
    NodeHeader& sh = header(sibling);
    for (std::size_t i = bestIndex; i < total; ++i) {
      right[sh.fanout++] = kids[bestOrder[i]];
    }
  }
  recomputeAggregates(node);
  recomputeAggregates(sibling);
  return sibling;
}

std::uint32_t PRTree::insertRecurse(std::uint32_t node, const LeafEntry& e) {
  if (header(node).leaf) {
    appendLeafEntry(node, e);
  } else {
    // Choose the child needing the least enlargement (ties: smaller area,
    // then fewer tuples).
    const Rect point = Rect::point(e.valueSpan(dims_));
    std::uint32_t best = kNoNode;
    double bestEnlargement = std::numeric_limits<double>::infinity();
    double bestArea = std::numeric_limits<double>::infinity();
    std::size_t bestCount = 0;
    const std::uint32_t* kids = childArray(node);
    const std::size_t n = header(node).fanout;
    for (std::size_t i = 0; i < n; ++i) {
      const NodeHeader& c = header(kids[i]);
      const double enlargement = c.mbr.enlargement(point);
      const double area = c.mbr.area();
      if (enlargement < bestEnlargement ||
          (enlargement == bestEnlargement &&
           (area < bestArea ||
            (area == bestArea && c.count < bestCount)))) {
        best = kids[i];
        bestEnlargement = enlargement;
        bestArea = area;
        bestCount = c.count;
      }
    }
    // Overflowing areas give inf/NaN enlargements that never compare less;
    // any child is a valid home, so fall back to the first.
    if (best == kNoNode) best = kids[0];
    const std::uint32_t sibling = insertRecurse(best, e);
    if (sibling != kNoNode) {
      NodeHeader& h = header(node);
      childArray(node)[h.fanout++] = sibling;
    }
  }
  if (header(node).fanout > options_.maxEntries) {
    return split(node);  // split() recomputes both halves
  }
  recomputeAggregates(node);
  return kNoNode;
}

void PRTree::growRootIfSplit(std::uint32_t sibling) {
  if (sibling == kNoNode) return;
  const std::uint32_t newRoot = allocNode(/*leaf=*/false);
  NodeHeader& h = header(newRoot);
  std::uint32_t* kids = childArray(newRoot);
  kids[0] = root_;
  kids[1] = sibling;
  h.fanout = 2;
  recomputeAggregates(newRoot);
  root_ = newRoot;
  ++height_;
}

void PRTree::insert(TupleId id, std::span<const double> values, double prob) {
  const LeafEntry e = makeEntry(id, values, prob);
  if (root_ == kNoNode) {
    root_ = allocNode(/*leaf=*/true);
    height_ = 1;
  }
  growRootIfSplit(insertRecurse(root_, e));
  ++size_;
}

// ---------------------------------------------------------------------------
// Delete

void PRTree::collectEntries(std::uint32_t node,
                            std::vector<LeafEntry>& out) const {
  const NodeHeader& h = header(node);
  if (h.leaf) {
    for (std::size_t i = 0; i < h.fanout; ++i) out.push_back(leafEntry(node, i));
  } else {
    const std::uint32_t* kids = childArray(node);
    for (std::size_t i = 0; i < h.fanout; ++i) collectEntries(kids[i], out);
  }
}

bool PRTree::eraseRecurse(std::uint32_t node, TupleId id,
                          std::span<const double> values,
                          std::vector<LeafEntry>& orphans) {
  NodeHeader& h = header(node);
  if (h.leaf) {
    for (std::size_t i = 0; i < h.fanout; ++i) {
      if (leafIds(node)[i] != id) continue;
      bool match = true;
      for (std::size_t j = 0; j < dims_; ++j) {
        if (leafCol(node, j)[i] != values[j]) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      removeLeafSlot(node, i);
      recomputeAggregates(node);
      return true;
    }
    return false;
  }
  std::uint32_t* kids = childArray(node);
  for (std::size_t i = 0; i < h.fanout; ++i) {
    const std::uint32_t child = kids[i];
    if (!header(child).mbr.containsPoint(values)) continue;
    if (!eraseRecurse(child, id, values, orphans)) continue;
    if (header(child).fanout < options_.minEntries) {
      // Condense: orphan the whole subtree for reinsertion.
      collectEntries(child, orphans);
      freeSubtree(child);
      kids[i] = kids[h.fanout - 1];
      --h.fanout;
    }
    recomputeAggregates(node);
    return true;
  }
  return false;
}

bool PRTree::erase(TupleId id, std::span<const double> values) {
  if (values.size() != dims_) {
    throw std::invalid_argument("PRTree::erase: dimensionality mismatch");
  }
  if (root_ == kNoNode) return false;
  std::vector<LeafEntry> orphans;
  if (!eraseRecurse(root_, id, values, orphans)) return false;
  --size_;

  // Shrink the root while it is an internal node with a single child.
  while (!header(root_).leaf && header(root_).fanout == 1) {
    const std::uint32_t old = root_;
    root_ = childArray(old)[0];
    freeNode(old);
    --height_;
  }
  if (header(root_).leaf && header(root_).fanout == 0 && orphans.empty()) {
    freeNode(root_);
    root_ = kNoNode;
    height_ = 0;
  }

  // Reinsert orphaned tuples (their subtree was dissolved).
  for (const LeafEntry& e : orphans) {
    if (root_ == kNoNode) {
      root_ = allocNode(/*leaf=*/true);
      height_ = 1;
    }
    growRootIfSplit(insertRecurse(root_, e));
  }
  return true;
}

void PRTree::clear() {
  extents_.clear();
  freeList_.clear();
  allocated_ = 0;
  root_ = kNoNode;
  size_ = 0;
  height_ = 0;
}

// ---------------------------------------------------------------------------
// Queries

void PRTree::leafSurvival(std::uint32_t node, const double* const* points,
                          std::size_t n, DimMask mask, const Rect* clip,
                          double* out) const noexcept {
  // Partially dominating leaf: resolve per-row via the blocked kernel.  The
  // columns already carry kernel-neutral padding, so whole blocks run with
  // no tail handling.
  std::array<const double*, kMaxDims> cols;
  for (std::size_t j = 0; j < dims_; ++j) cols[j] = leafCol(node, j);
  const kernel::SoaBlock block{cols.data(), leafProb(node), leafLogSurv(node),
                               header(node).fanout, padCap_, dims_};
  const double* lo = clip == nullptr ? nullptr : clip->loSpan().data();
  const double* hi = clip == nullptr ? nullptr : clip->hiSpan().data();
  kernel::blockSurvival(block, points, n, mask, lo, hi, out);
}

double PRTree::survivalDescend(std::uint32_t node, std::span<const double> b,
                               DimMask mask, const Rect* clip) const {
  ++nodeAccesses_;
  const NodeHeader& h = header(node);
  if (!h.mbr.possiblyDominates(b, mask)) return 1.0;
  if (clip != nullptr && !h.mbr.intersects(*clip)) return 1.0;
  const bool insideClip = clip == nullptr || clip->containsRect(h.mbr);
  if (insideClip && h.mbr.fullyDominates(b, mask)) return h.survival;
  if (h.leaf) {
    const double* point = b.data();
    double survival = 1.0;
    leafSurvival(node, &point, 1, mask, insideClip ? nullptr : clip,
                 &survival);
    return survival;
  }
  double product = 1.0;
  const std::uint32_t* kids = childArray(node);
  for (std::size_t i = 0; i < h.fanout; ++i) {
    product *= survivalDescend(kids[i], b, mask, clip);
  }
  return product;
}

void PRTree::survivalDescendBatch(std::uint32_t node, const double* points,
                                  const std::uint8_t* group, std::size_t n,
                                  const Rect& box, DimMask mask,
                                  const Rect* clip, double* out) const {
  ++nodeAccesses_;
  const NodeHeader& h = header(node);
  // Whole-group cases first.  `box` bounds the group's points, so a node
  // that cannot dominate its high corner dominates none of them, and one
  // that wholly dominates its low corner dominates every one.
  if (!h.mbr.possiblyDominates(box.hiSpan(), mask) ||
      (clip != nullptr && !h.mbr.intersects(*clip))) {
    std::fill(out, out + n, 1.0);
    return;
  }
  const bool insideClip = clip == nullptr || clip->containsRect(h.mbr);
  if (insideClip && h.mbr.fullyDominates(box.loSpan(), mask)) {
    std::fill(out, out + n, h.survival);
    return;
  }
  // Per point, the case split survivalDescend makes; the points this node
  // partially dominates form the sub-group `rest`.
  std::array<std::uint8_t, kSurvivalBatch> rest;
  std::array<std::uint8_t, kSurvivalBatch> restAt;  // index into `out`
  Rect restBox(dims_);
  std::size_t m = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::span<const double> b(points + group[k] * dims_, dims_);
    if (!h.mbr.possiblyDominates(b, mask)) {
      out[k] = 1.0;
    } else if (insideClip && h.mbr.fullyDominates(b, mask)) {
      out[k] = h.survival;
    } else {
      rest[m] = group[k];
      restAt[m] = static_cast<std::uint8_t>(k);
      restBox.expand(b);
      ++m;
    }
  }
  if (m == 0) return;
  if (h.leaf) {
    std::array<const double*, kSurvivalBatch> partial;
    std::array<double, kSurvivalBatch> survival;
    for (std::size_t j = 0; j < m; ++j) partial[j] = points + rest[j] * dims_;
    leafSurvival(node, partial.data(), m, mask, insideClip ? nullptr : clip,
                 survival.data());
    for (std::size_t j = 0; j < m; ++j) out[restAt[j]] = survival[j];
    return;
  }
  // Each point's children multiply into its own product in child order,
  // exactly as survivalDescend's loop does, so every result is
  // bit-identical to the single-point descent.
  std::array<double, kSurvivalBatch> product;
  std::array<double, kSurvivalBatch> factor;
  std::fill_n(product.begin(), m, 1.0);
  const std::uint32_t* kids = childArray(node);
  for (std::size_t i = 0; i < h.fanout; ++i) {
    survivalDescendBatch(kids[i], points, rest.data(), m, restBox, mask, clip,
                         factor.data());
    for (std::size_t j = 0; j < m; ++j) product[j] *= factor[j];
  }
  for (std::size_t j = 0; j < m; ++j) out[restAt[j]] = product[j];
}

double PRTree::dominanceSurvival(std::span<const double> b, DimMask mask,
                                 const Rect* clip) const {
  if (b.size() != dims_) {
    throw std::invalid_argument("PRTree::dominanceSurvival: bad query dims");
  }
  if (root_ == kNoNode) return 1.0;
  return survivalDescend(root_, b, mask, clip);
}

void PRTree::dominanceSurvival(std::span<const double> points, DimMask mask,
                               const Rect* clip, std::span<double> out) const {
  if (points.size() != out.size() * dims_) {
    throw std::invalid_argument("PRTree::dominanceSurvival: bad batch dims");
  }
  if (root_ == kNoNode) {
    std::fill(out.begin(), out.end(), 1.0);
    return;
  }
  std::array<std::uint8_t, kSurvivalBatch> group;
  std::iota(group.begin(), group.end(), std::uint8_t{0});
  for (std::size_t start = 0; start < out.size(); start += kSurvivalBatch) {
    const std::size_t n = std::min(kSurvivalBatch, out.size() - start);
    const double* chunk = points.data() + start * dims_;
    Rect box(dims_);
    for (std::size_t k = 0; k < n; ++k) box.expand({chunk + k * dims_, dims_});
    survivalDescendBatch(root_, chunk, group.data(), n, box, mask, clip,
                         out.data() + start);
  }
}

void PRTree::forEachDominating(
    std::span<const double> b, DimMask mask,
    const std::function<void(const LeafEntry&)>& fn) const {
  if (b.size() != dims_) {
    throw std::invalid_argument("PRTree::forEachDominating: bad query dims");
  }
  if (root_ == kNoNode) return;
  const std::function<void(std::uint32_t)> descend = [&](std::uint32_t node) {
    ++nodeAccesses_;
    const NodeHeader& h = header(node);
    if (!h.mbr.possiblyDominates(b, mask)) return;
    if (h.leaf) {
      for (std::size_t i = 0; i < h.fanout; ++i) {
        if (leafSlotDominates(node, i, b, mask)) fn(leafEntry(node, i));
      }
    } else {
      const std::uint32_t* kids = childArray(node);
      for (std::size_t i = 0; i < h.fanout; ++i) descend(kids[i]);
    }
  };
  descend(root_);
}

void PRTree::windowQuery(
    const Rect& window, const std::function<void(const LeafEntry&)>& fn) const {
  if (root_ == kNoNode) return;
  const std::function<void(std::uint32_t)> descend = [&](std::uint32_t node) {
    ++nodeAccesses_;
    const NodeHeader& h = header(node);
    if (!h.mbr.intersects(window)) return;
    if (h.leaf) {
      for (std::size_t i = 0; i < h.fanout; ++i) {
        bool inside = true;
        for (std::size_t j = 0; j < dims_; ++j) {
          const double v = leafCol(node, j)[i];
          if (v < window.lo(j) || v > window.hi(j)) {
            inside = false;
            break;
          }
        }
        if (inside) fn(leafEntry(node, i));
      }
    } else {
      const std::uint32_t* kids = childArray(node);
      for (std::size_t i = 0; i < h.fanout; ++i) descend(kids[i]);
    }
  };
  descend(root_);
}

void PRTree::forEach(const std::function<void(const LeafEntry&)>& fn) const {
  if (root_ == kNoNode) return;
  const std::function<void(std::uint32_t)> descend = [&](std::uint32_t node) {
    const NodeHeader& h = header(node);
    if (h.leaf) {
      for (std::size_t i = 0; i < h.fanout; ++i) fn(leafEntry(node, i));
    } else {
      const std::uint32_t* kids = childArray(node);
      for (std::size_t i = 0; i < h.fanout; ++i) descend(kids[i]);
    }
  };
  descend(root_);
}

// ---------------------------------------------------------------------------
// NodeRef

bool PRTree::NodeRef::isLeaf() const noexcept {
  return tree_->header(node_).leaf != 0;
}
const Rect& PRTree::NodeRef::mbr() const noexcept {
  return tree_->header(node_).mbr;
}
double PRTree::NodeRef::pMin() const noexcept {
  return tree_->header(node_).pMin;
}
double PRTree::NodeRef::pMax() const noexcept {
  return tree_->header(node_).pMax;
}
double PRTree::NodeRef::survival() const noexcept {
  return tree_->header(node_).survival;
}
std::size_t PRTree::NodeRef::count() const noexcept {
  return tree_->header(node_).count;
}
std::size_t PRTree::NodeRef::fanout() const noexcept {
  return tree_->header(node_).fanout;
}
PRTree::NodeRef PRTree::NodeRef::child(std::size_t i) const noexcept {
  return NodeRef(tree_, tree_->childArray(node_)[i]);
}
PRTree::LeafEntry PRTree::NodeRef::entry(std::size_t i) const noexcept {
  return tree_->leafEntry(node_, i);
}

PRTree::NodeRef PRTree::root() const noexcept { return NodeRef(this, root_); }

std::size_t PRTree::height() const noexcept { return height_; }

// ---------------------------------------------------------------------------
// Invariant checking

void PRTree::checkInvariants() const {
  if (root_ == kNoNode) {
    if (size_ != 0 || height_ != 0) {
      throw std::logic_error("PRTree: empty tree with nonzero size/height");
    }
    return;
  }

  const auto closeEnough = [](double a, double b) {
    return std::abs(a - b) <= 1e-12 + 1e-9 * std::abs(b);
  };

  std::size_t tuples = 0;
  // Returns subtree depth.
  const std::function<std::size_t(std::uint32_t, bool)> check =
      [&](std::uint32_t node, bool isRoot) -> std::size_t {
    const NodeHeader& h = header(node);
    const std::size_t fanout = h.fanout;
    if (!isRoot && fanout < options_.minEntries) {
      throw std::logic_error("PRTree: underfull non-root node");
    }
    if (fanout > options_.maxEntries) {
      throw std::logic_error("PRTree: overfull node");
    }
    if (isRoot && !h.leaf && fanout < 2) {
      throw std::logic_error("PRTree: internal root with < 2 children");
    }

    std::size_t depth = 1;
    if (h.leaf) {
      tuples += fanout;
    } else {
      std::size_t childDepth = 0;
      const std::uint32_t* kids = childArray(node);
      for (std::size_t i = 0; i < fanout; ++i) {
        const std::size_t d = check(kids[i], false);
        if (childDepth == 0) {
          childDepth = d;
        } else if (childDepth != d) {
          throw std::logic_error("PRTree: leaves at different depths");
        }
        if (!h.mbr.containsRect(header(kids[i]).mbr)) {
          throw std::logic_error("PRTree: child MBR escapes parent MBR");
        }
      }
      depth = childDepth + 1;
    }

    // Recompute aggregates from scratch.
    Rect mbr(dims_);
    double pMin = 1.0;
    double pMax = 0.0;
    double survival = 1.0;
    std::size_t count = 0;
    if (h.leaf) {
      for (std::size_t i = 0; i < fanout; ++i) {
        const LeafEntry e = leafEntry(node, i);
        mbr.expand(e.valueSpan(dims_));
        pMin = std::min(pMin, e.prob);
        pMax = std::max(pMax, e.prob);
        survival *= 1.0 - e.prob;
        ++count;
        if (leafLogSurv(node)[i] != std::log1p(-e.prob)) {
          throw std::logic_error("PRTree: stale logSurv column");
        }
      }
      // Padding slots must stay kernel-neutral.
      for (std::size_t i = fanout; i < padCap_; ++i) {
        for (std::size_t j = 0; j < dims_; ++j) {
          if (leafCol(node, j)[i] !=
              std::numeric_limits<double>::infinity()) {
            throw std::logic_error("PRTree: leaf padding coordinate not +inf");
          }
        }
        if (leafProb(node)[i] != 0.0 || leafLogSurv(node)[i] != 0.0) {
          throw std::logic_error("PRTree: leaf padding prob/logSurv not 0");
        }
      }
    } else {
      const std::uint32_t* kids = childArray(node);
      for (std::size_t i = 0; i < fanout; ++i) {
        const NodeHeader& c = header(kids[i]);
        mbr.expand(c.mbr);
        pMin = std::min(pMin, c.pMin);
        pMax = std::max(pMax, c.pMax);
        survival *= c.survival;
        count += c.count;
      }
    }
    if (!(mbr == h.mbr)) {
      throw std::logic_error("PRTree: stale MBR aggregate");
    }
    if (count != h.count) {
      throw std::logic_error("PRTree: stale count aggregate");
    }
    if (count > 0 && (!closeEnough(pMin, h.pMin) ||
                      !closeEnough(pMax, h.pMax))) {
      throw std::logic_error("PRTree: stale probability aggregates");
    }
    if (!closeEnough(survival, h.survival)) {
      throw std::logic_error("PRTree: stale survival aggregate");
    }
    return depth;
  };

  const std::size_t depth = check(root_, true);
  if (depth != height_) {
    throw std::logic_error("PRTree: height bookkeeping mismatch");
  }
  if (tuples != size_) {
    throw std::logic_error("PRTree: size bookkeeping mismatch");
  }
}

}  // namespace dsud
