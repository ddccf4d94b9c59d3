#include "skyline/bbs.hpp"

#include <queue>
#include <variant>
#include <vector>

namespace dsud {
namespace {

/// A node waiting in the heap, with the survival of its MBR's low corner:
/// every dominator of that corner dominates every point in the MBR, so
/// P(t) · survival bounds P_sky of each tuple t below the node.
struct Frontier {
  PRTree::NodeRef node;
  double survival;
};

/// A leaf tuple that passed the threshold, with its exact P_sky.
struct Qualified {
  PRTree::LeafEntry entry;
  double skyProb;
};

struct HeapItem {
  double key;  // L1 key of the node MBR's low corner / of the tuple
  std::variant<Frontier, Qualified> payload;
};

/// Min-heap order: key, then nodes before tuples, then tuple id.  A node's
/// key never exceeds the keys below it, so with nodes first on a tie every
/// tuple of key k is in the heap before the first of them pops: tuples
/// leave in ascending (key, id) order.
struct HeapAfter {
  bool operator()(const HeapItem& a, const HeapItem& b) const noexcept {
    if (a.key != b.key) return a.key > b.key;
    const auto* ta = std::get_if<Qualified>(&a.payload);
    const auto* tb = std::get_if<Qualified>(&b.payload);
    if (ta == nullptr || tb == nullptr) return ta != nullptr && tb == nullptr;
    return ta->entry.id > tb->entry.id;
  }
};

double tupleL1Key(const PRTree::LeafEntry& e, std::size_t dims) noexcept {
  double s = 0.0;
  for (std::size_t j = 0; j < dims; ++j) s += e.values[j];
  return s;
}

template <typename Emit>
void traverse(const PRTree& tree, const SkylineSpec& spec, BbsStats* stats,
              const Emit& emit) {
  if (tree.empty()) return;
  const std::size_t dims = tree.dims();
  const DimMask mask = effectiveMask(spec.mask, dims);
  const double q = spec.q;
  const Rect* clip = spec.clip;
  BbsStats unused;
  BbsStats& counts = stats != nullptr ? *stats : unused;

  std::priority_queue<HeapItem, std::vector<HeapItem>, HeapAfter> heap;
  // Scratch reused from expansion to expansion, empty between them: the
  // nodes or tuples of one group, their points (row-major) and their
  // batched survivals.
  std::vector<PRTree::NodeRef> nodes;
  std::vector<PRTree::LeafEntry> tuples;
  std::vector<double> points;
  std::vector<double> survival;

  // Queues `node` for pushNodes, or prunes it on the spot when it lies
  // outside the window.
  const auto collect = [&](const PRTree::NodeRef& node) {
    if (clip != nullptr && !node.mbr().intersects(*clip)) {
      ++counts.nodesVisited;
      ++counts.nodesPruned;
      return;
    }
    nodes.push_back(node);
    const std::span<const double> lo = node.mbr().loSpan();
    points.insert(points.end(), lo.begin(), lo.end());
  };
  // Pushes the collected nodes with their low corners' survival, from one
  // batched descent.
  const auto pushNodes = [&] {
    survival.resize(nodes.size());
    tree.dominanceSurvival(points, mask, clip, survival);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      heap.push(HeapItem{nodes[i].mbr().l1Key(),
                         Frontier{nodes[i], survival[i]}});
    }
    nodes.clear();
    points.clear();
  };

  collect(tree.root());
  pushNodes();
  while (!heap.empty()) {
    const HeapItem item = heap.top();
    heap.pop();

    if (const auto* hit = std::get_if<Qualified>(&item.payload)) {
      ProbSkylineEntry out;
      out.id = hit->entry.id;
      out.values.assign(hit->entry.values.begin(),
                        hit->entry.values.begin() +
                            static_cast<std::ptrdiff_t>(dims));
      out.prob = hit->entry.prob;
      out.skyProb = hit->skyProb;
      if (!emit(out)) return;
      continue;
    }

    const auto& [node, surv] = std::get<Frontier>(item.payload);
    ++counts.nodesVisited;
    if (node.pMax() * surv < q) {
      ++counts.nodesPruned;
      continue;
    }
    if (!node.isLeaf()) {
      for (std::size_t i = 0; i < node.fanout(); ++i) collect(node.child(i));
      pushNodes();
      continue;
    }

    // The same bound filters the leaf's tuples one by one; the survivors
    // get their exact P_sky from one batched descent.
    for (std::size_t i = 0; i < node.fanout(); ++i) {
      const PRTree::LeafEntry e = node.entry(i);
      if (clip != nullptr && !clip->containsPoint(e.valueSpan(dims))) {
        continue;  // outside the constraint window: not a candidate
      }
      if (e.prob * surv < q) continue;
      tuples.push_back(e);
      points.insert(points.end(), e.values.begin(),
                    e.values.begin() + static_cast<std::ptrdiff_t>(dims));
    }
    counts.tuplesEvaluated += tuples.size();
    survival.resize(tuples.size());
    tree.dominanceSurvival(points, mask, clip, survival);
    for (std::size_t k = 0; k < tuples.size(); ++k) {
      const double skyProb = tuples[k].prob * survival[k];
      if (skyProb >= q) {
        heap.push(HeapItem{tupleL1Key(tuples[k], dims),
                           Qualified{tuples[k], skyProb}});
      }
    }
    tuples.clear();
    points.clear();
  }
}

}  // namespace

std::vector<ProbSkylineEntry> bbsSkyline(const PRTree& tree,
                                         const SkylineSpec& spec,
                                         BbsStats* stats) {
  std::vector<ProbSkylineEntry> result;
  traverse(tree, spec, stats, [&](const ProbSkylineEntry& e) {
    result.push_back(e);
    return true;
  });
  sortBySkylineProbability(result);
  return result;
}

void bbsSkylineStream(
    const PRTree& tree, const SkylineSpec& spec,
    const std::function<bool(const ProbSkylineEntry&)>& emit) {
  traverse(tree, spec, nullptr, emit);
}

}  // namespace dsud
