// Flat, cache-friendly storage for an uncertain database.
//
// An uncertain database (paper Sec. 3, Fig. 2) is a multiset of d-dimensional
// tuples, each carrying an existential probability P(t) in (0, 1].  Storage is
// row-major in one contiguous buffer so a 2M-tuple database costs exactly
// N * d doubles + N probabilities + N ids, with no per-tuple allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

namespace dsud {

/// Globally unique tuple identifier.  Ids are assigned by generators and are
/// stable across partitioning and network shipping.
using TupleId = std::uint64_t;

/// Identifier of a local site; the coordinator is not a site.
using SiteId = std::uint32_t;

/// Sentinel for "no site" (e.g. a tuple that only lives at the coordinator).
inline constexpr SiteId kNoSite = static_cast<SiteId>(-1);

/// Non-owning view of a single uncertain tuple.
struct TupleRef {
  TupleId id = 0;
  std::span<const double> values;
  double prob = 0.0;
};

/// Owning uncertain tuple (used on the wire and in protocol state).
struct Tuple {
  TupleId id = 0;
  std::vector<double> values;
  double prob = 0.0;

  Tuple() = default;
  Tuple(TupleId tupleId, std::vector<double> coords, double p)
      : id(tupleId), values(std::move(coords)), prob(p) {}
  explicit Tuple(const TupleRef& ref)
      : id(ref.id), values(ref.values.begin(), ref.values.end()), prob(ref.prob) {}

  friend bool operator==(const Tuple&, const Tuple&) = default;
};

class Dataset;

/// Column-major (structure-of-arrays) snapshot of a Dataset, shaped for the
/// `kernel/` dominance and survival-product primitives.
///
/// Each dimension is one contiguous, 64-byte-aligned `double` array padded to
/// a multiple of `kBlock` rows; the existential probabilities and the derived
/// `log1p(-P)` column share the layout.  Padding rows carry +infinity
/// coordinates (they can never dominate anything) and zero probability /
/// log-survival, so kernels may always process whole blocks with no tail
/// handling.  The view is an immutable copy: mutating the source Dataset
/// afterwards does not invalidate it.
class DatasetView {
 public:
  /// Rows per SIMD block (4 doubles = one AVX2 vector).
  static constexpr std::size_t kBlock = 4;
  /// Alignment of every column, in bytes (one cache line).
  static constexpr std::size_t kAlign = 64;

  DatasetView() = default;
  explicit DatasetView(const Dataset& data);

  std::size_t dims() const noexcept { return dims_; }
  std::size_t size() const noexcept { return size_; }
  /// size() rounded up to a kBlock multiple; the extent of every column.
  std::size_t paddedSize() const noexcept { return padded_; }

  /// Column of dimension `j` (aligned, paddedSize() entries).
  const double* col(std::size_t j) const noexcept {
    return buffer_.get() + j * padded_;
  }
  /// Array of dims() column pointers (the kernel-facing handle).
  const double* const* cols() const noexcept { return colPtrs_.data(); }
  /// Existential probabilities (aligned, padding entries are 0).
  const double* prob() const noexcept { return buffer_.get() + dims_ * padded_; }
  /// log1p(-P(t)) per row (-inf where P == 1; padding entries are 0) — the
  /// log-space survival summand.
  const double* logSurv() const noexcept {
    return buffer_.get() + (dims_ + 1) * padded_;
  }
  std::span<const TupleId> ids() const noexcept { return ids_; }

 private:
  struct AlignedFree {
    void operator()(double* p) const noexcept;
  };

  std::size_t dims_ = 0;
  std::size_t size_ = 0;
  std::size_t padded_ = 0;
  // One aligned allocation holding dims_ value columns, then prob, then
  // logSurv (each padded_ doubles; padded_ * 8 is a kAlign multiple, so every
  // column stays aligned).
  std::unique_ptr<double[], AlignedFree> buffer_;
  std::vector<const double*> colPtrs_;
  std::vector<TupleId> ids_;
};

/// Flat row-major uncertain database.
///
/// Invariants: every row has exactly `dims()` values; `prob(row)` is in
/// (0, 1]; ids are unique within the dataset.  Rows are index-stable except
/// across `eraseRow`, which swap-removes (documented below) — long-lived
/// references should hold `TupleId`s, not row indices.
class Dataset {
 public:
  /// Creates an empty dataset of the given dimensionality (>= 1).
  explicit Dataset(std::size_t dims);

  std::size_t dims() const noexcept { return dims_; }
  std::size_t size() const noexcept { return probs_.size(); }
  bool empty() const noexcept { return probs_.empty(); }

  /// Appends a tuple with an explicit id.  Throws std::invalid_argument on
  /// dimension mismatch, a NaN or infinite coordinate, out-of-range
  /// probability, or duplicate id.
  std::size_t add(TupleId id, std::span<const double> values, double prob);

  /// Appends a tuple, assigning the next unused sequential id.
  std::size_t add(std::span<const double> values, double prob);

  /// Appends a copy of `t`.
  std::size_t add(const Tuple& t) { return add(t.id, t.values, t.prob); }

  std::span<const double> values(std::size_t row) const noexcept;
  double prob(std::size_t row) const noexcept { return probs_[row]; }
  TupleId id(std::size_t row) const noexcept { return ids_[row]; }
  TupleRef at(std::size_t row) const noexcept;
  Tuple tuple(std::size_t row) const { return Tuple(at(row)); }

  /// Row index currently holding `id`, if present.
  std::optional<std::size_t> rowOf(TupleId id) const;

  /// Removes a row by swapping the last row into its place.  O(1); the row
  /// index of the previously-last tuple changes.
  void eraseRow(std::size_t row);

  /// Removes the tuple with the given id.  Returns false if absent.
  bool eraseId(TupleId id);

  /// Reserves capacity for `n` tuples.
  void reserve(std::size_t n);

  /// Builds a column-major kernel-ready snapshot of the current contents.
  /// O(N · d); the view stays valid after the Dataset mutates or dies.
  DatasetView view() const { return DatasetView(*this); }

 private:
  std::size_t dims_;
  std::vector<double> flat_;    // row-major, size() * dims_
  std::vector<double> probs_;   // existential probabilities
  std::vector<TupleId> ids_;
  std::unordered_map<TupleId, std::size_t> rowOf_;
  TupleId nextId_ = 0;
};

}  // namespace dsud
