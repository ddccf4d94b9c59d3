#include "common/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <stdexcept>
#include <string>

namespace dsud {

// ---------------------------------------------------------------------------
// DatasetView

void DatasetView::AlignedFree::operator()(double* p) const noexcept {
  std::free(p);
}

DatasetView::DatasetView(const Dataset& data)
    : dims_(data.dims()), size_(data.size()) {
  // Round the column extent up so every column is both a whole number of
  // kBlock SIMD groups and kAlign bytes long (8 doubles = 64 bytes).
  constexpr std::size_t kRowRound = kAlign / sizeof(double);
  static_assert(kRowRound % kBlock == 0);
  padded_ = (size_ + kRowRound - 1) / kRowRound * kRowRound;
  if (padded_ == 0) padded_ = kRowRound;  // keep col()/prob() dereferenceable

  const std::size_t doubles = (dims_ + 2) * padded_;
  void* raw = std::aligned_alloc(kAlign, doubles * sizeof(double));
  if (raw == nullptr) throw std::bad_alloc();
  buffer_.reset(static_cast<double*>(raw));

  constexpr double kPad = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < dims_; ++j) {
    double* column = buffer_.get() + j * padded_;
    for (std::size_t row = 0; row < size_; ++row) {
      column[row] = data.values(row)[j];
    }
    std::fill(column + size_, column + padded_, kPad);
  }
  double* probCol = buffer_.get() + dims_ * padded_;
  double* logCol = buffer_.get() + (dims_ + 1) * padded_;
  for (std::size_t row = 0; row < size_; ++row) {
    const double p = data.prob(row);
    probCol[row] = p;
    // -inf when P == 1: a certain dominator zeroes the survival product.
    logCol[row] = std::log1p(-p);
  }
  std::fill(probCol + size_, probCol + padded_, 0.0);
  std::fill(logCol + size_, logCol + padded_, 0.0);

  colPtrs_.resize(dims_);
  for (std::size_t j = 0; j < dims_; ++j) colPtrs_[j] = col(j);
  ids_.resize(size_);
  for (std::size_t row = 0; row < size_; ++row) ids_[row] = data.id(row);
}

// ---------------------------------------------------------------------------
// Dataset

Dataset::Dataset(std::size_t dims) : dims_(dims) {
  if (dims == 0) throw std::invalid_argument("Dataset: dims must be >= 1");
}

std::size_t Dataset::add(TupleId id, std::span<const double> values,
                         double prob) {
  if (values.size() != dims_) {
    throw std::invalid_argument("Dataset::add: expected " +
                                std::to_string(dims_) + " values, got " +
                                std::to_string(values.size()));
  }
  if (!(prob > 0.0) || prob > 1.0) {
    throw std::invalid_argument("Dataset::add: probability must be in (0, 1]");
  }
  if (!std::all_of(values.begin(), values.end(),
                   [](double v) { return std::isfinite(v); })) {
    throw std::invalid_argument("Dataset::add: coordinates of id " +
                                std::to_string(id) + " must be finite");
  }
  if (!rowOf_.emplace(id, probs_.size()).second) {
    throw std::invalid_argument("Dataset::add: duplicate id " +
                                std::to_string(id));
  }
  flat_.insert(flat_.end(), values.begin(), values.end());
  probs_.push_back(prob);
  ids_.push_back(id);
  nextId_ = std::max(nextId_, id + 1);
  return probs_.size() - 1;
}

std::size_t Dataset::add(std::span<const double> values, double prob) {
  return add(nextId_, values, prob);
}

std::span<const double> Dataset::values(std::size_t row) const noexcept {
  return {flat_.data() + row * dims_, dims_};
}

TupleRef Dataset::at(std::size_t row) const noexcept {
  return TupleRef{ids_[row], values(row), probs_[row]};
}

std::optional<std::size_t> Dataset::rowOf(TupleId id) const {
  auto it = rowOf_.find(id);
  if (it == rowOf_.end()) return std::nullopt;
  return it->second;
}

void Dataset::eraseRow(std::size_t row) {
  if (row >= size()) throw std::out_of_range("Dataset::eraseRow");
  const std::size_t last = size() - 1;
  rowOf_.erase(ids_[row]);
  if (row != last) {
    std::copy_n(flat_.data() + last * dims_, dims_, flat_.data() + row * dims_);
    probs_[row] = probs_[last];
    ids_[row] = ids_[last];
    rowOf_[ids_[row]] = row;
  }
  flat_.resize(last * dims_);
  probs_.pop_back();
  ids_.pop_back();
}

bool Dataset::eraseId(TupleId id) {
  auto it = rowOf_.find(id);
  if (it == rowOf_.end()) return false;
  eraseRow(it->second);
  return true;
}

void Dataset::reserve(std::size_t n) {
  flat_.reserve(n * dims_);
  probs_.reserve(n);
  ids_.reserve(n);
  rowOf_.reserve(n);
}

}  // namespace dsud
