// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// RowMatrix: a dense row-major matrix of doubles with per-column bounds.
// It serves both as the raw dataset container (n points in R^d) and as
// the materialized phi matrix (n rows of phi(x) in R^d').
//
// Column bounds are maintained *grow-only*: they always contain every
// value ever stored, which keeps translation deltas (Section 4.5) sound
// under dynamic updates at the price of occasional looseness.

#ifndef PLANAR_CORE_ROW_MATRIX_H_
#define PLANAR_CORE_ROW_MATRIX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "core/function.h"

namespace planar {

namespace internal {

// Ensures capacity for `size` elements. A reallocation adds at least 1/16
// of the old capacity, so a long run of small appends (one row, or one
// small batch, at a time) stays amortized O(1) copies per element, while
// a batch of k <= n/10 appended to an array cloned at capacity == n ends
// at max(n + k, n + n/16) instead of doubling.
template <typename T>
void GrowCapacity(std::vector<T>* v, size_t size) {
  if (v->capacity() < size) {
    v->reserve(std::max(size, v->capacity() + v->capacity() / 16));
  }
}

}  // namespace internal

/// Dense row-major n x d matrix with grow-only per-column min/max.
class RowMatrix {
 public:
  /// An empty matrix with `dim` columns.
  explicit RowMatrix(size_t dim);

  /// Builds from row-major data; `values.size()` must be a multiple of
  /// `dim`.
  static RowMatrix FromRowMajor(size_t dim, std::vector<double> values);

  /// Appends one row of length dim().
  void AppendRow(const double* values);
  void AppendRow(const std::vector<double>& values);

  /// Overwrites row `i`. Column bounds are widened but never shrunk.
  void SetRow(size_t i, const double* values);

  /// Pointer to the `i`-th row (length dim()).
  const double* row(size_t i) const {
    PLANAR_DCHECK(i < rows_);
    return data_.data() + i * dim_;
  }

  /// Base pointer of the row-major storage (row i starts at
  /// data() + i * dim()). For the batched kernels in core/kernels, which
  /// take a base + stride instead of per-row pointers.
  const double* data() const { return data_.data(); }

  /// Element access.
  double at(size_t i, size_t j) const {
    PLANAR_DCHECK(i < rows_ && j < dim_);
    return data_[i * dim_ + j];
  }

  /// Number of rows / columns.
  size_t size() const { return rows_; }
  size_t dim() const { return dim_; }
  bool empty() const { return rows_ == 0; }

  /// Grow-only bound on the smallest / largest value ever stored in column
  /// `j`. Requires at least one row.
  double ColumnMin(size_t j) const;
  double ColumnMax(size_t j) const;

  /// Materializes (or refreshes) the f32 mirror: a single-precision copy
  /// of the row storage kept in sync by AppendRow/SetRow from then on.
  /// The mixed-precision verify path (core/mixed.h) streams the mirror
  /// instead of the doubles — half the bytes per candidate row — and
  /// re-verifies only band rows against the f64 storage. The mirror is
  /// side storage: never serialized, rebuilt on load, and carried along
  /// by the copy constructor (Clone / ingest-merge paths).
  void EnableF32Mirror();

  /// Base pointer of the f32 mirror in row-major layout (stride dim()),
  /// or nullptr when the mirror was never enabled.
  // f32-ok: the mirror is the one sanctioned float surface in core.
  const float* f32_data() const {
    return f32_mirror_ ? f32_.data() : nullptr;
  }

  /// True iff EnableF32Mirror() was called.
  bool has_f32_mirror() const { return f32_mirror_; }

  /// Reserves storage for at least `n` rows, growing the way
  /// internal::GrowCapacity does (exact on an empty matrix).
  void Reserve(size_t n) {
    internal::GrowCapacity(&data_, n * dim_);
    if (f32_mirror_) internal::GrowCapacity(&f32_, n * dim_);
  }

  /// Heap footprint in bytes.
  size_t MemoryUsage() const {
    // f32-ok: mirror footprint accounting.
    return data_.capacity() * sizeof(double) + f32_.capacity() * sizeof(float) +
           (col_min_.capacity() + col_max_.capacity()) * sizeof(double);
  }

 private:
  size_t dim_;
  size_t rows_ = 0;
  std::vector<double> data_;
  // f32-ok: optional single-precision mirror of data_ (see EnableF32Mirror).
  bool f32_mirror_ = false;
  std::vector<float> f32_;
  std::vector<double> col_min_;
  std::vector<double> col_max_;
};

/// Converts a double to the f32 mirror representation: round-to-nearest
/// for in-range values, clamped to +/-infinity beyond the float range
/// (the raw cast would be undefined behavior there). Monotone, so mirror
/// values never cross: x <= y implies FloatMirrorValue(x) <=
/// FloatMirrorValue(y); NaN stays NaN. The mixed-precision band math
/// (core/mixed.cc) accounts for the conversion error this introduces.
// f32-ok: the sanctioned double->float conversion for mirror storage.
float FloatMirrorValue(double v);

/// The raw dataset: n points in R^d.
using Dataset = RowMatrix;
/// The materialized index space: n rows of phi(x) in R^d'.
using PhiMatrix = RowMatrix;

/// Evaluates `fn` on every row of `points` (which must have
/// fn.input_dim() columns) and returns the n x output_dim phi matrix.
PhiMatrix MaterializePhi(const Dataset& points, const PhiFunction& fn);

}  // namespace planar

#endif  // PLANAR_CORE_ROW_MATRIX_H_
