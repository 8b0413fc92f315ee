// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Cross-query batched execution support types. The entry point is
// PlanarIndexSet::BatchInequality (core/index_set.h, implemented in
// batch.cc): queries are grouped by their selected index, their
// intermediate intervals are coalesced — overlapping rank ranges merged —
// and every merged range is walked exactly once, block by block, with
// every query whose interval covers a block classifying it in turn, so
// phi rows demanded by several queries are read from memory once instead
// of once per query. Answers are bit-identical to the serial Inequality
// path.

#ifndef PLANAR_CORE_BATCH_H_
#define PLANAR_CORE_BATCH_H_

#include <cstddef>

namespace planar {

/// Aggregate accounting of one BatchInequality call, feeding the engine's
/// batch-occupancy / rows-shared metrics and bench_batch.
struct BatchExecStats {
  size_t queries = 0;        ///< queries in the batch
  size_t index_groups = 0;   ///< distinct indices that served >= 1 query
  size_t scan_queries = 0;   ///< queries answered by sequential scan
  size_t merged_ranges = 0;  ///< coalesced candidate ranges streamed
  /// Candidate rows the batch streamed through the kernels (each merged
  /// range counted once).
  size_t rows_streamed = 0;
  /// Candidate rows the serial path would have streamed: the sum of the
  /// per-query intermediate-interval sizes (n per scan-served query).
  size_t rows_demanded = 0;

  /// rows_demanded / rows_streamed; 1.0 means no sharing happened.
  double SharingFactor() const {
    if (rows_streamed == 0) return 1.0;
    return static_cast<double>(rows_demanded) /
           static_cast<double>(rows_streamed);
  }

  /// Rows coalescing saved, averaged over the batch's queries.
  double RowsSharedPerQuery() const {
    if (queries == 0) return 0.0;
    return static_cast<double>(rows_demanded - rows_streamed) /
           static_cast<double>(queries);
  }
};

}  // namespace planar

#endif  // PLANAR_CORE_BATCH_H_
