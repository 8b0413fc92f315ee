// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.

#include "core/scan.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "core/aggregate.h"
#include "core/kernels/kernels.h"
#include "core/mixed.h"
#include "core/topk.h"
#include "geometry/vec.h"

namespace planar {

namespace {

using kernels::kBlockRows;
using kernels::kMaskWords;

constexpr char kScanDeadlineMsg[] = "sequential scan exceeded its deadline";
constexpr char kTopKScanDeadlineMsg[] =
    "sequential top-k scan exceeded its deadline";

// The one scan loop: rows [0, count) of the classifier's row store, one
// range-form BlockClassifier call and one deadline poll per block, each
// block's accept mask (plus, with kResiduals, the exact residuals of its
// accepted rows) handed to fn(first_row, accept, residuals).
template <bool kResiduals, typename Fn>
Status ScanBlocks(const BlockClassifier& classifier, size_t count,
                  const Deadline& deadline, const char* deadline_msg,
                  Fn&& fn) {
  uint64_t accept[kMaskWords];
  double residuals[kBlockRows];
  for (size_t row = 0; row < count; row += kBlockRows) {
    if (deadline.Expired()) return Status::DeadlineExceeded(deadline_msg);
    const size_t blk = std::min(kBlockRows, count - row);
    classifier.Range(row, blk, accept, kResiduals ? residuals : nullptr);
    fn(row, accept, residuals);
  }
  return Status::OK();
}

// Appends id_offset + row for every accepted row, in row order.
Result<size_t> AppendMatches(const BlockClassifier& classifier, size_t count,
                             uint32_t id_offset, const Deadline& deadline,
                             std::vector<uint32_t>* out) {
  PLANAR_CHECK(out != nullptr);
  const size_t before = out->size();
  PLANAR_RETURN_IF_ERROR(ScanBlocks<false>(
      classifier, count, deadline, kScanDeadlineMsg,
      [&](size_t row, const uint64_t* accept, const double* /*res*/) {
        const size_t old_size = out->size();
        out->resize(old_size + kernels::MaskCount(accept));
        uint32_t* dst = out->data() + old_size;
        const uint32_t first = id_offset + static_cast<uint32_t>(row);
        kernels::ForEachSetBit(accept, [&](size_t i) {
          *dst++ = first + static_cast<uint32_t>(i);
        });
      }));
  return out->size() - before;
}

Result<size_t> CountMatches(const BlockClassifier& classifier, size_t count,
                            const Deadline& deadline) {
  size_t total = 0;
  PLANAR_RETURN_IF_ERROR(ScanBlocks<false>(
      classifier, count, deadline, kScanDeadlineMsg,
      [&](size_t /*row*/, const uint64_t* accept, const double* /*res*/) {
        total += kernels::MaskCount(accept);
      }));
  return total;
}

// Adds the match count and the payload total of the accepted rows,
// per block through the canonical blocked summation.
Status SumMatches(const BlockClassifier& classifier, const double* rows,
                  size_t dim, size_t count, int payload_column,
                  const Deadline& deadline, size_t* matched, double* sum) {
  PLANAR_CHECK(matched != nullptr && sum != nullptr);
  PLANAR_CHECK(payload_column >= 0 &&
               static_cast<size_t>(payload_column) < dim);
  const double* payload = rows + static_cast<size_t>(payload_column);
  return ScanBlocks<false>(
      classifier, count, deadline, kScanDeadlineMsg,
      [&](size_t row, const uint64_t* accept, const double* /*res*/) {
        double vals[kBlockRows];
        size_t kept = 0;
        kernels::ForEachSetBit(accept, [&](size_t i) {
          vals[kept++] = payload[(row + i) * dim];
        });
        *matched += kept;
        // agg-ok: per-block payload totals go through the canonical
        // helper and accumulate in row order — the same determinism rule
        // as the index refinement path.
        if (kept != 0) *sum += CanonicalBlockedSum(vals, kept);
      });
}

// Offers every accepted row to the top-k buffer at its exact hyperplane
// distance |residual| / ||a||.
Status OfferMatches(const BlockClassifier& classifier, size_t count,
                    uint32_t id_offset, const ScalarProductQuery& q,
                    const Deadline& deadline, TopKBuffer* buffer) {
  PLANAR_CHECK(buffer != nullptr);
  const double norm_a = Norm(q.a);
  PLANAR_CHECK(norm_a > 0.0);  // caller validated the query normal
  return ScanBlocks<true>(
      classifier, count, deadline, kTopKScanDeadlineMsg,
      [&](size_t row, const uint64_t* accept, const double* residuals) {
        const uint32_t first = id_offset + static_cast<uint32_t>(row);
        kernels::ForEachSetBit(accept, [&](size_t i) {
          buffer->Insert(first + static_cast<uint32_t>(i),
                         std::fabs(residuals[i]) / norm_a);
        });
      });
}

// Pure-f64 classifier over caller-owned rows.
BlockClassifier F64Classifier(const double* rows, size_t dim,
                              const ScalarProductQuery& q) {
  PLANAR_CHECK_EQ(dim, q.a.size());
  return BlockClassifier(q.a.data(), dim, q.b,
                         q.cmp == Comparison::kLessEqual, rows, nullptr, dim,
                         nullptr);
}

// The mixed plan a full-matrix scan of `phi` runs with: usable only when
// the matrix carries an f32 mirror and the band is sound.
MixedQueryPlan ScanPlan(const PhiMatrix& phi, const ScalarProductQuery& q) {
  if (phi.f32_data() == nullptr) return MixedQueryPlan();
  return MakeMixedPlan(q.a.data(), phi.dim(), q.b,
                       q.cmp == Comparison::kLessEqual, phi);
}

// Classifier over the whole matrix, on the mirror when `plan` is usable.
BlockClassifier MatrixClassifier(const PhiMatrix& phi,
                                 const ScalarProductQuery& q,
                                 const MixedQueryPlan& plan) {
  PLANAR_CHECK_EQ(phi.dim(), q.a.size());
  return BlockClassifier(q.a.data(), phi.dim(), q.b,
                         q.cmp == Comparison::kLessEqual, phi.data(),
                         phi.f32_data(), phi.dim(), &plan);
}

}  // namespace

Result<size_t> ScanRowsInequality(const double* rows, size_t dim, size_t count,
                                  uint32_t id_offset,
                                  const ScalarProductQuery& q,
                                  const Deadline& deadline,
                                  std::vector<uint32_t>* out) {
  return AppendMatches(F64Classifier(rows, dim, q), count, id_offset,
                       deadline, out);
}

// f32-ok: the f32 rows are a screening mirror only — every row the f32
// pass cannot place outside the widened band is re-verified against the
// exact f64 rows, so answers stay bit-equal to the f64-only scan.
Result<size_t> ScanRowsInequalityMixed(const double* rows64,
                                       const float* rows32, size_t dim,
                                       size_t count, uint32_t id_offset,
                                       const ScalarProductQuery& q,
                                       const MixedQueryPlan& plan,
                                       const Deadline& deadline,
                                       std::vector<uint32_t>* out) {
  PLANAR_CHECK_EQ(dim, q.a.size());
  PLANAR_CHECK(plan.usable);
  const BlockClassifier classifier(q.a.data(), dim, q.b,
                                   q.cmp == Comparison::kLessEqual, rows64,
                                   rows32, dim, &plan);
  return AppendMatches(classifier, count, id_offset, deadline, out);
}

Result<size_t> ScanRowsCountInequality(const double* rows, size_t dim,
                                       size_t count,
                                       const ScalarProductQuery& q,
                                       const Deadline& deadline) {
  return CountMatches(F64Classifier(rows, dim, q), count, deadline);
}

Status ScanRowsAggregateInequality(const double* rows, size_t dim,
                                   size_t count, int payload_column,
                                   const ScalarProductQuery& q,
                                   const Deadline& deadline, size_t* matched,
                                   double* sum) {
  return SumMatches(F64Classifier(rows, dim, q), rows, dim, count,
                    payload_column, deadline, matched, sum);
}

Status ScanRowsTopK(const double* rows, size_t dim, size_t count,
                    uint32_t id_offset, const ScalarProductQuery& q,
                    const Deadline& deadline, TopKBuffer* buffer) {
  return OfferMatches(F64Classifier(rows, dim, q), count, id_offset, q,
                      deadline, buffer);
}

InequalityResult ScanInequality(const PhiMatrix& phi,
                                const ScalarProductQuery& q) {
  Result<InequalityResult> result =
      ScanInequality(phi, q, Deadline::Infinite());
  PLANAR_CHECK(result.ok());  // an infinite deadline never expires
  return std::move(result).value();
}

Result<InequalityResult> ScanInequality(const PhiMatrix& phi,
                                        const ScalarProductQuery& q,
                                        const Deadline& deadline,
                                        size_t result_bound) {
  PLANAR_CHECK_EQ(phi.dim(), q.a.size());
  InequalityResult result;
  const size_t n = phi.size();
  result.stats.num_points = n;
  result.stats.verified = n;
  result.stats.index_used = -1;
  // Worst case up front (every row the bound allows matches), like the
  // index II paths: one allocation per query instead of log2(result)
  // geometric regrowths, each of which copies the whole accumulated id
  // vector. The blocks append by resize, so a bound that undershoots
  // costs a regrowth, never a wrong answer.
  result.ids.reserve(std::min(n, result_bound));
  // Per block: one deadline poll, one fused classify (on the f32 mirror
  // against the widened band when the matrix carries one — same ids,
  // same order), one walk of the accept mask.
  const MixedQueryPlan plan = ScanPlan(phi, q);
  Result<size_t> appended = AppendMatches(MatrixClassifier(phi, q, plan), n,
                                          /*id_offset=*/0, deadline,
                                          &result.ids);
  if (!appended.ok()) return appended.status();
  result.stats.result_size = result.ids.size();
  return result;
}

Result<CountResult> ScanCountInequality(const PhiMatrix& phi,
                                        const ScalarProductQuery& q,
                                        const Deadline& deadline) {
  CountResult result;
  const size_t n = phi.size();
  result.stats.num_points = n;
  result.stats.verified = n;
  result.stats.index_used = -1;
  const MixedQueryPlan plan = ScanPlan(phi, q);
  Result<size_t> matched =
      CountMatches(MatrixClassifier(phi, q, plan), n, deadline);
  if (!matched.ok()) return matched.status();
  result.lower = result.upper = result.estimate = matched.value();
  result.exact = true;
  result.stats.result_size = result.estimate;
  return result;
}

Result<AggregateResult> ScanAggregateInequality(const PhiMatrix& phi,
                                                int payload_column,
                                                const ScalarProductQuery& q,
                                                const Deadline& deadline) {
  PLANAR_CHECK_EQ(phi.dim(), q.a.size());
  if (payload_column < 0 ||
      static_cast<size_t>(payload_column) >= phi.dim()) {
    return Status::InvalidArgument(
        "payload_column must name a phi matrix column");
  }
  AggregateResult result;
  const size_t n = phi.size();
  result.count.stats.num_points = n;
  result.count.stats.verified = n;
  result.count.stats.index_used = -1;
  size_t total = 0;
  double sum = 0.0;
  const MixedQueryPlan plan = ScanPlan(phi, q);
  const Status scanned =
      SumMatches(MatrixClassifier(phi, q, plan), phi.data(), phi.dim(), n,
                 payload_column, deadline, &total, &sum);
  if (!scanned.ok()) return scanned;
  result.count.lower = result.count.upper = result.count.estimate = total;
  result.count.exact = true;
  result.count.stats.result_size = total;
  result.sum_lower = result.sum_upper = result.sum = sum;
  result.exact = true;
  return result;
}

Result<TopKResult> ScanTopK(const PhiMatrix& phi, const ScalarProductQuery& q,
                            size_t k) {
  return ScanTopK(phi, q, k, Deadline::Infinite());
}

Result<TopKResult> ScanTopK(const PhiMatrix& phi, const ScalarProductQuery& q,
                            size_t k, const Deadline& deadline) {
  PLANAR_CHECK_EQ(phi.dim(), q.a.size());
  if (!q.IsFinite()) {
    return Status::InvalidArgument("query parameters must be finite");
  }
  const double norm_a = Norm(q.a);
  if (norm_a == 0.0) {
    return Status::InvalidArgument(
        "top-k distance is undefined for an all-zero query normal");
  }
  if (k == 0) {
    return Status::InvalidArgument("k must be positive");
  }
  TopKResult result;
  const size_t n = phi.size();
  result.stats.num_points = n;
  result.stats.verified_intermediate = n;
  result.stats.index_used = -1;
  // Clamp the reservation by n: a huge k must not allocate past the
  // candidate count (see TopKBuffer).
  TopKBuffer buffer(k, n);
  // On the mirror only the rows f32 cannot reject get an exact f64
  // residual; every offered (id, distance) pair is the f64 one, so the
  // buffer contents equal the pure f64 scan's.
  const MixedQueryPlan plan = ScanPlan(phi, q);
  PLANAR_RETURN_IF_ERROR(OfferMatches(MatrixClassifier(phi, q, plan), n,
                                      /*id_offset=*/0, q, deadline, &buffer));
  result.neighbors = buffer.TakeSorted();
  return result;
}

}  // namespace planar
