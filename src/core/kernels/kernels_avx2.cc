// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// AVX2 kernels. This translation unit alone compiles with -mavx2 -mfma
// -ffp-contract=off (set in src/core/CMakeLists.txt; committed build files
// must never use -march=native — see CONTRIBUTING.md); nothing here runs
// unless Avx2Ops() verified cpuid support at dispatch time, so the rest of
// the binary stays runnable on any x86-64.
//
// Bit-identical contract (kernels.h): the vector accumulator's lane l holds
// the partial sum over indices j % 4 == l using per-lane IEEE mul then add
// (no FMA contraction of these two ops), and the horizontal reduction
// computes ((s0 + s2) + (s1 + s3)) — exactly the scalar reference. The FMA
// unit still buys the throughput win: vmulpd/vaddpd dual-issue on the FMA
// ports, and processing four rows per iteration keeps all chains busy.

#include "core/kernels/kernels.h"

#if PLANAR_HAVE_AVX2

#include <immintrin.h>

#include <algorithm>

namespace planar {
namespace kernels {

namespace {

// Reduces a 4-lane accumulator as ((s0 + s2) + (s1 + s3)).
inline double ReduceBlocked(__m256d acc) {
  const __m128d lo = _mm256_castpd256_pd128(acc);       // [s0, s1]
  const __m128d hi = _mm256_extractf128_pd(acc, 1);     // [s2, s3]
  const __m128d pair = _mm_add_pd(lo, hi);              // [s0+s2, s1+s3]
  const __m128d swapped = _mm_unpackhi_pd(pair, pair);  // [s1+s3, s1+s3]
  return _mm_cvtsd_f64(_mm_add_sd(pair, swapped));
}

// Sequential tail for dim % 4 trailing entries, same order as the scalar
// reference's tail loop.
inline double TailDot(const double* a, const double* row, size_t from,
                      size_t dim) {
  double tail = 0.0;
  for (size_t j = from; j < dim; ++j) tail += a[j] * row[j];
  return tail;
}

double DotOneAvx2(const double* a, const double* row, size_t dim) {
  __m256d acc = _mm256_setzero_pd();
  size_t j = 0;
  for (; j + 4 <= dim; j += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(row + j)));
  }
  return ReduceBlocked(acc) + TailDot(a, row, j, dim);
}

// Four rows per iteration: independent accumulation chains per row hide
// the add latency; the shared query vector loads are hoisted by the
// compiler across the row group.
void DotRangeAvx2(const double* a, size_t dim, const double* rows,
                  size_t stride, size_t first_row, size_t count, double bias,
                  double* out) {
  const double* row = rows + first_row * stride;
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const double* r0 = row;
    const double* r1 = row + stride;
    const double* r2 = row + 2 * stride;
    const double* r3 = row + 3 * stride;
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    __m256d acc2 = _mm256_setzero_pd();
    __m256d acc3 = _mm256_setzero_pd();
    size_t j = 0;
    for (; j + 4 <= dim; j += 4) {
      const __m256d av = _mm256_loadu_pd(a + j);
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(av, _mm256_loadu_pd(r0 + j)));
      acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(av, _mm256_loadu_pd(r1 + j)));
      acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(av, _mm256_loadu_pd(r2 + j)));
      acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(av, _mm256_loadu_pd(r3 + j)));
    }
    out[i] = ReduceBlocked(acc0) + TailDot(a, r0, j, dim) + bias;
    out[i + 1] = ReduceBlocked(acc1) + TailDot(a, r1, j, dim) + bias;
    out[i + 2] = ReduceBlocked(acc2) + TailDot(a, r2, j, dim) + bias;
    out[i + 3] = ReduceBlocked(acc3) + TailDot(a, r3, j, dim) + bias;
    row += 4 * stride;
  }
  for (; i < count; ++i, row += stride) {
    out[i] = DotOneAvx2(a, row, dim) + bias;
  }
}

// Rows ahead of the reduced group that the gathered classify prefetches:
// far enough that a DRAM miss issued here lands before its group runs.
constexpr size_t kPrefetchRows = 16;

// The fused classify: four rows per step, one lane each. Per row the
// accumulator lanes are the canonical partial sums s0..s3; a 4x4
// transpose puts each s_l of the four rows in one vector, so the
// ((s0 + s2) + (s1 + s3)) reduction, the sequential tail, the bias, and
// the compare all run vertically — the same IEEE operations, in the same
// order, as DotOneScalar followed by the scalar compare. A short last
// group repeats its last row and masks the extra lanes off.
template <bool kGathered, typename RowAt>
void ClassifyAvx2(const double* a, size_t dim, RowAt row_at, size_t count,
                  double bias, bool le, double* res, uint64_t* accept,
                  const double* rows, size_t stride, const uint32_t* ids) {
  for (size_t w = 0; w < kMaskWords; ++w) accept[w] = 0;
  const size_t main = dim & ~static_cast<size_t>(3);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d bias_v = _mm256_set1_pd(bias);
  if constexpr (kGathered) {
    // The first rows' misses overlap each other instead of queueing
    // behind the first reduction.
    PrefetchRows(rows, stride * sizeof(double), ids,
                 std::min(count, kPrefetchRows));
  }
  for (size_t i = 0; i < count; i += 4) {
    if constexpr (kGathered) {
      const size_t ahead = std::min(count, i + 4 + kPrefetchRows);
      if (ahead > i + kPrefetchRows) {
        const size_t from = i + kPrefetchRows;
        PrefetchRows(rows, stride * sizeof(double), ids + from, ahead - from);
      }
    }
    const size_t last = count - 1;
    const double* r0 = row_at(i);
    const double* r1 = row_at(std::min(i + 1, last));
    const double* r2 = row_at(std::min(i + 2, last));
    const double* r3 = row_at(std::min(i + 3, last));
    __m256d sum = zero;
    if (main != 0) {
      __m256d acc0 = zero;
      __m256d acc1 = zero;
      __m256d acc2 = zero;
      __m256d acc3 = zero;
      for (size_t j = 0; j < main; j += 4) {
        const __m256d av = _mm256_loadu_pd(a + j);
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(av, _mm256_loadu_pd(r0 + j)));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(av, _mm256_loadu_pd(r1 + j)));
        acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(av, _mm256_loadu_pd(r2 + j)));
        acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(av, _mm256_loadu_pd(r3 + j)));
      }
      const __m256d t0 = _mm256_unpacklo_pd(acc0, acc1);  // s0 s0 | s2 s2
      const __m256d t1 = _mm256_unpackhi_pd(acc0, acc1);  // s1 s1 | s3 s3
      const __m256d t2 = _mm256_unpacklo_pd(acc2, acc3);
      const __m256d t3 = _mm256_unpackhi_pd(acc2, acc3);
      const __m256d s0 = _mm256_permute2f128_pd(t0, t2, 0x20);
      const __m256d s2 = _mm256_permute2f128_pd(t0, t2, 0x31);
      const __m256d s1 = _mm256_permute2f128_pd(t1, t3, 0x20);
      const __m256d s3 = _mm256_permute2f128_pd(t1, t3, 0x31);
      sum = _mm256_add_pd(_mm256_add_pd(s0, s2), _mm256_add_pd(s1, s3));
    }
    __m256d tail = zero;
    for (size_t j = main; j < dim; ++j) {
      const __m256d x = _mm256_set_pd(r3[j], r2[j], r1[j], r0[j]);
      tail = _mm256_add_pd(tail, _mm256_mul_pd(_mm256_set1_pd(a[j]), x));
    }
    const __m256d r = _mm256_add_pd(_mm256_add_pd(sum, tail), bias_v);
    const size_t valid = std::min<size_t>(4, count - i);
    // Ordered compares: NaN never accepts.
    const __m256d hit = le ? _mm256_cmp_pd(r, zero, _CMP_LE_OQ)
                           : _mm256_cmp_pd(r, zero, _CMP_GE_OQ);
    uint64_t bits = static_cast<uint64_t>(_mm256_movemask_pd(hit));
    if (valid == 4) {
      _mm256_storeu_pd(res + i, r);
    } else {
      alignas(32) double lanes[4];
      _mm256_store_pd(lanes, r);
      for (size_t l = 0; l < valid; ++l) res[i + l] = lanes[l];
      bits &= (uint64_t{1} << valid) - 1;
    }
    accept[i / 64] |= bits << (i % 64);
  }
}

void ClassifyGatherAvx2(const double* a, size_t dim, const double* rows,
                        size_t stride, const uint32_t* ids, size_t count,
                        double bias, bool le, double* res, uint64_t* accept) {
  ClassifyAvx2<true>(
      a, dim,
      [&](size_t i) { return rows + static_cast<size_t>(ids[i]) * stride; },
      count, bias, le, res, accept, rows, stride, ids);
}

void ClassifyRangeAvx2(const double* a, size_t dim, const double* rows,
                       size_t stride, size_t first_row, size_t count,
                       double bias, bool le, double* res, uint64_t* accept) {
  const double* base = rows + first_row * stride;
  ClassifyAvx2<false>(
      a, dim, [&](size_t i) { return base + i * stride; }, count, bias, le,
      res, accept, rows, stride, nullptr);
}

constexpr DotOps kAvx2Ops = {&DotOneAvx2,
                             &DotRangeAvx2,
                             &ClassifyGatherAvx2,
                             &ClassifyRangeAvx2,
                             "avx2"};

}  // namespace

const DotOps* Avx2Ops() {
  // cpuid checked once; the TU being compiled does not imply the CPU runs
  // AVX2 (the binary must start on any x86-64).
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return supported ? &kAvx2Ops : nullptr;
}

}  // namespace kernels
}  // namespace planar

#endif  // PLANAR_HAVE_AVX2
