// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// AVX2 f32 kernels for the mixed-precision mirror path. Compiled with
// -mavx2 -mfma -ffp-contract=off like the f64 AVX2 TU; nothing here runs
// unless Avx2OpsF32() verified cpuid support at dispatch time.
//
// Bit-identical contract (DotOpsF32 in kernels.h): one __m256 accumulator
// holds eight per-lane partial sums (indices j % 8), reduced as
// t_l = s_l + s_{l+4} (adding the low and high 128-bit halves) and then
// ((t0 + t2) + (t1 + t3)) — exactly the scalar f32 reference's order.

#include "core/kernels/kernels.h"

#if PLANAR_HAVE_AVX2

#include <immintrin.h>

#include <algorithm>

namespace planar {
namespace kernels {

namespace {

// Reduces an 8-lane f32 accumulator in the canonical order: low/high
// 128-bit halves added first (t_l = s_l + s_{l+4}), then the 4-lane
// ((t0 + t2) + (t1 + t3)) reduction, matching the scalar reference.
inline float ReduceBlockedF32(__m256 acc) {
  const __m128 lo = _mm256_castps256_ps128(acc);      // [s0, s1, s2, s3]
  const __m128 hi = _mm256_extractf128_ps(acc, 1);    // [s4, s5, s6, s7]
  const __m128 t = _mm_add_ps(lo, hi);                // [t0, t1, t2, t3]
  const __m128 pair = _mm_add_ps(t, _mm_movehl_ps(t, t));  // [t0+t2, t1+t3]
  const __m128 swapped = _mm_shuffle_ps(pair, pair, 0x55);
  return _mm_cvtss_f32(_mm_add_ss(pair, swapped));
}

// Sequential tail for dim % 8 trailing entries, same order as the scalar
// reference's tail loop.
inline float TailDotF32(const float* a, const float* row, size_t from,
                        size_t dim) {
  float tail = 0.0f;
  for (size_t j = from; j < dim; ++j) tail += a[j] * row[j];
  return tail;
}

float DotOneF32Avx2(const float* a, const float* row, size_t dim) {
  __m256 acc = _mm256_setzero_ps();
  size_t j = 0;
  for (; j + 8 <= dim; j += 8) {
    acc = _mm256_add_ps(
        acc, _mm256_mul_ps(_mm256_loadu_ps(a + j), _mm256_loadu_ps(row + j)));
  }
  return ReduceBlockedF32(acc) + TailDotF32(a, row, j, dim);
}

// Rows ahead of the reduced group that the gathered classify prefetches.
constexpr size_t kPrefetchRowsF32 = 16;

// The fused band classify: eight rows per step, one lane each. Per row
// the accumulator lanes are the canonical partial sums s0..s7. Adding
// each row's 128-bit halves (paired across rows k and k + 4 by one
// permute) gives t_l = s_l + s_{l+4}; a per-lane 4x4 transpose then puts
// each t_l of the eight rows in one vector, so the ((t0 + t2) + (t1 +
// t3)) reduction, the sequential tail, the bias and both band compares
// run vertically — the same IEEE operations, in the same order, as
// DotOneF32Scalar and the scalar compares. A short last group repeats
// its last row and masks the extra lanes off.
template <bool kGathered, typename RowAt>
void ClassifyF32Avx2(const float* a, size_t dim, RowAt row_at, size_t count,
                     float bias, float band, bool le, uint64_t* sure,
                     uint64_t* band_rows, const float* rows, size_t stride,
                     const uint32_t* ids) {
  for (size_t w = 0; w < kMaskWords; ++w) sure[w] = band_rows[w] = 0;
  const size_t main = dim & ~static_cast<size_t>(7);
  const __m256 zero = _mm256_setzero_ps();
  const __m256 bias_v = _mm256_set1_ps(bias);
  // Rows below -band or above +band are decided by f32 alone: the query
  // direction picks which side accepts.
  const __m256 lo_edge = _mm256_set1_ps(-band);
  const __m256 hi_edge = _mm256_set1_ps(band);
  if constexpr (kGathered) {
    PrefetchRows(rows, stride * sizeof(float), ids,
                 std::min(count, kPrefetchRowsF32));
  }
  for (size_t i = 0; i < count; i += 8) {
    if constexpr (kGathered) {
      const size_t ahead = std::min(count, i + 8 + kPrefetchRowsF32);
      if (ahead > i + kPrefetchRowsF32) {
        const size_t from = i + kPrefetchRowsF32;
        PrefetchRows(rows, stride * sizeof(float), ids + from, ahead - from);
      }
    }
    const size_t last = count - 1;
    const float* r[8];
    for (size_t l = 0; l < 8; ++l) r[l] = row_at(std::min(i + l, last));
    __m256 sum = zero;
    if (main != 0) {
      __m256 acc[8];
      for (size_t l = 0; l < 8; ++l) acc[l] = zero;
      for (size_t j = 0; j < main; j += 8) {
        const __m256 av = _mm256_loadu_ps(a + j);
        for (size_t l = 0; l < 8; ++l) {
          acc[l] = _mm256_add_ps(acc[l],
                                 _mm256_mul_ps(av, _mm256_loadu_ps(r[l] + j)));
        }
      }
      // q[k] = [t0..t3 of row k | t0..t3 of row k + 4].
      __m256 q[4];
      for (size_t k = 0; k < 4; ++k) {
        q[k] = _mm256_add_ps(_mm256_permute2f128_ps(acc[k], acc[k + 4], 0x20),
                             _mm256_permute2f128_ps(acc[k], acc[k + 4], 0x31));
      }
      const __m256 u0 = _mm256_unpacklo_ps(q[0], q[1]);  // t0 t0 t1 t1
      const __m256 u1 = _mm256_unpackhi_ps(q[0], q[1]);  // t2 t2 t3 t3
      const __m256 u2 = _mm256_unpacklo_ps(q[2], q[3]);
      const __m256 u3 = _mm256_unpackhi_ps(q[2], q[3]);
      // Lanes in row order 0 1 2 3 | 4 5 6 7.
      const __m256 t0 = _mm256_shuffle_ps(u0, u2, 0x44);
      const __m256 t1 = _mm256_shuffle_ps(u0, u2, 0xEE);
      const __m256 t2 = _mm256_shuffle_ps(u1, u3, 0x44);
      const __m256 t3 = _mm256_shuffle_ps(u1, u3, 0xEE);
      sum = _mm256_add_ps(_mm256_add_ps(t0, t2), _mm256_add_ps(t1, t3));
    }
    __m256 tail = zero;
    for (size_t j = main; j < dim; ++j) {
      const __m256 x = _mm256_set_ps(r[7][j], r[6][j], r[5][j], r[4][j],
                                     r[3][j], r[2][j], r[1][j], r[0][j]);
      tail = _mm256_add_ps(tail, _mm256_mul_ps(_mm256_set1_ps(a[j]), x));
    }
    const __m256 res = _mm256_add_ps(_mm256_add_ps(sum, tail), bias_v);
    // Ordered strict compares: NaN is neither below nor above an edge.
    const uint64_t below = static_cast<uint64_t>(
        _mm256_movemask_ps(_mm256_cmp_ps(res, lo_edge, _CMP_LT_OQ)));
    const uint64_t above = static_cast<uint64_t>(
        _mm256_movemask_ps(_mm256_cmp_ps(res, hi_edge, _CMP_GT_OQ)));
    const size_t valid = std::min<size_t>(8, count - i);
    const uint64_t lanes = (uint64_t{1} << valid) - 1;
    sure[i / 64] |= ((le ? below : above) & lanes) << (i % 64);
    band_rows[i / 64] |= (~(below | above) & lanes) << (i % 64);
  }
}

void ClassifyGatherF32Avx2(const float* a, size_t dim, const float* rows,
                           size_t stride, const uint32_t* ids, size_t count,
                           float bias, float band, bool le, uint64_t* sure,
                           uint64_t* band_rows) {
  ClassifyF32Avx2<true>(
      a, dim,
      [&](size_t i) { return rows + static_cast<size_t>(ids[i]) * stride; },
      count, bias, band, le, sure, band_rows, rows, stride, ids);
}

void ClassifyRangeF32Avx2(const float* a, size_t dim, const float* rows,
                          size_t stride, size_t first_row, size_t count,
                          float bias, float band, bool le, uint64_t* sure,
                          uint64_t* band_rows) {
  const float* base = rows + first_row * stride;
  ClassifyF32Avx2<false>(
      a, dim, [&](size_t i) { return base + i * stride; }, count, bias, band,
      le, sure, band_rows, rows, stride, nullptr);
}

constexpr DotOpsF32 kAvx2OpsF32 = {&DotOneF32Avx2,
                                   &ClassifyGatherF32Avx2,
                                   &ClassifyRangeF32Avx2,
                                   "avx2-f32"};

}  // namespace

const DotOpsF32* Avx2OpsF32() {
  // Same once-checked cpuid latch as the f64 path.
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return supported ? &kAvx2OpsF32 : nullptr;
}

}  // namespace kernels
}  // namespace planar

#endif  // PLANAR_HAVE_AVX2
