// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Portable scalar f32 kernels (the canonical eight-lane blocked-summation
// reference) and their one-time runtime dispatch. Compiled with
// -ffp-contract=off like every kernel TU, so the per-lane multiply-adds
// are never fused and the AVX2 f32 path reproduces these results
// bit-for-bit (see the DotOpsF32 contract in kernels.h).

#include "core/kernels/kernels.h"

namespace planar {
namespace kernels {

namespace {

// The canonical f32 blocked dot product: eight partial sums over lanes
// j % 8, reduced as t_l = s_l + s_{l+4} then ((t0 + t2) + (t1 + t3)), and
// a sequential tail. Mirrors how one __m256 of eight floats is reduced
// (low/high 128-bit halves added first), so the AVX2 implementation can
// match it exactly.
float DotOneF32Scalar(const float* a, const float* row, size_t dim) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  float s4 = 0.0f, s5 = 0.0f, s6 = 0.0f, s7 = 0.0f;
  size_t j = 0;
  for (; j + 8 <= dim; j += 8) {
    s0 += a[j] * row[j];
    s1 += a[j + 1] * row[j + 1];
    s2 += a[j + 2] * row[j + 2];
    s3 += a[j + 3] * row[j + 3];
    s4 += a[j + 4] * row[j + 4];
    s5 += a[j + 5] * row[j + 5];
    s6 += a[j + 6] * row[j + 6];
    s7 += a[j + 7] * row[j + 7];
  }
  const float t0 = s0 + s4;
  const float t1 = s1 + s5;
  const float t2 = s2 + s6;
  const float t3 = s3 + s7;
  float tail = 0.0f;
  for (; j < dim; ++j) tail += a[j] * row[j];
  return ((t0 + t2) + (t1 + t3)) + tail;
}

// The band-classify reference: one canonical f32 dot per row, then the
// two strict band compares (NaN fails both and lands in the band).
template <typename RowAt>
void ClassifyF32Scalar(const float* a, size_t dim, RowAt row_at,
                       size_t count, float bias, float band, bool le,
                       uint64_t* sure, uint64_t* band_rows) {
  for (size_t w = 0; w < kMaskWords; ++w) sure[w] = band_rows[w] = 0;
  for (size_t i = 0; i < count; ++i) {
    const float r = DotOneF32Scalar(a, row_at(i), dim) + bias;
    const bool accept = le ? r < -band : r > band;
    const bool reject = le ? r > band : r < -band;
    sure[i / 64] |= static_cast<uint64_t>(accept) << (i % 64);
    band_rows[i / 64] |= static_cast<uint64_t>(!(accept || reject))
                         << (i % 64);
  }
}

void ClassifyGatherF32Scalar(const float* a, size_t dim, const float* rows,
                             size_t stride, const uint32_t* ids, size_t count,
                             float bias, float band, bool le, uint64_t* sure,
                             uint64_t* band_rows) {
  ClassifyF32Scalar(
      a, dim,
      [&](size_t i) { return rows + static_cast<size_t>(ids[i]) * stride; },
      count, bias, band, le, sure, band_rows);
}

void ClassifyRangeF32Scalar(const float* a, size_t dim, const float* rows,
                            size_t stride, size_t first_row, size_t count,
                            float bias, float band, bool le, uint64_t* sure,
                            uint64_t* band_rows) {
  ClassifyF32Scalar(
      a, dim, [&](size_t i) { return rows + (first_row + i) * stride; },
      count, bias, band, le, sure, band_rows);
}

constexpr DotOpsF32 kScalarOpsF32 = {&DotOneF32Scalar,
                                     &ClassifyGatherF32Scalar,
                                     &ClassifyRangeF32Scalar,
                                     "scalar-f32"};

const DotOpsF32& DispatchF32() {
  // Piggybacks on the f64 dispatch decision: SimdEnabled() is false when
  // PLANAR_DISABLE_SIMD is set or the CPU lacks avx2+fma, and the f32
  // backend must always match the f64 one (a mixed scalar/AVX2 pairing
  // would be harmless for correctness but confusing to benchmark).
  if (!SimdEnabled()) return kScalarOpsF32;
  const DotOpsF32* avx2 = Avx2OpsF32();
  if (avx2 != nullptr) return *avx2;
  return kScalarOpsF32;
}

}  // namespace

#if !PLANAR_HAVE_AVX2
const DotOpsF32* Avx2OpsF32() { return nullptr; }
#endif

const DotOpsF32& ScalarOpsF32() { return kScalarOpsF32; }

const DotOpsF32& OpsF32() {
  static const DotOpsF32& ops = DispatchF32();
  return ops;
}

}  // namespace kernels
}  // namespace planar
