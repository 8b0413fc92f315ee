// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Vectorized verification kernels: batched multi-row dot products over the
// row-major phi matrix, and fused classify kernels that compute a block's
// residuals, compare them in registers and emit 64-bit row masks. These
// are the inner loops of II verification (the dominant query cost,
// Figures 9-11 of the paper), the scan baseline, and key construction in
// Build/Rebuild.
//
// Dispatch: an AVX2/FMA-unit implementation is selected once at startup
// when (a) the binary was built with the AVX2 translation unit (x86-64 and
// the compiler accepts -mavx2 -mfma; never -march=native), (b) the CPU
// reports avx2+fma, and (c) the PLANAR_DISABLE_SIMD environment variable is
// unset/empty/"0". Otherwise the portable scalar implementation runs.
//
// Determinism contract: every implementation computes the dot product with
// the SAME fixed summation order — four independent partial sums over lanes
// j % 4, reduced as ((s0 + s2) + (s1 + s3)), plus a sequential tail for
// dim % 4 trailing entries — with no FMA contraction of the per-lane
// multiply-adds (the kernel TUs compile with -ffp-contract=off). The scalar
// and AVX2 paths therefore produce bit-identical results; switching
// backends can never change an accepted-id set. This blocked order differs
// from the sequential geometry/vec.h Dot by ordinary rounding
// (O(dim) * 0.5 ulp); key-boundary effects are absorbed by the index's
// epsilon_band guard, which routes near-boundary keys into the verified
// intermediate interval.

#ifndef PLANAR_CORE_KERNELS_KERNELS_H_
#define PLANAR_CORE_KERNELS_KERNELS_H_

#include <bit>
#include <cstddef>
#include <cstdint>

namespace planar {
namespace kernels {

/// Rows processed per verification block. One deadline poll and one
/// residual buffer refill per block, so cancellation stays cooperative
/// without a clock read per row. Power of two, and kept equal to
/// kDeadlineCheckInterval so the polling cadence matches the pre-batched
/// scalar loops.
inline constexpr size_t kBlockRows = 256;

/// 64-bit words in one block's row mask: bit i % 64 of word i / 64
/// describes row i of the block.
inline constexpr size_t kMaskWords = kBlockRows / 64;

/// The dispatchable kernel set. All functions are pure and thread-safe.
struct DotOps {
  /// dot(a, row) over `dim` entries in the canonical blocked order.
  double (*dot_one)(const double* a, const double* row, size_t dim);

  /// out[i] = dot(a, rows + (first_row + i) * stride) + bias.
  /// Contiguous form for sequential scans and bulk key construction.
  void (*dot_range)(const double* a, size_t dim, const double* rows,
                    size_t stride, size_t first_row, size_t count,
                    double bias, double* out);

  /// Fused verify of one block of count <= kBlockRows rows taken by id:
  /// res[i] = dot(a, rows + ids[i] * stride) + bias, bit-identical to
  /// dot_one plus the bias, and bit i of `accept` is set iff res[i] <= 0 (le) or
  /// res[i] >= 0 (!le). NaN residuals never accept. All kMaskWords words
  /// are written; bits at and past `count` are zero. The AVX2 form
  /// reduces four rows at once (vertically, in the canonical order),
  /// compares them in registers, and prefetches rows ahead of the one it
  /// is reducing.
  void (*classify_gather)(const double* a, size_t dim, const double* rows,
                          size_t stride, const uint32_t* ids, size_t count,
                          double bias, bool le, double* res,
                          uint64_t* accept);

  /// classify_gather over rows first_row, first_row + 1, ... (the
  /// sequential-scan form).
  void (*classify_range)(const double* a, size_t dim, const double* rows,
                         size_t stride, size_t first_row, size_t count,
                         double bias, bool le, double* res,
                         uint64_t* accept);

  /// Human-readable backend name ("scalar", "avx2").
  const char* name;
};

/// The single-precision kernel set, operating on the optional f32 mirror
/// of the phi matrix (RowMatrix::f32_data): the canonical f32 dot product
/// and the band classify the mixed-precision verifier runs on it.
///
/// Determinism contract (f32): every implementation computes the dot
/// product with the SAME fixed summation order — eight independent partial
/// sums over lanes j % 8, reduced as t_l = s_l + s_{l+4} for l in 0..3 and
/// then ((t0 + t2) + (t1 + t3)), plus a sequential tail for dim % 8
/// trailing entries — with no FMA contraction (same -ffp-contract=off TUs
/// as the f64 kernels). Eight lanes because one __m256 holds eight floats;
/// the scalar reference mirrors that reduction tree exactly, so scalar and
/// AVX2 f32 residuals are bit-identical and the mixed-precision band
/// classification (core/mixed.h) never depends on the dispatched backend.
struct DotOpsF32 {
  /// dot(a, row) over `dim` entries in the canonical f32 blocked order.
  float (*dot_one)(const float* a, const float* row, size_t dim);

  /// Fused band classification of one block of count <= kBlockRows
  /// mirror rows taken by id (DESIGN.md section 5j). With
  /// r = dot(a, rows + ids[i] * stride) + bias in the canonical f32
  /// order, bit i of `sure` is set iff r < -band (le) or r > band (!le)
  /// — a sure accept — and bit i of `band_rows` iff r is neither a sure
  /// accept nor a sure reject (r > band for le, r < -band for !le), so
  /// NaN lands in the band. All kMaskWords words of both masks are
  /// written; bits at and past `count` are zero. Eight rows are reduced
  /// vertically per step, and the gathered form prefetches ahead.
  void (*classify_gather)(const float* a, size_t dim, const float* rows,
                          size_t stride, const uint32_t* ids, size_t count,
                          float bias, float band, bool le, uint64_t* sure,
                          uint64_t* band_rows);

  /// classify_gather over rows first_row, first_row + 1, ...
  void (*classify_range)(const float* a, size_t dim, const float* rows,
                         size_t stride, size_t first_row, size_t count,
                         float bias, float band, bool le, uint64_t* sure,
                         uint64_t* band_rows);

  /// Human-readable backend name ("scalar-f32", "avx2-f32").
  const char* name;
};

/// The active kernel set. Dispatch is decided exactly once (first call),
/// honoring the PLANAR_DISABLE_SIMD environment variable.
const DotOps& Ops();

/// The portable scalar implementation (always available; the reference
/// the SIMD paths must match bit-for-bit).
const DotOps& ScalarOps();

/// The AVX2/FMA-unit implementation, or nullptr when the binary was built
/// without it. Exposed so equivalence tests can compare both paths in one
/// process regardless of which one dispatch selected.
const DotOps* Avx2Ops();

/// The active f32 kernel set. Follows the same one-time dispatch decision
/// as Ops(): PLANAR_DISABLE_SIMD (or a CPU without avx2+fma) selects the
/// scalar f32 reference. PLANAR_DISABLE_F32 is handled one layer up, in
/// core/mixed.h — it gates whether the mixed-precision path runs at all,
/// not which f32 backend it uses.
const DotOpsF32& OpsF32();

/// The portable scalar f32 implementation (always available; the reference
/// the f32 SIMD path must match bit-for-bit).
const DotOpsF32& ScalarOpsF32();

/// The AVX2/FMA f32 implementation, or nullptr when the binary was built
/// without it.
const DotOpsF32* Avx2OpsF32();

/// True iff Ops() is a SIMD implementation.
bool SimdEnabled();

/// Name of the active backend (Ops().name).
const char* BackendName();

/// Number of set bits in a block mask (kMaskWords words).
inline size_t MaskCount(const uint64_t* mask) {
  size_t total = 0;
  for (size_t w = 0; w < kMaskWords; ++w) {
    total += static_cast<size_t>(std::popcount(mask[w]));
  }
  return total;
}

/// Calls fn(i) for every set bit i of a block mask, in ascending order.
template <typename Fn>
inline void ForEachSetBit(const uint64_t* mask, Fn&& fn) {
  for (size_t w = 0; w < kMaskWords; ++w) {
    for (uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
      fn(w * 64 + static_cast<size_t>(std::countr_zero(bits)));
    }
  }
}

/// Hints the cache to fetch the rows ids[0..count) of a row-major matrix
/// (`row_bytes` bytes per row, first and last line of each row).
inline void PrefetchRows(const void* rows, size_t row_bytes,
                         const uint32_t* ids, size_t count) {
#if defined(__GNUC__) || defined(__clang__)
  const char* base = static_cast<const char*>(rows);
  for (size_t i = 0; i < count; ++i) {
    const char* row = base + static_cast<size_t>(ids[i]) * row_bytes;
    __builtin_prefetch(row);
    __builtin_prefetch(row + row_bytes - 1);
  }
#else
  (void)rows;
  (void)row_bytes;
  (void)ids;
  (void)count;
#endif
}

}  // namespace kernels
}  // namespace planar

#endif  // PLANAR_CORE_KERNELS_KERNELS_H_
