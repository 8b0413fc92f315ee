// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Mixed-precision verification (DESIGN.md section 5j): classify candidate
// rows with the f32 mirror of the phi matrix against a conservatively
// widened accept band, and re-verify only the band rows in f64. The band
// is a per-query forward-error bound on |f32 residual - f64 residual|, so
// rows strictly outside it are decided by the f32 compare alone and the
// emitted ids, order, and stats stay bit-identical to the scalar f64
// reference — the same gate PR 3 applied to SIMD.
//
// Runtime control: PLANAR_DISABLE_F32 (read once, like
// PLANAR_DISABLE_SIMD) turns the whole path off even when
// PlanarIndexOptions::mixed_precision is set; PLANAR_FORCE_F32 turns it
// on for every PlanarIndexSet build at every d', which CI uses to run
// the standard suites through the mixed path. Without either, a set
// honours the option only from d' = kMixedMinDim up.

#ifndef PLANAR_CORE_MIXED_H_
#define PLANAR_CORE_MIXED_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/row_matrix.h"

namespace planar {

/// The smallest phi dimensionality d' at which a PlanarIndexSet turns the
/// requested f32 mirror on. bench_kernels' batch_verify_mixed runs at
/// 0.40x the f64 kernel at d' = 2 and 0.45x at d' = 4, but 1.45x at
/// d' = 8 and 1.32x at d' = 16 (4-vCPU host): below 8 the extra f32
/// classify pass costs more than the halved row bytes save.
inline constexpr size_t kMixedMinDim = 8;

/// False iff the PLANAR_DISABLE_F32 environment variable is set to a
/// non-empty value other than "0". Read exactly once per process.
bool MixedPrecisionRuntimeEnabled();

/// True iff the PLANAR_FORCE_F32 environment variable is set to a
/// non-empty value other than "0". PlanarIndexSet builds then behave as
/// if options.index_options.mixed_precision were true, at every d'.
bool MixedPrecisionForcedOn();

/// Per-query state for the mixed verify path. Built once per query by
/// MakeMixedPlan; read-only afterwards (shared across parallel-verify
/// shards without synchronization).
struct MixedQueryPlan {
  /// False when the mirror is absent, the runtime switch is off, or the
  /// query/data magnitude envelope makes f32 classification unsound
  /// (values near the float range limit); callers then run pure f64.
  bool usable = false;
  bool less_equal = true;
  // f32-ok: mixed-precision module owns the sanctioned float surface.
  /// The query vector rounded to f32 (clamped like the mirror).
  std::vector<float> a32;
  /// -b rounded to f32: the bias handed to the f32 kernels, so their
  /// output is the f32 residual dot32(a32, row32) - b.
  float bias32 = 0.0f;
  /// Widened accept band: |f32 residual - f64 reference residual| < band
  /// for every row within the matrix's column bounds, with margin. An
  /// f32 residual < -band (less_equal) is a sure accept, > band a sure
  /// reject; everything else — including NaN — re-verifies in f64.
  float band = 0.0f;
};

/// Builds the mixed plan for verifying rows of `phi` against
/// residual(x) = <a, phi(x)> - b with the given comparison direction.
/// Returns an unusable plan unless the mirror is present, the runtime
/// switch is on, and the magnitude envelope admits a sound band.
MixedQueryPlan MakeMixedPlan(const double* a, size_t dim, double b,
                             bool less_equal, const RowMatrix& phi);

/// The envelope-based core of MakeMixedPlan: `column_abs_max[i]` must
/// bound |row[i]| for every row the plan will classify (grow-only bounds
/// are fine — a looser envelope only widens the band). This is the entry
/// point for row stores that are not RowMatrix, notably the ingest
/// DeltaBuffer's f32 mirror; the caller is responsible for only using the
/// plan against rows the envelope covers. Returns an unusable plan when
/// the runtime switch is off or the envelope is too large for a sound
/// f32 band.
MixedQueryPlan MakeMixedPlanWithEnvelope(const double* a, size_t dim, double b,
                                         bool less_equal,
                                         const double* column_abs_max);

/// Resolves one block of `blk` (<= kernels::kBlockRows) candidates whose
/// f32 residuals are in `res32`: writes a decision-residual array where
/// sure accepts/rejects become sentinel values (+/-1, chosen to pass or
/// fail the predicate) and band rows carry their exact f64 residual,
/// computed with one f64 dot_gather over just those rows. Feeding
/// `decision` to kernels::CompressAccept then emits exactly the ids, in
/// exactly the order, of the pure-f64 path. Returns the number of band
/// rows (the f64 re-verified count). `rows64`/`stride` address the f64
/// storage; `ids[i]` is the row id of res32[i].
// f32-ok: f32 residual input to the band classifier.
size_t MixedResolveBlock(const MixedQueryPlan& plan, const double* a,
                         size_t dim, double b, const double* rows64,
                         size_t stride, const uint32_t* ids,
                         const float* res32, size_t blk, double* decision);

/// MixedResolveBlock for consecutive row ids first_row, first_row + 1, ...
/// (the sequential-scan case).
// f32-ok: f32 residual input to the band classifier.
size_t MixedResolveBlockRange(const MixedQueryPlan& plan, const double* a,
                              size_t dim, double b, const double* rows64,
                              size_t stride, size_t first_row,
                              const float* res32, size_t blk,
                              double* decision);

/// Top-k pre-filter: compress-stores into `possible` the ids of every row
/// that is NOT a sure reject (sure accepts and band rows alike — top-k
/// needs exact residuals for everything that might match, so only the
/// sure-reject side of the band is exploitable). NaN f32 residuals stay
/// possible. Returns the number of ids stored; order is preserved.
// f32-ok: f32 residual input to the band classifier.
size_t MixedFilterPossible(const MixedQueryPlan& plan, const float* res32,
                           const uint32_t* ids, size_t blk,
                           uint32_t* possible);

}  // namespace planar

#endif  // PLANAR_CORE_MIXED_H_
