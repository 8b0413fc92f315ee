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

#include "core/kernels/kernels.h"
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

/// One query's verifier over one row-major row store: the exact f64 rows
/// and, when `mixed` is a usable plan, their f32 mirror (same layout).
/// Every verify consumer — the index block driver, the scan loops, the
/// batch scan group and the ingest delta overlay — classifies its blocks
/// through this one type and the fused classify kernels behind it
/// (kernels.h), so each accept decision is the pure-f64 one whichever
/// path or precision runs it.
///
/// With a usable plan a block costs one f32 band classify over every
/// row, then one f64 classify over just the rows f32 cannot decide (band
/// rows, plus the sure accepts when exact residuals are requested).
/// A null or unusable `mixed` runs pure f64. Holds pointers only; `a`,
/// the rows and the plan must outlive it.
class BlockClassifier {
 public:
  // f32-ok: the mirror rows feed the band classify.
  BlockClassifier(const double* a, size_t dim, double b, bool less_equal,
                  const double* rows, const float* rows32, size_t stride,
                  const MixedQueryPlan* mixed);

  /// Classifies count <= kernels::kBlockRows rows taken by id: bit i of
  /// `accept` (kernels::kMaskWords words) is set iff row ids[i]
  /// satisfies the predicate. When `res` is non-null, res[i] holds the
  /// exact f64 residual <a, row> - b of every accepted row i (other
  /// entries are unspecified) — what top-k distances need.
  void Gather(const uint32_t* ids, size_t count, uint64_t* accept,
              double* res) const;

  /// Gather over rows first_row, first_row + 1, ... (the scan form).
  void Range(size_t first_row, size_t count, uint64_t* accept,
             double* res) const;

 private:
  // Re-verifies in f64 the rows f32 left open and merges the verdicts.
  template <typename IdAt>
  void Resolve(const IdAt& id_at, const uint64_t* sure,
               const uint64_t* band, uint64_t* accept, double* res) const;

  const double* a_;
  size_t dim_;
  double bias_;
  bool le_;
  const double* rows_;
  // f32-ok: mirror rows for the band classify.
  const float* rows32_;
  size_t stride_;
  const MixedQueryPlan* mixed_;  // nullptr: pure f64
};

}  // namespace planar

#endif  // PLANAR_CORE_MIXED_H_
