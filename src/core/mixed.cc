// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Band derivation (summary; full walk-through in DESIGN.md section 5j).
// The f32 residual r32 = fl32(<a32, x32> - b32) differs from the f64
// reference residual r64 by (1) conversion error of a, b, and the mirror
// rows — relative u32 = 2^-24 per value, absolute ~2^-150 in the f32
// subnormal range, (2) f32 summation rounding, bounded by gamma_dim * S
// where S = |b| + sum_i |a_i| * M_i envelopes every partial sum via the
// grow-only column bounds M_i, and (3) the f64 reference's own rounding,
// ~dim * 2^-53 * S. The band adds them with ~4x margin:
//
//   band = 4 (dim+4) u32 S  +  2^-148 (1 + sum_i (|a_i| + M_i))
//        + (2 dim + 4) 2^-126
//
// The middle term covers subnormal conversion error amplified by the
// opposite factor (|a_i| * err(x_i) and M_i * err(a_i)); the last covers
// per-operation underflow rounding. The plan is unusable when 4S or the
// band leave the finite float range, so f32 partial sums can never
// overflow to infinity and make a wrong sure decision; NaN residuals fail
// both band compares and always re-verify in f64.

#include "core/mixed.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/macros.h"
#include "core/kernels/kernels.h"

namespace planar {

namespace {

// f32-ok: range constants for the band and overflow guards.
constexpr double kFloatMax =
    static_cast<double>(std::numeric_limits<float>::max());

// Reads an on/off environment flag exactly once per call site (the
// callers latch the result in a static). Same contract as
// PLANAR_DISABLE_SIMD: unset, empty, or "0" means false.
bool EnvFlagSet(const char* name) {
  // Read before any worker threads exist; nothing in the library calls
  // setenv, so the concurrent-getenv hazard cannot arise.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return false;
  return !(env[0] == '0' && env[1] == '\0');
}

}  // namespace

bool MixedPrecisionRuntimeEnabled() {
  static const bool enabled = !EnvFlagSet("PLANAR_DISABLE_F32");
  return enabled;
}

bool MixedPrecisionForcedOn() {
  static const bool forced = EnvFlagSet("PLANAR_FORCE_F32");
  return forced;
}

MixedQueryPlan MakeMixedPlan(const double* a, size_t dim, double b,
                             bool less_equal, const RowMatrix& phi) {
  if (phi.f32_data() == nullptr || phi.empty() || phi.dim() != dim) {
    MixedQueryPlan plan;
    plan.less_equal = less_equal;
    return plan;
  }
  std::vector<double> env(dim);
  for (size_t i = 0; i < dim; ++i) {
    env[i] = std::max(std::fabs(phi.ColumnMin(i)), std::fabs(phi.ColumnMax(i)));
  }
  return MakeMixedPlanWithEnvelope(a, dim, b, less_equal, env.data());
}

MixedQueryPlan MakeMixedPlanWithEnvelope(const double* a, size_t dim, double b,
                                         bool less_equal,
                                         const double* column_abs_max) {
  MixedQueryPlan plan;
  plan.less_equal = less_equal;
  if (!MixedPrecisionRuntimeEnabled()) return plan;
  if (dim == 0) return plan;
  const double u32 = std::ldexp(1.0, -24);
  double s = std::fabs(b);
  double abs_slack = 1.0;
  for (size_t i = 0; i < dim; ++i) {
    const double mi = column_abs_max[i];
    s += std::fabs(a[i]) * mi;
    abs_slack += std::fabs(a[i]) + mi;
  }
  // Overflow guard: with 4S inside the float range no f32 partial sum can
  // reach infinity, so a finite (possibly wrong-by-less-than-band) f32
  // residual is guaranteed. The !(<) form also rejects NaN envelopes
  // (non-finite a, b, or column bounds).
  if (!(s * 4.0 < kFloatMax)) return plan;
  const double band_d = 4.0 * static_cast<double>(dim + 4) * u32 * s +
                        std::ldexp(abs_slack, -148) +
                        (2.0 * static_cast<double>(dim) + 4.0) *
                            std::ldexp(1.0, -126);
  if (!(band_d < kFloatMax)) return plan;
  // Round the band up one ulp so the float compare is conservative even
  // when the double->float cast rounded down.
  plan.band = std::nextafterf(static_cast<float>(band_d),
                              std::numeric_limits<float>::infinity());
  plan.a32.resize(dim);
  for (size_t i = 0; i < dim; ++i) plan.a32[i] = FloatMirrorValue(a[i]);
  plan.bias32 = FloatMirrorValue(-b);
  plan.usable = true;
  return plan;
}

BlockClassifier::BlockClassifier(const double* a, size_t dim, double b,
                                 bool less_equal, const double* rows,
                                 const float* rows32, size_t stride,
                                 const MixedQueryPlan* mixed)
    : a_(a),
      dim_(dim),
      bias_(-b),
      le_(less_equal),
      rows_(rows),
      rows32_(rows32),
      stride_(stride),
      mixed_(mixed != nullptr && mixed->usable && rows32 != nullptr ? mixed
                                                                    : nullptr) {
  PLANAR_DCHECK(mixed_ == nullptr || mixed_->less_equal == less_equal);
}

template <typename IdAt>
void BlockClassifier::Resolve(const IdAt& id_at, const uint64_t* sure,
                              const uint64_t* band, uint64_t* accept,
                              double* res) const {
  using kernels::kMaskWords;
  // Rows f32 cannot decide go to f64; with residuals requested the sure
  // accepts do too (a sure reject fails the predicate in f64 as well, by
  // the band bound, so it never needs a residual).
  uint64_t open[kMaskWords];
  for (size_t w = 0; w < kMaskWords; ++w) {
    open[w] = res != nullptr ? sure[w] | band[w] : band[w];
    accept[w] = res != nullptr ? 0 : sure[w];
  }
  uint32_t ids[kernels::kBlockRows];
  uint16_t pos[kernels::kBlockRows];
  size_t count = 0;
  kernels::ForEachSetBit(open, [&](size_t i) {
    ids[count] = id_at(i);
    pos[count++] = static_cast<uint16_t>(i);
  });
  if (count == 0) return;
  double exact[kernels::kBlockRows];
  uint64_t hit[kMaskWords];
  kernels::Ops().classify_gather(a_, dim_, rows_, stride_, ids, count, bias_,
                                 le_, exact, hit);
  kernels::ForEachSetBit(hit, [&](size_t j) {
    const size_t i = pos[j];
    accept[i / 64] |= uint64_t{1} << (i % 64);
    if (res != nullptr) res[i] = exact[j];
  });
}

void BlockClassifier::Gather(const uint32_t* ids, size_t count,
                             uint64_t* accept, double* res) const {
  PLANAR_DCHECK(count <= kernels::kBlockRows);
  if (mixed_ == nullptr) {
    double scratch[kernels::kBlockRows];
    kernels::Ops().classify_gather(a_, dim_, rows_, stride_, ids, count,
                                   bias_, le_, res != nullptr ? res : scratch,
                                   accept);
    return;
  }
  uint64_t sure[kernels::kMaskWords];
  uint64_t band[kernels::kMaskWords];
  kernels::OpsF32().classify_gather(mixed_->a32.data(), dim_, rows32_,
                                    stride_, ids, count, mixed_->bias32,
                                    mixed_->band, le_, sure, band);
  Resolve([ids](size_t i) { return ids[i]; }, sure, band, accept, res);
}

void BlockClassifier::Range(size_t first_row, size_t count, uint64_t* accept,
                            double* res) const {
  PLANAR_DCHECK(count <= kernels::kBlockRows);
  if (mixed_ == nullptr) {
    double scratch[kernels::kBlockRows];
    kernels::Ops().classify_range(a_, dim_, rows_, stride_, first_row, count,
                                  bias_, le_, res != nullptr ? res : scratch,
                                  accept);
    return;
  }
  uint64_t sure[kernels::kMaskWords];
  uint64_t band[kernels::kMaskWords];
  kernels::OpsF32().classify_range(mixed_->a32.data(), dim_, rows32_, stride_,
                                   first_row, count, mixed_->bias32,
                                   mixed_->band, le_, sure, band);
  Resolve(
      [first_row](size_t i) { return static_cast<uint32_t>(first_row + i); },
      sure, band, accept, res);
}

}  // namespace planar
