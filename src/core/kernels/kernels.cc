// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Portable scalar kernels (the canonical blocked-summation reference) and
// the one-time runtime dispatch. This translation unit compiles with
// -ffp-contract=off so the per-lane multiply-adds are never fused into
// FMAs, keeping results bit-identical to the AVX2 path (see kernels.h).

#include "core/kernels/kernels.h"

#include <cstdlib>

namespace planar {
namespace kernels {

namespace {

// The canonical blocked dot product: four partial sums over lanes j % 4,
// reduced as ((s0 + s2) + (s1 + s3)), then a sequential tail. Every SIMD
// implementation must reproduce this order exactly.
double DotOneScalar(const double* a, const double* row, size_t dim) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  size_t j = 0;
  for (; j + 4 <= dim; j += 4) {
    s0 += a[j] * row[j];
    s1 += a[j + 1] * row[j + 1];
    s2 += a[j + 2] * row[j + 2];
    s3 += a[j + 3] * row[j + 3];
  }
  double tail = 0.0;
  for (; j < dim; ++j) tail += a[j] * row[j];
  return ((s0 + s2) + (s1 + s3)) + tail;
}

void DotRangeScalar(const double* a, size_t dim, const double* rows,
                    size_t stride, size_t first_row, size_t count,
                    double bias, double* out) {
  const double* row = rows + first_row * stride;
  for (size_t i = 0; i < count; ++i, row += stride) {
    out[i] = DotOneScalar(a, row, dim) + bias;
  }
}

// The classify reference: one canonical dot per row, then the compare.
template <typename RowAt>
void ClassifyScalar(const double* a, size_t dim, RowAt row_at, size_t count,
                    double bias, bool le, double* res, uint64_t* accept) {
  for (size_t w = 0; w < kMaskWords; ++w) accept[w] = 0;
  for (size_t i = 0; i < count; ++i) {
    const double r = DotOneScalar(a, row_at(i), dim) + bias;
    res[i] = r;
    const bool hit = le ? r <= 0.0 : r >= 0.0;
    accept[i / 64] |= static_cast<uint64_t>(hit) << (i % 64);
  }
}

void ClassifyGatherScalar(const double* a, size_t dim, const double* rows,
                          size_t stride, const uint32_t* ids, size_t count,
                          double bias, bool le, double* res,
                          uint64_t* accept) {
  ClassifyScalar(
      a, dim,
      [&](size_t i) { return rows + static_cast<size_t>(ids[i]) * stride; },
      count, bias, le, res, accept);
}

void ClassifyRangeScalar(const double* a, size_t dim, const double* rows,
                         size_t stride, size_t first_row, size_t count,
                         double bias, bool le, double* res,
                         uint64_t* accept) {
  ClassifyScalar(
      a, dim, [&](size_t i) { return rows + (first_row + i) * stride; },
      count, bias, le, res, accept);
}

constexpr DotOps kScalarOps = {&DotOneScalar,
                               &DotRangeScalar,
                               &ClassifyGatherScalar,
                               &ClassifyRangeScalar,
                               "scalar"};

bool SimdDisabledByEnv() {
  // Read exactly once, from the dispatch latch below, before any worker
  // threads exist; nothing in the library calls setenv, so the
  // concurrent-getenv hazard clang-tidy guards against cannot arise.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* env = std::getenv("PLANAR_DISABLE_SIMD");
  if (env == nullptr || env[0] == '\0') return false;
  return !(env[0] == '0' && env[1] == '\0');
}

const DotOps& Dispatch() {
  if (SimdDisabledByEnv()) return kScalarOps;
  const DotOps* avx2 = Avx2Ops();
  if (avx2 != nullptr) return *avx2;
  return kScalarOps;
}

}  // namespace

#if !PLANAR_HAVE_AVX2
const DotOps* Avx2Ops() { return nullptr; }
#endif

const DotOps& ScalarOps() { return kScalarOps; }

const DotOps& Ops() {
  // Dispatch decided once, on first use; thread-safe by C++ static-init
  // rules. Every later call is a single indirection.
  static const DotOps& ops = Dispatch();
  return ops;
}

bool SimdEnabled() { return &Ops() != &kScalarOps; }

const char* BackendName() { return Ops().name; }

}  // namespace kernels
}  // namespace planar
