// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Fused classify kernel equivalence (kernels.h classify_gather /
// classify_range, both precisions, and the BlockClassifier built on them):
// the scalar reference must equal one canonical dot per row plus the
// compare, and the AVX2 path must give the same masks and the same f64
// residual bits — for dims 1..17, ragged blocks of 1..256 rows, both the
// gathered and the contiguous form, rows holding NaN, +-inf and -0, and
// residuals landing exactly on 0 and on +-band. The mirror classifier must
// accept exactly the rows (and report exactly the residuals) of the f64
// one.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/kernels/kernels.h"
#include "core/mixed.h"
#include "core/row_matrix.h"

namespace planar {
namespace {

using kernels::kBlockRows;
using kernels::kMaskWords;

constexpr size_t kRows = 300;

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

bool Bit(const uint64_t* mask, size_t i) {
  return ((mask[i / 64] >> (i % 64)) & 1) != 0;
}

// Small-integer rows and query: most residuals are exact integers, so
// plenty land exactly on 0 and on +-1 (the f32 band used below). Every
// tenth row carries a special value in one column.
struct Fixture {
  size_t dim = 0;
  std::vector<double> rows;
  // f32-ok (test): the mirror rows the f32 classify reads.
  std::vector<float> rows32;
  std::vector<double> a;
  std::vector<float> a32;
  std::vector<uint32_t> ids;  // shuffled with repeats, like a gathered II
};

Fixture MakeFixture(size_t dim, uint64_t seed) {
  Rng rng(seed);
  Fixture f;
  f.dim = dim;
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(), -0.0};
  for (size_t r = 0; r < kRows; ++r) {
    for (size_t j = 0; j < dim; ++j) {
      double v = static_cast<double>(rng.UniformInt(-3, 3));
      if (r % 10 == 7 && j == r % dim) v = specials[(r / 10) % 4];
      f.rows.push_back(v);
      f.rows32.push_back(FloatMirrorValue(v));
    }
  }
  for (size_t j = 0; j < dim; ++j) {
    // A zero coefficient times an infinite entry makes a NaN product.
    f.a.push_back(static_cast<double>(rng.UniformInt(0, 3)));
    f.a32.push_back(FloatMirrorValue(f.a.back()));
  }
  for (size_t i = 0; i < kBlockRows; ++i) {
    f.ids.push_back(static_cast<uint32_t>(rng.UniformInt(kRows)));
  }
  return f;
}

// Counts that cover one-row blocks, every lane remainder of the 4- and
// 8-row groups, mask-word boundaries and full blocks.
std::vector<size_t> Counts() {
  std::vector<size_t> counts;
  for (size_t c = 1; c <= 17; ++c) counts.push_back(c);
  for (size_t c : {31, 63, 64, 65, 100, 127, 128, 129, 191, 192, 193, 255,
                   256}) {
    counts.push_back(c);
  }
  return counts;
}

// The biases: residual exactly 0 happens at integer biases.
const double kBiases[] = {0.0, -1.0, 2.0};
constexpr float kBand = 1.0f;

struct F64Out {
  double res[kBlockRows];
  uint64_t accept[kMaskWords];
};

F64Out RunF64(const kernels::DotOps& ops, const Fixture& f, bool gathered,
              size_t count, double bias, bool le) {
  F64Out out;
  // Poison: every entry the kernel owns must be overwritten.
  for (double& r : out.res) r = 12345.0;
  for (uint64_t& w : out.accept) w = ~uint64_t{0};
  if (gathered) {
    ops.classify_gather(f.a.data(), f.dim, f.rows.data(), f.dim,
                        f.ids.data(), count, bias, le, out.res, out.accept);
  } else {
    ops.classify_range(f.a.data(), f.dim, f.rows.data(), f.dim,
                       kRows - count, count, bias, le, out.res, out.accept);
  }
  return out;
}

struct F32Out {
  uint64_t sure[kMaskWords];
  uint64_t band[kMaskWords];
};

F32Out RunF32(const kernels::DotOpsF32& ops, const Fixture& f, bool gathered,
              size_t count, float bias, bool le) {
  F32Out out;
  for (size_t w = 0; w < kMaskWords; ++w) out.sure[w] = out.band[w] = ~0ull;
  if (gathered) {
    ops.classify_gather(f.a32.data(), f.dim, f.rows32.data(), f.dim,
                        f.ids.data(), count, bias, kBand, le, out.sure,
                        out.band);
  } else {
    ops.classify_range(f.a32.data(), f.dim, f.rows32.data(), f.dim,
                       kRows - count, count, bias, kBand, le, out.sure,
                       out.band);
  }
  return out;
}

size_t RowOf(const Fixture& f, bool gathered, size_t count, size_t i) {
  return gathered ? f.ids[i] : kRows - count + i;
}

TEST(ClassifyTest, ScalarMatchesDotOneAndCompare) {
  const kernels::DotOps& ops = kernels::ScalarOps();
  const kernels::DotOpsF32& ops32 = kernels::ScalarOpsF32();
  size_t zeros = 0;
  size_t edges = 0;
  for (size_t dim = 1; dim <= 17; ++dim) {
    const Fixture f = MakeFixture(dim, 100 + dim);
    for (const bool gathered : {true, false}) {
      for (const size_t count : Counts()) {
        for (const double bias : kBiases) {
          for (const bool le : {true, false}) {
            const F64Out out = RunF64(ops, f, gathered, count, bias, le);
            const float bias32 = static_cast<float>(bias);
            const F32Out out32 = RunF32(ops32, f, gathered, count, bias32, le);
            for (size_t i = 0; i < kBlockRows; ++i) {
              if (i >= count) {
                ASSERT_FALSE(Bit(out.accept, i) || Bit(out32.sure, i) ||
                             Bit(out32.band, i))
                    << "bit past count " << i;
                continue;
              }
              const size_t row = RowOf(f, gathered, count, i);
              const double r =
                  ops.dot_one(f.a.data(), &f.rows[row * dim], dim) + bias;
              ASSERT_EQ(Bits(out.res[i]), Bits(r)) << "dim " << dim;
              ASSERT_EQ(Bit(out.accept, i), le ? r <= 0.0 : r >= 0.0);
              zeros += r == 0.0;
              const float r32 =
                  ops32.dot_one(f.a32.data(), &f.rows32[row * dim], dim) +
                  bias32;
              const bool sure = le ? r32 < -kBand : r32 > kBand;
              const bool reject = le ? r32 > kBand : r32 < -kBand;
              ASSERT_EQ(Bit(out32.sure, i), sure) << "dim " << dim;
              ASSERT_EQ(Bit(out32.band, i), !(sure || reject));
              edges += std::fabs(r32) == kBand;
            }
          }
        }
      }
    }
  }
  // The fixture really exercises the edges it claims to.
  EXPECT_GT(zeros, 1000u);
  EXPECT_GT(edges, 1000u);
}

// Runs the dispatched backend and, when built, the AVX2 one against the
// scalar reference.
void ExpectBackendMatchesScalar(const kernels::DotOps& ops,
                                const kernels::DotOpsF32& ops32) {
  for (size_t dim = 1; dim <= 17; ++dim) {
    const Fixture f = MakeFixture(dim, 200 + dim);
    for (const bool gathered : {true, false}) {
      for (const size_t count : Counts()) {
        for (const double bias : kBiases) {
          for (const bool le : {true, false}) {
            const F64Out want =
                RunF64(kernels::ScalarOps(), f, gathered, count, bias, le);
            const F64Out got = RunF64(ops, f, gathered, count, bias, le);
            ASSERT_EQ(0, std::memcmp(want.accept, got.accept,
                                     sizeof(want.accept)))
                << "dim " << dim << " count " << count;
            for (size_t i = 0; i < count; ++i) {
              ASSERT_EQ(Bits(want.res[i]), Bits(got.res[i]))
                  << "dim " << dim << " count " << count << " row " << i;
            }
            const float bias32 = static_cast<float>(bias);
            const F32Out want32 = RunF32(kernels::ScalarOpsF32(), f,
                                         gathered, count, bias32, le);
            const F32Out got32 = RunF32(ops32, f, gathered, count, bias32, le);
            ASSERT_EQ(0,
                      std::memcmp(want32.sure, got32.sure, sizeof(got32.sure)))
                << "dim " << dim << " count " << count;
            ASSERT_EQ(0,
                      std::memcmp(want32.band, got32.band, sizeof(got32.band)))
                << "dim " << dim << " count " << count;
          }
        }
      }
    }
  }
}

TEST(ClassifyTest, DispatchedBackendMatchesScalar) {
  ExpectBackendMatchesScalar(kernels::Ops(), kernels::OpsF32());
}

TEST(ClassifyTest, Avx2MatchesScalar) {
  if (kernels::Avx2Ops() == nullptr || kernels::Avx2OpsF32() == nullptr) {
    GTEST_SKIP() << "binary built without the AVX2 kernel TUs, or the CPU "
                    "lacks avx2+fma";
  }
  ExpectBackendMatchesScalar(*kernels::Avx2Ops(), *kernels::Avx2OpsF32());
}

// The mirror classifier against the f64 one on a real-valued matrix with
// many rows near the boundary: same accept masks, and with residuals
// requested the same residual bits on every accepted row.
TEST(ClassifyTest, MirrorClassifierMatchesF64) {
  for (const size_t dim : {1, 2, 3, 8, 9, 16, 17}) {
    Rng rng(300 + dim);
    PhiMatrix phi(dim);
    std::vector<double> a(dim);
    for (double& ai : a) ai = rng.Uniform(0.5, 4.0);
    std::vector<double> row(dim);
    for (size_t r = 0; r < 1000; ++r) {
      for (double& v : row) v = rng.Uniform(0.0, 10.0);
      phi.AppendRow(row);
    }
    phi.EnableF32Mirror();
    // b at the first row's value puts that row's residual near 0.
    double b = 0.0;
    for (size_t j = 0; j < dim; ++j) b += a[j] * phi.at(0, j);
    for (const bool le : {true, false}) {
      const MixedQueryPlan plan = MakeMixedPlan(a.data(), dim, b, le, phi);
      ASSERT_TRUE(plan.usable || !MixedPrecisionRuntimeEnabled());
      const BlockClassifier f64(a.data(), dim, b, le, phi.data(), nullptr,
                                dim, nullptr);
      const BlockClassifier mirror(a.data(), dim, b, le, phi.data(),
                                   phi.f32_data(), dim, &plan);
      std::vector<uint32_t> ids(kBlockRows);
      for (uint32_t& id : ids) {
        id = static_cast<uint32_t>(rng.UniformInt(phi.size()));
      }
      for (const size_t count : Counts()) {
        for (const bool residuals : {false, true}) {
          uint64_t want[kMaskWords];
          uint64_t got[kMaskWords];
          double want_res[kBlockRows];
          double got_res[kBlockRows];
          double* wr = residuals ? want_res : nullptr;
          double* gr = residuals ? got_res : nullptr;
          f64.Gather(ids.data(), count, want, wr);
          mirror.Gather(ids.data(), count, got, gr);
          ASSERT_EQ(0, std::memcmp(want, got, sizeof(want))) << dim;
          if (residuals) {
            kernels::ForEachSetBit(want, [&](size_t i) {
              EXPECT_EQ(Bits(want_res[i]), Bits(got_res[i]));
            });
          }
          const size_t first = phi.size() - count;
          f64.Range(first, count, want, wr);
          mirror.Range(first, count, got, gr);
          ASSERT_EQ(0, std::memcmp(want, got, sizeof(want))) << dim;
          if (residuals) {
            kernels::ForEachSetBit(want, [&](size_t i) {
              EXPECT_EQ(Bits(want_res[i]), Bits(got_res[i]));
            });
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace planar
