// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Mixed-precision verification suite (core/mixed.h): the f32 classify +
// widened band + exact f64 re-verify pipeline must be invisible in every
// result — same ids in the same order, same statistics, same error
// messages, bit-equal distances — under adversarial magnitudes
// (denormals, near-overflow values, residuals within one ulp of a
// boundary), across dimensions 1..16 and both comparison directions, on
// the serial, parallel, batch, scan, and sharded paths.

#include "core/mixed.h"

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/index_set.h"
#include "core/kernels/kernels.h"
#include "core/scan.h"
#include "core/serialize.h"
#include "core/sharded.h"
#include "tests/test_util.h"

namespace planar {
namespace {

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

// f32-ok (test): bit images of the f32 kernel outputs under comparison.
uint32_t Bits32(float x) {
  uint32_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

// A pair of sets over identical data and normals, one with the mixed
// option, one without. Under PLANAR_FORCE_F32 both end up mixed, under
// PLANAR_DISABLE_F32 both end up plain; the identity assertions below
// hold in every combination, which is exactly the point.
struct SetPair {
  PlanarIndexSet plain;
  PlanarIndexSet mixed;
};

SetPair BuildPair(size_t n, size_t dim, uint64_t seed,
                  double lo = 1.0, double hi = 100.0) {
  IndexSetOptions options;
  options.budget = 4;
  options.seed = 7;
  const std::vector<ParameterDomain> domains(dim, {0.5, 4.0});
  auto plain =
      PlanarIndexSet::Build(RandomPhi(n, dim, lo, hi, seed), domains, options);
  options.index_options.mixed_precision = true;
  auto mixed =
      PlanarIndexSet::Build(RandomPhi(n, dim, lo, hi, seed), domains, options);
  EXPECT_TRUE(plain.ok()) << plain.status().message();
  EXPECT_TRUE(mixed.ok()) << mixed.status().message();
  return SetPair{std::move(plain).value(), std::move(mixed).value()};
}

ScalarProductQuery MakeQuery(size_t dim, uint64_t seed, bool le,
                             double b_scale) {
  Rng rng(seed);
  ScalarProductQuery q;
  q.a.resize(dim);
  for (size_t j = 0; j < dim; ++j) q.a[j] = rng.Uniform(0.5, 4.0);
  // Mid-range cut so both accept regions and the intermediate interval
  // are non-trivial.
  q.b = b_scale * 2.25 * 50.5 * static_cast<double>(dim);
  q.cmp = le ? Comparison::kLessEqual : Comparison::kGreaterEqual;
  return q;
}

void ExpectSameInequality(const Result<InequalityResult>& x,
                          const Result<InequalityResult>& y) {
  ASSERT_EQ(x.ok(), y.ok());
  if (!x.ok()) {
    EXPECT_EQ(x.status().code(), y.status().code());
    EXPECT_EQ(x.status().message(), y.status().message());
    return;
  }
  EXPECT_EQ(x->ids, y->ids);  // same ids in the same order
  EXPECT_EQ(x->stats.num_points, y->stats.num_points);
  EXPECT_EQ(x->stats.accepted_directly, y->stats.accepted_directly);
  EXPECT_EQ(x->stats.rejected_directly, y->stats.rejected_directly);
  EXPECT_EQ(x->stats.verified, y->stats.verified);
  EXPECT_EQ(x->stats.result_size, y->stats.result_size);
  EXPECT_EQ(x->stats.index_used, y->stats.index_used);
}

void ExpectSameTopK(const Result<TopKResult>& x, const Result<TopKResult>& y) {
  ASSERT_EQ(x.ok(), y.ok());
  if (!x.ok()) {
    EXPECT_EQ(x.status().code(), y.status().code());
    EXPECT_EQ(x.status().message(), y.status().message());
    return;
  }
  ASSERT_EQ(x->neighbors.size(), y->neighbors.size());
  for (size_t i = 0; i < x->neighbors.size(); ++i) {
    EXPECT_EQ(x->neighbors[i].id, y->neighbors[i].id);
    EXPECT_EQ(Bits(x->neighbors[i].distance), Bits(y->neighbors[i].distance));
  }
  EXPECT_EQ(x->stats.num_points, y->stats.num_points);
  EXPECT_EQ(x->stats.verified_intermediate, y->stats.verified_intermediate);
  EXPECT_EQ(x->stats.scanned_accept_region, y->stats.scanned_accept_region);
  EXPECT_EQ(x->stats.early_terminated, y->stats.early_terminated);
  EXPECT_EQ(x->stats.index_used, y->stats.index_used);
}

// ---------------------------------------------------------------------------
// f32 kernels: dispatched backend vs scalar reference, bit-identical.

TEST(MixedKernels, DispatchMatchesScalarReference) {
  const kernels::DotOpsF32& ops = kernels::OpsF32();
  const kernels::DotOpsF32& ref = kernels::ScalarOpsF32();
  Rng rng(11);
  for (size_t dim = 1; dim <= 16; ++dim) {
    const size_t n = 300;  // not a multiple of the block size
    // f32-ok (test): native f32 inputs for the kernel contract check.
    std::vector<float> rows(n * dim);
    std::vector<float> a(dim);
    for (float& v : rows) v = static_cast<float>(rng.Uniform(-50.0, 50.0));
    for (float& v : a) v = static_cast<float>(rng.Uniform(-4.0, 4.0));

    for (size_t i = 0; i < n; i += 37) {
      EXPECT_EQ(Bits32(ops.dot_one(a.data(), rows.data() + i * dim, dim)),
                Bits32(ref.dot_one(a.data(), rows.data() + i * dim, dim)))
          << "dim=" << dim << " row=" << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Band soundness: the widened band really contains the f32/f64 gap, so a
// "sure" classification can never contradict the exact answer.

TEST(MixedBand, BandContainsF32Error) {
  if (!MixedPrecisionRuntimeEnabled()) GTEST_SKIP();
  Rng rng(23);
  for (size_t dim = 1; dim <= 16; ++dim) {
    for (int rep = 0; rep < 4; ++rep) {
      // Wild magnitude spread, both signs, including subnormal-in-f32
      // values — everything the conversion slack term exists for.
      const double scale =
          std::ldexp(1.0, static_cast<int>(rng.UniformInt(-40, 40)));
      PhiMatrix phi(dim);
      std::vector<double> row(dim);
      for (size_t i = 0; i < 200; ++i) {
        for (size_t j = 0; j < dim; ++j) {
          row[j] = rng.Uniform(-scale, scale);
        }
        phi.AppendRow(row);
      }
      phi.EnableF32Mirror();
      std::vector<double> a(dim);
      for (size_t j = 0; j < dim; ++j) a[j] = rng.Uniform(-3.0, 3.0);
      const double b = rng.Uniform(-scale, scale);
      const MixedQueryPlan plan =
          MakeMixedPlan(a.data(), dim, b, true, phi);
      if (!plan.usable) continue;  // overflow guard fired; that is sound
      for (size_t i = 0; i < phi.size(); ++i) {
        // f32-ok (test): the residual the band classify compares.
        const float res32 =
            kernels::OpsF32().dot_one(plan.a32.data(),
                                      phi.f32_data() + i * dim, dim) +
            plan.bias32;
        const double res64 =
            kernels::Ops().dot_one(a.data(), phi.data() + i * dim, dim) - b;
        EXPECT_LE(std::fabs(static_cast<double>(res32) - res64),
                  static_cast<double>(plan.band))
            << "dim=" << dim << " scale=" << scale << " row=" << i;
      }
    }
  }
}

TEST(MixedBand, PlanUnusableOnOverflowOrMismatch) {
  PhiMatrix phi = RandomPhi(64, 4, 1.0, 100.0, 5);
  std::vector<double> a = {1.0, 1.0, 1.0, 1.0};
  // No mirror: never usable.
  EXPECT_FALSE(MakeMixedPlan(a.data(), 4, 0.0, true, phi).usable);
  phi.EnableF32Mirror();
  if (MixedPrecisionRuntimeEnabled()) {
    EXPECT_TRUE(MakeMixedPlan(a.data(), 4, 0.0, true, phi).usable);
  }
  // Envelope past float range: the overflow guard must refuse.
  EXPECT_FALSE(MakeMixedPlan(a.data(), 4, 1e300, true, phi).usable);
  const std::vector<double> huge = {1e300, 1.0, 1.0, 1.0};
  EXPECT_FALSE(MakeMixedPlan(huge.data(), 4, 0.0, true, phi).usable);
  // Dimension mismatch.
  EXPECT_FALSE(MakeMixedPlan(a.data(), 3, 0.0, true, phi).usable);
}

// ---------------------------------------------------------------------------
// End-to-end bit identity, mixed on vs off.

TEST(MixedIdentity, InequalityAcrossDimsAndDirections) {
  for (size_t dim = 1; dim <= 16; dim += (dim < 4 ? 1 : 3)) {
    SetPair sets = BuildPair(600, dim, 100 + dim);
    for (const bool le : {true, false}) {
      for (const double b_scale : {0.6, 1.0, 1.4}) {
        const ScalarProductQuery q =
            MakeQuery(dim, 9 * dim + (le ? 1 : 0), le, b_scale);
        ExpectSameInequality(sets.plain.Inequality(q, Deadline::Infinite()),
                             sets.mixed.Inequality(q, Deadline::Infinite()));
        // And both match brute force (exactness, not just agreement).
        const auto got = sets.mixed.Inequality(q, Deadline::Infinite());
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(Sorted(got->ids), BruteForceMatches(sets.mixed.phi(), q));
      }
    }
  }
}

TEST(MixedIdentity, TopKAcrossDimsAndDirections) {
  for (size_t dim = 2; dim <= 16; dim += 5) {
    SetPair sets = BuildPair(500, dim, 300 + dim);
    for (const bool le : {true, false}) {
      for (const size_t k : {1u, 7u, 64u}) {
        const ScalarProductQuery q = MakeQuery(dim, 31 * dim, le, 1.0);
        ExpectSameTopK(sets.plain.TopK(q, k), sets.mixed.TopK(q, k));
      }
    }
  }
}

TEST(MixedIdentity, BatchInequalityMatchesSerial) {
  SetPair sets = BuildPair(800, 6, 42);
  std::vector<ScalarProductQuery> queries;
  for (int i = 0; i < 12; ++i) {
    queries.push_back(MakeQuery(6, 1000 + i, i % 2 == 0, 0.7 + 0.05 * i));
  }
  const auto plain = sets.plain.BatchInequality(queries);
  const auto mixed = sets.mixed.BatchInequality(queries);
  ASSERT_EQ(plain.size(), mixed.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    ExpectSameInequality(plain[i], mixed[i]);
    // Batched-mixed must also equal serial-mixed (the batch partition
    // cannot change any per-query answer).
    ExpectSameInequality(mixed[i],
                         sets.mixed.Inequality(queries[i], Deadline::Infinite()));
  }
}

TEST(MixedIdentity, ScanPathsMatch) {
  // Force the scan: no domains cover these negative-normal queries.
  PhiMatrix plain_phi = RandomPhi(700, 5, 1.0, 100.0, 77);
  PhiMatrix mixed_phi = RandomPhi(700, 5, 1.0, 100.0, 77);
  mixed_phi.EnableF32Mirror();
  Rng rng(3);
  for (int i = 0; i < 8; ++i) {
    ScalarProductQuery q;
    q.a.resize(5);
    for (double& v : q.a) v = rng.Uniform(-4.0, 4.0);
    q.b = rng.Uniform(-200.0, 200.0);
    q.cmp = i % 2 == 0 ? Comparison::kLessEqual : Comparison::kGreaterEqual;
    const InequalityResult a = ScanInequality(plain_phi, q);
    const InequalityResult b = ScanInequality(mixed_phi, q);
    EXPECT_EQ(a.ids, b.ids);
    EXPECT_EQ(a.stats.verified, b.stats.verified);
    const auto ta = ScanTopK(plain_phi, q, 9);
    const auto tb = ScanTopK(mixed_phi, q, 9);
    ExpectSameTopK(ta, tb);
  }
}

TEST(MixedIdentity, ShardedMatchesMonolithic) {
  ShardedIndexSetOptions plain_opts;
  plain_opts.shards = 3;
  plain_opts.min_rows_per_shard = 1;
  plain_opts.set_options.budget = 3;
  ShardedIndexSetOptions mixed_opts = plain_opts;
  mixed_opts.set_options.index_options.mixed_precision = true;
  const std::vector<ParameterDomain> domains(6, {0.5, 4.0});
  auto plain = ShardedIndexSet::Build(RandomPhi(900, 6, 1.0, 100.0, 55),
                                      domains, plain_opts);
  auto mixed = ShardedIndexSet::Build(RandomPhi(900, 6, 1.0, 100.0, 55),
                                      domains, mixed_opts);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(mixed.ok());
  // d' = 6 < kMixedMinDim: the options report what the shards resolved.
  EXPECT_EQ(mixed->options().set_options.index_options.mixed_precision,
            MixedPrecisionRuntimeEnabled() && MixedPrecisionForcedOn());
  for (int i = 0; i < 6; ++i) {
    const ScalarProductQuery q = MakeQuery(6, 500 + i, i % 2 == 0, 1.0);
    const auto a = plain->Inequality(q);
    const auto b = mixed->Inequality(q);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->ids, b->ids);
    ExpectSameTopK(plain->TopK(q, 11), mixed->TopK(q, 11));
  }
}

// ---------------------------------------------------------------------------
// Adversarial magnitudes and band-boundary rows.

TEST(MixedAdversarial, DenormalAndHugeValuesStayExact) {
  const size_t dim = 4;
  const double specials[] = {1e-320,
                             4.9406564584124654e-324,  // min denormal
                             -1e-320,
                             1e300,
                             -1e300,
                             std::ldexp(1.0, -140),  // f32-subnormal range
                             0.0,
                             1.0};
  PhiMatrix plain_phi(dim);
  PhiMatrix mixed_phi(dim);
  Rng rng(9);
  std::vector<double> row(dim);
  for (size_t i = 0; i < 256; ++i) {
    for (size_t j = 0; j < dim; ++j) {
      row[j] = (i % 3 == 0) ? specials[(i + j) % 8]
                            : rng.Uniform(-1e3, 1e3);
    }
    plain_phi.AppendRow(row);
    mixed_phi.AppendRow(row);
  }
  mixed_phi.EnableF32Mirror();
  for (const bool le : {true, false}) {
    for (const double b : {0.0, 1e-300, -1e250, 42.0}) {
      ScalarProductQuery q;
      q.a = {1e-310, 2.0, -3.0, std::ldexp(1.0, -130)};
      q.b = b;
      q.cmp = le ? Comparison::kLessEqual : Comparison::kGreaterEqual;
      const InequalityResult a = ScanInequality(plain_phi, q);
      const InequalityResult bres = ScanInequality(mixed_phi, q);
      EXPECT_EQ(a.ids, bres.ids) << "le=" << le << " b=" << b;
    }
  }
}

TEST(MixedAdversarial, ResidualWithinOneUlpOfBoundary) {
  // Queries cut exactly at (and one ulp around) a row's key, in both
  // directions: every such row's f32 residual lands inside the band and
  // the f64 re-verify decides it — the decisive compare is exact.
  const size_t dim = 3;
  SetPair sets = BuildPair(400, dim, 808);
  const PhiMatrix& phi = sets.mixed.phi();
  Rng rng(17);
  std::vector<double> a(dim);
  for (double& v : a) v = rng.Uniform(0.5, 4.0);
  for (size_t pick = 0; pick < 400; pick += 57) {
    const double* r = phi.row(pick);
    double exact = 0.0;
    for (size_t j = 0; j < dim; ++j) exact += a[j] * r[j];
    for (const double b :
         {exact, std::nextafter(exact, 1e308), std::nextafter(exact, -1e308)}) {
      for (const bool le : {true, false}) {
        ScalarProductQuery q;
        q.a = a;
        q.b = b;
        q.cmp = le ? Comparison::kLessEqual : Comparison::kGreaterEqual;
        ExpectSameInequality(sets.plain.Inequality(q, Deadline::Infinite()),
                             sets.mixed.Inequality(q, Deadline::Infinite()));
        const auto got = sets.mixed.Inequality(q, Deadline::Infinite());
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(Sorted(got->ids), BruteForceMatches(phi, q));
      }
    }
  }
}

TEST(MixedAdversarial, DeadlineCancelsInsideReVerify) {
  // An already-expired deadline must cancel with the canonical message on
  // both paths — including from inside the mixed f64 re-verify loop.
  SetPair sets = BuildPair(6000, 4, 2024);
  const ScalarProductQuery q = MakeQuery(4, 5, true, 1.0);
  const Deadline expired = Deadline::After(-1.0);
  const auto a = sets.plain.Inequality(q, expired);
  const auto b = sets.mixed.Inequality(q, expired);
  ASSERT_FALSE(a.ok());
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(a.status().code(), b.status().code());
  EXPECT_EQ(a.status().message(), b.status().message());
}

// ---------------------------------------------------------------------------
// Serialization: the mirror is never persisted and regenerates on load.

TEST(MixedSerialize, BlobsByteIdenticalAndMirrorRegenerates) {
  // d' = 8: the smallest d' at which a set honours the option unforced.
  SetPair sets = BuildPair(300, 8, 4096);
  // The pid keeps the paths apart when this binary runs twice at once
  // (ctest registers it again as mixed_precision_forced_f32_test).
  const std::string dir =
      ::testing::TempDir() + "/" + std::to_string(getpid()) + "_";
  const std::string plain_path = dir + "mixed_plain.planar";
  const std::string mixed_path = dir + "mixed_mixed.planar";
  ASSERT_TRUE(SaveIndexSet(sets.plain, plain_path).ok());
  ASSERT_TRUE(SaveIndexSet(sets.mixed, mixed_path).ok());
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const std::string plain_bytes = slurp(plain_path);
  const std::string mixed_bytes = slurp(mixed_path);
  ASSERT_FALSE(plain_bytes.empty());
  // The option is a runtime serving knob: the serialized blobs (CRC and
  // all) must be byte-identical with and without it.
  EXPECT_EQ(plain_bytes, mixed_bytes);

  // Loading the plain blob with a mixed override regenerates the mirror.
  IndexSetOptions override_opts;
  override_opts.budget = 4;
  override_opts.seed = 7;
  override_opts.index_options.mixed_precision = true;
  auto loaded = LoadIndexSet(plain_path, &override_opts);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  if (MixedPrecisionRuntimeEnabled()) {
    EXPECT_NE(loaded->phi().f32_data(), nullptr);
  } else {
    EXPECT_EQ(loaded->phi().f32_data(), nullptr);
  }
  const ScalarProductQuery q = MakeQuery(8, 1, true, 1.0);
  ExpectSameInequality(sets.plain.Inequality(q, Deadline::Infinite()),
                       loaded->Inequality(q, Deadline::Infinite()));
  std::remove(plain_path.c_str());
  std::remove(mixed_path.c_str());
}

// ---------------------------------------------------------------------------
// Precision resolution: below kMixedMinDim the requested mirror is not
// built (it loses there), unless PLANAR_FORCE_F32 forces it.

TEST(MixedResolution, LowDimRequestBuildsNoMirrorUnlessForced) {
  const size_t dim = 5;
  ASSERT_LT(dim, kMixedMinDim);
  SetPair sets = BuildPair(600, dim, 515);
  const bool live = MixedPrecisionRuntimeEnabled() && MixedPrecisionForcedOn();
  EXPECT_EQ(sets.mixed.phi().f32_data() != nullptr, live);
  EXPECT_EQ(sets.mixed.options().index_options.mixed_precision, live);
  if (!live) {
    // No mirror anywhere: the set is as large as the plain one.
    EXPECT_EQ(sets.mixed.MemoryUsage(), sets.plain.MemoryUsage());
  }
  for (const bool le : {true, false}) {
    for (const double b_scale : {0.6, 1.0, 1.4}) {
      const ScalarProductQuery q = MakeQuery(dim, 77 + (le ? 1 : 0), le,
                                             b_scale);
      ExpectSameInequality(sets.plain.Inequality(q, Deadline::Infinite()),
                           sets.mixed.Inequality(q, Deadline::Infinite()));
      ExpectSameTopK(sets.plain.TopK(q, 9), sets.mixed.TopK(q, 9));
      const auto pc = sets.plain.CountInequality(q);
      const auto mc = sets.mixed.CountInequality(q);
      ASSERT_TRUE(pc.ok());
      ASSERT_TRUE(mc.ok());
      EXPECT_EQ(pc->lower, mc->lower);
      EXPECT_EQ(pc->upper, mc->upper);
    }
  }
  // At kMixedMinDim the request is honoured.
  SetPair wide = BuildPair(300, kMixedMinDim, 516);
  EXPECT_EQ(wide.mixed.phi().f32_data() != nullptr,
            MixedPrecisionRuntimeEnabled());
}

// ---------------------------------------------------------------------------
// Footprint and reservation behavior.

TEST(MixedFootprint, ResidentBytesDropAtLeast40Percent) {
  if (!MixedPrecisionRuntimeEnabled()) GTEST_SKIP();
  SetPair sets = BuildPair(2000, 8, 31337);
  const double plain_bytes = static_cast<double>(sets.plain.ResidentBytes());
  const double mixed_bytes = static_cast<double>(sets.mixed.ResidentBytes());
  ASSERT_GT(plain_bytes, 0.0);
  if (sets.plain.phi().f32_data() != nullptr) {
    GTEST_SKIP() << "PLANAR_FORCE_F32 makes both sets mixed";
  }
  EXPECT_LE(mixed_bytes, 0.6 * plain_bytes);
  // Total RAM moves the other way: the mirror is extra storage.
  EXPECT_GT(sets.mixed.MemoryUsage(), sets.plain.MemoryUsage());
}

TEST(MixedFootprint, ScanTopKHugeKDoesNotOverReserve) {
  // k far beyond the row count: the TopKBuffer reservation is clamped to
  // the candidate count, so this completes instead of bad_alloc-ing.
  PhiMatrix phi = RandomPhi(1000, 3, 1.0, 100.0, 2);
  phi.EnableF32Mirror();
  ScalarProductQuery q;
  q.a = {1.0, 1.0, 1.0};
  q.b = 1e9;  // everything matches
  q.cmp = Comparison::kLessEqual;
  const auto result = ScanTopK(phi, q, size_t{1} << 50);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->neighbors.size(), 1000u);
}

}  // namespace
}  // namespace planar
