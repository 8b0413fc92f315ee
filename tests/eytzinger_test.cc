// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Property tests: EytzingerKeys::LowerBound / UpperBound must agree with
// std::lower_bound / std::upper_bound on every sorted input — duplicates
// (including runs that straddle a kEytzingerStride block boundary),
// all-equal arrays, denormals, ±huge magnitudes, sizes that are not a
// multiple of the stride, ±infinity and NaN probes, probes equal to a
// sampled key — for probes drawn from the array, between its elements,
// and far outside. The sampled layout must also stay under one byte per
// key. UpperBoundPair must agree with two std::upper_bound calls.

#include "core/eytzinger.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace planar {
namespace {

size_t StdLower(const std::vector<double>& keys, double x) {
  return static_cast<size_t>(
      std::lower_bound(keys.begin(), keys.end(), x) - keys.begin());
}

size_t StdUpper(const std::vector<double>& keys, double x) {
  return static_cast<size_t>(
      std::upper_bound(keys.begin(), keys.end(), x) - keys.begin());
}

// Checks both directions for every element, midpoints between adjacent
// distinct elements, nudged copies of each element, and sentinel probes.
void CheckAgainstStd(const std::vector<double>& keys) {
  EytzingerKeys eytz;
  eytz.Build(keys.data(), keys.size());
  ASSERT_FALSE(eytz.empty()) << "test arrays must reach kEytzingerMinKeys";
  ASSERT_EQ(eytz.size(), keys.size());

  std::vector<double> probes = keys;
  for (size_t i = 0; i + 1 < keys.size(); ++i) {
    probes.push_back(keys[i] / 2 + keys[i + 1] / 2);
  }
  for (double k : keys) {
    probes.push_back(std::nextafter(k, -std::numeric_limits<double>::infinity()));
    probes.push_back(std::nextafter(k, std::numeric_limits<double>::infinity()));
  }
  probes.push_back(-std::numeric_limits<double>::infinity());
  probes.push_back(std::numeric_limits<double>::infinity());
  probes.push_back(0.0);
  probes.push_back(-0.0);
  probes.push_back(std::numeric_limits<double>::denorm_min());
  probes.push_back(-std::numeric_limits<double>::denorm_min());
  probes.push_back(std::numeric_limits<double>::max());
  probes.push_back(std::numeric_limits<double>::lowest());
  probes.push_back(std::numeric_limits<double>::quiet_NaN());

  for (double x : probes) {
    EXPECT_EQ(eytz.LowerBound(keys.data(), x), StdLower(keys, x))
        << "lower_bound " << x << " n=" << keys.size();
    EXPECT_EQ(eytz.UpperBound(keys.data(), x), StdUpper(keys, x))
        << "upper_bound " << x << " n=" << keys.size();
  }
}

TEST(EytzingerTest, BelowCutoffStaysEmpty) {
  EytzingerKeys eytz;
  eytz.Build(nullptr, 0);  // empty input: no layout, caller falls back
  EXPECT_TRUE(eytz.empty());
  const double one[] = {3.5};
  eytz.Build(one, 1);  // n == 1
  EXPECT_TRUE(eytz.empty());
  std::vector<double> small(kEytzingerMinKeys - 1);
  for (size_t i = 0; i < small.size(); ++i) small[i] = static_cast<double>(i);
  eytz.Build(small.data(), small.size());
  EXPECT_TRUE(eytz.empty());
  // One more key crosses the cutoff.
  small.push_back(static_cast<double>(small.size()));
  eytz.Build(small.data(), small.size());
  EXPECT_FALSE(eytz.empty());
}

TEST(EytzingerTest, ClearReleasesLayout) {
  std::vector<double> keys(128);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = static_cast<double>(i);
  EytzingerKeys eytz;
  eytz.Build(keys.data(), keys.size());
  ASSERT_FALSE(eytz.empty());
  EXPECT_GT(eytz.MemoryUsage(), 0u);
  eytz.Clear();
  EXPECT_TRUE(eytz.empty());
  EXPECT_EQ(eytz.MemoryUsage(), 0u);
}

TEST(EytzingerTest, DistinctKeysSeveralSizes) {
  // Exercise perfect trees, one-past-perfect, and ragged last levels.
  for (size_t n : {64u, 65u, 127u, 128u, 129u, 1000u, 4096u}) {
    std::vector<double> keys(n);
    for (size_t i = 0; i < n; ++i) {
      keys[i] = static_cast<double>(i) * 1.25 - 100.0;
    }
    CheckAgainstStd(keys);
  }
}

TEST(EytzingerTest, AllEqualKeys) {
  CheckAgainstStd(std::vector<double>(200, 7.25));
}

TEST(EytzingerTest, HeavyDuplicates) {
  Rng rng(101);
  std::vector<double> keys(777);
  for (double& k : keys) {
    k = static_cast<double>(rng.UniformInt(10));  // ~78 copies per value
  }
  std::sort(keys.begin(), keys.end());
  CheckAgainstStd(keys);
}

TEST(EytzingerTest, DenormalAndHugeKeys) {
  std::vector<double> keys;
  const double denorm = std::numeric_limits<double>::denorm_min();
  for (int i = -40; i <= 40; ++i) {
    keys.push_back(static_cast<double>(i) * denorm);
  }
  keys.push_back(std::numeric_limits<double>::lowest());
  keys.push_back(std::numeric_limits<double>::max());
  keys.push_back(-1e300);
  keys.push_back(1e300);
  std::sort(keys.begin(), keys.end());
  CheckAgainstStd(keys);
}

TEST(EytzingerTest, RandomizedArrays) {
  Rng rng(202);
  for (int round = 0; round < 30; ++round) {
    const size_t n = kEytzingerMinKeys +
                     static_cast<size_t>(rng.UniformInt(2000));
    std::vector<double> keys(n);
    for (double& k : keys) k = rng.Uniform(-1e6, 1e6);
    // Sprinkle duplicates.
    for (size_t i = 1; i < n; i += 5) keys[i] = keys[i - 1];
    std::sort(keys.begin(), keys.end());
    CheckAgainstStd(keys);
  }
}

TEST(EytzingerTest, NanProbeMatchesStd) {
  std::vector<double> keys(256);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = static_cast<double>(i);
  EytzingerKeys eytz;
  eytz.Build(keys.data(), keys.size());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(eytz.LowerBound(keys.data(), nan), StdLower(keys, nan));
  EXPECT_EQ(eytz.UpperBound(keys.data(), nan), StdUpper(keys, nan));
}

TEST(EytzingerTest, RaggedLastBlockSizes) {
  // Sizes off the stride leave a short last block; the count there must
  // stop at n. Probes past the largest key land in that block.
  for (size_t n : {64u, 65u, 1000u, 4097u}) {
    std::vector<double> keys(n);
    for (size_t i = 0; i < n; ++i) keys[i] = static_cast<double>(i) * 0.5;
    CheckAgainstStd(keys);
  }
}

TEST(EytzingerTest, DuplicateRunsStraddleBlockBoundaries) {
  // Runs of equal keys that start before a block's first key and end
  // after it, and one that spans several whole blocks: the sampled key
  // equals keys on both sides of the boundary.
  for (size_t n : {1000u, 4097u}) {
    std::vector<double> keys(n);
    for (size_t i = 0; i < n; ++i) keys[i] = static_cast<double>(i);
    for (size_t b = kEytzingerStride; b < n; b += 3 * kEytzingerStride) {
      const size_t lo = b - 5;
      const size_t hi = std::min(n, b + 7);
      for (size_t i = lo; i < hi; ++i) keys[i] = keys[lo];
    }
    const size_t lo = 5 * kEytzingerStride - 1;
    for (size_t i = lo; i < lo + 4 * kEytzingerStride + 2; ++i) {
      keys[i] = keys[lo];
    }
    std::sort(keys.begin(), keys.end());
    CheckAgainstStd(keys);
  }
}

TEST(EytzingerTest, ProbesEqualToSampledKeys) {
  Rng rng(303);
  std::vector<double> keys(4097);
  for (double& k : keys) k = rng.Uniform(-1e3, 1e3);
  std::sort(keys.begin(), keys.end());
  EytzingerKeys eytz;
  eytz.Build(keys.data(), keys.size());
  for (size_t i = 0; i < keys.size(); i += kEytzingerStride) {
    for (const double x : {keys[i], keys[i - (i > 0 ? 1 : 0)]}) {
      EXPECT_EQ(eytz.LowerBound(keys.data(), x), StdLower(keys, x)) << i;
      EXPECT_EQ(eytz.UpperBound(keys.data(), x), StdUpper(keys, x)) << i;
    }
  }
}

TEST(EytzingerTest, InfiniteAndNanProbesOnRaggedSizes) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (size_t n : {64u, 65u, 1000u, 4097u}) {
    std::vector<double> keys(n);
    for (size_t i = 0; i < n; ++i) keys[i] = static_cast<double>(i % 7);
    std::sort(keys.begin(), keys.end());
    EytzingerKeys eytz;
    eytz.Build(keys.data(), keys.size());
    for (const double x : {-inf, inf, nan}) {
      EXPECT_EQ(eytz.LowerBound(keys.data(), x), StdLower(keys, x)) << n;
      EXPECT_EQ(eytz.UpperBound(keys.data(), x), StdUpper(keys, x)) << n;
    }
  }
}

TEST(EytzingerTest, UpperBoundPairMatchesStd) {
  // The interleaved two-probe descent (a query plan's SI and LI
  // boundaries) against two std::upper_bound calls: ragged sizes, equal
  // probes, probes whose descents end at different depths, and NaN and
  // infinite probes on either side.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(404);
  for (size_t n : {64u, 65u, 100u, 1000u, 4097u, 5000u}) {
    std::vector<double> keys(n);
    for (double& k : keys) k = std::floor(rng.Uniform(-50.0, 50.0));
    std::sort(keys.begin(), keys.end());
    EytzingerKeys eytz;
    eytz.Build(keys.data(), keys.size());
    std::vector<double> probes = {-inf, inf, nan, keys.front(), keys.back(),
                                  -1e9, 1e9};
    for (int i = 0; i < 40; ++i) {
      probes.push_back(keys[static_cast<size_t>(rng.UniformInt(n))]);
      probes.push_back(rng.Uniform(-60.0, 60.0));
    }
    for (const double x : probes) {
      for (const double y : probes) {
        size_t rx = 0;
        size_t ry = 0;
        eytz.UpperBoundPair(keys.data(), x, y, &rx, &ry);
        ASSERT_EQ(rx, StdUpper(keys, x)) << "n=" << n << " x=" << x;
        ASSERT_EQ(ry, StdUpper(keys, y)) << "n=" << n << " y=" << y;
      }
    }
  }
}

TEST(EytzingerTest, FootprintUnderOneBytePerKey) {
  for (size_t n : {4096u, 4097u, 100000u, 1u << 20}) {
    std::vector<double> keys(n);
    for (size_t i = 0; i < n; ++i) keys[i] = static_cast<double>(i);
    EytzingerKeys eytz;
    eytz.Build(keys.data(), keys.size());
    EXPECT_LE(eytz.MemoryUsage(), n) << "n=" << n;
  }
}

}  // namespace
}  // namespace planar
