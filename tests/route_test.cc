// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Route differential suite: the scan fallback (IndexSetOptions::
// scan_fallback_fraction) must never change an answer. Every query kind
// runs once with the scan forced (fraction ~0, so any non-empty II routes
// to the sequential scan) and once with the index forced (fraction 1.0),
// over d' in {2, 8}, f64 and (at d' = 8) the f32 mirror, the sorted array
// and the B+-tree, monolithic sets and S = 4 shards, serial and batched.
// A set builds no mirror below kMixedMinDim, so the d' = 2 mirror routes
// run under PLANAR_FORCE_F32=1, which turns the mirror on in every config:
//
//   - inequality ids match as sets, and exactly where both sides order
//     them canonically (sharded results are ascending);
//   - tolerance-0 counts and aggregates match exactly (payloads are
//     integers, so every summation order is exact);
//   - a tolerance > 0 count's bounds contain the exact count;
//   - top-k neighbors are bit-identical (ids and distance bits).

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/index_set.h"
#include "core/mixed.h"
#include "core/sharded.h"
#include "tests/test_util.h"

namespace planar {
namespace {

constexpr size_t kRows = 2000;
constexpr double kScanForced = 1e-9;
constexpr double kIndexForced = 1.0;

struct Config {
  size_t dim = 2;
  bool mirror = false;
  bool btree = false;
  size_t shards = 1;

  std::string Name() const {
    return "d'=" + std::to_string(dim) + (mirror ? " mirror" : " f64") +
           (btree ? " btree" : " sorted") + " S=" + std::to_string(shards);
  }
};

// Integer-valued rows: column 0 doubles as the aggregate payload, and
// integer payloads make every summation order exact.
PhiMatrix IntegerPhi(size_t dim, uint64_t seed) {
  Rng rng(seed);
  PhiMatrix phi(dim);
  phi.Reserve(kRows);
  std::vector<double> row(dim);
  for (size_t r = 0; r < kRows; ++r) {
    for (double& v : row) v = static_cast<double>(rng.UniformInt(1, 100));
    phi.AppendRow(row);
  }
  return phi;
}

// One served set behind the query surface the test drives: a monolithic
// PlanarIndexSet for S = 1, a ShardedIndexSet otherwise.
class Served {
 public:
  Served(const Config& config, double fraction) {
    IndexSetOptions options;
    options.budget = 4;
    options.seed = 5;
    options.scan_fallback_fraction = fraction;
    options.index_options.mixed_precision = config.mirror;
    options.index_options.backend =
        config.btree ? PlanarIndexOptions::Backend::kBTree
                     : PlanarIndexOptions::Backend::kSortedArray;
    // Payload aggregates need the sorted array's flat rank order.
    if (!config.btree) options.index_options.payload_column = 0;
    const std::vector<ParameterDomain> domains(config.dim,
                                               ParameterDomain{1.0, 8.0});
    PhiMatrix phi = IntegerPhi(config.dim, 40 + config.dim);
    if (config.shards == 1) {
      auto built = PlanarIndexSet::Build(std::move(phi), domains, options);
      EXPECT_TRUE(built.ok()) << built.status().ToString();
      mono_ = std::make_unique<PlanarIndexSet>(std::move(built).value());
      // The config's name must match the precision it exercises.
      EXPECT_EQ(mono_->options().index_options.mixed_precision,
                MixedPrecisionRuntimeEnabled() &&
                    (config.mirror || MixedPrecisionForcedOn()))
          << config.Name();
    } else {
      ShardedIndexSetOptions sharded;
      sharded.shards = config.shards;
      sharded.min_rows_per_shard = 1;
      sharded.query_threads = 1;
      sharded.set_options = options;
      auto built = ShardedIndexSet::Build(std::move(phi), domains, sharded);
      EXPECT_TRUE(built.ok()) << built.status().ToString();
      sharded_ = std::make_unique<ShardedIndexSet>(std::move(built).value());
    }
  }

  bool canonical() const { return sharded_ != nullptr; }

  Result<InequalityResult> Inequality(const ScalarProductQuery& q) const {
    return mono_ ? mono_->Inequality(q, Deadline::Infinite())
                 : sharded_->Inequality(q);
  }
  std::vector<Result<InequalityResult>> Batch(
      const std::vector<ScalarProductQuery>& qs) const {
    return mono_ ? mono_->BatchInequality(qs) : sharded_->BatchInequality(qs);
  }
  Result<CountResult> Count(const ScalarProductQuery& q,
                            const CountTolerance& tolerance) const {
    return mono_ ? mono_->CountInequality(q, tolerance)
                 : sharded_->CountInequality(q, tolerance);
  }
  Result<AggregateResult> Aggregate(const ScalarProductQuery& q) const {
    return mono_ ? mono_->AggregateInequality(q)
                 : sharded_->AggregateInequality(q);
  }
  Result<TopKResult> TopK(const ScalarProductQuery& q, size_t k) const {
    return mono_ ? mono_->TopK(q, k) : sharded_->TopK(q, k);
  }

 private:
  std::unique_ptr<PlanarIndexSet> mono_;
  std::unique_ptr<ShardedIndexSet> sharded_;
};

// Random queries over the index domain, both directions, plus one from a
// foreign octant (no index can serve it: both routes scan).
std::vector<ScalarProductQuery> Queries(size_t dim) {
  Rng rng(77 + dim);
  std::vector<ScalarProductQuery> qs;
  for (size_t i = 0; i < 12; ++i) {
    ScalarProductQuery q;
    q.a.resize(dim);
    double mean = 0.0;
    for (double& v : q.a) {
      v = rng.Uniform(1.0, 8.0);
      mean += v * 50.0;
    }
    q.b = mean * rng.Uniform(0.6, 1.4);
    q.cmp = i % 2 == 0 ? Comparison::kLessEqual : Comparison::kGreaterEqual;
    qs.push_back(q);
  }
  ScalarProductQuery foreign = qs[0];
  foreign.a[0] = -foreign.a[0];
  qs.push_back(foreign);
  return qs;
}

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

void ExpectSameIds(const InequalityResult& scan, const InequalityResult& index,
                   bool canonical, const std::string& where) {
  if (canonical) {
    EXPECT_EQ(scan.ids, index.ids) << where;
  } else {
    EXPECT_EQ(Sorted(scan.ids), Sorted(index.ids)) << where;
  }
}

class RouteDifferentialTest : public ::testing::TestWithParam<Config> {};

TEST_P(RouteDifferentialTest, ScanRouteMatchesIndexRoute) {
  const Config config = GetParam();
  const Served scan(config, kScanForced);
  const Served index(config, kIndexForced);
  const std::vector<ScalarProductQuery> qs = Queries(config.dim);
  size_t scanned = 0;
  size_t indexed = 0;
  for (size_t i = 0; i < qs.size(); ++i) {
    const ScalarProductQuery& q = qs[i];
    const std::string where = config.Name() + " query " + std::to_string(i);

    auto s = scan.Inequality(q);
    auto x = index.Inequality(q);
    ASSERT_TRUE(s.ok() && x.ok()) << where;
    ExpectSameIds(*s, *x, scan.canonical(), where);
    if (!scan.canonical()) {
      scanned += s->stats.index_used < 0;
      indexed += x->stats.index_used >= 0;
    }

    auto sc = scan.Count(q, CountTolerance());
    auto xc = index.Count(q, CountTolerance());
    ASSERT_TRUE(sc.ok() && xc.ok()) << where;
    EXPECT_TRUE(sc->exact && xc->exact) << where;
    EXPECT_EQ(sc->estimate, xc->estimate) << where;
    EXPECT_EQ(xc->estimate, x->ids.size()) << where;

    CountTolerance loose;
    loose.relative = 0.05;
    for (const Served* served : {&scan, &index}) {
      auto c = served->Count(q, loose);
      ASSERT_TRUE(c.ok()) << where;
      EXPECT_LE(c->lower, x->ids.size()) << where;
      EXPECT_GE(c->upper, x->ids.size()) << where;
    }

    if (!config.btree) {
      auto sa = scan.Aggregate(q);
      auto xa = index.Aggregate(q);
      ASSERT_TRUE(sa.ok() && xa.ok()) << where;
      EXPECT_TRUE(sa->exact && xa->exact) << where;
      EXPECT_EQ(Bits(sa->sum), Bits(xa->sum)) << where;
      EXPECT_EQ(sa->count.estimate, xa->count.estimate) << where;
    }

    for (const size_t k : {size_t{1}, size_t{10}}) {
      auto st = scan.TopK(q, k);
      auto xt = index.TopK(q, k);
      ASSERT_TRUE(st.ok() && xt.ok()) << where;
      ASSERT_EQ(st->neighbors.size(), xt->neighbors.size()) << where;
      for (size_t j = 0; j < st->neighbors.size(); ++j) {
        EXPECT_EQ(st->neighbors[j].id, xt->neighbors[j].id) << where;
        EXPECT_EQ(Bits(st->neighbors[j].distance),
                  Bits(xt->neighbors[j].distance))
            << where;
      }
    }
  }
  if (!scan.canonical()) {
    // Both routes really ran: the forced scan took most queries and the
    // forced index every query it could serve.
    EXPECT_GT(scanned, qs.size() / 2) << config.Name();
    EXPECT_EQ(indexed, qs.size() - 1) << config.Name();
  }

  // Batched: each route's batch equals its own serial answers exactly,
  // and the two routes agree as sets.
  const auto sb = scan.Batch(qs);
  const auto xb = index.Batch(qs);
  ASSERT_EQ(sb.size(), qs.size());
  ASSERT_EQ(xb.size(), qs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    const std::string where = config.Name() + " batch " + std::to_string(i);
    ASSERT_TRUE(sb[i].ok() && xb[i].ok()) << where;
    auto s = scan.Inequality(qs[i]);
    auto x = index.Inequality(qs[i]);
    EXPECT_EQ(sb[i]->ids, s->ids) << where;
    EXPECT_EQ(xb[i]->ids, x->ids) << where;
    ExpectSameIds(*sb[i], *xb[i], scan.canonical(), where);
  }
}

std::vector<Config> AllConfigs() {
  std::vector<Config> configs;
  for (const size_t dim : {size_t{2}, size_t{8}}) {
    for (const bool mirror : {false, true}) {
      // Below kMixedMinDim the option is ignored: the config would repeat
      // the f64 one under a name that claims the mirror.
      if (mirror && dim < kMixedMinDim) continue;
      for (const bool btree : {false, true}) {
        for (const size_t shards : {size_t{1}, size_t{4}}) {
          configs.push_back({dim, mirror, btree, shards});
        }
      }
    }
  }
  return configs;
}

INSTANTIATE_TEST_SUITE_P(
    AllRoutes, RouteDifferentialTest, ::testing::ValuesIn(AllConfigs()),
    [](const ::testing::TestParamInfo<Config>& param_info) {
      const Config& c = param_info.param;
      return "d" + std::to_string(c.dim) + (c.mirror ? "_mirror" : "_f64") +
             (c.btree ? "_btree" : "_sorted") + "_S" +
             std::to_string(c.shards);
    });

}  // namespace
}  // namespace planar
