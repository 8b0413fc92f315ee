// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.

#include "core/index_set.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "common/macros.h"
#include "common/random.h"
#include "core/mixed.h"
#include "core/parallel.h"
#include "geometry/vec.h"

namespace planar {

namespace {

// Derives the octant from the domain signs; fails when a domain straddles
// zero (octant would be ambiguous).
Result<Octant> OctantFromDomains(const std::vector<ParameterDomain>& domains) {
  std::vector<double> representative(domains.size());
  for (size_t i = 0; i < domains.size(); ++i) {
    const ParameterDomain& d = domains[i];
    if (d.lo > d.hi) {
      return Status::InvalidArgument("parameter domain with lo > hi");
    }
    if (d.lo < 0.0 && d.hi > 0.0) {
      return Status::InvalidArgument(
          "parameter domain straddles zero; the query octant is ambiguous");
    }
    // A domain touching or equal to zero counts as positive (the axis is
    // then ignored during query processing when a_i == 0).
    representative[i] = d.hi > 0.0 ? d.hi : d.lo;
  }
  return Octant::FromNormal(representative);
}

// Samples one mirrored-space normal: each entry uniform over the magnitude
// range of its domain, clamped away from zero.
std::vector<double> SampleNormal(const std::vector<ParameterDomain>& domains,
                                 Rng& rng) {
  constexpr double kMinEntry = 1e-12;
  std::vector<double> c(domains.size());
  for (size_t i = 0; i < domains.size(); ++i) {
    const double m1 = std::fabs(domains[i].lo);
    const double m2 = std::fabs(domains[i].hi);
    const double lo = std::min(m1, m2);
    const double hi = std::max(m1, m2);
    double v = rng.Uniform(lo, hi);
    if (lo == hi) v = lo;  // degenerate (known-constant) parameter
    if (v < kMinEntry) v = hi > kMinEntry ? kMinEntry : 1.0;
    c[i] = v;
  }
  return c;
}

}  // namespace

Result<PlanarIndexSet> PlanarIndexSet::Build(
    PhiMatrix phi, const std::vector<ParameterDomain>& domains,
    const IndexSetOptions& options) {
  if (phi.empty()) {
    return Status::InvalidArgument("cannot index an empty phi matrix");
  }
  if (domains.size() != phi.dim()) {
    return Status::InvalidArgument(
        "one parameter domain per phi output axis is required");
  }
  if (options.budget == 0) {
    return Status::InvalidArgument("index budget must be positive");
  }
  PLANAR_ASSIGN_OR_RETURN(Octant octant, OctantFromDomains(domains));

  PlanarIndexSet set(std::move(phi), options);
  // Phase 1 (serial, RNG-sequential): sample and deduplicate the normals.
  // This is O(budget^2 d') with no data access, so parallelizing it would
  // buy nothing and cost determinism of the accepted sequence.
  Rng rng(options.seed);
  const size_t max_attempts = options.budget * options.max_attempts_per_index;
  std::vector<IndexDefinition> definitions;
  size_t attempts = 0;
  while (definitions.size() < options.budget && attempts < max_attempts) {
    ++attempts;
    std::vector<double> c = SampleNormal(domains, rng);
    bool redundant = false;
    for (const auto& existing : definitions) {
      if (AreParallel(existing.first, c, options.dedup_tolerance)) {
        redundant = true;
        break;
      }
    }
    if (redundant) continue;
    definitions.emplace_back(std::move(c), octant);
  }
  if (definitions.empty()) {
    return Status::Internal("failed to sample any index normal");
  }
  // Phase 2: build the accepted indices across build_threads threads.
  PLANAR_RETURN_IF_ERROR(set.BuildIndicesParallel(std::move(definitions)));
  return set;
}

Result<PlanarIndexSet> PlanarIndexSet::BuildWithNormals(
    PhiMatrix phi, const std::vector<std::vector<double>>& normals,
    const Octant& octant, const IndexSetOptions& options) {
  if (phi.empty()) {
    return Status::InvalidArgument("cannot index an empty phi matrix");
  }
  if (normals.empty()) {
    return Status::InvalidArgument("at least one normal is required");
  }
  PlanarIndexSet set(std::move(phi), options);
  std::vector<IndexDefinition> definitions;
  definitions.reserve(normals.size());
  for (const auto& normal : normals) {
    definitions.emplace_back(normal, octant);
  }
  PLANAR_RETURN_IF_ERROR(set.BuildIndicesParallel(std::move(definitions)));
  return set;
}

Status PlanarIndexSet::BuildIndicesParallel(
    std::vector<IndexDefinition> definitions) {
  const size_t count = definitions.size();
  if (count == 0) return Status::OK();
  // Each slot builds independently against the shared (read-only) phi
  // matrix; slots keep definition order, so the resulting indices_ layout
  // — and therefore SelectBestIndex tie-breaking, serialization order,
  // and every stretch/angle score — is identical to the serial build.
  std::vector<std::optional<PlanarIndex>> slots(count);
  std::vector<Status> statuses(count, Status::OK());
  ParallelFor(
      count,
      [&](size_t i) {
        Result<PlanarIndex> index =
            PlanarIndex::Build(phi_.get(), std::move(definitions[i].first),
                               definitions[i].second, options_.index_options);
        if (index.ok()) {
          slots[i].emplace(std::move(index).value());
        } else {
          statuses[i] = index.status();
        }
      },
      options_.build_threads);
  for (const Status& status : statuses) {
    PLANAR_RETURN_IF_ERROR(status);
  }
  indices_.reserve(indices_.size() + count);
  for (std::optional<PlanarIndex>& slot : slots) {
    indices_.push_back(std::move(*slot));
  }
  return Status::OK();
}

int PlanarIndexSet::SelectBestIndex(const NormalizedQuery& q) const {
  return Select(q, nullptr);
}

int PlanarIndexSet::Select(const NormalizedQuery& q,
                           PlanarIndex::QueryPlan* plan) const {
  // Non-finite parameters defeat every selection heuristic and the index
  // pruning math itself; reporting "no index" routes such queries to the
  // exact sequential-scan fallback.
  if (!q.IsFinite()) return -1;
  const bool by_interval =
      options_.selector == IndexSetOptions::Selector::kIntervalCount;
  int best = -1;
  double best_score = 0.0;
  for (size_t i = 0; i < indices_.size(); ++i) {
    const PlanarIndex& index = indices_[i];
    if (!index.CanServe(q)) continue;
    PlanarIndex::QueryPlan candidate;
    double score = 0.0;
    switch (options_.selector) {
      case IndexSetOptions::Selector::kStretch:
        score = index.MaxStretch(q);  // smaller is better
        break;
      case IndexSetOptions::Selector::kAngle:
        score = -index.CosAngle(q);  // larger cosine is better
        break;
      case IndexSetOptions::Selector::kIntervalCount:
        candidate = index.Plan(q).value();  // finite and servable
        score = static_cast<double>(candidate.ii());
        break;
    }
    if (best == -1 || score < best_score) {
      best = static_cast<int>(i);
      best_score = score;
      if (plan != nullptr) *plan = candidate;
    }
  }
  if (best >= 0 && !by_interval && plan != nullptr) {
    *plan = indices_[static_cast<size_t>(best)].Plan(q).value();
  }
  return best;
}

PlanarIndexSet::Routing PlanarIndexSet::Route(
    const NormalizedQuery& norm, RouteKind kind,
    const CountTolerance& tolerance) const {
  Routing route;
  route.index = Select(norm, &route.plan);
  if (route.index < 0) return route;
  const double n = static_cast<double>(phi_->size());
  const double intermediate = static_cast<double>(route.plan.ii());
  // A COUNT whose bounds already meet the tolerance is answered in
  // O(log n) no matter how wide the intermediate interval is, so only a
  // count that would refine is diverted to the flat scan.
  const bool refines =
      kind != RouteKind::kCount || intermediate > tolerance.Allowed(n);
  route.scan = refines && intermediate > options_.scan_fallback_fraction * n;
  return route;
}

PlanarIndexSet::Explanation PlanarIndexSet::Explain(
    const ScalarProductQuery& q) const {
  Explanation e;
  const Routing route = Route(NormalizedQuery::From(q),
                              RouteKind::kInequality, CountTolerance());
  if (route.index < 0) return e;
  e.index_used = route.index;
  e.scan_fallback = route.scan;
  e.index_explanation =
      indices_[static_cast<size_t>(route.index)].ExplainPlan(route.plan);
  return e;
}

std::string PlanarIndexSet::Explanation::ToString() const {
  if (index_used < 0) return "no compatible index: sequential scan";
  std::string out = "index " + std::to_string(index_used);
  if (scan_fallback) {
    out += " (hybrid fallback to sequential scan: interval too wide); would "
           "have run as: ";
  } else {
    out += ": ";
  }
  out += index_explanation.ToString();
  return out;
}

PlanarIndexSet::SelectivityBounds PlanarIndexSet::EstimateSelectivity(
    const ScalarProductQuery& q) const {
  SelectivityBounds bounds;
  PlanarIndex::QueryPlan plan;
  const double n = static_cast<double>(phi_->size());
  if (Select(NormalizedQuery::From(q), &plan) < 0 || n == 0.0 ||
      plan.degenerate) {
    return bounds;
  }
  const double accepted = static_cast<double>(plan.accepted());
  bounds.lo = accepted / n;
  bounds.hi = (accepted + static_cast<double>(plan.ii())) / n;
  return bounds;
}

InequalityResult PlanarIndexSet::Inequality(const ScalarProductQuery& q) const {
  Result<InequalityResult> result = Inequality(q, Deadline::Infinite());
  PLANAR_CHECK(result.ok());  // an infinite deadline never expires
  return std::move(result).value();
}

Result<InequalityResult> PlanarIndexSet::Inequality(
    const ScalarProductQuery& q, const Deadline& deadline) const {
  const NormalizedQuery norm = NormalizedQuery::From(q);
  const Routing route = Route(norm, RouteKind::kInequality, CountTolerance());
  if (route.scan) {
    return ScanInequality(*phi_, q, deadline,
                          route.ScanResultBound(phi_->size()));
  }
  Result<InequalityResult> result =
      indices_[static_cast<size_t>(route.index)].ServeInequality(
          norm, route.plan, deadline);
  if (result.ok()) result->stats.index_used = route.index;
  return result;
}

Result<CountResult> PlanarIndexSet::CountInequality(
    const ScalarProductQuery& q, const CountTolerance& tolerance,
    const Deadline& deadline) const {
  const NormalizedQuery norm = NormalizedQuery::From(q);
  const Routing route = Route(norm, RouteKind::kCount, tolerance);
  if (route.scan) return ScanCountInequality(*phi_, q, deadline);
  Result<CountResult> result =
      indices_[static_cast<size_t>(route.index)].ServeCount(
          norm, route.plan, tolerance, deadline);
  if (result.ok()) result->stats.index_used = route.index;
  return result;
}

Result<AggregateResult> PlanarIndexSet::AggregateInequality(
    const ScalarProductQuery& q, const CountTolerance& tolerance,
    const Deadline& deadline) const {
  const NormalizedQuery norm = NormalizedQuery::From(q);
  const Routing route = Route(norm, RouteKind::kAggregate, tolerance);
  if (route.scan) {
    return ScanAggregateInequality(*phi_, options_.index_options.payload_column,
                                   q, deadline);
  }
  Result<AggregateResult> result =
      indices_[static_cast<size_t>(route.index)].ServeAggregate(
          norm, route.plan, tolerance, deadline);
  if (result.ok()) result->count.stats.index_used = route.index;
  return result;
}

Result<TopKResult> PlanarIndexSet::TopK(const ScalarProductQuery& q,
                                        size_t k) const {
  return TopK(q, k, Deadline::Infinite());
}

Result<TopKResult> PlanarIndexSet::TopK(const ScalarProductQuery& q, size_t k,
                                        const Deadline& deadline) const {
  const NormalizedQuery norm = NormalizedQuery::From(q);
  if (!norm.IsFinite()) {
    return Status::InvalidArgument("query parameters must be finite");
  }
  const Routing route = Route(norm, RouteKind::kTopK, CountTolerance());
  if (route.scan) return ScanTopK(*phi_, q, k, deadline);
  Result<TopKResult> result =
      indices_[static_cast<size_t>(route.index)].ServeTopK(norm, route.plan,
                                                           k, deadline);
  if (result.ok()) result->stats.index_used = route.index;
  return result;
}

Status PlanarIndexSet::AddIndex(std::vector<double> normal,
                                const Octant& octant) {
  Result<PlanarIndex> index = PlanarIndex::Build(
      phi_.get(), std::move(normal), octant, options_.index_options);
  PLANAR_RETURN_IF_ERROR(index.status());
  indices_.push_back(std::move(index).value());
  return Status::OK();
}

Status PlanarIndexSet::AddIndices(
    std::vector<IndexDefinition> definitions) {
  return BuildIndicesParallel(std::move(definitions));
}

Status PlanarIndexSet::RemoveIndex(size_t i) {
  if (i >= indices_.size()) {
    return Status::OutOfRange("index position out of range");
  }
  indices_.erase(indices_.begin() + static_cast<ptrdiff_t>(i));
  return Status::OK();
}

Status PlanarIndexSet::UpdateRow(uint32_t row, const double* phi_values) {
  if (row >= phi_->size()) {
    return Status::OutOfRange("row id out of range");
  }
  phi_->SetRow(row, phi_values);
  for (PlanarIndex& index : indices_) {
    if (!index.Update(row)) {
      index.Rebuild();
      ++rebuild_count_;
    }
  }
  return Status::OK();
}

Status PlanarIndexSet::AppendRow(const double* phi_values) {
  phi_->AppendRow(phi_values);
  const uint32_t row = static_cast<uint32_t>(phi_->size() - 1);
  for (PlanarIndex& index : indices_) {
    if (!index.NotifyAppend(row)) {
      index.Rebuild();
      ++rebuild_count_;
    }
  }
  return Status::OK();
}

Status PlanarIndexSet::AppendRows(const double* rows, size_t count) {
  if (count == 0) return Status::OK();
  const uint32_t first = static_cast<uint32_t>(phi_->size());
  const size_t dim = phi_->dim();
  // One reservation (mirror included) per batch: a matrix cloned at
  // capacity == size would otherwise double on the first appended row.
  phi_->Reserve(first + count);
  for (size_t i = 0; i < count; ++i) {
    phi_->AppendRow(rows + i * dim);
  }
  for (PlanarIndex& index : indices_) {
    if (!index.AppendBatch(first, count)) {
      index.Rebuild();
      ++rebuild_count_;
    }
  }
  return Status::OK();
}

Result<PlanarIndexSet> PlanarIndexSet::Clone() const {
  for (const PlanarIndex& index : indices_) {
    if (index.backend() == PlanarIndexOptions::Backend::kBTree) {
      return Status::FailedPrecondition(
          "Clone supports the sorted-array backend only; the B+-tree "
          "node store is not copyable");
    }
  }
  PlanarIndexSet copy(PhiMatrix(*phi_), options_);
  copy.rebuild_count_ = rebuild_count_;
  copy.indices_.reserve(indices_.size());
  for (const PlanarIndex& index : indices_) {
    Result<PlanarIndex> cloned = index.CloneFor(copy.phi_.get());
    if (!cloned.ok()) return cloned.status();
    copy.indices_.push_back(std::move(cloned).value());
  }
  return copy;
}

size_t PlanarIndexSet::MemoryUsage() const {
  size_t total = sizeof(*this) + phi_->MemoryUsage();
  for (const PlanarIndex& index : indices_) total += index.MemoryUsage();
  return total;
}

void PlanarIndexSet::ResolvePrecision() {
  bool& mixed = options_.index_options.mixed_precision;
  mixed = MixedPrecisionRuntimeEnabled() &&
          (MixedPrecisionForcedOn() ||
           (mixed && phi_->dim() >= kMixedMinDim));
  // A cloned matrix carries its mirror along already.
  if (mixed && !phi_->has_f32_mirror()) phi_->EnableF32Mirror();
}

size_t PlanarIndexSet::ResidentBytes() const {
  const size_t n = phi_->size();
  // f32-ok: the mirror halves the bytes the verification kernels stream.
  const bool mirror = phi_->f32_data() != nullptr;
  const size_t row_bytes = phi_->dim() * (mirror ? sizeof(float)
                                                 : sizeof(double));
  size_t total = n * row_bytes;
  // Per index: the phase-1/2 walk touches one sorted key (f32 when the
  // mixed bracket walk is live, f64 otherwise) and one row id per rank.
  const size_t key_bytes = mirror ? sizeof(float) : sizeof(double);
  total += indices_.size() * n * (key_bytes + sizeof(uint32_t));
  return total;
}

}  // namespace planar
