// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.

#include "core/planar_index.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <thread>
#include <utility>

#include "common/macros.h"
#include "core/kernels/kernels.h"
#include "core/parallel.h"
#include "core/sort_util.h"
#include "geometry/vec.h"

namespace planar {

namespace {

// Bracket half-width around an f32 mirror key guaranteed to contain the
// exact f64 key: float conversion error is at most u32 = 2^-24 relative
// (so <= u32 |k32| / (1 - u32) in terms of the mirror value) plus 2^-150
// absolute in the f32 subnormal range. 4 u32 |k32| + 2^-126 covers both
// with margin to spare for the double-arithmetic rounding of the bracket
// itself. Only valid for finite mirror keys; overflow-clamped infinities
// fall back to the exact key.
constexpr double kKeyBracketRel = 0x1p-22;
constexpr double kKeyBracketAbs = 0x1p-126;

// Rows of the next block Drive prefetches while classifying the
// current one; the classify kernels prefetch the rest of each block
// themselves.
constexpr size_t kPrefetchNextBlockRows = 16;

// Exact signed residual <a, phi_row> - b, computed with the kernel dot so
// per-row evaluations (top-k walk) agree bit-for-bit with the batched
// verification blocks.
double ResidualNormalized(const NormalizedQuery& q, const double* phi_row) {
  return kernels::Ops().dot_one(q.a.data(), phi_row, q.a.size()) - q.b;
}

}  // namespace

Result<PlanarIndex> PlanarIndex::Build(const PhiMatrix* phi,
                                       std::vector<double> normal,
                                       const Octant& octant,
                                       const PlanarIndexOptions& options) {
  if (phi == nullptr) {
    return Status::InvalidArgument("phi matrix must not be null");
  }
  if (phi->empty()) {
    return Status::InvalidArgument("cannot index an empty phi matrix");
  }
  if (normal.size() != phi->dim() || octant.dim() != phi->dim()) {
    return Status::InvalidArgument(
        "normal / octant dimensionality must match the phi matrix");
  }
  for (double c : normal) {
    if (!(c > 0.0) || !std::isfinite(c)) {
      return Status::InvalidArgument(
          "index normal entries must be strictly positive and finite");
    }
  }
  if (!std::isfinite(options.epsilon_band) || options.epsilon_band < 0.0) {
    return Status::InvalidArgument(
        "epsilon_band must be finite and non-negative");
  }
  if (options.payload_column >= 0) {
    if (static_cast<size_t>(options.payload_column) >= phi->dim()) {
      return Status::InvalidArgument(
          "payload_column must name a phi matrix column");
    }
    if (options.backend == PlanarIndexOptions::Backend::kBTree) {
      return Status::InvalidArgument(
          "payload aggregates require the sorted-array backend (prefix "
          "aggregates are keyed by the flat rank order)");
    }
  }

  PlanarIndex index;
  index.phi_ = phi;
  index.options_ = options;
  index.normal_ = std::move(normal);
  index.translator_ = Translator::Create(*phi, octant, options.translation);
  index.Rebuild();
  return index;
}

Result<PlanarIndex> PlanarIndex::BuildFirstOctant(
    const PhiMatrix* phi, std::vector<double> normal,
    const PlanarIndexOptions& options) {
  const size_t d = normal.size();
  return Build(phi, std::move(normal), Octant::First(d), options);
}

void PlanarIndex::Rebuild() {
  translator_ =
      Translator::Create(*phi_, translator_.octant(), options_.translation);
  const size_t d = normal_.size();
  signed_normal_.resize(d);
  key_shift_ = 0.0;
  for (size_t i = 0; i < d; ++i) {
    signed_normal_[i] = translator_.octant().sign(i) * normal_[i];
    key_shift_ += normal_[i] * translator_.delta()[i];
  }

  const size_t n = phi_->size();
  const bool flat =
      options_.backend == PlanarIndexOptions::Backend::kSortedArray;
  // Keys by row id: straight into keys_ on the sorted array (sorted in
  // place below), into key_of_row_ on the B+-tree, which keeps them.
  std::vector<double>& by_row = flat ? keys_ : key_of_row_;
  by_row.reserve(n);
  by_row.resize(n);
  // Batched kernel calls over contiguous phi row ranges; bit-identical to
  // per-row RawKey (same blocked dot, same shift), and — because every
  // row's key is independent — bit-identical for any shard count, so
  // build_threads never changes a key.
  size_t threads = options_.build_threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  if (threads > 1 && n >= kParallelBuildMinRows) {
    const size_t chunk = (n + threads - 1) / threads;
    ParallelFor(
        threads,
        [&](size_t s) {
          const size_t begin = s * chunk;
          const size_t end = std::min(n, begin + chunk);
          if (begin >= end) return;
          kernels::Ops().dot_range(signed_normal_.data(), d, phi_->data(),
                                   phi_->dim(), begin, end - begin,
                                   key_shift_, by_row.data() + begin);
        },
        threads);
  } else {
    kernels::Ops().dot_range(signed_normal_.data(), d, phi_->data(),
                             phi_->dim(), 0, n, key_shift_, by_row.data());
  }
  std::vector<OrderStatisticBTree::Entry> entries(n);
  for (size_t row = 0; row < n; ++row) {
    entries[row] = {by_row[row], static_cast<uint32_t>(row)};
  }
  SortEntries(&entries, options_.build_threads);

  if (flat) {
    ids_.reserve(n);
    ids_.resize(n);
    for (size_t r = 0; r < n; ++r) {
      keys_[r] = entries[r].key;
      ids_[r] = entries[r].value;
    }
    tree_.Clear();
    key_of_row_.clear();
    key_of_row_.shrink_to_fit();
  } else {
    tree_.BuildFromSorted(entries);
    keys_.clear();
    keys_.shrink_to_fit();
    ids_.clear();
    ids_.shrink_to_fit();
  }
  RefreshSearchLayout();
}

void PlanarIndex::RefreshSearchLayout() {
  if (options_.backend == PlanarIndexOptions::Backend::kSortedArray) {
    eytz_.Build(keys_.data(), keys_.size());
    if (options_.mixed_precision && phi_->has_f32_mirror() &&
        MixedPrecisionRuntimeEnabled()) {
      // Refresh the f32 key mirror alongside the Eytzinger sidecar so
      // every maintenance path (Rebuild, Update, UpdateBatch, append
      // merges) keeps it consistent by construction. GrowCapacity keeps
      // a cloned (capacity == size) mirror from doubling on an append.
      internal::GrowCapacity(&keys_f32_, keys_.size());
      keys_f32_.resize(keys_.size());
      for (size_t r = 0; r < keys_.size(); ++r) {
        keys_f32_[r] = FloatMirrorValue(keys_[r]);
      }
    } else {
      keys_f32_.clear();
      keys_f32_.shrink_to_fit();
    }
    if (options_.payload_column >= 0) {
      BuildPrefixAggregates(
          phi_->data() + static_cast<size_t>(options_.payload_column),
          phi_->dim(), ids_.data(), ids_.size(), &payload_prefix_);
    } else {
      payload_prefix_.Clear();
    }
  } else {
    eytz_.Clear();
    keys_f32_.clear();
    keys_f32_.shrink_to_fit();
    payload_prefix_.Clear();
  }
}

double PlanarIndex::RawKey(const double* phi_row) const {
  // Kernel dot (not geometry/vec.h Dot) so single-row key maintenance
  // matches the batched Rebuild computation bit-for-bit.
  return kernels::Ops().dot_one(signed_normal_.data(), phi_row,
                                signed_normal_.size()) +
         key_shift_;
}

double PlanarIndex::KeyOf(uint32_t row) const {
  if (options_.backend == PlanarIndexOptions::Backend::kBTree) {
    return key_of_row_[row];
  }
  const size_t pos = static_cast<size_t>(
      std::find(ids_.begin(), ids_.end(), row) - ids_.begin());
  PLANAR_CHECK_LT(pos, ids_.size());
  return keys_[pos];
}

void PlanarIndex::ExportRanked(
    std::vector<OrderStatisticBTree::Entry>* out) const {
  out->clear();
  if (options_.backend == PlanarIndexOptions::Backend::kBTree) {
    tree_.ExportSorted(out);
    return;
  }
  out->resize(keys_.size());
  for (size_t r = 0; r < keys_.size(); ++r) {
    (*out)[r] = {keys_[r], ids_[r]};
  }
}

size_t PlanarIndex::RankLessEqual(double key) const {
  if (options_.backend == PlanarIndexOptions::Backend::kSortedArray) {
    // Branchless Eytzinger descent with prefetch; small arrays (below
    // kEytzingerMinKeys the sidecar is not materialized) keep the flat
    // std::upper_bound, which is already cache-resident there.
    if (!eytz_.empty()) return eytz_.UpperBound(keys_.data(), key);
    return static_cast<size_t>(
        std::upper_bound(keys_.begin(), keys_.end(), key) - keys_.begin());
  }
  return tree_.CountLessEqual(key);
}

bool PlanarIndex::CanServe(const NormalizedQuery& q) const {
  if (q.a.size() != normal_.size()) return false;
  const Octant& oct = translator_.octant();
  for (size_t i = 0; i < q.a.size(); ++i) {
    if (q.a[i] > 0.0 && oct.sign(i) < 0.0) return false;
    if (q.a[i] < 0.0 && oct.sign(i) > 0.0) return false;
  }
  return true;
}

PlanarIndex::Prepared PlanarIndex::Prepare(const NormalizedQuery& q) const {
  Prepared p;
  p.b_prime = translator_.MirroredOffset(q);

  // Split axes into active (normal, finite ratio a~_i / c_i) and
  // always-excluded (a~_i == 0, or a ratio too degenerate to divide by).
  struct Axis {
    double ratio;     // a~_i / c_i
    double c_psi_min;  // c_i * psi_min_i
    double c_psi_max;
    double a_psi_min;  // a~_i * psi_min_i
    double a_psi_max;
  };
  std::vector<Axis> axes;
  axes.reserve(q.a.size());
  size_t m = 0;
  for (size_t i = 0; i < q.a.size(); ++i) {
    const double at = std::fabs(q.a[i]);
    const double psi_min = translator_.PsiMin(i);
    const double psi_max = translator_.PsiMax(i);
    const double ratio = at > 0.0 ? at / normal_[i] : 0.0;
    // Only axes whose ratio a~_i / c_i is a normal, finite double may
    // enter the rmin/rmax envelope: the ratio reappears as a divisor in
    // the key cuts ((b' - E) / r), so a ratio that underflowed to zero or
    // a denormal would evaluate b/0.0-style expressions, and an overflowed
    // infinity poisons the top-k lower bound. Degenerate-ratio axes get
    // the zero-axis treatment instead — bounded by their psi range and
    // resolved by exact verification — which is sound for any exclusion
    // choice.
    if (ratio >= std::numeric_limits<double>::min() &&
        std::isfinite(ratio)) {
      axes.push_back({ratio, normal_[i] * psi_min, normal_[i] * psi_max,
                      at * psi_min, at * psi_max});
      ++m;
    } else {
      p.c0min += normal_[i] * psi_min;
      p.c0max += normal_[i] * psi_max;
      p.emin += at * psi_min;
      p.emax += at * psi_max;
    }
  }
  p.excluded_axes = q.a.size() - m;  // zero or degenerate-ratio axes
  if (m == 0) {
    // Every axis is excluded: the key carries no information about the
    // scalar product, so the whole dataset is intermediate and verified
    // exactly.
    p.all_axes_zero = true;
    p.low_cut = -std::numeric_limits<double>::infinity();
    p.high_cut = std::numeric_limits<double>::infinity();
    return p;
  }

  size_t prefix = 0;  // smallest-ratio axes excluded
  size_t suffix = 0;  // largest-ratio axes excluded
  std::sort(axes.begin(), axes.end(),
            [](const Axis& x, const Axis& y) { return x.ratio < y.ratio; });

  if (options_.enable_axis_exclusion && m > 1) {
    // Prefix sums over ratio order for O(1) evaluation of any
    // prefix/suffix exclusion choice.
    std::vector<double> pc_min(m + 1), pc_max(m + 1), pa_min(m + 1),
        pa_max(m + 1);
    pc_min[0] = pc_max[0] = pa_min[0] = pa_max[0] = 0.0;
    for (size_t i = 0; i < m; ++i) {
      pc_min[i + 1] = pc_min[i] + axes[i].c_psi_min;
      pc_max[i + 1] = pc_max[i] + axes[i].c_psi_max;
      pa_min[i + 1] = pa_min[i] + axes[i].a_psi_min;
      pa_max[i + 1] = pa_max[i] + axes[i].a_psi_max;
    }
    // Choose the exclusion (prefix, suffix) minimizing the interval width
    //   W = (b' - Emin)/rmin - (b' - Emax)/rmax + (C0max - C0min),
    // a proxy for |II| under a uniform key density.
    double best_width = std::numeric_limits<double>::infinity();
    for (size_t pre = 0; pre < m; ++pre) {
      for (size_t suf = 0; pre + suf + 1 <= m; ++suf) {
        const double rmin = axes[pre].ratio;
        const double rmax = axes[m - suf - 1].ratio;
        const double e_min =
            p.emin + pa_min[pre] + (pa_min[m] - pa_min[m - suf]);
        const double e_max =
            p.emax + pa_max[pre] + (pa_max[m] - pa_max[m - suf]);
        const double c_min =
            p.c0min + pc_min[pre] + (pc_min[m] - pc_min[m - suf]);
        const double c_max =
            p.c0max + pc_max[pre] + (pc_max[m] - pc_max[m - suf]);
        const double width = (p.b_prime - e_min) / rmin -
                             (p.b_prime - e_max) / rmax + (c_max - c_min);
        if (width < best_width) {
          best_width = width;
          prefix = pre;
          suffix = suf;
        }
      }
    }
  }

  p.excluded_axes += prefix + suffix;
  p.rmin = axes[prefix].ratio;
  p.rmax = axes[m - suffix - 1].ratio;
  for (size_t i = 0; i < prefix; ++i) {
    p.c0min += axes[i].c_psi_min;
    p.c0max += axes[i].c_psi_max;
    p.emin += axes[i].a_psi_min;
    p.emax += axes[i].a_psi_max;
  }
  for (size_t i = m - suffix; i < m; ++i) {
    p.c0min += axes[i].c_psi_min;
    p.c0max += axes[i].c_psi_max;
    p.emin += axes[i].a_psi_min;
    p.emax += axes[i].a_psi_max;
  }

  const double low = (p.b_prime - p.emax) / p.rmax + p.c0min;
  const double high = (p.b_prime - p.emin) / p.rmin + p.c0max;
  const double band = options_.epsilon_band *
                      (std::fabs(p.b_prime) + std::fabs(p.emax) +
                       std::fabs(low) + std::fabs(high) + 1.0);
  p.low_cut = low - band;
  p.high_cut = high + band;
  return p;
}

QueryStats PlanarIndex::QueryPlan::Stats() const {
  QueryStats stats;
  stats.num_points = n;
  stats.accepted_directly = accepted();
  stats.rejected_directly = rejected;
  return stats;
}

Result<PlanarIndex::QueryPlan> PlanarIndex::Plan(
    const NormalizedQuery& q) const {
  if (!q.IsFinite()) {
    return Status::InvalidArgument("query parameters must be finite");
  }
  if (!CanServe(q)) {
    return Status::FailedPrecondition(
        "query octant is incompatible with this index");
  }
  PLANAR_CHECK_EQ(phi_->size(), size());
  QueryPlan plan;
  plan.n = size();
  plan.le = q.cmp == Comparison::kLessEqual;
  if (q.IsDegenerate()) {
    // <0, phi(x)> cmp b with b >= 0: constant over all points. Everything
    // is decided outright, nothing is intermediate.
    const bool all_match = plan.le ? (0.0 <= q.b) : (0.0 >= q.b);
    plan.degenerate = true;
    plan.smaller_end = plan.larger_begin = plan.n;
    plan.accept_end = all_match ? plan.n : 0;
    plan.rejected = plan.n - plan.accept_end;
    return plan;
  }
  plan.p = Prepare(q);
  if (options_.backend == PlanarIndexOptions::Backend::kSortedArray &&
      !eytz_.empty()) {
    // Both boundary descents interleaved: their misses overlap.
    eytz_.UpperBoundPair(keys_.data(), plan.p.low_cut, plan.p.high_cut,
                         &plan.smaller_end, &plan.larger_begin);
  } else {
    plan.smaller_end = RankLessEqual(plan.p.low_cut);
    plan.larger_begin = RankLessEqual(plan.p.high_cut);
  }
  PLANAR_DCHECK(plan.smaller_end <= plan.larger_begin);
  // For a <=-query the prefix is accepted and the suffix rejected
  // outright; for a >=-query the roles swap.
  plan.accept_begin = plan.le ? 0 : plan.larger_begin;
  plan.accept_end = plan.le ? plan.smaller_end : plan.n;
  plan.rejected = plan.le ? plan.n - plan.larger_begin : plan.smaller_end;
  return plan;
}

Result<PlanarIndex::Intervals> PlanarIndex::ComputeIntervals(
    const NormalizedQuery& q) const {
  PLANAR_ASSIGN_OR_RETURN(const QueryPlan plan, Plan(q));
  Intervals iv;
  iv.smaller_end = plan.smaller_end;
  iv.larger_begin = plan.larger_begin;
  return iv;
}

// The sorted array is read in place; the B+-tree keeps rank order behind
// node pointers and is walked through its leaf chain.
class PlanarIndex::RankCursor {
 public:
  RankCursor(const PlanarIndex& index, size_t rank)
      : index_(index),
        flat_(index.options_.backend ==
              PlanarIndexOptions::Backend::kSortedArray),
        rank_(rank) {
    if (!flat_) it_ = index.tree_.IteratorAt(rank);
  }

  size_t rank() const { return rank_; }
  double key() const { return flat_ ? index_.keys_[rank_] : it_.entry().key; }
  uint32_t id() const { return flat_ ? index_.ids_[rank_] : it_.entry().value; }
  void Next() {
    ++rank_;
    if (!flat_) it_.Next();
  }
  void Prev() {
    --rank_;
    if (!flat_) it_.Prev();
  }

  // The ids of the next `count` ranks, moving past them: a view into the
  // sorted array, or gathered into `buf` from the tree.
  const uint32_t* Take(size_t count, uint32_t* buf) {
    const size_t first = rank_;
    rank_ += count;
    if (flat_) return index_.ids_.data() + first;
    for (size_t i = 0; i < count; ++i, it_.Next()) buf[i] = it_.entry().value;
    return buf;
  }

 private:
  const PlanarIndex& index_;
  bool flat_;
  size_t rank_;
  OrderStatisticBTree::Iterator it_;
};

void PlanarIndex::CollectRange(size_t begin, size_t end,
                               std::vector<uint32_t>* out) const {
  PLANAR_CHECK(begin <= end && end <= size());
  if (options_.backend == PlanarIndexOptions::Backend::kSortedArray) {
    out->insert(out->end(), ids_.begin() + static_cast<ptrdiff_t>(begin),
                ids_.begin() + static_cast<ptrdiff_t>(end));
    return;
  }
  out->reserve(out->size() + (end - begin));
  for (RankCursor cursor(*this, begin); cursor.rank() < end; cursor.Next()) {
    out->push_back(cursor.id());
  }
}

namespace {

// Sinks of the block driver (PlanarIndex::Drive). Each consumes one
// block's accept mask (BlockClassifier): bit i covers ids[i]. A sink whose
// kNeedsResiduals is true also gets the exact f64 residual of every
// accepted row (top-k distances); the others skip that work.

// Appends accepted ids to *out, which must have capacity for every
// streamed row (resize within reserved capacity never reallocates).
class IdSink {
 public:
  static constexpr bool kNeedsResiduals = false;

  explicit IdSink(std::vector<uint32_t>* out) : out_(out) {}

  bool Done() const { return false; }
  void Consume(const uint32_t* ids, size_t /*blk*/, const uint64_t* accept,
               const double* /*residuals*/) {
    const size_t old_size = out_->size();
    out_->resize(old_size + kernels::MaskCount(accept));
    uint32_t* dst = out_->data() + old_size;
    kernels::ForEachSetBit(accept, [&](size_t i) { *dst++ = ids[i]; });
  }

 private:
  std::vector<uint32_t>* out_;
};

// Counts accepted rows and, with a payload column, sums their payloads
// in canonical blocked summation (block order, so a refined sum is
// deterministic for a fixed index state). `stop(resolved)` ends the
// stream early once the unresolved remainder fits the tolerance.
template <typename StopFn>
class CountSink {
 public:
  static constexpr bool kNeedsResiduals = false;

  CountSink(const double* payload, size_t payload_stride, StopFn stop)
      : payload_(payload), stride_(payload_stride), stop_(stop) {}

  bool Done() const { return stop_(resolved_); }
  void Consume(const uint32_t* ids, size_t blk, const uint64_t* accept,
               const double* /*residuals*/) {
    resolved_ += blk;
    if (payload_ == nullptr) {
      accepted_ += kernels::MaskCount(accept);
      return;
    }
    double vals[kernels::kBlockRows];
    size_t kept = 0;
    kernels::ForEachSetBit(accept, [&](size_t i) {
      vals[kept++] = payload_[static_cast<size_t>(ids[i]) * stride_];
    });
    accepted_ += kept;
    if (kept != 0) sum_ += CanonicalBlockedSum(vals, kept);
  }

  size_t accepted() const { return accepted_; }
  size_t resolved() const { return resolved_; }
  double sum() const { return sum_; }

 private:
  const double* payload_;
  size_t stride_;
  StopFn stop_;
  size_t accepted_ = 0;
  size_t resolved_ = 0;
  double sum_ = 0.0;
};

// Offers every matching row to the top-k heap at its hyperplane distance.
class TopKSink {
 public:
  static constexpr bool kNeedsResiduals = true;

  TopKSink(double norm_a, TopKBuffer* buffer)
      : norm_a_(norm_a), buffer_(buffer) {}

  bool Done() const { return false; }
  void Consume(const uint32_t* ids, size_t blk, const uint64_t* accept,
               const double* residuals) {
    kernels::ForEachSetBit(accept, [&](size_t i) {
      buffer_->Insert(ids[i], std::fabs(residuals[i]) / norm_a_);
    });
    verified_ += blk;
  }

  size_t verified() const { return verified_; }

 private:
  double norm_a_;
  TopKBuffer* buffer_;
  size_t verified_ = 0;
};

}  // namespace

// The one place that forks between the sorted array and the B+-tree
// cursor. Per block of kernels::kBlockRows rows: one sink poll, one
// cancellation poll, one BlockClassifier call (f64, or the f32 mirror
// against the widened band with f64 re-verification of the rows it
// cannot decide — DESIGN.md section 5j), so every sink sees exactly what
// the pure-f64 path would give it. On the sorted array the next block's
// first rows are prefetched before this block is classified.
template <typename Sink, typename CancelFn>
bool PlanarIndex::Drive(const NormalizedQuery& q, const MixedQueryPlan& mixed,
                        size_t begin, size_t end, const CancelFn& cancelled,
                        Sink* sink) const {
  const BlockClassifier classifier(
      q.a.data(), q.a.size(), q.b, q.cmp == Comparison::kLessEqual,
      phi_->data(), phi_->f32_data(), phi_->dim(), &mixed);
  const bool flat =
      options_.backend == PlanarIndexOptions::Backend::kSortedArray;
  // The prefetch targets whichever row store the classify reads first.
  const bool mirror = mixed.usable && phi_->f32_data() != nullptr;
  const void* first_rows = mirror ? static_cast<const void*>(phi_->f32_data())
                                  : static_cast<const void*>(phi_->data());
  // f32-ok: mirror row width for the prefetch.
  const size_t row_bytes =
      phi_->dim() * (mirror ? sizeof(float) : sizeof(double));
  RankCursor cursor(*this, begin);
  uint32_t gathered[kernels::kBlockRows];
  uint64_t accept[kernels::kMaskWords];
  double residuals[kernels::kBlockRows];
  for (size_t r = begin; r < end; r += kernels::kBlockRows) {
    if (sink->Done()) return true;
    if (cancelled()) return false;
    const size_t blk = std::min(kernels::kBlockRows, end - r);
    const uint32_t* ids = cursor.Take(blk, gathered);
    if (flat && r + blk < end) {
      kernels::PrefetchRows(first_rows, row_bytes, ids_.data() + r + blk,
                            std::min(kPrefetchNextBlockRows, end - r - blk));
    }
    classifier.Gather(ids, blk, accept,
                      Sink::kNeedsResiduals ? residuals : nullptr);
    sink->Consume(ids, blk, accept, residuals);
  }
  return true;
}

MixedQueryPlan PlanarIndex::MixedPlanFor(const NormalizedQuery& q) const {
  if (!options_.mixed_precision) return MixedQueryPlan();
  return MakeMixedPlan(q.a.data(), q.a.size(), q.b,
                       q.cmp == Comparison::kLessEqual, *phi_);
}

bool PlanarIndex::VerifyIds(const NormalizedQuery& q, const QueryPlan& plan,
                            const Deadline& deadline,
                            std::vector<uint32_t>* out) const {
  const size_t count = plan.ii();
  if (count == 0) return true;
  // One mixed-precision plan per query, shared read-only by every chunk;
  // unusable means the blocks run pure f64.
  const MixedQueryPlan mixed = MixedPlanFor(q);
  size_t threads = options_.parallel_verify_threads;
  if (threads == 1 || count < kParallelVerifyMinRows) {
    IdSink sink(out);
    return Drive(q, mixed, plan.smaller_end, plan.larger_begin,
                 [&deadline] { return deadline.Expired(); }, &sink);
  }
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  const size_t chunks = std::min(threads, count);
  const size_t chunk = (count + chunks - 1) / chunks;
  std::vector<std::vector<uint32_t>> chunk_out(chunks);
  // Cooperative cancellation across chunks: the first chunk to observe an
  // expired deadline raises the flag; every other chunk sees it at its
  // next block boundary and stops. Relaxed ordering suffices — the flag
  // only accelerates shutdown (a chunk that misses a racing store merely
  // verifies one more block), and the authoritative answer is the
  // post-join load below, which ParallelFor's join synchronizes with.
  // Strengthening to acquire/release would buy nothing; weakening is
  // impossible (relaxed is the floor). Do not replace the flag with a
  // plain bool: concurrent chunks store and load it without any lock.
  std::atomic<bool> expired(false);
  ParallelFor(
      chunks,
      [&](size_t c) {
        const size_t begin = plan.smaller_end + c * chunk;
        const size_t end = std::min(plan.larger_begin, begin + chunk);
        if (begin >= end) return;
        std::vector<uint32_t>& local = chunk_out[c];
        local.reserve(end - begin);
        IdSink sink(&local);
        auto cancelled = [&] {
          // relaxed-ok: advisory fast-exit flag; the post-join load
          // is the authoritative answer (see the comment at the
          // declaration above).
          if (expired.load(std::memory_order_relaxed)) return true;
          if (!deadline.Expired()) return false;
          expired.store(true, std::memory_order_relaxed);
          return true;
        };
        (void)Drive(q, mixed, begin, end, cancelled, &sink);
      },
      chunks);
  // relaxed-ok: ParallelFor's join happens-before this load, so every
  // chunk's store (any order) is already visible; no flag-based
  // synchronization is being relied on.
  if (expired.load(std::memory_order_relaxed)) return false;
  // Chunk c holds the accepted ids of its rank range in rank order, so
  // concatenation in chunk order reproduces the serial output exactly.
  for (const std::vector<uint32_t>& local : chunk_out) {
    out->insert(out->end(), local.begin(), local.end());
  }
  return true;
}

Result<InequalityResult> PlanarIndex::Inequality(
    const ScalarProductQuery& q) const {
  return Inequality(NormalizedQuery::From(q));
}

Result<InequalityResult> PlanarIndex::Inequality(
    const NormalizedQuery& q) const {
  return Inequality(q, Deadline::Infinite());
}

Result<InequalityResult> PlanarIndex::Inequality(
    const NormalizedQuery& q, const Deadline& deadline) const {
  PLANAR_ASSIGN_OR_RETURN(const QueryPlan plan, Plan(q));
  return ServeInequality(q, plan, deadline);
}

Result<InequalityResult> PlanarIndex::ServeInequality(
    const NormalizedQuery& q, const QueryPlan& plan,
    const Deadline& deadline) const {
  InequalityResult result;
  result.stats = plan.Stats();
  result.stats.verified = plan.ii();
  if (plan.degenerate) {
    // Constant predicate: every row (in row order) or none.
    result.ids.resize(plan.accepted());
    std::iota(result.ids.begin(), result.ids.end(), 0u);
  } else {
    // Worst case up front (every II candidate accepted): one allocation
    // for the whole query, and the id sink may compress-store straight
    // into the vector's tail without capacity checks. An already-expired
    // request still verifies nothing (the first block polls before any
    // work).
    result.ids.reserve(plan.accepted() + plan.ii());
    CollectRange(plan.accept_begin, plan.accept_end, &result.ids);
    if (!VerifyIds(q, plan, deadline, &result.ids)) {
      return Status::DeadlineExceeded(
          "inequality query exceeded its deadline during II verification");
    }
  }
  result.stats.result_size = result.ids.size();
  return result;
}

Result<CountResult> PlanarIndex::CountInequality(
    const ScalarProductQuery& q, const CountTolerance& tolerance) const {
  return CountInequality(NormalizedQuery::From(q), tolerance,
                         Deadline::Infinite());
}

Result<CountResult> PlanarIndex::CountInequality(
    const NormalizedQuery& q, const CountTolerance& tolerance,
    const Deadline& deadline) const {
  PLANAR_ASSIGN_OR_RETURN(const QueryPlan plan, Plan(q));
  return ServeCount(q, plan, tolerance, deadline);
}

Result<CountResult> PlanarIndex::ServeCount(const NormalizedQuery& q,
                                            const QueryPlan& plan,
                                            const CountTolerance& tolerance,
                                            const Deadline& deadline) const {
  const size_t n = plan.n;
  const size_t outright = plan.accepted();
  const size_t ii = plan.ii();
  CountResult result;
  result.stats = plan.Stats();
  result.lower = outright;
  result.upper = outright + ii;

  const double allowed_d = tolerance.Allowed(static_cast<double>(n));
  const size_t allowed = allowed_d >= static_cast<double>(n)
                             ? n
                             : static_cast<size_t>(allowed_d);
  if (result.gap() > allowed) {
    // Refine: stream the II through the counting sink, stopping as soon
    // as the unresolved remainder fits the tolerance (never, at 0).
    // Refinement always runs serially: the early stop is a running prefix
    // over rank order, which chunking would reorder.
    CountSink sink(nullptr, 0,
                   [ii, allowed](size_t done) { return ii - done <= allowed; });
    if (!Drive(q, MixedPlanFor(q), plan.smaller_end, plan.larger_begin,
               [&deadline] { return deadline.Expired(); }, &sink)) {
      return Status::DeadlineExceeded(
          "count query exceeded its deadline during II refinement");
    }
    result.refined = true;
    result.lower = outright + sink.accepted();
    result.upper = result.lower + (ii - sink.resolved());
    result.stats.verified = sink.resolved();
  }
  result.exact = result.gap() == 0;
  result.estimate = result.lower + result.gap() / 2;
  result.stats.result_size = result.estimate;
  return result;
}

Result<AggregateResult> PlanarIndex::AggregateInequality(
    const ScalarProductQuery& q, const CountTolerance& tolerance) const {
  return AggregateInequality(NormalizedQuery::From(q), tolerance,
                             Deadline::Infinite());
}

Result<AggregateResult> PlanarIndex::AggregateInequality(
    const NormalizedQuery& q, const CountTolerance& tolerance,
    const Deadline& deadline) const {
  PLANAR_ASSIGN_OR_RETURN(const QueryPlan plan, Plan(q));
  return ServeAggregate(q, plan, tolerance, deadline);
}

Result<AggregateResult> PlanarIndex::ServeAggregate(
    const NormalizedQuery& q, const QueryPlan& plan,
    const CountTolerance& tolerance, const Deadline& deadline) const {
  if (!has_payload()) {
    return Status::FailedPrecondition(
        "no payload column configured (set PlanarIndexOptions::"
        "payload_column on the sorted-array backend)");
  }
  const size_t n = plan.n;
  const size_t se = plan.smaller_end;
  const size_t lb = plan.larger_begin;
  const size_t outright = plan.accepted();
  const size_t ii = plan.ii();
  const PrefixAggregates& pre = payload_prefix_;
  PLANAR_DCHECK(pre.sum.size() == n + 1);
  AggregateResult result;
  result.count.stats = plan.Stats();
  result.count.lower = outright;
  result.count.upper = outright + ii;

  // Exact payload total of the outright-accepted rank range, straight
  // from the prefix sums; the II contributes its negative/positive-part
  // envelope to the bounds.
  const double accept_sum =
      plan.le ? pre.sum[plan.accept_end]
              : pre.sum[plan.accept_end] - pre.sum[plan.accept_begin];
  result.sum_lower = accept_sum + (pre.neg[lb] - pre.neg[se]);
  result.sum_upper = accept_sum + (pre.pos[lb] - pre.pos[se]);

  const double total_abs = pre.pos[n] - pre.neg[n];
  const double allowed = tolerance.Allowed(total_abs);
  if (result.sum_upper - result.sum_lower <= allowed) {
    result.exact = result.sum_upper - result.sum_lower == 0.0;
    result.count.exact = result.count.gap() == 0;
    result.count.estimate = result.count.lower + result.count.gap() / 2;
    result.sum = result.exact ? result.sum_lower
                              : 0.5 * result.sum_lower + 0.5 * result.sum_upper;
    result.count.stats.result_size = result.count.estimate;
    return result;
  }

  // Refine: stream the II in rank order, accumulating accepted payloads,
  // stopping once the envelope of the unresolved rank suffix fits the
  // tolerance. The suffix envelope is a prefix-array difference, so the
  // stop predicate is O(1) per poll.
  CountSink sink(
      phi_->data() + static_cast<size_t>(options_.payload_column),
      phi_->dim(), [&pre, se, lb, allowed](size_t done) {
        const size_t r = se + done;
        return (pre.pos[lb] - pre.pos[r]) - (pre.neg[lb] - pre.neg[r]) <=
               allowed;
      });
  if (!Drive(q, MixedPlanFor(q), se, lb,
             [&deadline] { return deadline.Expired(); }, &sink)) {
    return Status::DeadlineExceeded(
        "aggregate query exceeded its deadline during II refinement");
  }
  const size_t resolved = sink.resolved();
  result.refined = true;
  result.count.refined = true;
  result.count.lower = outright + sink.accepted();
  result.count.upper = result.count.lower + (ii - resolved);
  result.count.exact = result.count.gap() == 0;
  result.count.estimate = result.count.lower + result.count.gap() / 2;
  result.count.stats.verified = resolved;
  result.count.stats.result_size = result.count.estimate;
  const size_t r = se + resolved;
  result.sum_lower = accept_sum + sink.sum() + (pre.neg[lb] - pre.neg[r]);
  result.sum_upper = accept_sum + sink.sum() + (pre.pos[lb] - pre.pos[r]);
  result.exact = resolved == ii;
  result.sum = result.exact ? accept_sum + sink.sum()
                            : 0.5 * result.sum_lower + 0.5 * result.sum_upper;
  if (result.exact) {
    result.sum_lower = result.sum_upper = result.sum;
  }
  return result;
}

Result<TopKResult> PlanarIndex::TopK(const ScalarProductQuery& q,
                                     size_t k) const {
  return TopK(NormalizedQuery::From(q), k);
}

Result<TopKResult> PlanarIndex::TopK(const NormalizedQuery& q,
                                     size_t k) const {
  return TopK(q, k, Deadline::Infinite());
}

Result<TopKResult> PlanarIndex::TopK(const NormalizedQuery& q, size_t k,
                                     const Deadline& deadline) const {
  PLANAR_ASSIGN_OR_RETURN(const QueryPlan plan, Plan(q));
  return ServeTopK(q, plan, k, deadline);
}

Result<TopKResult> PlanarIndex::ServeTopK(const NormalizedQuery& q,
                                          const QueryPlan& plan, size_t k,
                                          const Deadline& deadline) const {
  if (plan.degenerate) {
    return Status::InvalidArgument(
        "top-k distance is undefined for an all-zero query normal");
  }
  if (k == 0) {
    return Status::InvalidArgument("k must be positive");
  }
  const Prepared& p = plan.p;
  const bool le = plan.le;
  const double norm_a = q.NormA();
  TopKResult result;
  result.stats.num_points = plan.n;
  const Status deadline_status = Status::DeadlineExceeded(
      "top-k query exceeded its deadline during candidate evaluation");

  // The heap can never hold more than n entries, so a huge k does not
  // reserve unbounded storage.
  TopKBuffer buffer(k, plan.n);

  // Phase 1: verify the intermediate interval (Algorithm 2, lines 3-7).
  // With a usable mixed plan the driver prunes the sure rejects first; a
  // sure reject's residual fails the match predicate by definition of the
  // band, so the inserted (id, distance) sequence — and therefore the heap
  // state and final neighbors — is identical.
  const MixedQueryPlan mixed = MixedPlanFor(q);
  TopKSink sink(norm_a, &buffer);
  if (!Drive(q, mixed, plan.smaller_end, plan.larger_begin,
             [&deadline] { return deadline.Expired(); }, &sink)) {
    return deadline_status;
  }
  result.stats.verified_intermediate = sink.verified();

  // Lower-bound distance of a directly-accepted point with the given key
  // (Definition 5 / Claim 3, generalized for zero-parameter axes).
  auto lower_bound_distance = [&](double key) {
    const double raw =
        le ? (p.b_prime - p.emax) - p.rmax * (key - p.c0min)
           : p.rmin * (key - p.c0max) + p.emin - p.b_prime;
    return std::max(0.0, raw) / norm_a;
  };

  // Accept-region termination check. With the f32 key mirror available,
  // the exact key is bracketed by [k32 - d, k32 + d] (see kKeyBracketRel):
  // the computed lower_bound_distance is weakly monotone in the key
  // (decreasing for <=, increasing for >=, every IEEE op order-preserving
  // with positive rmax/rmin and norm_a), so evaluating it at the bracket
  // ends decides most rows without touching the f64 keys_ line; only an
  // inconclusive bracket (or a non-finite mirror key, where the bracket
  // guarantee lapses) reads the exact key. The decision — and therefore
  // early_terminated, scanned_accept_region, and the heap contents — is
  // identical to the pure-f64 walk by the monotonicity argument.
  const bool keys32 =
      mixed.usable && !keys_.empty() && keys_f32_.size() == keys_.size();
  auto terminate_at = [&](const RankCursor& cursor) {
    if (!buffer.full()) return false;
    const double worst = buffer.WorstDistance();
    if (keys32) {
      const double k32 = static_cast<double>(keys_f32_[cursor.rank()]);
      if (std::isfinite(k32)) {
        const double d = kKeyBracketRel * std::fabs(k32) + kKeyBracketAbs;
        if (lower_bound_distance(le ? k32 + d : k32 - d) > worst) return true;
        if (lower_bound_distance(le ? k32 - d : k32 + d) <= worst) {
          return false;
        }
      }
    }
    return lower_bound_distance(cursor.key()) > worst;
  };

  // Phase 2: walk the directly-accepted region from the query hyperplane
  // outward — down from the SI boundary for <=, up from the LI boundary
  // for >= — pruning with the lower-bound distance (lines 8-14). One
  // clock read per kDeadlineCheckInterval rows, including the first, so
  // an expired request evaluates nothing.
  const size_t steps = plan.accepted();
  if (steps > 0) {
    RankCursor cursor(*this, le ? plan.smaller_end - 1 : plan.larger_begin);
    for (size_t i = 0; i < steps; ++i) {
      if ((i & (kDeadlineCheckInterval - 1)) == 0 && deadline.Expired()) {
        return deadline_status;
      }
      if (terminate_at(cursor)) {
        result.stats.early_terminated = true;
        break;
      }
      const uint32_t id = cursor.id();
      buffer.Insert(id,
                    std::fabs(ResidualNormalized(q, phi_->row(id))) / norm_a);
      ++result.stats.scanned_accept_region;
      if (le) {
        cursor.Prev();
      } else {
        cursor.Next();
      }
    }
  }

  result.neighbors = buffer.TakeSorted();
  return result;
}

PlanarIndex::Explanation PlanarIndex::Explain(
    const NormalizedQuery& q) const {
  const Result<QueryPlan> plan = Plan(q);
  if (plan.ok()) return ExplainPlan(*plan);
  Explanation e;
  e.num_points = size();
  e.cmp = q.cmp;
  return e;
}

PlanarIndex::Explanation PlanarIndex::ExplainPlan(
    const QueryPlan& plan) const {
  Explanation e;
  e.can_serve = true;
  e.degenerate = plan.degenerate;
  e.num_points = plan.n;
  e.cmp = plan.le ? Comparison::kLessEqual : Comparison::kGreaterEqual;
  e.smaller_end = plan.smaller_end;
  e.larger_begin = plan.larger_begin;
  if (plan.degenerate) return e;
  e.b_prime = plan.p.b_prime;
  e.rmin = plan.p.rmin;
  e.rmax = plan.p.rmax;
  e.excluded_axes = plan.p.excluded_axes;
  e.low_cut = plan.p.low_cut;
  e.high_cut = plan.p.high_cut;
  return e;
}

std::string PlanarIndex::Explanation::ToString() const {
  char buf[512];
  if (!can_serve) return "index cannot serve this query (octant mismatch)";
  if (degenerate) return "degenerate all-zero query normal: constant answer";
  const bool le = cmp == Comparison::kLessEqual;
  const size_t accepted = le ? smaller_end : num_points - larger_begin;
  const size_t rejected = le ? num_points - larger_begin : smaller_end;
  std::snprintf(
      buf, sizeof(buf),
      "b'=%.4g ratios=[%.4g, %.4g] excluded_axes=%zu key cuts=(%.4g, %.4g) "
      "-> accept %zu outright, verify %zu, reject %zu of %zu (%.1f%% pruned)",
      b_prime, rmin, rmax, excluded_axes, low_cut, high_cut, accepted,
      intermediate(), rejected, num_points,
      num_points == 0
          ? 100.0
          : 100.0 * static_cast<double>(accepted + rejected) /
                static_cast<double>(num_points));
  return buf;
}

double PlanarIndex::MaxStretch(const NormalizedQuery& q) const {
  PLANAR_CHECK(CanServe(q));
  const double b_prime = translator_.MirroredOffset(q);
  double m_max = -std::numeric_limits<double>::infinity();
  double m_min = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < q.a.size(); ++i) {
    const double at = std::fabs(q.a[i]);
    if (at == 0.0) continue;
    // c_i * I(q, i) in mirrored space (Equation 13/15 of the paper).
    const double m = normal_[i] * (b_prime / at);
    m_max = std::max(m_max, m);
    m_min = std::min(m_min, m);
  }
  if (!std::isfinite(m_max)) return 0.0;  // all-zero query normal
  const double min_c = *std::min_element(normal_.begin(), normal_.end());
  return (m_max - m_min) / min_c;
}

double PlanarIndex::CosAngle(const NormalizedQuery& q) const {
  PLANAR_CHECK(CanServe(q));
  double dot = 0.0;
  double norm_a = 0.0;
  for (size_t i = 0; i < q.a.size(); ++i) {
    const double at = std::fabs(q.a[i]);
    dot += at * normal_[i];
    norm_a += at * at;
  }
  if (norm_a == 0.0) return 1.0;  // degenerate query: any index is "parallel"
  return dot / (std::sqrt(norm_a) * Norm(normal_));
}

void PlanarIndex::InsertKey(double key, uint32_t row) {
  if (options_.backend == PlanarIndexOptions::Backend::kSortedArray) {
    size_t pos = static_cast<size_t>(
        std::lower_bound(keys_.begin(), keys_.end(), key) - keys_.begin());
    // Keep (key, id) order for determinism across backends.
    while (pos < keys_.size() && keys_[pos] == key && ids_[pos] < row) ++pos;
    keys_.insert(keys_.begin() + static_cast<ptrdiff_t>(pos), key);
    ids_.insert(ids_.begin() + static_cast<ptrdiff_t>(pos), row);
  } else {
    tree_.Insert(key, row);
  }
}

bool PlanarIndex::Update(uint32_t row) {
  const size_t n = size();
  PLANAR_CHECK_LT(static_cast<size_t>(row), n);
  PLANAR_CHECK_EQ(phi_->size(), n);
  const double* phi_row = phi_->row(row);
  if (!translator_.Covers(phi_row)) return false;
  const double new_key = RawKey(phi_row);
  if (options_.backend == PlanarIndexOptions::Backend::kBTree) {
    const double old_key = key_of_row_[row];
    if (new_key == old_key) return true;
    PLANAR_CHECK(tree_.Erase(old_key, row));
    tree_.Insert(new_key, row);
    key_of_row_[row] = new_key;
    return true;
  }
  // Sorted array: find the row's rank by scanning ids_. That is O(n),
  // the same order as the erase and insert shifts below, and it spares
  // a per-row copy of every key.
  const size_t pos = static_cast<size_t>(
      std::find(ids_.begin(), ids_.end(), row) - ids_.begin());
  PLANAR_CHECK_LT(pos, n);
  if (keys_[pos] == new_key) return true;
  keys_.erase(keys_.begin() + static_cast<ptrdiff_t>(pos));
  ids_.erase(ids_.begin() + static_cast<ptrdiff_t>(pos));
  InsertKey(new_key, row);
  RefreshSearchLayout();
  return true;
}

bool PlanarIndex::UpdateBatch(const std::vector<uint32_t>& rows) {
  const size_t n = size();
  PLANAR_CHECK_EQ(phi_->size(), n);
  for (uint32_t row : rows) {
    PLANAR_CHECK_LT(static_cast<size_t>(row), n);
    if (!translator_.Covers(phi_->row(row))) return false;
  }
  if (options_.backend == PlanarIndexOptions::Backend::kBTree) {
    for (uint32_t row : rows) {
      const double new_key = RawKey(phi_->row(row));
      const double old_key = key_of_row_[row];
      if (new_key == old_key) continue;
      PLANAR_CHECK(tree_.Erase(old_key, row));
      tree_.Insert(new_key, row);
      key_of_row_[row] = new_key;
    }
    return true;
  }
  // Sorted array: recompute only the touched keys, then splice them back
  // with one merge pass instead of re-sorting all n entries — compact the
  // untouched entries by id (O(n), stable, preserves rank order), then
  // sort the k fresh entries and backward-merge them in (MergeFresh).
  // A touched row whose key did not change leaves and re-enters at the
  // same (key, id) position, so the result is identical to a Rebuild
  // (machine-checked by the UpdateBatchMatchesFullRebuild regression
  // test).
  std::vector<OrderStatisticBTree::Entry> fresh;
  fresh.reserve(rows.size());
  std::vector<unsigned char> touched(n, 0);
  for (uint32_t row : rows) {
    if (touched[row] != 0) continue;  // a duplicate row id in `rows`
    touched[row] = 1;
    fresh.push_back({RawKey(phi_->row(row)), row});
  }
  if (fresh.empty()) return true;
  size_t kept = 0;
  for (size_t r = 0; r < n; ++r) {
    if (touched[ids_[r]] == 0) {
      keys_[kept] = keys_[r];
      ids_[kept] = ids_[r];
      ++kept;
    }
  }
  PLANAR_DCHECK(kept + fresh.size() == n);
  MergeFresh(kept, &fresh);
  return true;
}

void PlanarIndex::MergeFresh(size_t kept,
                             std::vector<OrderStatisticBTree::Entry>* fresh) {
  SortEntries(fresh, options_.build_threads);
  const size_t total = kept + fresh->size();
  // GrowCapacity: an array cloned at capacity == size grows to about its
  // final size instead of doubling, and one-row appends stay amortized.
  internal::GrowCapacity(&keys_, total);
  keys_.resize(total);
  internal::GrowCapacity(&ids_, total);
  ids_.resize(total);
  size_t a = kept;           // end of the kept sorted run
  size_t b = fresh->size();  // end of the fresh run
  size_t out = total;        // write cursor, one past
  while (b > 0) {
    const OrderStatisticBTree::Entry& fb = (*fresh)[b - 1];
    if (a > 0 && (keys_[a - 1] > fb.key ||
                  (keys_[a - 1] == fb.key && ids_[a - 1] > fb.value))) {
      --a;
      --out;
      keys_[out] = keys_[a];
      ids_[out] = ids_[a];
    } else {
      --b;
      --out;
      keys_[out] = fb.key;
      ids_[out] = fb.value;
    }
  }
  RefreshSearchLayout();
}

bool PlanarIndex::NotifyAppend(uint32_t row) { return AppendBatch(row, 1); }

bool PlanarIndex::AppendBatch(uint32_t first_row, size_t count) {
  const size_t old_n = size();
  PLANAR_CHECK_EQ(static_cast<size_t>(first_row), old_n);
  PLANAR_CHECK_EQ(old_n + count, phi_->size());
  if (count == 0) return true;
  for (size_t i = 0; i < count; ++i) {
    if (!translator_.Covers(phi_->row(old_n + i))) return false;
  }
  // One contiguous kernel call over the appended range, written straight
  // to the tail of the array that keeps keys by position (keys_ on the
  // sorted array, key_of_row_ on the B+-tree): bit-identical to the
  // per-row RawKey maintenance path and the Rebuild bulk path, so a
  // batch-appended index and a rebuilt one carry the same keys.
  const bool flat =
      options_.backend == PlanarIndexOptions::Backend::kSortedArray;
  std::vector<double>& tail = flat ? keys_ : key_of_row_;
  internal::GrowCapacity(&tail, old_n + count);
  tail.resize(old_n + count);
  kernels::Ops().dot_range(signed_normal_.data(), signed_normal_.size(),
                           phi_->data(), phi_->dim(), old_n, count,
                           key_shift_, tail.data() + old_n);
  if (!flat) {
    for (size_t i = 0; i < count; ++i) {
      tree_.Insert(tail[old_n + i], static_cast<uint32_t>(old_n + i));
    }
    return true;
  }
  // Sorted array: sort the k fresh entries and backward-merge them into
  // the existing run in place — the same O(n + k log k) splice UpdateBatch
  // uses, with the existing run already compact (nothing was displaced).
  // The (key, id) tie order matches a full re-sort, so the result is
  // identical to a Rebuild (machine-checked by ingest_test and the
  // update_batch_test append-then-update case).
  std::vector<OrderStatisticBTree::Entry> fresh(count);
  for (size_t i = 0; i < count; ++i) {
    fresh[i] = {keys_[old_n + i], static_cast<uint32_t>(old_n + i)};
  }
  MergeFresh(old_n, &fresh);
  return true;
}

Result<PlanarIndex> PlanarIndex::CloneFor(const PhiMatrix* phi) const {
  if (options_.backend == PlanarIndexOptions::Backend::kBTree) {
    return Status::FailedPrecondition(
        "CloneFor supports the sorted-array backend only; the B+-tree "
        "node store is not copyable");
  }
  PLANAR_CHECK(phi != nullptr);
  PLANAR_CHECK_EQ(phi->size(), phi_->size());
  PlanarIndex copy;
  copy.phi_ = phi;
  copy.options_ = options_;
  copy.translator_ = translator_;
  copy.normal_ = normal_;
  copy.signed_normal_ = signed_normal_;
  copy.key_shift_ = key_shift_;
  copy.keys_ = keys_;
  copy.ids_ = ids_;
  copy.eytz_ = eytz_;
  copy.keys_f32_ = keys_f32_;
  // agg-ok: wholesale copy of prefix arrays built by the canonical
  // helper; no values are recomputed.
  copy.payload_prefix_ = payload_prefix_;
  return copy;
}

size_t PlanarIndex::MemoryUsage() const {
  size_t total = sizeof(*this);
  total += keys_.capacity() * sizeof(double);
  total += ids_.capacity() * sizeof(uint32_t);
  // f32-ok: key-mirror footprint accounting.
  total += keys_f32_.capacity() * sizeof(float);
  total += eytz_.MemoryUsage();
  total += payload_prefix_.MemoryUsage();
  total += key_of_row_.capacity() * sizeof(double);
  total += (normal_.capacity() + signed_normal_.capacity()) * sizeof(double);
  if (options_.backend == PlanarIndexOptions::Backend::kBTree) {
    total += tree_.MemoryUsage();
  }
  return total;
}

}  // namespace planar
