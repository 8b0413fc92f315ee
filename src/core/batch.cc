// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// PlanarIndexSet::BatchInequality: cross-query batched execution.
//
// Per call:
//   1. Plan. Each query is normalized, assigned its best index with the
//      existing Section-5.1 selectors, and its SI/LI/II rank boundaries
//      are computed with the existing (Eytzinger) boundary searches; the
//      serial path's scan-fallback rule routes too-wide intervals to the
//      scan group. Degenerate queries and single-query groups take the
//      serial code path directly — a batch of one costs exactly what
//      Inequality() costs.
//   2. Per index with >= 2 queries: each query's accept region is emitted
//      outright (identical order to serial), then the non-empty
//      intermediate intervals are sorted by begin rank and overlapping
//      ranges are merged. Every merged range is walked exactly once in
//      kernels::kBlockRows blocks, and every query whose interval overlaps
//      a block classifies its slice of it with its own BlockClassifier
//      (core/mixed.h; on the f32 mirror when the query's mixed plan is
//      usable), so the rows the first query pulls in serve the rest from
//      cache. This is the verify kernel every other path runs, and it
//      matched or beat a shared multi-query kernel (DESIGN.md section 5f).
//   3. Queries with no usable index (or fallen back) run as one batched
//      scan over the full row range: per block, every query classifies
//      it in turn with the fused range classify, so the rows the first
//      query pulls in serve the rest from cache.
//
// Determinism: a query's intermediate interval is one contiguous rank
// range, so it is wholly contained in exactly one merged range; blocks
// advance in ascending rank order and each block appends a query's
// accepted sub-slice in rank order, so the per-query id sequence equals
// the serial path's exactly. The residuals come from the same kernels
// with the same per-(query, row) summation order (kernels.h determinism
// contract), so every accept decision — and therefore every result — is
// bit-identical to the serial path on both dispatch backends.
//
// Deadlines cancel cooperatively at block granularity, matching the
// serial cadence of one poll per verification block: an expired query is
// answered kDeadlineExceeded and drops out of the active set; the rest of
// the batch is unaffected. As in the serial path, a query whose
// intermediate interval is empty never observes its deadline.

#include <algorithm>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "core/batch.h"
#include "core/index_set.h"
#include "core/kernels/kernels.h"
#include "core/mixed.h"

namespace planar {

namespace {

using kernels::kBlockRows;

// One non-degenerate index-served query: its position in the caller's
// span and its intermediate interval in rank space.
struct IntervalQuery {
  size_t slot = 0;
  size_t begin = 0;  // smaller_end
  size_t end = 0;    // larger_begin
};

// A coalesced rank range [begin, end) covering the sorted interval list
// entries [first, last).
struct MergedRange {
  size_t begin = 0;
  size_t end = 0;
  size_t first = 0;
  size_t last = 0;
};

// Appends ids[i] for every set bit i of a block's accept mask, in order.
void AppendAccepted(const uint64_t* accept, const uint32_t* ids,
                    std::vector<uint32_t>* out) {
  const size_t old_size = out->size();
  out->resize(old_size + kernels::MaskCount(accept));
  uint32_t* dst = out->data() + old_size;
  kernels::ForEachSetBit(accept, [&](size_t i) { *dst++ = ids[i]; });
}

}  // namespace

std::vector<Result<InequalityResult>> PlanarIndexSet::BatchInequality(
    std::span<const ScalarProductQuery> queries,
    std::span<const Deadline> deadlines, BatchExecStats* exec_stats) const {
  const size_t m = queries.size();
  PLANAR_CHECK(deadlines.empty() || deadlines.size() == m);
  BatchExecStats stats;
  stats.queries = m;

  // Every slot is overwritten exactly once below; the placeholder only
  // exists because Result has no default state.
  std::vector<Result<InequalityResult>> results;
  results.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    results.emplace_back(Status::Internal("batch slot not executed"));
  }
  if (m == 0) {
    if (exec_stats != nullptr) *exec_stats = stats;
    return results;
  }

  const Deadline infinite = Deadline::Infinite();
  const auto deadline_of = [&](size_t slot) -> const Deadline& {
    return deadlines.empty() ? infinite : deadlines[slot];
  };

  const size_t n = phi_->size();
  const size_t dim = phi_->dim();

  // ---- Plan: route every query to an index group or the scan group
  // through the serial Inequality() route.
  std::vector<NormalizedQuery> norms;
  norms.reserve(m);
  std::vector<PlanarIndex::QueryPlan> query_plans(m);
  std::vector<std::vector<IntervalQuery>> groups(indices_.size());
  std::vector<size_t> scan_slots;
  std::vector<size_t> scan_bound(m, n);
  for (size_t qi = 0; qi < m; ++qi) {
    norms.push_back(NormalizedQuery::From(queries[qi]));
    const Routing route =
        Route(norms.back(), RouteKind::kInequality, CountTolerance());
    const PlanarIndex::QueryPlan& plan = query_plans[qi] = route.plan;
    if (route.scan) {
      scan_slots.push_back(qi);
      scan_bound[qi] = route.ScanResultBound(n);
      continue;
    }
    if (plan.degenerate) {
      // A constant answer: nothing to verify, let alone share.
      results[qi] = indices_[static_cast<size_t>(route.index)].ServeInequality(
          norms.back(), plan, deadline_of(qi));
      results[qi]->stats.index_used = route.index;
      continue;
    }
    groups[static_cast<size_t>(route.index)].push_back(
        {qi, plan.smaller_end, plan.larger_begin});
  }

  // ---- Mixed-precision plans, one per slot the shared block walks below
  // will verify (multi-query index groups and the batched scan). A
  // single-query group or single-scan slot takes the serial path, which
  // plans for itself. Group slots plan against the normalized query and
  // scan slots against the caller's original query — matching exactly what
  // each walk hands the kernels, so the residuals (and the accept band)
  // line up with the serial execution of the same slot.
  std::vector<MixedQueryPlan> plans(m);
  if (phi_->f32_data() != nullptr) {
    for (const std::vector<IntervalQuery>& group : groups) {
      if (group.size() < 2) continue;
      for (const IntervalQuery& iq : group) {
        const NormalizedQuery& nq = norms[iq.slot];
        plans[iq.slot] = MakeMixedPlan(
            nq.a.data(), dim, nq.b, nq.cmp == Comparison::kLessEqual, *phi_);
      }
    }
    if (scan_slots.size() > 1) {
      for (const size_t slot : scan_slots) {
        const ScalarProductQuery& q = queries[slot];
        plans[slot] = MakeMixedPlan(q.a.data(), dim, q.b,
                                    q.cmp == Comparison::kLessEqual, *phi_);
      }
    }
  }

  // ---- Index groups.
  for (size_t gi = 0; gi < groups.size(); ++gi) {
    const std::vector<IntervalQuery>& group = groups[gi];
    if (group.empty()) continue;
    const PlanarIndex& index = indices_[gi];
    ++stats.index_groups;

    if (group.size() == 1) {
      // Nothing to share: the serial path is exactly right, and keeps a
      // batch of one at serial latency.
      const size_t slot = group[0].slot;
      const size_t ii = group[0].end - group[0].begin;
      Result<InequalityResult> r =
          index.ServeInequality(norms[slot], query_plans[slot],
                                deadline_of(slot));
      if (r.ok()) r->stats.index_used = static_cast<int>(gi);
      results[slot] = std::move(r);
      stats.rows_demanded += ii;
      stats.rows_streamed += ii;
      if (ii > 0) ++stats.merged_ranges;
      continue;
    }

    // Accept regions first (same emission order as serial), reserving the
    // worst case so the block appends below never reallocate.
    for (const IntervalQuery& iq : group) {
      const PlanarIndex::QueryPlan& plan = query_plans[iq.slot];
      InequalityResult r;
      r.stats = plan.Stats();
      r.stats.verified = plan.ii();
      r.stats.index_used = static_cast<int>(gi);
      r.ids.reserve(plan.accepted() + plan.ii());
      index.CollectRange(plan.accept_begin, plan.accept_end, &r.ids);
      results[iq.slot] = std::move(r);
      stats.rows_demanded += plan.ii();
    }

    // Coalesce: sort the non-empty intervals by begin rank and merge
    // every overlapping (or touching) run into one streamed range.
    std::vector<IntervalQuery> intervals;
    intervals.reserve(group.size());
    for (const IntervalQuery& iq : group) {
      if (iq.end > iq.begin) intervals.push_back(iq);
    }
    std::sort(intervals.begin(), intervals.end(),
              [](const IntervalQuery& x, const IntervalQuery& y) {
                if (x.begin != y.begin) return x.begin < y.begin;
                if (x.end != y.end) return x.end < y.end;
                return x.slot < y.slot;
              });
    std::vector<MergedRange> ranges;
    for (size_t i = 0; i < intervals.size();) {
      MergedRange range{intervals[i].begin, intervals[i].end, i, i + 1};
      size_t j = i + 1;
      while (j < intervals.size() && intervals[j].begin <= range.end) {
        range.end = std::max(range.end, intervals[j].end);
        ++j;
      }
      range.last = j;
      ranges.push_back(range);
      i = j;
    }
    stats.merged_ranges += ranges.size();

    // Stream each merged range once. Because every query's interval is
    // contiguous in rank space, a block's active set is a window over the
    // begin-sorted interval list.
    const uint32_t* rank_ids = index.RankIds();
    std::vector<uint32_t> scratch_ids;  // B+-tree: materialized per range
    std::vector<size_t> active;
    active.reserve(intervals.size());
    for (const MergedRange& range : ranges) {
      const uint32_t* ids_base;
      if (rank_ids != nullptr) {
        ids_base = rank_ids + range.begin;
      } else {
        scratch_ids.clear();
        index.CollectRange(range.begin, range.end, &scratch_ids);
        ids_base = scratch_ids.data();
      }
      stats.rows_streamed += range.end - range.begin;
      active.clear();
      size_t next = range.first;
      for (size_t r0 = range.begin; r0 < range.end; r0 += kBlockRows) {
        const size_t r1 = std::min(range.end, r0 + kBlockRows);
        while (next < range.last && intervals[next].begin < r1) {
          active.push_back(next++);
        }
        // Retire finished intervals and poll deadlines — one poll per
        // (query, block), the serial block driver's cadence. Memory-order
        // audit: unlike the chunked verifier (planar_index.cc), the
        // batch walk is single-threaded, so the poll is a plain call on
        // an immutable Deadline — no atomic flag, and nothing to order.
        // If this loop is ever sharded, cancellation must adopt the
        // relaxed-atomic advisory-flag + authoritative-post-join-load
        // pattern documented in PlanarIndex::VerifyIds.
        size_t na = 0;
        for (const size_t idx : active) {
          const IntervalQuery& iq = intervals[idx];
          if (iq.end <= r0) continue;
          if (deadline_of(iq.slot).Expired()) {
            results[iq.slot] = Status::DeadlineExceeded(
                "inequality query exceeded its deadline during II "
                "verification");
            continue;
          }
          active[na++] = idx;
        }
        active.resize(na);
        if (na == 0) continue;

        const uint32_t* block_ids = ids_base + (r0 - range.begin);
        // Every survivor classifies its own slice of the block (on the
        // mirror when its plan is usable): the rows the first of them
        // pulls in stay cache-resident for the rest.
        for (const size_t idx : active) {
          const IntervalQuery& iq = intervals[idx];
          const NormalizedQuery& nq = norms[iq.slot];
          const size_t sb = std::max(iq.begin, r0) - r0;
          const size_t se = std::min(iq.end, r1) - r0;
          const BlockClassifier classifier(
              nq.a.data(), dim, nq.b, nq.cmp == Comparison::kLessEqual,
              phi_->data(), phi_->f32_data(), dim, &plans[iq.slot]);
          uint64_t accept[kernels::kMaskWords];
          classifier.Gather(block_ids + sb, se - sb, accept, nullptr);
          AppendAccepted(accept, block_ids + sb, &results[iq.slot]->ids);
        }
      }
    }
    for (const IntervalQuery& iq : group) {
      if (results[iq.slot].ok()) {
        results[iq.slot]->stats.result_size = results[iq.slot]->ids.size();
      }
    }
  }

  // ---- Scan group: every query needs every row, so the whole matrix is
  // the one shared range.
  stats.scan_queries = scan_slots.size();
  if (scan_slots.size() == 1) {
    const size_t slot = scan_slots[0];
    results[slot] = ScanInequality(*phi_, queries[slot], deadline_of(slot),
                                   scan_bound[slot]);
    stats.rows_demanded += n;
    stats.rows_streamed += n;
    ++stats.merged_ranges;
  } else if (scan_slots.size() > 1) {
    // One classifier per slot, against the caller's original query as
    // ScanInequality does (bit-identical residuals either way — the
    // normalization negates both sides), on the mirror when the slot's
    // plan is usable.
    std::vector<BlockClassifier> classifiers;
    classifiers.reserve(scan_slots.size());
    for (const size_t slot : scan_slots) {
      const ScalarProductQuery& q = queries[slot];
      classifiers.emplace_back(q.a.data(), dim, q.b,
                               q.cmp == Comparison::kLessEqual, phi_->data(),
                               phi_->f32_data(), dim, &plans[slot]);
    }
    for (const size_t slot : scan_slots) {
      PLANAR_CHECK_EQ(dim, queries[slot].a.size());
      InequalityResult r;
      r.stats.num_points = n;
      r.stats.verified = n;
      r.stats.index_used = -1;
      r.ids.reserve(std::min(n, scan_bound[slot]));
      results[slot] = std::move(r);
      stats.rows_demanded += n;
    }
    stats.rows_streamed += n;
    ++stats.merged_ranges;

    // Every slot classifies the same block in turn, so the rows the first
    // slot pulls in serve the others from cache.
    // `active` holds positions in scan_slots (and classifiers).
    std::vector<size_t> active(scan_slots.size());
    for (size_t pos = 0; pos < active.size(); ++pos) active[pos] = pos;
    for (size_t row = 0; row < n; row += kBlockRows) {
      size_t na = 0;
      for (const size_t pos : active) {
        if (deadline_of(scan_slots[pos]).Expired()) {
          results[scan_slots[pos]] = Status::DeadlineExceeded(
              "sequential scan exceeded its deadline");
          continue;
        }
        active[na++] = pos;
      }
      active.resize(na);
      if (na == 0) break;

      const size_t blk = std::min(kBlockRows, n - row);
      uint64_t accept[kernels::kMaskWords];
      for (const size_t pos : active) {
        classifiers[pos].Range(row, blk, accept, nullptr);
        std::vector<uint32_t>& out_ids = results[scan_slots[pos]]->ids;
        const size_t old_size = out_ids.size();
        out_ids.resize(old_size + kernels::MaskCount(accept));
        uint32_t* dst = out_ids.data() + old_size;
        const uint32_t first = static_cast<uint32_t>(row);
        kernels::ForEachSetBit(accept, [&](size_t i) {
          *dst++ = first + static_cast<uint32_t>(i);
        });
      }
    }
    for (const size_t slot : scan_slots) {
      if (results[slot].ok()) {
        results[slot]->stats.result_size = results[slot]->ids.size();
      }
    }
  }

  if (exec_stats != nullptr) *exec_stats = stats;
  return results;
}

}  // namespace planar
