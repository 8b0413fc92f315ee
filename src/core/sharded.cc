// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.

#include "core/sharded.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/macros.h"
#include "core/parallel.h"
#include "core/topk.h"

namespace planar {

namespace {

constexpr char kInequalityDeadlineMsg[] =
    "sharded inequality query exceeded its deadline";
constexpr char kTopKDeadlineMsg[] =
    "sharded top-k query exceeded its deadline";
constexpr char kCountDeadlineMsg[] =
    "sharded count query exceeded its deadline";
constexpr char kAggregateDeadlineMsg[] =
    "sharded aggregate query exceeded its deadline";

/// Per-shard tolerance split: the absolute budget divides evenly across
/// shards (per-shard gaps sum, so the merged gap stays within the
/// original absolute budget) and the relative budget passes through
/// (each shard reads it against its own scale; shard scales sum to the
/// global scale, so the merged gap stays within relative * global
/// scale).
CountTolerance SplitTolerance(const CountTolerance& tolerance, size_t shards) {
  CountTolerance split = tolerance;
  split.absolute = tolerance.absolute / static_cast<double>(shards);
  return split;
}

/// II rows a shard evaluated for one query (the rows-verified counter).
size_t RowsVerified(const InequalityResult& r) { return r.stats.verified; }
size_t RowsVerified(const CountResult& r) { return r.stats.verified; }
size_t RowsVerified(const AggregateResult& r) {
  return r.count.stats.verified;
}
size_t RowsVerified(const TopKResult& r) {
  return r.stats.verified_intermediate;
}

/// Rebases a shard's ids by its row offset (shard 0's offset is 0: no
/// pass) and sorts them into the canonical ascending-id order (see
/// header): the monolithic rank order is index-dependent and shards
/// select independently, so ascending-id is the one merge order every
/// shard count agrees on.
void Canonicalize(uint32_t offset, std::vector<uint32_t>* ids) {
  if (offset != 0) {
    for (uint32_t& id : *ids) id += offset;
  }
  std::sort(ids->begin(), ids->end());
}

/// Sums per-shard QueryStats into `*merged` and clears `*common_index`
/// when a shard's serving index differs from shard 0's.
void MergeQueryStats(const QueryStats& part, const QueryStats& first,
                     QueryStats* merged, bool* common_index) {
  merged->num_points += part.num_points;
  merged->accepted_directly += part.accepted_directly;
  merged->rejected_directly += part.rejected_directly;
  merged->verified += part.verified;
  merged->result_size += part.result_size;
  if (part.index_used != first.index_used) *common_index = false;
}

/// Folds per-shard count results into one: bounds, estimates, and stats
/// sum (shards partition the rows).
void MergeCountInto(const CountResult& part, const CountResult& first,
                    CountResult* merged, bool* common_index) {
  merged->lower += part.lower;
  merged->upper += part.upper;
  merged->estimate += part.estimate;
  merged->exact &= part.exact;
  merged->refined |= part.refined;
  MergeQueryStats(part.stats, first.stats, &merged->stats, common_index);
}

CountResult MergeCount(const std::vector<Result<CountResult>>& partial) {
  CountResult merged;
  merged.exact = true;
  bool common_index = true;
  for (const Result<CountResult>& part : partial) {
    MergeCountInto(*part, *partial[0], &merged, &common_index);
  }
  merged.stats.index_used = common_index ? partial[0]->stats.index_used : -1;
  return merged;
}

/// Folds per-shard aggregate results into one (sum bounds and the count
/// piggyback both sum across the row partition).
AggregateResult MergeAggregate(
    const std::vector<Result<AggregateResult>>& partial) {
  AggregateResult merged;
  merged.exact = true;
  merged.count.exact = true;
  bool common_index = true;
  for (const Result<AggregateResult>& part : partial) {
    merged.sum_lower += part->sum_lower;
    merged.sum_upper += part->sum_upper;
    merged.sum += part->sum;
    merged.exact &= part->exact;
    merged.refined |= part->refined;
    MergeCountInto(part->count, partial[0]->count, &merged.count,
                   &common_index);
  }
  merged.count.stats.index_used =
      common_index ? partial[0]->count.stats.index_used : -1;
  return merged;
}

/// Merges per-shard statuses deterministically: the first (lowest-shard)
/// non-deadline error wins — validation errors are shard-independent, so
/// every shard reports the same one — and any deadline expiry collapses
/// to one canonical message, independent of which shard(s) happened to
/// observe the expiry or were cancelled before starting.
template <typename ResultAt>
Status MergeStatuses(size_t shards, const ResultAt& result_at,
                     const char* deadline_msg) {
  bool any_deadline = false;
  for (size_t s = 0; s < shards; ++s) {
    const Status& status = result_at(s).status();
    if (status.ok()) continue;
    if (status.code() != StatusCode::kDeadlineExceeded) return status;
    any_deadline = true;
  }
  if (any_deadline) return Status::DeadlineExceeded(deadline_msg);
  return Status::OK();
}

/// Folds per-shard inequality results (already canonicalized) into one:
/// shard-order id concatenation (globally ascending, the shards cover
/// disjoint ascending ranges) and per-shard stat sums.
template <typename ResultAt>
InequalityResult MergeInequality(size_t shards, const ResultAt& result_at) {
  InequalityResult merged;
  size_t total = 0;
  for (size_t s = 0; s < shards; ++s) total += result_at(s).ids.size();
  merged.ids.reserve(total);
  bool common_index = true;
  for (size_t s = 0; s < shards; ++s) {
    const InequalityResult& part = result_at(s);
    merged.ids.insert(merged.ids.end(), part.ids.begin(), part.ids.end());
    MergeQueryStats(part.stats, result_at(0).stats, &merged.stats,
                    &common_index);
  }
  merged.stats.index_used =
      common_index ? result_at(0).stats.index_used : -1;
  return merged;
}

}  // namespace

ShardedIndexSet::ShardedIndexSet(std::vector<PlanarIndexSet> shards,
                                 std::vector<uint32_t> offsets,
                                 const ShardedIndexSetOptions& options)
    : shards_(std::move(shards)),
      offsets_(std::move(offsets)),
      options_(options),
      rows_verified_(
          std::make_unique<std::atomic<uint64_t>[]>(shards_.size())) {
  options_.shards = shards_.size();
  // Report the precision every shard resolved (off below d' = 8 unless
  // forced), not the caller's request.
  if (!shards_.empty()) {
    options_.set_options.index_options.mixed_precision =
        shards_[0].options().index_options.mixed_precision;
  }
}

Result<ShardedIndexSet> ShardedIndexSet::Build(
    PhiMatrix phi, const std::vector<ParameterDomain>& domains,
    const ShardedIndexSetOptions& options) {
  const size_t n = phi.size();
  size_t shards = options.shards;
  if (shards == 0) {
    shards = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  const size_t min_rows = std::max<size_t>(1, options.min_rows_per_shard);
  shards = std::min(shards, std::max<size_t>(1, n / min_rows));
  if (n > 0) shards = std::min(shards, n);

  // Contiguous near-equal partition: the first n % shards slices get one
  // extra row, so global row order is preserved and offsets are dense.
  std::vector<PhiMatrix> slices;
  slices.reserve(shards);
  std::vector<uint32_t> offsets(shards + 1, 0);
  const size_t base = n / shards;
  const size_t extra = n % shards;
  size_t row = 0;
  for (size_t s = 0; s < shards; ++s) {
    const size_t count = base + (s < extra ? 1 : 0);
    PhiMatrix slice(phi.dim());
    slice.Reserve(count);
    for (size_t r = 0; r < count; ++r) slice.AppendRow(phi.row(row++));
    offsets[s + 1] = static_cast<uint32_t>(row);
    slices.push_back(std::move(slice));
  }
  PLANAR_CHECK(row == n);

  // Every shard builds with the same options (in particular the same
  // sampling seed): normal sampling is data-independent, so each shard
  // holds the same index definitions and differs only in its rows.
  std::vector<Result<PlanarIndexSet>> built;
  built.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    built.emplace_back(Status::Internal("shard not built"));
  }
  ParallelFor(
      shards,
      [&](size_t s) {
        built[s] = PlanarIndexSet::Build(std::move(slices[s]), domains,
                                         options.set_options);
      },
      options.build_threads == 0 ? 0 : options.build_threads);
  for (size_t s = 0; s < shards; ++s) {
    if (!built[s].ok()) return built[s].status();
  }
  std::vector<PlanarIndexSet> sets;
  sets.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    sets.push_back(std::move(built[s]).value());
  }
  return ShardedIndexSet(std::move(sets), std::move(offsets), options);
}

size_t ShardedIndexSet::FanoutWidth() const { return options_.query_threads; }

template <typename R, typename Call, typename Merge>
Result<R> ShardedIndexSet::FanOut(const char* deadline_msg, const Call& call,
                                  const Merge& merge) const {
  const size_t shards = shards_.size();
  auto run = [&](size_t s) {
    Result<R> result = call(s);
    if (result.ok()) {
      // relaxed-ok: monotone monitoring counter (see header); nothing
      // orders on it.
      rows_verified_[s].fetch_add(RowsVerified(result.value()),
                                  std::memory_order_relaxed);
    }
    return result;
  };
  // Single shard: no fan-out to run or merge — execute inline, skipping
  // the partial-result scaffolding, so the 1-shard configuration costs
  // the same as the monolithic path it wraps.
  if (shards == 1) {
    Result<R> result = run(0);
    if (!result.ok() &&
        result.status().code() == StatusCode::kDeadlineExceeded) {
      return Status::DeadlineExceeded(deadline_msg);
    }
    return result;
  }
  std::vector<Result<R>> partial(shards,
                                 Status::Internal("shard not executed"));
  // First-expiry cancellation: the first shard whose verification loop
  // observes the deadline raises the flag; sibling shards still queued
  // behind busy workers short-circuit before touching their index.
  // Running shards poll the same wall-clock deadline themselves.
  std::atomic<bool> expired(false);
  ParallelFor(
      shards,
      [&](size_t s) {
        // relaxed-ok: advisory fast-skip flag — a shard that misses a
        // racing store simply runs and expires on its own deadline
        // poll; the merge below reads `partial` after ParallelFor's
        // join, which is the authoritative synchronization.
        if (expired.load(std::memory_order_relaxed)) {
          partial[s] = Status::DeadlineExceeded(deadline_msg);
          return;
        }
        Result<R> result = run(s);
        if (!result.ok() &&
            result.status().code() == StatusCode::kDeadlineExceeded) {
          // relaxed-ok: see the flag's declaration above.
          expired.store(true, std::memory_order_relaxed);
        }
        partial[s] = std::move(result);
      },
      FanoutWidth());
  const Status merged_status = MergeStatuses(
      shards, [&](size_t s) -> const Result<R>& { return partial[s]; },
      deadline_msg);
  if (!merged_status.ok()) return merged_status;
  return merge(partial);
}

Result<InequalityResult> ShardedIndexSet::Inequality(
    const ScalarProductQuery& q, const Deadline& deadline) const {
  return FanOut<InequalityResult>(
      kInequalityDeadlineMsg,
      [&](size_t s) {
        Result<InequalityResult> result = shards_[s].Inequality(q, deadline);
        if (result.ok()) Canonicalize(offsets_[s], &result->ids);
        return result;
      },
      [](const std::vector<Result<InequalityResult>>& partial) {
        return MergeInequality(
            partial.size(), [&](size_t s) -> const InequalityResult& {
              return partial[s].value();
            });
      });
}

Result<CountResult> ShardedIndexSet::CountInequality(
    const ScalarProductQuery& q, const CountTolerance& tolerance,
    const Deadline& deadline) const {
  const CountTolerance shard_tolerance =
      SplitTolerance(tolerance, shards_.size());
  return FanOut<CountResult>(
      kCountDeadlineMsg,
      [&](size_t s) {
        return shards_[s].CountInequality(q, shard_tolerance, deadline);
      },
      MergeCount);
}

Result<AggregateResult> ShardedIndexSet::AggregateInequality(
    const ScalarProductQuery& q, const CountTolerance& tolerance,
    const Deadline& deadline) const {
  const CountTolerance shard_tolerance =
      SplitTolerance(tolerance, shards_.size());
  return FanOut<AggregateResult>(
      kAggregateDeadlineMsg,
      [&](size_t s) {
        return shards_[s].AggregateInequality(q, shard_tolerance, deadline);
      },
      MergeAggregate);
}

std::vector<Result<InequalityResult>> ShardedIndexSet::BatchInequality(
    std::span<const ScalarProductQuery> queries,
    std::span<const Deadline> deadlines, BatchExecStats* exec_stats) const {
  const size_t shards = shards_.size();
  const size_t count = queries.size();
  if (exec_stats != nullptr) *exec_stats = BatchExecStats{};
  if (count == 0) return {};

  // Single shard: inline, no fan-out scaffolding (see Inequality).
  if (shards == 1) {
    BatchExecStats stats;
    std::vector<Result<InequalityResult>> results =
        shards_[0].BatchInequality(queries, deadlines, &stats);
    uint64_t verified = 0;
    for (Result<InequalityResult>& result : results) {
      if (result.ok()) {
        verified += result.value().stats.verified;
        Canonicalize(0, &result->ids);
      } else if (result.status().code() == StatusCode::kDeadlineExceeded) {
        result = Status::DeadlineExceeded(kInequalityDeadlineMsg);
      }
    }
    // relaxed-ok: monotone monitoring counter (see header); nothing
    // orders on it.
    rows_verified_[0].fetch_add(verified, std::memory_order_relaxed);
    if (exec_stats != nullptr) *exec_stats = stats;
    return results;
  }

  struct ShardBatch {
    std::vector<Result<InequalityResult>> results;
    BatchExecStats stats;
  };
  std::vector<ShardBatch> partial(shards);
  ParallelFor(
      shards,
      [&](size_t s) {
        ShardBatch& batch = partial[s];
        batch.results =
            shards_[s].BatchInequality(queries, deadlines, &batch.stats);
        uint64_t verified = 0;
        for (Result<InequalityResult>& result : batch.results) {
          if (!result.ok()) continue;
          verified += result.value().stats.verified;
          Canonicalize(offsets_[s], &result->ids);
        }
        // relaxed-ok: monotone monitoring counter (see header); nothing
        // orders on it.
        rows_verified_[s].fetch_add(verified, std::memory_order_relaxed);
      },
      FanoutWidth());

  std::vector<Result<InequalityResult>> merged(
      count, Status::Internal("query not executed"));
  for (size_t qi = 0; qi < count; ++qi) {
    const Status status = MergeStatuses(
        shards, [&](size_t s) -> const Result<InequalityResult>& {
          return partial[s].results[qi];
        },
        kInequalityDeadlineMsg);
    if (!status.ok()) {
      merged[qi] = status;
      continue;
    }
    merged[qi] =
        MergeInequality(shards, [&](size_t s) -> const InequalityResult& {
          return partial[s].results[qi].value();
        });
  }
  if (exec_stats != nullptr) {
    // Per-shard sums; `queries` counts each query once. A query that
    // scan-served in k shards contributes k to scan_queries — the
    // fan-out really did run k scans.
    exec_stats->queries = count;
    for (size_t s = 0; s < shards; ++s) {
      exec_stats->index_groups += partial[s].stats.index_groups;
      exec_stats->scan_queries += partial[s].stats.scan_queries;
      exec_stats->merged_ranges += partial[s].stats.merged_ranges;
      exec_stats->rows_streamed += partial[s].stats.rows_streamed;
      exec_stats->rows_demanded += partial[s].stats.rows_demanded;
    }
  }
  return merged;
}

Result<TopKResult> ShardedIndexSet::TopK(const ScalarProductQuery& q,
                                         size_t k,
                                         const Deadline& deadline) const {
  // The global top-k is contained in the union of per-shard top-ks, and
  // distances are computed from raw phi rows (index-independent), so
  // folding every shard's candidates through the canonical (distance, id)
  // buffer reproduces the monolithic result bit for bit. A single shard's
  // neighbors are already canonical with offset 0.
  auto merge = [&](const std::vector<Result<TopKResult>>& partial) {
    TopKResult merged;
    if (k > 0) {
      TopKBuffer buffer(k);
      for (size_t s = 0; s < partial.size(); ++s) {
        for (const Neighbor& neighbor : partial[s]->neighbors) {
          buffer.Insert(neighbor.id + offsets_[s], neighbor.distance);
        }
      }
      merged.neighbors = buffer.TakeSorted();
    }
    bool common_index = true;
    for (const Result<TopKResult>& part : partial) {
      const TopKStats& stats = part->stats;
      merged.stats.num_points += stats.num_points;
      merged.stats.verified_intermediate += stats.verified_intermediate;
      merged.stats.scanned_accept_region += stats.scanned_accept_region;
      merged.stats.early_terminated |= stats.early_terminated;
      if (stats.index_used != partial[0]->stats.index_used) {
        common_index = false;
      }
    }
    merged.stats.index_used =
        common_index ? partial[0]->stats.index_used : -1;
    return merged;
  };
  return FanOut<TopKResult>(
      kTopKDeadlineMsg,
      [&](size_t s) { return shards_[s].TopK(q, k, deadline); }, merge);
}

size_t ShardedIndexSet::MemoryUsage() const {
  size_t total = offsets_.capacity() * sizeof(uint32_t) +
                 shards_.size() * sizeof(std::atomic<uint64_t>);
  for (const PlanarIndexSet& shard : shards_) total += shard.MemoryUsage();
  return total;
}

}  // namespace planar
