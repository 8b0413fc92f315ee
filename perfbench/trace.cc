// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// The traced replay: re-executes a window of the seeded request stream
// through the public functions of each layer, timed from outside, and
// splits every read into select / search / verify / materialize (plus
// top-k, count, batch, shard fan-out and ingest overlay figures).
//
// The window is replayed in chunks of reads. Every pass walks a chunk in
// stream order and runs each read's direct call on every serving
// PlanarIndexSet (the monolithic set, each shard, or the ingest base), so
// each timed call meets the caches as a mixed stream leaves them. The
// passes differ only in which call is timed:
//   D1  the direct call (Inequality / TopK / CountInequality at the
//       workload tolerance), plus the call the engine makes (the sharded
//       set, the ingest manager); the chunk's appends are applied, timed,
//       as the chunk is gathered
//   S   PlanarIndexSet::SelectBestIndex                     -> select
//   R   PlanarIndex::ComputeIntervals on the selected index -> search
//   V   CountInequality at tolerance 0, for inequality reads
//   D2  the direct call again
// verify = V - select - search and materialize = D1 - V for inequality
// reads; top-k and count keep D1 - select - search as their own layer.
// The self-check requires D2 to repeat D1 within kAccountingSlack for
// every kind, and no derived share to be negative beyond that slack, so
// select + search + verify + materialize add up to the direct call.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "common/random.h"
#include "common/timer.h"

namespace perfbench {

using planar::Catalog;
using planar::CountResult;
using planar::CountTolerance;
using planar::Deadline;
using planar::InequalityResult;
using planar::NormalizedQuery;
using planar::PlanarIndexSet;
using planar::Result;
using planar::ScalarProductQuery;
using planar::TopKResult;

namespace {

/// Share of a kind's directly timed total by which its split may miss.
constexpr double kAccountingSlack = 0.25;
/// Consecutive inequality queries coalesced per BatchInequality call.
constexpr size_t kBatchGroup = 8;
/// Reads per chunk: every pass runs over one chunk before the next.
constexpr size_t kChunkReads = 16;
/// EngineMetrics::OnCompleted calls per thread in the hist_mu_ probe.
constexpr size_t kRecordCalls = 200000;

struct Read {
  size_t request = 0;
  Kind kind = Kind::kInequality;
  const ScalarProductQuery* query = nullptr;
};

double Mean(double total, double n) { return n > 0.0 ? total / n : 0.0; }

// Wall time per EngineMetrics::OnCompleted — the one call every finished
// request makes under the exclusive hist_mu_ — with `threads` threads
// recording at once, so contention on the lock shows in full.
double RecordNanos(size_t threads) {
  planar::EngineMetrics metrics;
  planar::WallTimer t;
  std::vector<std::thread> recorders;
  for (size_t i = 0; i < threads; ++i) {
    recorders.emplace_back([&metrics] {
      for (size_t c = 0; c < kRecordCalls; ++c) {
        metrics.OnCompleted(planar::Status::OK(), 0.25, 0.75);
      }
    });
  }
  for (std::thread& recorder : recorders) recorder.join();
  return static_cast<double>(t.ElapsedNanos()) /
         static_cast<double>(threads * kRecordCalls);
}

}  // namespace

Metrics RunTrace(const TraceInput& in, bool* accounting_ok) {
  const WorkloadSpec& spec = *in.spec;
  const Stream& stream = *in.stream;
  const Served& served = *in.served;
  const OpenLoopResult& run = *in.engine_run;
  const Deadline inf = Deadline::Infinite();
  const CountTolerance exact;
  const CountTolerance loose{0.0, kCountRelTolerance};
  const Catalog::ShardedPtr sharded = served.sharded();

  // The serving sets behind the target. The replay stops applying appends
  // before the ingest delta reaches the merge threshold, so no merge runs
  // and the base stays the installed set throughout (checked at the end).
  const Catalog::SetPtr base = sharded ? nullptr : served.set();
  std::vector<const PlanarIndexSet*> parts;
  if (sharded) {
    for (size_t s = 0; s < sharded->num_shards(); ++s) {
      parts.push_back(&sharded->shard(s));
    }
  } else {
    parts.push_back(base.get());
  }

  // Runs read `r`'s direct call on `set` and returns its time in ms;
  // accumulates its counts into the pass-D1 statistics when `stats` is
  // set (outside the timed call).
  double result_ids = 0.0, topk_checked = 0.0, count_gap = 0.0;
  size_t topk_early = 0;
  uint64_t ids_digest = 0;  // order-free: a sum of per-(request, id) hashes
  bool refined = false;
  auto direct = [&](const PlanarIndexSet& set, const Read& r, bool stats) {
    planar::WallTimer t;
    double ms = 0.0;
    switch (r.kind) {
      case Kind::kInequality: {
        const Result<InequalityResult> result = set.Inequality(*r.query, inf);
        ms = t.ElapsedMillis();
        if (!stats || !result.ok()) break;
        result_ids += static_cast<double>(result.value().ids.size());
        for (uint32_t id : result.value().ids) {
          uint64_t h = (static_cast<uint64_t>(r.request) << 32) | id;
          ids_digest += planar::SplitMix64(h);
        }
        break;
      }
      case Kind::kTopK: {
        const Result<TopKResult> result = set.TopK(*r.query, kNeighbors, inf);
        ms = t.ElapsedMillis();
        if (!stats || !result.ok()) break;
        topk_checked += static_cast<double>(result.value().stats.checked());
        if (result.value().stats.early_terminated) ++topk_early;
        break;
      }
      case Kind::kCount: {
        const Result<CountResult> result =
            set.CountInequality(*r.query, loose, inf);
        ms = t.ElapsedMillis();
        if (!stats || !result.ok()) break;
        refined = refined || result.value().refined;
        count_gap += static_cast<double>(result.value().gap());
        break;
      }
      case Kind::kAppend:
        break;
    }
    return ms;
  };
  // The call the engine makes for `r` when it is not one set's call.
  auto engine_call = [&](const Read& r) {
    const ScalarProductQuery& q = *r.query;
    switch (r.kind) {
      case Kind::kInequality:
        if (sharded) {
          (void)sharded->Inequality(q, inf);
        } else {
          Result<InequalityResult> out = planar::Status::Internal("unset");
          served.ingest->Inequality(kTarget, q, inf, &out);
        }
        break;
      case Kind::kTopK:
        if (sharded) {
          (void)sharded->TopK(q, kNeighbors, inf);
        } else {
          Result<TopKResult> out = planar::Status::Internal("unset");
          served.ingest->TopK(kTarget, q, kNeighbors, inf, &out);
        }
        break;
      case Kind::kCount:
        if (sharded) {
          (void)sharded->CountInequality(q, loose, inf);
        } else {
          Result<CountResult> out = planar::Status::Internal("unset");
          served.ingest->Count(kTarget, q, loose, inf, &out);
        }
        break;
      case Kind::kAppend:
        break;
    }
  };

  std::vector<Read> reads;
  double d1_ms[kReadKinds] = {0.0, 0.0, 0.0};
  double d2_ms[kReadKinds] = {0.0, 0.0, 0.0};
  double select_ms[kReadKinds] = {0.0, 0.0, 0.0};
  double search_ms[kReadKinds] = {0.0, 0.0, 0.0};
  double count0_ms = 0.0, verified_rows = 0.0;
  double ii_rows = 0.0, ineq_ii_rows = 0.0;
  std::unordered_map<size_t, double> served_ms;  // request -> engine's call
  std::vector<double> append_us;
  size_t appends_skipped = 0;
  double delta_rows = 0.0;
  double fanout_ms = 0.0, imbalance = 0.0, overlay_ms = 0.0;
  size_t count_refined = 0, fallbacks = 0;
  std::vector<std::vector<int>> chosen;  // per read: index picked per set

  // D1: direct calls timed, plus the call the engine makes.
  auto pass_d1 = [&](size_t from) {
    for (size_t k = from; k < reads.size(); ++k) {
      const Read& r = reads[k];
      if (served.ingest) {
        delta_rows += static_cast<double>(served.ingest->gauges().delta_rows);
      }
      refined = false;
      double part_sum = 0.0, slowest = 0.0;
      for (const PlanarIndexSet* set : parts) {
        const double ms = direct(*set, r, true);
        part_sum += ms;
        slowest = std::max(slowest, ms);
      }
      if (r.kind == Kind::kCount && refined) ++count_refined;
      d1_ms[static_cast<size_t>(r.kind)] += part_sum;
      double engine_ms = part_sum;
      if (sharded || served.ingest) {
        planar::WallTimer t;
        engine_call(r);
        engine_ms = t.ElapsedMillis();
        if (r.kind == Kind::kInequality && sharded) {
          fanout_ms += engine_ms - slowest;
          imbalance += slowest / (part_sum / static_cast<double>(parts.size()));
        } else if (r.kind == Kind::kInequality) {
          overlay_ms += engine_ms - part_sum;
        }
      }
      served_ms[r.request] = engine_ms;
    }
  };
  // S: SelectBestIndex timed (and the untimed scan-fallback decision).
  auto pass_s = [&](size_t from) {
    for (size_t k = from; k < reads.size(); ++k) {
      const Read& r = reads[k];
      const NormalizedQuery nq = NormalizedQuery::From(*r.query);
      chosen.emplace_back();
      for (const PlanarIndexSet* set : parts) {
        planar::WallTimer t;
        const int best = set->SelectBestIndex(nq);
        select_ms[static_cast<size_t>(r.kind)] += t.ElapsedMillis();
        chosen.back().push_back(best);
        const PlanarIndexSet::Explanation e = set->Explain(*r.query);
        if (e.index_used < 0 || e.scan_fallback) ++fallbacks;
        direct(*set, r, false);
      }
    }
  };
  // R: ComputeIntervals on the selected index timed.
  auto pass_r = [&](size_t from) {
    for (size_t k = from; k < reads.size(); ++k) {
      const Read& r = reads[k];
      const NormalizedQuery nq = NormalizedQuery::From(*r.query);
      for (size_t p = 0; p < parts.size(); ++p) {
        if (chosen[k][p] >= 0) {
          const planar::PlanarIndex& index =
              parts[p]->index(static_cast<size_t>(chosen[k][p]));
          planar::WallTimer t;
          const auto intervals = index.ComputeIntervals(nq);
          search_ms[static_cast<size_t>(r.kind)] += t.ElapsedMillis();
          if (intervals.ok()) {
            const double width =
                static_cast<double>(intervals.value().larger_begin -
                                    intervals.value().smaller_end);
            ii_rows += width;
            if (r.kind == Kind::kInequality) ineq_ii_rows += width;
          }
        }
        direct(*parts[p], r, false);
      }
    }
  };
  // V: tolerance-0 CountInequality timed for inequality reads.
  auto pass_v = [&](size_t from) {
    for (size_t k = from; k < reads.size(); ++k) {
      const Read& r = reads[k];
      for (const PlanarIndexSet* set : parts) {
        if (r.kind != Kind::kInequality) {
          direct(*set, r, false);
          continue;
        }
        planar::WallTimer t;
        const Result<CountResult> c =
            set->CountInequality(*r.query, exact, inf);
        count0_ms += t.ElapsedMillis();
        if (c.ok()) {
          verified_rows += static_cast<double>(c.value().stats.verified);
        }
      }
    }
  };
  // D2: the direct calls again.
  auto pass_d2 = [&](size_t from) {
    for (size_t k = from; k < reads.size(); ++k) {
      for (const PlanarIndexSet* set : parts) {
        d2_ms[static_cast<size_t>(reads[k].kind)] +=
            direct(*set, reads[k], false);
      }
    }
  };

  // Untimed warm-up over the window's first reads: the first large result
  // vectors and cold index pages are not any layer's cost.
  const size_t begin = run.first_measured;
  const size_t end = begin + spec.replay_requests;
  for (size_t i = begin, warmed = 0; i < end && warmed < kChunkReads; ++i) {
    const StreamRequest& sr = stream.at(i);
    if (sr.kind == Kind::kAppend) continue;
    const Read r{i, sr.kind, &stream.queries[sr.query]};
    for (const PlanarIndexSet* set : parts) direct(*set, r, false);
    ++warmed;
  }
  // The window in chunks of kChunkReads reads, each chunk through every
  // pass, so drift in the host's speed falls on all passes alike. Appends
  // are applied (timed) in stream order as the chunk is gathered, except
  // one that would bring the delta to the merge threshold.
  const size_t merge_threshold =
      served.ingest ? served.ingest->options().merge_threshold : 0;
  for (size_t i = begin; i < end;) {
    const size_t from = reads.size();
    while (i < end && reads.size() - from < kChunkReads) {
      const StreamRequest& sr = stream.at(i);
      if (sr.kind == Kind::kAppend &&
          served.ingest->gauges().delta_rows + kAppendRows >=
              merge_threshold) {
        ++appends_skipped;
      } else if (sr.kind == Kind::kAppend) {
        planar::WallTimer t;
        (void)served.ingest->Append(kTarget, stream.appends[sr.rows]);
        append_us.push_back(t.ElapsedMicros());
      } else {
        reads.push_back({i, sr.kind, &stream.queries[sr.query]});
      }
      ++i;
    }
    pass_d1(from);
    pass_s(from);
    pass_r(from);
    pass_v(from);
    pass_d2(from);
  }
  double count_of[kReadKinds] = {0.0, 0.0, 0.0};
  for (const Read& r : reads) count_of[static_cast<size_t>(r.kind)] += 1.0;
  const double n_reads = static_cast<double>(reads.size());

  // Batch pass: consecutive inequality queries, kBatchGroup at a time,
  // through the coalescing BatchInequality of the object the engine uses
  // for groups (the sharded set, else the monolithic or base set).
  double rows_demanded = 0.0, rows_streamed = 0.0, batched = 0.0;
  std::vector<ScalarProductQuery> group;
  auto run_group = [&] {
    if (group.empty()) return;
    planar::BatchExecStats stats;
    if (sharded) {
      (void)sharded->BatchInequality(group, {}, &stats);
    } else {
      (void)base->BatchInequality(group, {}, &stats);
    }
    rows_demanded += static_cast<double>(stats.rows_demanded);
    rows_streamed += static_cast<double>(stats.rows_streamed);
    batched += static_cast<double>(stats.queries);
    group.clear();
  };
  for (const Read& r : reads) {
    if (r.kind != Kind::kInequality) continue;
    group.push_back(*r.query);
    if (group.size() == kBatchGroup) run_group();
  }
  run_group();

  // Self-check of the split.
  const double verify_ms = count0_ms - select_ms[0] - search_ms[0];
  const double materialize_ms = d1_ms[0] - count0_ms;
  const double rest_ms[kReadKinds][2] = {
      {verify_ms, materialize_ms},
      {d1_ms[1] - select_ms[1] - search_ms[1], 0.0},
      {d1_ms[2] - select_ms[2] - search_ms[2], 0.0},
  };
  *accounting_ok = true;
  if (served.ingest) {
    // Every pass must have read the same base: a merge during the replay
    // would have swapped it under the direct calls.
    const bool same_base = served.set() == base;
    std::printf("replay appends: %zu applied, %zu skipped at the merge "
                "threshold; base set unchanged: %s\n",
                append_us.size(), appends_skipped,
                same_base ? "ok" : "FAILED");
    *accounting_ok = same_base;
  }
  for (size_t k = 0; k < kReadKinds; ++k) {
    if (count_of[k] == 0.0) continue;
    const double slack = kAccountingSlack * d1_ms[k];
    const bool ok = std::abs(d2_ms[k] - d1_ms[k]) <= slack &&
                    rest_ms[k][0] >= -slack && rest_ms[k][1] >= -slack;
    std::printf(
        "accounting %-5s select %.3f + search %.3f + %.3f + %.3f = direct "
        "%.3f ms, repeated %.3f ms (slack %.0f%%): %s\n",
        KindName(static_cast<Kind>(k)), select_ms[k], search_ms[k],
        rest_ms[k][0], rest_ms[k][1], d1_ms[k], d2_ms[k],
        kAccountingSlack * 100.0, ok ? "ok" : "FAILED");
    *accounting_ok = *accounting_ok && ok;
  }
  std::printf(
      "determinism ii_rows=%.0f result_ids=%.0f ids_digest=%016llx "
      "count_refined=%zu resident_bytes=%zu\n",
      ii_rows, result_ids, static_cast<unsigned long long>(ids_digest),
      count_refined, served.ResidentBytes());

  // Engine-level figures from the open-loop run. Overhead compares the
  // engine's execute time for a request it ran on its own (top-k and
  // count are never coalesced) with pass D1's timing of the same call.
  std::vector<double> overhead_us, queue_ms, execute_ms;
  for (const Record& rec : run.records) {
    queue_ms.push_back(rec.queue_ms);
    if (rec.kind == Kind::kAppend) continue;
    execute_ms.push_back(rec.execute_ms);
    if (rec.kind == Kind::kInequality) continue;
    const auto it = served_ms.find(rec.request);
    if (it != served_ms.end()) {
      overhead_us.push_back((rec.execute_ms - it->second) * 1e3);
    }
  }
  const planar::DebugSnapshot& now = in.engine_run_end;
  const planar::DebugSnapshot& then = run.at_measure_start;
  auto window_mean = [](const planar::FixedBucketHistogram& a,
                        const planar::FixedBucketHistogram& b) {
    return Mean(a.sum() - b.sum(), static_cast<double>(a.count() - b.count()));
  };

  const double all_select = select_ms[0] + select_ms[1] + select_ms[2];
  const double all_search = search_ms[0] + search_ms[1] + search_ms[2];
  const double part_calls = n_reads * static_cast<double>(parts.size());
  const double ineqs = count_of[0];
  const double fanouts = sharded ? ineqs : 0.0;
  const double overlays = served.ingest ? ineqs : 0.0;
  double append_total = 0.0;
  for (double us : append_us) append_total += us;

  Metrics m;
  for (size_t k = 0; k < kReadKinds; ++k) {
    std::string name = "latency.";
    name += KindName(static_cast<Kind>(k));
    name += "_p99_ms";
    m.push_back({name, in.latency.p99_ms[k], "ms"});
  }
  m.push_back({"latency.read_p99_ms", in.latency.read_p99_ms, "ms"});
  m.push_back({"engine.queue_wait_p99_ms", Percentile(queue_ms, 0.99), "ms"});
  m.push_back({"engine.execute_p50_ms", Percentile(execute_ms, 0.5), "ms"});
  m.push_back({"engine.overhead_us", Percentile(overhead_us, 0.5), "us"});
  m.push_back({"engine.record_ns", RecordNanos(in.workers), "ns"});
  m.push_back({"engine.batch_occupancy_mean",
               window_mean(now.batch_occupancy, then.batch_occupancy),
               "requests"});
  m.push_back({"batch.rows_shared_per_query",
               Mean(rows_demanded - rows_streamed, batched), "rows"});
  m.push_back({"select.us_per_query", Mean(all_select * 1e3, n_reads), "us"});
  m.push_back({"select.scan_fallback_frac",
               Mean(static_cast<double>(fallbacks), part_calls), "ratio"});
  m.push_back({"search.us_per_query", Mean(all_search * 1e3, n_reads), "us"});
  m.push_back({"search.ii_rows_per_query", Mean(ii_rows, n_reads), "rows"});
  m.push_back({"search.ii_rows_per_result_row", Mean(ineq_ii_rows, result_ids),
               "ratio"});
  m.push_back({"verify.ms_per_query", Mean(verify_ms, ineqs), "ms"});
  m.push_back(
      {"verify.ns_per_row", Mean(verify_ms * 1e6, verified_rows), "ns"});
  m.push_back({"materialize.ms_per_query", Mean(materialize_ms, ineqs), "ms"});
  m.push_back({"materialize.ns_per_id", Mean(materialize_ms * 1e6, result_ids),
               "ns"});
  m.push_back({"topk.ms_per_query", Mean(d1_ms[1], count_of[1]), "ms"});
  m.push_back({"topk.rows_checked_per_query", Mean(topk_checked, count_of[1]),
               "rows"});
  m.push_back({"topk.early_terminated_frac",
               Mean(static_cast<double>(topk_early),
                    count_of[1] * static_cast<double>(parts.size())),
               "ratio"});
  m.push_back({"count.refined_frac",
               Mean(static_cast<double>(count_refined), count_of[2]), "ratio"});
  m.push_back({"count.bound_gap_mean", Mean(count_gap, count_of[2]), "rows"});
  m.push_back({"shard.fanout_overhead_ms", Mean(fanout_ms, fanouts), "ms"});
  m.push_back({"shard.imbalance", Mean(imbalance, fanouts), "ratio"});
  m.push_back({"ingest.append_us",
               Mean(append_total, static_cast<double>(append_us.size())),
               "us"});
  m.push_back({"ingest.append_p99_ms", in.latency.append_p99_ms, "ms"});
  m.push_back({"ingest.rows_per_s", in.ingest_rows_per_s, "rows/s"});
  m.push_back({"ingest.merge_ms",
               window_mean(now.merge_latency_millis, then.merge_latency_millis),
               "ms"});
  m.push_back(
      {"ingest.overlay_ms_per_query", Mean(overlay_ms, overlays), "ms"});
  m.push_back({"ingest.delta_rows_mean",
               served.ingest ? Mean(delta_rows, n_reads) : 0.0, "rows"});
  m.insert(m.end(), in.validity.begin(), in.validity.end());
  m.push_back({"resident_bytes", static_cast<double>(served.ResidentBytes()),
               "bytes"});
  return m;
}

}  // namespace perfbench
