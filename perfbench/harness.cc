// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Workloads, set-up, the open-loop and closed-loop load generators, and
// the scan-oracle correctness check.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <utility>

#include "bench.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/scan.h"
#include "core/topk.h"
#include "datagen/synthetic.h"
#include "datagen/workload.h"

namespace perfbench {

using planar::Catalog;
using planar::CountTolerance;
using planar::Deadline;
using planar::EngineRequest;
using planar::EngineResponse;
using planar::PhiMatrix;
using planar::QueryKind;
using planar::ScalarProductQuery;

namespace {

// Nominal rates are about a quarter of the saturation rate measured at
// the parent commit on a 4-vCPU x86-64 host (see perfbench/README.md).
// The ingest replay keeps its appends (a tenth of 1200 requests, 64 rows
// each) below the default merge threshold of 8192 rows.
const WorkloadSpec kWorkloads[] = {
    {"d2_mono_read", 2, 0, false, 0.0, 1000.0, 20.0, 1200},
    {"d8_sharded_read", 8, 4, false, 0.0, 250.0, 50.0, 240},
    {"d2_mono_ingest", 2, 0, true, 0.10, 1000.0, 20.0, 1200},
};

using Clock = std::chrono::steady_clock;

/// Responses per read kind kept for the correctness check.
constexpr size_t kSamplesPerKind = 40;

double SecondsSince(Clock::time_point t0, Clock::time_point t) {
  return std::chrono::duration<double>(t - t0).count();
}

// Independent sub-seeds for data, queries, kinds, arrivals and appends,
// so changing one input stream never shifts another.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t state = seed * 0x9e3779b97f4a7c15ULL + stream;
  return planar::SplitMix64(state);
}

planar::SyntheticSpec DataSpec(size_t dim, size_t rows, uint64_t seed) {
  planar::SyntheticSpec spec;
  spec.distribution = planar::SyntheticDistribution::kIndependent;
  spec.num_points = rows;
  spec.dim = dim;
  spec.seed = seed;
  return spec;
}

// The rows a response may be checked against: one contiguous run of the
// served row store, with the global id of its first row.
struct Segment {
  const double* rows = nullptr;
  size_t count = 0;
  uint32_t offset = 0;
};

// Served rows with global id below `limit`, in id order.
std::vector<Segment> Segments(const Served& served, size_t limit) {
  std::vector<Segment> out;
  if (Catalog::ShardedPtr sharded = served.sharded()) {
    for (size_t s = 0; s < sharded->num_shards(); ++s) {
      const PhiMatrix& phi = sharded->shard(s).phi();
      const size_t offset = sharded->shard_offset(s);
      if (offset >= limit) break;
      out.push_back({phi.data(), std::min(phi.size(), limit - offset),
                     static_cast<uint32_t>(offset)});
    }
  } else {
    const PhiMatrix& phi = served.set()->phi();
    out.push_back({phi.data(), std::min(phi.size(), limit), 0});
  }
  return out;
}

// The rows a read may have seen, tracked while a load phase runs. Every
// row below Lo() is visible to a read submitted now: the ingest manager
// hands out ids in the order it applies appends, so an acknowledged
// append's rows and all below them are in. No row at or above Hi() can be
// in a response that has arrived.
class RowWatch {
 public:
  explicit RowWatch(size_t rows) : at_start_(rows), acked_(rows) {}

  size_t Lo() const { return acked_.load(); }
  size_t Hi() const { return at_start_ + submitted_.load() * kAppendRows; }
  void Submitting(Kind kind) {
    if (kind == Kind::kAppend) submitted_.fetch_add(1);
  }
  void Acknowledged(uint32_t first_id) {
    const size_t end = first_id + kAppendRows;
    size_t seen = acked_.load();
    while (end > seen && !acked_.compare_exchange_weak(seen, end)) {
    }
  }

 private:
  const size_t at_start_;
  std::atomic<size_t> acked_;
  std::atomic<size_t> submitted_{0};
};

// Settles one response: counts a failure (reporting the first few) and
// acknowledges an append's rows. Returns whether the response is OK.
bool Settle(size_t request, Kind kind, const EngineResponse& response,
            RowWatch* rows, size_t* failed) {
  if (!response.status.ok()) {
    if (*failed < 5) {
      std::fprintf(stderr, "request %zu (%s) failed: %s\n", request,
                   KindName(kind), response.status.ToString().c_str());
    }
    ++*failed;
    return false;
  }
  if (kind == Kind::kAppend) rows->Acknowledged(response.first_appended_id);
  return true;
}

}  // namespace

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kInequality:
      return "ineq";
    case Kind::kTopK:
      return "topk";
    case Kind::kCount:
      return "count";
    case Kind::kAppend:
      return "append";
  }
  return "?";
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

LatencySummary SummarizeLatency(const std::vector<Record>& records) {
  LatencySummary summary;
  std::vector<double> by_kind[kReadKinds], reads, appends, lags;
  for (const Record& r : records) {
    lags.push_back(r.lag_ms);
    if (r.kind == Kind::kAppend) {
      appends.push_back(r.latency_ms);
    } else {
      by_kind[static_cast<size_t>(r.kind)].push_back(r.latency_ms);
      reads.push_back(r.latency_ms);
    }
  }
  for (size_t k = 0; k < kReadKinds; ++k) {
    summary.samples[k] = by_kind[k].size();
    summary.p50_ms[k] = Percentile(by_kind[k], 0.5);
    summary.p99_ms[k] = Percentile(std::move(by_kind[k]), 0.99);
  }
  summary.read_p99_ms = Percentile(std::move(reads), 0.99);
  summary.append_p99_ms = Percentile(std::move(appends), 0.99);
  summary.lag_p99_ms = Percentile(std::move(lags), 0.99);
  return summary;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

size_t Served::Rows() const {
  if (Catalog::ShardedPtr sh = sharded()) return sh->size();
  return set()->size();
}

size_t Served::ResidentBytes() const {
  if (Catalog::ShardedPtr sh = sharded()) {
    size_t total = 0;
    for (size_t s = 0; s < sh->num_shards(); ++s) {
      total += sh->shard(s).ResidentBytes();
    }
    return total;
  }
  return set()->ResidentBytes();
}

std::unique_ptr<Served> SetUp(const WorkloadSpec& spec, uint64_t seed) {
  auto served = std::make_unique<Served>();
  served->catalog = std::make_unique<Catalog>();
  served->dim = spec.dim;
  PhiMatrix phi = planar::GenerateSynthetic(
      DataSpec(spec.dim, kRows, SubSeed(seed, 1)));
  // Eq. 18 parameters are drawn from [1, RQ] on every axis; the indices
  // are sampled from the same domains (paper, Section 5.2).
  const std::vector<planar::ParameterDomain> domains(
      spec.dim, planar::ParameterDomain{1.0, static_cast<double>(kRq)});
  planar::IndexSetOptions options;
  options.budget = kBudget;
  options.index_options.mixed_precision = true;
  const size_t threads =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  planar::Status status;
  if (spec.shards == 0) {
    status = served->catalog
                 ->BuildAndInstall(kTarget, std::move(phi), domains, options,
                                   threads)
                 .status();
  } else {
    planar::ShardedIndexSetOptions sharded;
    sharded.shards = spec.shards;
    sharded.build_threads = threads;
    sharded.set_options = options;
    status = served->catalog
                 ->BuildAndInstallSharded(kTarget, std::move(phi), domains,
                                          sharded)
                 .status();
  }
  if (status.ok() && spec.ingest) {
    served->ingest = std::make_unique<planar::IngestManager>(
        served->catalog.get(), planar::IngestOptions());
    status = served->ingest->Manage(kTarget);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "set-up: %s\n", status.ToString().c_str());
    return nullptr;
  }
  return served;
}

Stream MakeStream(const WorkloadSpec& spec, const Served& served,
                  uint64_t seed, double seconds) {
  Stream stream;
  // Eq. 18 scales b by the per-axis maxima of the served rows; the
  // generator reads nothing else, so one row of maxima stands in for the
  // (possibly sharded) data set.
  PhiMatrix maxima(spec.dim);
  {
    std::vector<double> max_row(spec.dim, 0.0);
    for (const Segment& seg : Segments(served, served.Rows())) {
      for (size_t i = 0; i < seg.count; ++i) {
        for (size_t j = 0; j < spec.dim; ++j) {
          max_row[j] = std::max(max_row[j], seg.rows[i * spec.dim + j]);
        }
      }
    }
    maxima.AppendRow(max_row);
  }
  planar::Eq18Workload queries(maxima, kRq, kEq18Scale, SubSeed(seed, 2));
  planar::Rng kinds(SubSeed(seed, 3));
  planar::Rng gaps(SubSeed(seed, 4));

  const size_t n = std::max<size_t>(
      4096, static_cast<size_t>(std::ceil(spec.nominal_qps * seconds * 1.2)));
  stream.requests.reserve(n);
  stream.arrivals.reserve(n);
  size_t appends = 0;
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    StreamRequest r;
    if (spec.ingest && kinds.NextDouble() < spec.append_share) {
      r.kind = Kind::kAppend;
      r.rows = static_cast<uint32_t>(appends++);
    } else {
      const double u = kinds.NextDouble();
      r.kind = u < 0.6 ? Kind::kInequality
                       : (u < 0.8 ? Kind::kTopK : Kind::kCount);
      r.query = static_cast<uint32_t>(stream.queries.size());
      stream.queries.push_back(queries.Next());
    }
    stream.requests.push_back(r);
    t += -std::log1p(-gaps.NextDouble()) / spec.nominal_qps;
    stream.arrivals.push_back(t);
  }
  if (appends > 0) {
    // New rows follow the data set's own distribution.
    const PhiMatrix rows = planar::GenerateSynthetic(
        DataSpec(spec.dim, appends * kAppendRows, SubSeed(seed, 5)));
    const size_t width = kAppendRows * spec.dim;
    stream.appends.resize(appends);
    for (size_t a = 0; a < appends; ++a) {
      stream.appends[a].assign(rows.data() + a * width,
                               rows.data() + (a + 1) * width);
    }
  }
  return stream;
}

EngineRequest Stream::ToEngine(size_t i) const {
  const StreamRequest& r = at(i);
  static const std::string target = kTarget;
  EngineRequest request;
  request.target = target;
  switch (r.kind) {
    case Kind::kInequality:
      request.kind = QueryKind::kInequality;
      break;
    case Kind::kTopK:
      request.kind = QueryKind::kTopK;
      request.k = kNeighbors;
      break;
    case Kind::kCount:
      request.kind = QueryKind::kCount;
      request.tolerance = CountTolerance{0.0, kCountRelTolerance};
      break;
    case Kind::kAppend:
      request.kind = QueryKind::kAppend;
      request.rows = appends[r.rows];
      return request;
  }
  request.query = queries[r.query];
  return request;
}

OpenLoopResult RunOpenLoop(const WorkloadSpec& spec, const Stream& stream,
                           const Served& served, planar::Engine* engine,
                           double warm_s, double measure_s, uint64_t seed) {
  struct InFlight {
    size_t request = 0;
    Kind kind = Kind::kInequality;
    std::future<EngineResponse> future;
    double lag_ms = 0.0;
    bool measured = false;
    bool sampled = false;
    size_t lo = 0;
  };
  OpenLoopResult result;
  const double end_s = warm_s + measure_s;

  // A seeded 1-in-k sample of measured reads, about kSamplesPerKind per
  // kind.
  const double expected_reads = spec.nominal_qps * measure_s *
                                (1.0 - spec.append_share) * 0.2;
  const uint64_t sample_every =
      std::max<uint64_t>(1, static_cast<uint64_t>(
                                expected_reads / kSamplesPerKind));
  const uint64_t sample_salt = SubSeed(seed, 6);
  size_t sampled_per_kind[kReadKinds] = {0, 0, 0};

  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> queue;
  bool done = false;
  RowWatch rows(served.Rows());
  size_t failed = 0;  // collector-owned until join

  std::thread collector([&] {
    for (;;) {
      InFlight item;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !queue.empty(); });
        if (queue.empty()) return;
        item = std::move(queue.front());
        queue.pop_front();
      }
      EngineResponse response = item.future.get();
      const bool ok =
          Settle(item.request, item.kind, response, &rows, &failed);
      if (item.kind == Kind::kAppend && ok) result.rows_appended += kAppendRows;
      if (item.measured) {
        Record record;
        record.request = item.request;
        record.kind = item.kind;
        record.lag_ms = item.lag_ms;
        record.queue_ms = response.queue_millis;
        record.execute_ms = response.execute_millis;
        record.latency_ms =
            item.lag_ms + response.queue_millis + response.execute_millis;
        result.records.push_back(record);
      }
      if (item.sampled && ok) {
        Sample sample;
        sample.request = item.request;
        sample.lo = item.lo;
        sample.hi = rows.Hi();
        sample.response = std::move(response);
        result.samples.push_back(std::move(sample));
      }
    }
  });

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  bool measuring = false;
  for (size_t i = 0; i < stream.arrivals.size(); ++i) {
    const double due_s = stream.arrivals[i];
    if (due_s >= end_s) break;
    InFlight item;
    item.request = i;
    item.kind = stream.at(i).kind;
    item.measured = due_s >= warm_s;
    if (item.measured && !measuring) {
      measuring = true;
      result.first_measured = i;
      result.at_measure_start = engine->Snapshot();
    }
    if (item.measured && item.kind != Kind::kAppend) {
      uint64_t h = sample_salt ^ i;
      const size_t k = static_cast<size_t>(item.kind);
      if (planar::SplitMix64(h) % sample_every == 0 &&
          sampled_per_kind[k] < kSamplesPerKind) {
        item.sampled = true;
        ++sampled_per_kind[k];
      }
    }
    EngineRequest request = stream.ToEngine(i);
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(due_s));
    std::this_thread::sleep_until(due);
    const Clock::time_point now = Clock::now();
    item.lag_ms = std::max(0.0, SecondsSince(due, now) * 1e3);
    item.lo = rows.Lo();
    rows.Submitting(item.kind);
    if (item.kind == Kind::kAppend) {
      if (result.first_append_s < 0.0) {
        result.first_append_s = SecondsSince(t0, now);
      }
    }
    ++result.attempted;
    auto submitted = engine->Submit(std::move(request));
    if (!submitted.ok()) {
      if (result.shed < 5) {
        std::fprintf(stderr, "request %zu shed: %s\n", i,
                     submitted.status().ToString().c_str());
      }
      ++result.shed;
      continue;
    }
    item.future = std::move(submitted).value();
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back(std::move(item));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  collector.join();
  result.failed = failed + result.shed;
  result.phase_start = t0;
  return result;
}

ClosedLoopResult RunClosedLoop(const WorkloadSpec& spec, const Stream& stream,
                               const Served& served, planar::Engine* engine,
                               size_t clients, double warm_s,
                               double measure_s, uint64_t seed) {
  ClosedLoopResult result;
  const double end_s = warm_s + measure_s;
  const uint64_t sample_salt = SubSeed(seed, 6);
  // Seeded candidates (1 in 16 reads), taken while the kind's samples lag
  // the measured time, so the kept ones spread over the whole phase.
  constexpr uint64_t kSampleEvery = 16;
  size_t sampled_per_kind[kReadKinds] = {0, 0, 0};
  std::mutex mu;  // guards result and sampled_per_kind

  RowWatch rows(served.Rows());
  std::atomic<size_t> next{0};
  const Clock::time_point t0 = Clock::now();

  // Appends keep to their nominal rate on a writer of their own, so the
  // rows written and the merges they cause do not follow the host's speed.
  std::vector<size_t> append_requests;
  for (size_t i = 0; i < stream.requests.size(); ++i) {
    if (stream.requests[i].kind == Kind::kAppend) append_requests.push_back(i);
  }

  // Sends request `i` and waits for its response; kept in `records` and
  // `samples` when measured or sampled.
  auto send = [&](size_t i, double start_s, std::vector<Record>* records,
                  std::vector<Sample>* samples, size_t* attempted,
                  size_t* failed) {
    const Kind kind = stream.at(i).kind;
    const bool measured = start_s >= warm_s;
    bool sampled = false;
    if (measured && kind != Kind::kAppend) {
      uint64_t h = sample_salt ^ i;
      const size_t k = static_cast<size_t>(kind);
      const double due = 1.0 + static_cast<double>(kSamplesPerKind) *
                                   (start_s - warm_s) / measure_s;
      if (planar::SplitMix64(h) % kSampleEvery == 0) {
        std::lock_guard<std::mutex> lock(mu);
        if (sampled_per_kind[k] < kSamplesPerKind &&
            static_cast<double>(sampled_per_kind[k]) < due) {
          sampled = true;
          ++sampled_per_kind[k];
        }
      }
    }
    EngineRequest request = stream.ToEngine(i);
    const size_t lo = rows.Lo();
    rows.Submitting(kind);
    ++*attempted;
    const Clock::time_point sent = Clock::now();
    auto submitted = engine->Submit(std::move(request));
    if (!submitted.ok()) {
      if (*failed < 5) {
        std::fprintf(stderr, "request %zu shed: %s\n", i,
                     submitted.status().ToString().c_str());
      }
      ++*failed;
      return;
    }
    EngineResponse response = std::move(submitted).value().get();
    const double latency_ms = SecondsSince(sent, Clock::now()) * 1e3;
    const bool ok = Settle(i, kind, response, &rows, failed);
    if (measured) {
      Record record;
      record.request = i;
      record.kind = kind;
      record.latency_ms = latency_ms;
      record.queue_ms = response.queue_millis;
      record.execute_ms = response.execute_millis;
      records->push_back(record);
    }
    if (sampled && ok) {
      Sample sample;
      sample.request = i;
      sample.lo = lo;
      sample.hi = rows.Hi();
      sample.response = std::move(response);
      samples->push_back(std::move(sample));
    }
  };

  // Each thread keeps its own records and merges them when it ends.
  auto run = [&](bool writer) {
    std::vector<Record> records;
    std::vector<Sample> samples;
    size_t attempted = 0, failed = 0;
    if (writer) {
      const double gap_s = 1.0 / (spec.nominal_qps * spec.append_share);
      for (size_t a = 0; gap_s * static_cast<double>(a) < end_s; ++a) {
        const double due_s = gap_s * static_cast<double>(a);
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(due_s)));
        send(append_requests[a % append_requests.size()], due_s, &records,
             &samples, &attempted, &failed);
      }
    } else {
      for (double start_s = 0.0; start_s < end_s;
           start_s = SecondsSince(t0, Clock::now())) {
        size_t i = next.fetch_add(1);
        while (stream.at(i).kind == Kind::kAppend) i = next.fetch_add(1);
        send(i, start_s, &records, &samples, &attempted, &failed);
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    result.records.insert(result.records.end(), records.begin(),
                          records.end());
    for (Sample& sample : samples) result.samples.push_back(std::move(sample));
    result.attempted += attempted;
    result.failed += failed;
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) threads.emplace_back(run, false);
  if (!append_requests.empty()) threads.emplace_back(run, true);
  for (std::thread& thread : threads) thread.join();
  result.completed_per_s =
      static_cast<double>(result.records.size()) / measure_s;
  return result;
}

SaturationResult RunSaturation(const Stream& stream, planar::Engine* engine,
                               size_t start, size_t window, double seconds) {
  SaturationResult result;
  std::deque<std::future<EngineResponse>> outstanding;
  size_t next = start;
  auto submit = [&] {
    ++result.attempted;
    auto submitted = engine->Submit(stream.ToEngine(next++));
    if (submitted.ok()) {
      outstanding.push_back(std::move(submitted).value());
    } else {
      ++result.failed;
    }
  };
  auto complete = [&] {
    const EngineResponse response = outstanding.front().get();
    outstanding.pop_front();
    if (!response.status.ok()) ++result.failed;
  };
  for (size_t w = 0; w < window; ++w) submit();
  // Completions per one-second window; the median is reported.
  std::vector<double> per_second;
  size_t completed = 0;
  planar::WallTimer timer;
  double window_start = 0.0;
  for (double now = 0.0; now < seconds; now = timer.ElapsedSeconds()) {
    if (now - window_start >= 1.0) {
      per_second.push_back(static_cast<double>(completed) /
                           (now - window_start));
      completed = 0;
      window_start = now;
    }
    complete();
    ++completed;
    submit();
  }
  while (!outstanding.empty()) complete();
  result.qps = Percentile(std::move(per_second), 0.5);
  return result;
}

size_t CheckSamples(const Stream& stream, const Served& served,
                    const std::vector<Sample>& samples) {
  const Deadline inf = Deadline::Infinite();
  const size_t dim = served.dim;
  // Rows past the checked prefix exist only under ingest, where the
  // merged base holds every appended row in id order.
  const Catalog::SetPtr merged = served.sharded() ? nullptr : served.set();
  const size_t total = merged ? merged->size() : served.sharded()->size();
  auto row = [&](uint32_t id) { return merged->phi().row(id); };
  size_t mismatches = 0;
  auto mismatch = [&](const Sample& s, const char* what) {
    if (mismatches < 10) {
      std::fprintf(stderr, "mismatch: request %zu (%s): %s\n", s.request,
                   KindName(stream.at(s.request).kind), what);
    }
    ++mismatches;
  };
  for (const Sample& s : samples) {
    const StreamRequest& r = stream.at(s.request);
    const ScalarProductQuery& q = stream.queries[r.query];
    const size_t lo = std::min(s.lo, total);
    const size_t hi = std::min(s.hi, total);
    const std::vector<Segment> prefix = Segments(served, lo);
    switch (r.kind) {
      case Kind::kInequality: {
        std::vector<uint32_t> truth;
        for (const Segment& seg : prefix) {
          (void)planar::ScanRowsInequality(seg.rows, dim, seg.count,
                                           seg.offset, q, inf, &truth);
        }
        std::vector<uint32_t> got = s.response.inequality.ids;
        std::sort(got.begin(), got.end());
        std::sort(truth.begin(), truth.end());
        const auto split = std::lower_bound(got.begin(), got.end(),
                                            static_cast<uint32_t>(lo));
        if (!std::equal(got.begin(), split, truth.begin(), truth.end())) {
          mismatch(s, "ids differ from the scan");
          break;
        }
        for (auto it = split; it != got.end(); ++it) {
          std::vector<uint32_t> one;
          if (*it >= hi || !planar::ScanRowsInequality(row(*it), dim, 1, *it,
                                                       q, inf, &one)
                                .ok() ||
              one.size() != 1) {
            mismatch(s, "an id past the visible prefix does not match");
            break;
          }
        }
        break;
      }
      case Kind::kTopK: {
        planar::TopKBuffer buffer(kNeighbors);
        for (const Segment& seg : prefix) {
          (void)planar::ScanRowsTopK(seg.rows, dim, seg.count, seg.offset, q,
                                     inf, &buffer);
        }
        bool bad = false;
        for (const planar::Neighbor& nb : s.response.topk.neighbors) {
          if (nb.id < lo) continue;
          if (nb.id >= hi) {
            bad = true;
            break;
          }
          (void)planar::ScanRowsTopK(row(nb.id), dim, 1, nb.id, q, inf,
                                     &buffer);
        }
        const std::vector<planar::Neighbor> truth = buffer.TakeSorted();
        const std::vector<planar::Neighbor>& got = s.response.topk.neighbors;
        bad = bad || truth.size() != got.size();
        for (size_t j = 0; !bad && j < got.size(); ++j) {
          bad = truth[j].id != got[j].id ||
                truth[j].distance != got[j].distance;
        }
        if (bad) mismatch(s, "neighbors differ from the scan");
        break;
      }
      case Kind::kCount: {
        size_t at_lo = 0;
        for (const Segment& seg : prefix) {
          at_lo += planar::ScanRowsCountInequality(seg.rows, dim, seg.count,
                                                   q, inf)
                       .value();
        }
        size_t at_hi = at_lo;
        for (const Segment& seg : Segments(served, hi)) {
          if (seg.offset + seg.count <= lo) continue;
          const size_t skip = lo > seg.offset ? lo - seg.offset : 0;
          at_hi += planar::ScanRowsCountInequality(seg.rows + skip * dim, dim,
                                                   seg.count - skip, q, inf)
                       .value();
        }
        const planar::CountResult& c = s.response.count;
        if (c.lower > c.upper || c.lower > at_hi || c.upper < at_lo) {
          mismatch(s, "true count outside the returned bounds");
        }
        break;
      }
      case Kind::kAppend:
        break;
    }
  }
  return mismatches;
}

}  // namespace perfbench
