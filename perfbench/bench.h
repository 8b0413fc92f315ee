// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// The repository benchmark: an open-loop load generator driving
// Engine::Submit against n = 1M rows, plus a traced replay that times the
// public functions of each layer from outside. See perfbench/README.md.

#ifndef PLANAR_PERFBENCH_BENCH_H_
#define PLANAR_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/index_set.h"
#include "core/query.h"
#include "core/sharded.h"
#include "engine/catalog.h"
#include "engine/engine.h"
#include "engine/request.h"
#include "ingest/ingest.h"

namespace perfbench {

/// One named workload. Rates and limits are fixed here and recorded in
/// perfbench/README.md; only the seed varies between runs.
struct WorkloadSpec {
  std::string name;
  size_t dim = 2;
  size_t shards = 0;          ///< 0: monolithic PlanarIndexSet
  bool ingest = false;        ///< serve through an IngestManager
  double append_share = 0.0;  ///< share of requests that are kAppend
  double nominal_qps = 0.0;   ///< open-loop arrival rate
  double p99_limit_ms = 0.0;  ///< latency limit the nominal rate must meet
  size_t replay_requests = 0; ///< requests the traced replay re-executes
};

/// The workload named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Fixed benchmark constants (the paper defaults where they apply).
inline constexpr size_t kRows = 1000000;
inline constexpr int kRq = 4;                 // Eq. 18 randomness of query
inline constexpr double kEq18Scale = 0.25;   // Eq. 18 s
inline constexpr size_t kBudget = 10;         // indices per set
inline constexpr size_t kNeighbors = 10;
inline constexpr double kCountRelTolerance = 0.05;
inline constexpr size_t kAppendRows = 64;
inline constexpr char kTarget[] = "t";

enum class Kind { kInequality = 0, kTopK = 1, kCount = 2, kAppend = 3 };
inline constexpr size_t kReadKinds = 3;
const char* KindName(Kind kind);

/// One request of the seeded stream. Arrival times are drawn separately
/// (Poisson) so the same stream serves the open-loop, closed-loop and
/// replay phases.
struct StreamRequest {
  Kind kind = Kind::kInequality;
  uint32_t query = 0;  ///< index into Stream::queries (reads)
  uint32_t rows = 0;   ///< index into Stream::appends (appends)
};

struct Stream {
  std::vector<planar::ScalarProductQuery> queries;
  std::vector<std::vector<double>> appends;  ///< kAppendRows rows each
  std::vector<StreamRequest> requests;
  /// Poisson arrival offsets (seconds from phase start) for the first
  /// arrivals.size() requests at the nominal rate.
  std::vector<double> arrivals;

  /// Request i of the (cyclically repeated) stream.
  const StreamRequest& at(size_t i) const {
    return requests[i % requests.size()];
  }
  planar::EngineRequest ToEngine(size_t i) const;
};

/// Everything a workload serves from: the catalog entry (monolithic or
/// sharded) and, for ingest workloads, the manager owning its delta.
struct Served {
  std::unique_ptr<planar::Catalog> catalog;
  std::unique_ptr<planar::IngestManager> ingest;
  size_t dim = 0;

  planar::Catalog::SetPtr set() const { return catalog->Find(kTarget); }
  planar::Catalog::ShardedPtr sharded() const {
    return catalog->FindSharded(kTarget);
  }
  /// Rows installed (merged rows only, under ingest).
  size_t Rows() const;
  /// ResidentBytes of the served set(s).
  size_t ResidentBytes() const;
};

/// Generates the seeded data set, builds and installs the workload's set,
/// and puts it under ingest management when the workload asks for it.
std::unique_ptr<Served> SetUp(const WorkloadSpec& spec, uint64_t seed);

/// The seeded request stream over `served`'s data (queries come from the
/// paper's Eq. 18 generator over the installed rows).
Stream MakeStream(const WorkloadSpec& spec, const Served& served,
                  uint64_t seed, double seconds);

/// A response kept for the off-the-clock correctness check, with the row
/// prefix it may have seen: every row below `lo` was visible to it, and
/// none at or above `hi`.
struct Sample {
  size_t request = 0;
  planar::EngineResponse response;
  size_t lo = 0;
  size_t hi = 0;
};

/// Per-request record of an engine phase (latency from the scheduled
/// send time in the open loop, from Submit in the closed loop; the
/// engine's own queue/execute split).
struct Record {
  size_t request = 0;
  Kind kind = Kind::kInequality;
  double latency_ms = 0.0;
  double queue_ms = 0.0;
  double execute_ms = 0.0;
  double lag_ms = 0.0;
};

struct OpenLoopResult {
  std::vector<Record> records;  ///< measured window only
  std::vector<Sample> samples;
  size_t attempted = 0;         ///< every submitted request, warm-up too
  size_t shed = 0;              ///< refused by Submit
  size_t failed = 0;            ///< shed or answered with a non-OK status
  size_t first_measured = 0;    ///< stream index of the first measured one
  double rows_appended = 0.0;   ///< rows acknowledged by kAppend responses
  double first_append_s = -1.0; ///< first append, seconds after phase_start
  std::chrono::steady_clock::time_point phase_start;
  planar::DebugSnapshot at_measure_start;  ///< engine state at warm-up end
};

/// Drives `engine` with Poisson arrivals at spec.nominal_qps: `warm_s`
/// seconds of warm-up (left out of every statistic) then `measure_s`
/// seconds measured. Waits until every response has arrived. Under
/// ingest the delta must be empty at the start (Flush first).
OpenLoopResult RunOpenLoop(const WorkloadSpec& spec, const Stream& stream,
                           const Served& served, planar::Engine* engine,
                           double warm_s, double measure_s, uint64_t seed);

/// Per-request records and samples of a closed-loop phase.
struct ClosedLoopResult {
  std::vector<Record> records;  ///< measured window only, in no set order
  std::vector<Sample> samples;
  size_t attempted = 0;         ///< every submitted request, warm-up too
  size_t failed = 0;            ///< shed or answered with a non-OK status
  double completed_per_s = 0.0; ///< measured completions per second
};

/// Runs `clients` client threads, each submitting the next read of the
/// stream and waiting for its response before sending another: `warm_s`
/// seconds of warm-up (left out of every statistic) then `measure_s`
/// seconds measured. A request's latency runs from Submit until its
/// response is in the client's hands. The stream's appends, if any, go
/// from one writer thread at their share of the nominal rate.
ClosedLoopResult RunClosedLoop(const WorkloadSpec& spec, const Stream& stream,
                               const Served& served, planar::Engine* engine,
                               size_t clients, double warm_s,
                               double measure_s, uint64_t seed);

struct SaturationResult {
  double qps = 0.0;  ///< median over one-second windows of completions/s
  size_t attempted = 0;
  size_t failed = 0;
};

/// Keeps `window` requests outstanding for `seconds`, continuing the
/// stream at request `start`; reports completions per second.
SaturationResult RunSaturation(const Stream& stream, planar::Engine* engine,
                               size_t start, size_t window, double seconds);

/// Latency of a load phase, over every measured request.
struct LatencySummary {
  double p50_ms[kReadKinds] = {0.0, 0.0, 0.0};
  double p99_ms[kReadKinds] = {0.0, 0.0, 0.0};
  size_t samples[kReadKinds] = {0, 0, 0};
  double read_p99_ms = 0.0;  ///< all read kinds pooled
  double append_p99_ms = 0.0;
  double lag_p99_ms = 0.0;   ///< how late the generator sent (validity)
};
LatencySummary SummarizeLatency(const std::vector<Record>& records);

/// Checks every sample against a sequential scan of the served rows
/// (ScanRowsInequality / ScanRowsTopK / ScanRowsCountInequality — the
/// bodies of ScanInequality / ScanTopK); returns the mismatch count and
/// prints each mismatch to stderr.
size_t CheckSamples(const Stream& stream, const Served& served,
                    const std::vector<Sample>& samples);

/// One reported figure, printed as "name value unit".
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

struct TraceInput {
  const WorkloadSpec* spec = nullptr;
  const Stream* stream = nullptr;
  const Served* served = nullptr;
  const OpenLoopResult* engine_run = nullptr;
  LatencySummary latency;                ///< of engine_run
  planar::DebugSnapshot engine_run_end;  ///< after the run (and Flush)
  double ingest_rows_per_s = 0.0;        ///< 0 when ingest is bypassed
  size_t workers = 1;                    ///< engine worker threads
  Metrics validity;  ///< generator lag and host steal of the engine run
};

/// Replays stream requests [engine_run->first_measured, + replay_requests)
/// through each layer's public functions and returns the per-layer
/// metrics. `accounting_ok` reports the self-check of the split. Also
/// prints the counts that must repeat exactly for a given seed.
Metrics RunTrace(const TraceInput& input, bool* accounting_ok);

/// Sample percentile (linear interpolation), 0 for an empty input.
double Percentile(std::vector<double> values, double q);


}  // namespace perfbench

#endif  // PLANAR_PERFBENCH_BENCH_H_
