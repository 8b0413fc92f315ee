// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 (the timed run): sets the workload up kSetups times (setup_s
// is the median), then runs a closed loop of one client per engine worker
// for a warm-up and --seconds measured (the per-kind median latencies),
// and checks a seeded sample of responses against a scan. --trace 1 (the
// traced run): one set-up, an open loop at the nominal rate for the
// engine-level figures, the per-layer replay (trace.cc), then
// completions per second with the queue kept full.
//
// Every metric is printed as "name value unit", and so are the run's
// validity signals (host steal; generator lag in the open loop); the last
// line of stdout is one JSON object {correct, attempted, failed,
// metrics}. Exits 1 on a wrong answer or a failed accounting self-check,
// and 2 on a usage error. See perfbench/README.md.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"
#include "common/timer.h"

namespace perfbench {
namespace {

constexpr size_t kSetups = 3;
constexpr double kWarmSeconds = 1.0;
/// Share of --seconds the traced run spends in its open loop and in its
/// saturation phase.
constexpr double kNominalShare = 0.5;
constexpr double kSaturationShare = 0.2;
/// Outstanding requests that keep the queue full in the saturation phase.
constexpr size_t kSaturationWindow = 64;
/// A run whose generator sent its p99 request later than this share of
/// the workload's latency limit is marked invalid: the load was not
/// open-loop.
constexpr double kMaxGenLagShare = 0.25;

// Resets the kernel's peak-RSS mark (Linux), so that PeakRssMb covers
// serving only: set-up runs kSetups times and its build scratch would
// otherwise set the peak. The heap's free memory (the earlier sets) goes
// back to the kernel first, so the mark starts from the live data alone.
void ResetPeakRss() {
  malloc_trim(0);
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

// Peak resident set since ResetPeakRss (VmHWM), else since start.
double PeakRssMb() {
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    double kib = -1.0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0.0) return kib / 1024.0;
  }
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintLines(const Metrics& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const Metrics& metrics) {
  PrintLines(metrics);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// Cumulative CPU time of the host as the kernel accounts it: all of it,
// and the part the hypervisor ran other guests on our virtual CPUs.
struct HostTicks {
  double total = 0.0;
  double steal = 0.0;
};

HostTicks ReadHostTicks() {
  HostTicks ticks;
  if (FILE* f = std::fopen("/proc/stat", "r")) {
    double v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    if (std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0], &v[1],
                    &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      for (double x : v) ticks.total += x;
      ticks.steal = v[7];
    }
    std::fclose(f);
  }
  return ticks;
}

// Share of CPU time stolen by the hypervisor between two readings.
double StealShare(const HostTicks& a, const HostTicks& b) {
  const double total = b.total - a.total;
  return total > 0.0 ? (b.steal - a.steal) / total : 0.0;
}

/// What a run reports: the JSON result's fields.
struct Outcome {
  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
  Metrics metrics;
};

// Merges the ingest delta into the base (nothing to do without ingest).
bool Flush(const Served& served) {
  if (!served.ingest) return true;
  const planar::Status flushed = served.ingest->Flush(kTarget);
  if (!flushed.ok()) {
    std::fprintf(stderr, "flush: %s\n", flushed.ToString().c_str());
  }
  return flushed.ok();
}

// Checks the samples against a scan; a mismatch is a failed request.
void Check(const Stream& stream, const Served& served,
           const std::vector<Sample>& samples, Outcome* out) {
  const size_t mismatches = CheckSamples(stream, served, samples);
  std::printf("correctness: %zu sampled responses, %zu mismatches\n",
              samples.size(), mismatches);
  out->failed += mismatches;
  out->correct = out->correct && mismatches == 0;
  std::printf("error_rate %.6g (%zu of %zu)\n",
              static_cast<double>(out->failed) /
                  static_cast<double>(out->attempted),
              out->failed, out->attempted);
}

// The timed run: the closed loop's per-kind median latencies, set-up time
// and peak memory. False on an error that leaves no result.
bool TimedRun(const WorkloadSpec& spec, const Stream& stream,
              const Served& served, planar::Engine* engine, size_t clients,
              double seconds, uint64_t seed,
              const std::vector<double>& setup_s, Outcome* out) {
  const HostTicks before = ReadHostTicks();
  const ClosedLoopResult run = RunClosedLoop(
      spec, stream, served, engine, clients, kWarmSeconds, seconds, seed);
  const double steal = StealShare(before, ReadHostTicks());
  out->attempted = run.attempted;
  out->failed = run.failed;
  std::printf("closed loop: %zu clients, %zu requests, %.1f completed/s, "
              "%zu failed\n",
              clients, run.attempted, run.completed_per_s, run.failed);
  if (!Flush(served)) return false;
  Check(stream, served, run.samples, out);

  const LatencySummary latency = SummarizeLatency(run.records);
  out->metrics.push_back({"setup_s", Percentile(setup_s, 0.5), "s"});
  for (size_t k = 0; k < kReadKinds; ++k) {
    const std::string name = KindName(static_cast<Kind>(k));
    std::printf("%s latency: %zu samples\n", name.c_str(),
                latency.samples[k]);
    out->metrics.push_back({name + "_p50_ms", latency.p50_ms[k], "ms"});
  }
  out->metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  // Printed, not bounded (perfbench/README.md): the read tail and the
  // completion rate follow the host's steal more than the program, and
  // the steal share is the run's validity signal.
  PrintLines({{"latency.read_p99_ms", latency.read_p99_ms, "ms"},
              {"closed_loop_qps", run.completed_per_s, "1/s"},
              {"host.steal_frac", steal, "ratio"}});
  return true;
}

// The traced run: the open loop at the nominal rate (engine-level figures
// and validity signals), the per-layer replay, then saturation. False on
// an error that leaves no result.
bool TracedRun(const WorkloadSpec& spec, const Stream& stream,
               const Served& served, planar::Engine* engine, size_t workers,
               double seconds, uint64_t seed, Outcome* out) {
  const HostTicks before = ReadHostTicks();
  const OpenLoopResult run =
      RunOpenLoop(spec, stream, served, engine, kWarmSeconds,
                  seconds * kNominalShare, seed);
  const double steal = StealShare(before, ReadHostTicks());
  double rows_per_s = 0.0;
  if (served.ingest) {
    // Ingest throughput runs from the first append until Flush returns,
    // so merge cost is included.
    if (!Flush(served)) return false;
    if (run.first_append_s >= 0.0) {
      const double span =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        run.phase_start)
              .count() -
          run.first_append_s;
      rows_per_s = run.rows_appended / span;
    }
  }
  const planar::DebugSnapshot run_end = engine->Snapshot();
  out->attempted = run.attempted;
  out->failed = run.failed;
  std::printf("open loop: %zu requests at %.0f/s, %zu shed, %zu failed\n",
              run.attempted, spec.nominal_qps, run.shed, run.failed);

  // Validity signals: how late the generator sent (it shares the cores
  // with the engine, so the program's own load raises it too) and how
  // much CPU time the hypervisor took.
  const LatencySummary latency = SummarizeLatency(run.records);
  const Metrics validity = {{"gen_lag_p99_ms", latency.lag_p99_ms, "ms"},
                            {"host.steal_frac", steal, "ratio"}};
  if (latency.lag_p99_ms > kMaxGenLagShare * spec.p99_limit_ms) {
    // Marked, not failed: `correct` speaks for the answers.
    std::printf("INVALID RUN: the generator ran %.3f ms late (p99), over "
                "%.0f%% of the %.0f ms limit; the open-loop figures measure "
                "the host\n",
                latency.lag_p99_ms, kMaxGenLagShare * 100.0,
                spec.p99_limit_ms);
  }

  TraceInput input;
  input.spec = &spec;
  input.stream = &stream;
  input.served = &served;
  input.engine_run = &run;
  input.latency = latency;
  input.engine_run_end = run_end;
  input.ingest_rows_per_s = rows_per_s;
  input.workers = workers;
  input.validity = validity;
  bool accounting_ok = false;
  out->metrics = RunTrace(input, &accounting_ok);
  out->correct = accounting_ok;

  // After the replay, whose counts must not depend on how many appends
  // this phase gets through.
  const SaturationResult sat =
      RunSaturation(stream, engine, run.attempted, kSaturationWindow,
                    seconds * kSaturationShare);
  out->attempted += sat.attempted;
  out->failed += sat.failed;
  out->metrics.push_back({"engine.saturation_qps", sat.qps, "1/s"});
  if (!Flush(served)) return false;
  Check(stream, served, run.samples, out);
  return true;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<d2_mono_read|d8_sharded_read|d2_mono_ingest> --seed <n> "
               "--seconds <s> --trace <0|1> [--shards <S>]\n",
               why);
  return 2;
}

int Run(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30.0;
  int trace = 0;
  long shards = -1;  // probe override of the workload's shard count
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--shards") {
      shards = std::strtol(value, nullptr, 10);
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  const WorkloadSpec* found = FindWorkload(workload);
  if (found == nullptr) return Usage("unknown workload");
  if (!(seconds > 0.0) || (trace != 0 && trace != 1)) {
    return Usage("bad --seconds or --trace");
  }
  WorkloadSpec spec = *found;
  if (shards >= 0) spec.shards = static_cast<size_t>(shards);

  // Set-up, timed; the last one is kept.
  std::vector<double> setup_s;
  std::unique_ptr<Served> served;
  for (size_t k = 0; k < (trace == 0 ? kSetups : 1); ++k) {
    served.reset();
    planar::WallTimer timer;
    served = SetUp(spec, seed);
    setup_s.push_back(timer.ElapsedSeconds());
    if (served == nullptr) return 1;
  }
  const Stream stream = MakeStream(
      spec, *served, seed,
      kWarmSeconds + (trace == 0 ? seconds : seconds * kNominalShare));
  ResetPeakRss();

  planar::EngineOptions options;
  options.num_workers =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  Outcome out;
  {
    planar::Engine engine(served->catalog.get(), options);
    if (served->ingest) engine.AttachIngest(served->ingest.get());
    const bool ran =
        trace == 0
            ? TimedRun(spec, stream, *served, &engine, options.num_workers,
                       seconds, seed, setup_s, &out)
            : TracedRun(spec, stream, *served, &engine, options.num_workers,
                        seconds, seed, &out);
    if (!ran) return 1;
  }
  PrintResult(out.correct, out.attempted, out.failed, out.metrics);
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
