// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Build-pipeline and boundary-search benchmark (the committed baseline
// lives in BENCH_build.json at the repo root). Two sections:
//
//   build   PlanarIndexSet::BuildWithNormals rows/s — r fixed normals
//           over n rows — swept over set-level build_threads, against
//           the serial (threads = 1) baseline. Fixed normals keep every
//           configuration building the exact same indices, so the sweep
//           measures the pipeline, not the workload. speedup > 1 needs
//           real cores: the JSON carries host_threads so a single-core
//           runner's ~1.0x reads as what it is.
//
//   search  ns per SI/LI rank lookup over a sorted key array: branchless
//           prefetching Eytzinger descent vs std::lower_bound, random
//           probes. Single-threaded; speedup = std_ns / eytzinger_ns.
//
//   --n      rows per index           (default 262144; --full 1048576)
//   --runs   measured repetitions     (default 5, best-of)
//   --smoke  tiny sizes, single run — CI correctness-of-plumbing mode

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/macros.h"
#include "common/random.h"
#include "common/table_printer.h"
#include "core/eytzinger.h"
#include "core/index_set.h"
#include "tests/test_util.h"

namespace planar {
namespace {

volatile double g_sink = 0.0;

// Best-of-runs wall time: robust against host steal time on shared
// single-core runners (same rationale as bench_kernels).
template <typename Fn>
double MinMillis(Fn&& fn, int runs) {
  double best = 0.0;
  for (int i = 0; i < runs; ++i) {
    WallTimer timer;
    fn();
    const double ms = timer.ElapsedMillis();
    if (i == 0 || ms < best) best = ms;
  }
  return best;
}

// r strictly-positive normals for the first octant, deterministic.
std::vector<std::vector<double>> MakeNormals(size_t r, size_t dim) {
  Rng rng(47);
  std::vector<std::vector<double>> normals(r, std::vector<double>(dim));
  for (auto& normal : normals) {
    for (double& c : normal) c = rng.Uniform(0.5, 4.0);
  }
  return normals;
}

double BuildMillis(const PhiMatrix& phi,
                   const std::vector<std::vector<double>>& normals,
                   size_t threads, int runs) {
  const Octant octant =
      Octant::FromNormal(std::vector<double>(phi.dim(), 1.0));
  IndexSetOptions options;
  options.build_threads = threads;
  // Hand-rolled best-of loop: each run consumes a fresh matrix copy, and
  // the copy must stay outside the timed region.
  double best = 0.0;
  for (int i = 0; i < runs; ++i) {
    PhiMatrix copy = phi;
    WallTimer timer;
    auto set = PlanarIndexSet::BuildWithNormals(std::move(copy), normals,
                                                octant, options);
    const double ms = timer.ElapsedMillis();
    PLANAR_CHECK(set.ok());
    g_sink = static_cast<double>(set->num_indices());
    if (i == 0 || ms < best) best = ms;
  }
  return best;
}

struct SearchMeasurement {
  double std_ns = 0.0;
  double eytzinger_ns = 0.0;
  double speedup() const {
    return eytzinger_ns > 0.0 ? std_ns / eytzinger_ns : 0.0;
  }
};

SearchMeasurement BenchBoundarySearch(size_t n, int runs) {
  Rng rng(51);
  std::vector<double> keys(n);
  for (double& k : keys) k = rng.Uniform(0.0, 1e6);
  std::sort(keys.begin(), keys.end());
  EytzingerKeys eytz;
  eytz.Build(keys.data(), keys.size());
  PLANAR_CHECK(!eytz.empty());

  // Pre-generated random probes defeat the branch predictor the same way
  // for both searches; the probe sequence is identical across them.
  const size_t kProbes = 1 << 16;
  std::vector<double> probes(kProbes);
  for (double& p : probes) p = rng.Uniform(-1e5, 1.1e6);

  SearchMeasurement m;
  const double std_ms = MinMillis(
      [&] {
        size_t acc = 0;
        for (const double p : probes) {
          acc += static_cast<size_t>(
              std::upper_bound(keys.begin(), keys.end(), p) - keys.begin());
        }
        g_sink = static_cast<double>(acc);
      },
      runs);
  const double eytz_ms = MinMillis(
      [&] {
        size_t acc = 0;
        for (const double p : probes) acc += eytz.UpperBound(keys.data(), p);
        g_sink = static_cast<double>(acc);
      },
      runs);
  m.std_ns = std_ms * 1e6 / static_cast<double>(kProbes);
  m.eytzinger_ns = eytz_ms * 1e6 / static_cast<double>(kProbes);
  return m;
}

}  // namespace
}  // namespace planar

int main(int argc, char** argv) {
  using namespace planar;  // NOLINT: bench brevity
  FlagParser flags(argc, argv);
  const bool smoke = flags.GetBool("smoke", false);
  const size_t n = smoke ? 20000 : bench::ScaledN(flags, 262144, 1048576);
  const int runs = smoke ? 1 : bench::Runs(flags, 5);
  const unsigned host_threads =
      std::max(1u, std::thread::hardware_concurrency());

  bench::PrintHeader(
      "index-set build pipeline + boundary search",
      "build rows/s vs serial across r and threads; Eytzinger vs "
      "std::upper_bound rank lookups; host_threads=" +
          std::to_string(host_threads));

  const size_t dim = 4;
  const size_t r_values[] = {4, 8};
  const size_t thread_values[] = {1, 2, 4, 8};

  TablePrinter build_table(
      {"r", "n", "threads", "Mrows/s", "speedup vs serial"});
  const PhiMatrix phi = RandomPhi(n, dim, 1.0, 100.0, 53);
  for (const size_t r : r_values) {
    const auto normals = MakeNormals(smoke ? std::min<size_t>(r, 4) : r, dim);
    double serial_ms = 0.0;
    for (const size_t threads : thread_values) {
      if (smoke && threads > 2) continue;
      const double ms = BuildMillis(phi, normals, threads, runs);
      if (threads == 1) serial_ms = ms;
      // Rows processed: every index computes+sorts all n keys.
      const double rows =
          static_cast<double>(normals.size()) * static_cast<double>(n);
      const double rows_per_sec = rows / (ms / 1000.0);
      const double speedup = ms > 0.0 ? serial_ms / ms : 0.0;
      build_table.AddRow({std::to_string(normals.size()), std::to_string(n),
                          std::to_string(threads),
                          FormatDouble(rows_per_sec / 1e6, 1),
                          FormatDouble(speedup, 2)});
      std::printf(
          "{\"bench\":\"build\",\"r\":%zu,\"n\":%zu,\"threads\":%zu,"
          "\"rows_per_sec\":%.0f,\"speedup_vs_serial\":%.2f%s}\n",
          normals.size(), n, threads, rows_per_sec, speedup,
          bench::JsonStamp(threads).c_str());
    }
  }

  TablePrinter search_table({"n", "std ns", "eytzinger ns", "speedup"});
  const size_t search_sizes_full[] = {1u << 16, 1u << 20, 1u << 22};
  const size_t search_sizes_smoke[] = {1u << 12};
  const size_t* search_sizes = smoke ? search_sizes_smoke : search_sizes_full;
  const size_t num_search_sizes = smoke ? 1 : 3;
  for (size_t i = 0; i < num_search_sizes; ++i) {
    const size_t keys = search_sizes[i];
    const SearchMeasurement m = BenchBoundarySearch(keys, runs);
    search_table.AddRow({std::to_string(keys), FormatDouble(m.std_ns, 1),
                         FormatDouble(m.eytzinger_ns, 1),
                         FormatDouble(m.speedup(), 2)});
    std::printf(
        "{\"bench\":\"search\",\"n\":%zu,\"std_ns\":%.1f,"
        "\"eytzinger_ns\":%.1f,\"speedup\":%.2f%s}\n",
        keys, m.std_ns, m.eytzinger_ns, m.speedup(),
        bench::JsonStamp(1).c_str());
  }

  std::printf("\n");
  build_table.Print();
  search_table.Print();
  return 0;
}
