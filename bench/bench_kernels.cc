// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Microbenchmark for the vectorized verification kernels (src/core/kernels):
// rows/second of the batched paths against the pre-kernel baselines they
// replaced (per-row planar::Dot plus a branchy accept loop). Four
// workloads, each swept over d' in {2, 4, 8, 16}:
//
//   batch_dot           dot_range residuals       vs per-row Dot
//   batch_verify        fused f64 classify (gathered) + mask walk
//                                                 vs per-row Dot + branchy push
//   batch_verify_mixed  f32 band classify + f64 band re-verify
//                                                 vs the f64 classify
//   build_keys          dot_range key construction vs per-row Dot + shift
//
// plus scan_vs_gather, which prices the scan-fallback rule
// (IndexSetOptions::scan_fallback_fraction): ns/row to verify a gathered
// intermediate interval (a shuffled third of an n_scan-row matrix, the
// d' = 8 serving shape) against ns/row to classify every row of the same
// matrix contiguously, both through BlockClassifier with the ids
// materialized, in f64 and on the f32 mirror. The implied crossover
// II/n = scan_ns / gather_ns is where a full scan starts to beat the
// index's random access.
//
// Prints a table plus one JSON line per configuration (the committed
// baseline lives in BENCH_kernels.json at the repo root).
//
// The default row count is cache-resident so the comparison is
// compute-bound (the kernels' reason to exist); --full streams from
// DRAM, where both paths converge toward memory bandwidth and the gap
// narrows — both regimes are honest, they answer different questions.
// scan_vs_gather always runs at --n_scan rows, because a crossover
// measured from cache would say nothing about a DRAM-resident set.
//
//   --n       rows                      (default 16384; --full 1000000)
//   --n_scan  scan_vs_gather rows       (default: 250000 and 1000000)
//   --runs    measured repetitions      (default 25, best-of)
//   --smoke   tiny sizes, single run; also checks every classify kernel
//             against the scalar reference (masks and residual bits)

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/macros.h"
#include "common/random.h"
#include "common/table_printer.h"
#include "core/kernels/kernels.h"
#include "core/mixed.h"
#include "core/row_matrix.h"
#include "geometry/vec.h"
#include "tests/test_util.h"

namespace planar {
namespace {

// Keeps the compiler from discarding the measured loops.
volatile double g_sink = 0.0;

// Best-of-runs wall time: robust against host steal time and frequency
// dips, which matters more than averaging on shared single-core runners.
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

struct Measurement {
  double baseline_rows_per_sec = 0.0;
  double kernel_rows_per_sec = 0.0;
  double speedup() const {
    return baseline_rows_per_sec > 0.0
               ? kernel_rows_per_sec / baseline_rows_per_sec
               : 0.0;
  }
};

double RowsPerSec(size_t rows, double millis) {
  return millis > 0.0 ? static_cast<double>(rows) / (millis / 1000.0) : 0.0;
}

// The index block driver's id-sink shape: classify `ids` block by block
// and append the accepted ids. Returns the accepted count.
size_t VerifyIds(const BlockClassifier& classifier,
                 const std::vector<uint32_t>& ids,
                 std::vector<uint32_t>* accepted) {
  accepted->clear();
  accepted->reserve(ids.size());
  uint64_t mask[kernels::kMaskWords];
  for (size_t off = 0; off < ids.size(); off += kernels::kBlockRows) {
    const size_t blk = std::min(kernels::kBlockRows, ids.size() - off);
    classifier.Gather(ids.data() + off, blk, mask, nullptr);
    const size_t old_size = accepted->size();
    accepted->resize(old_size + kernels::MaskCount(mask));
    uint32_t* dst = accepted->data() + old_size;
    kernels::ForEachSetBit(mask, [&](size_t i) { *dst++ = ids[off + i]; });
  }
  return accepted->size();
}

// The scan's shape: classify rows [0, n) contiguously and append the ids.
size_t ScanIds(const BlockClassifier& classifier, size_t n,
               std::vector<uint32_t>* accepted) {
  accepted->clear();
  accepted->reserve(n);
  uint64_t mask[kernels::kMaskWords];
  for (size_t row = 0; row < n; row += kernels::kBlockRows) {
    const size_t blk = std::min(kernels::kBlockRows, n - row);
    classifier.Range(row, blk, mask, nullptr);
    const size_t old_size = accepted->size();
    accepted->resize(old_size + kernels::MaskCount(mask));
    uint32_t* dst = accepted->data() + old_size;
    kernels::ForEachSetBit(mask, [&](size_t i) {
      *dst++ = static_cast<uint32_t>(row + i);
    });
  }
  return accepted->size();
}

struct ScanVsGather {
  double gather_ns_per_row = 0.0;
  double scan_ns_per_row = 0.0;
  // II/n at which a full scan costs what the gathered II costs.
  double crossover() const {
    return gather_ns_per_row > 0.0 ? scan_ns_per_row / gather_ns_per_row
                                   : 0.0;
  }
};

// Gathered II block vs contiguous scan through one classifier. `ii` is
// the gathered candidate list in serving order (shuffled row ids).
ScanVsGather BenchScanVsGather(const BlockClassifier& classifier, size_t n,
                               const std::vector<uint32_t>& ii, int runs) {
  std::vector<uint32_t> accepted;
  ScanVsGather r;
  const double gather_ms = MinMillis(
      [&] { g_sink = static_cast<double>(VerifyIds(classifier, ii,
                                                   &accepted)); },
      runs);
  const double scan_ms = MinMillis(
      [&] { g_sink = static_cast<double>(ScanIds(classifier, n, &accepted)); },
      runs);
  r.gather_ns_per_row = gather_ms * 1e6 / static_cast<double>(ii.size());
  r.scan_ns_per_row = scan_ms * 1e6 / static_cast<double>(n);
  return r;
}

// --smoke: every classify kernel of the dispatched backend against the
// scalar reference on ragged blocks, both forms, both directions.
void CheckClassifyAgainstScalar(const PhiMatrix& phi,
                                const std::vector<double>& a, double b) {
  const size_t dim = phi.dim();
  const size_t n = std::min<size_t>(phi.size(), 1000);
  const kernels::DotOps& ops = kernels::Ops();
  const kernels::DotOps& ref = kernels::ScalarOps();
  const kernels::DotOpsF32& ops32 = kernels::OpsF32();
  const kernels::DotOpsF32& ref32 = kernels::ScalarOpsF32();
  // f32-ok (bench): the mirror-side query for the band classify check.
  std::vector<float> a32(dim);
  for (size_t j = 0; j < dim; ++j) a32[j] = FloatMirrorValue(a[j]);
  const float bias32 = FloatMirrorValue(-b);
  std::vector<uint32_t> ids(kernels::kBlockRows);
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<uint32_t>((i * 7919) % n);
  }
  double res[kernels::kBlockRows];
  double res_ref[kernels::kBlockRows];
  uint64_t m[kernels::kMaskWords], m_ref[kernels::kMaskWords];
  uint64_t band[kernels::kMaskWords], band_ref[kernels::kMaskWords];
  for (const size_t count : {size_t{1}, size_t{7}, size_t{64}, size_t{255},
                             kernels::kBlockRows}) {
    for (const bool le : {true, false}) {
      ops.classify_gather(a.data(), dim, phi.data(), dim, ids.data(), count,
                          -b, le, res, m);
      ref.classify_gather(a.data(), dim, phi.data(), dim, ids.data(), count,
                          -b, le, res_ref, m_ref);
      PLANAR_CHECK(std::equal(m, m + kernels::kMaskWords, m_ref));
      PLANAR_CHECK(std::memcmp(res, res_ref, count * sizeof(double)) == 0);
      ops.classify_range(a.data(), dim, phi.data(), dim, 3, count, -b, le,
                         res, m);
      ref.classify_range(a.data(), dim, phi.data(), dim, 3, count, -b, le,
                         res_ref, m_ref);
      PLANAR_CHECK(std::equal(m, m + kernels::kMaskWords, m_ref));
      PLANAR_CHECK(std::memcmp(res, res_ref, count * sizeof(double)) == 0);
      ops32.classify_gather(a32.data(), dim, phi.f32_data(), dim, ids.data(),
                            count, bias32, 1.0f, le, m, band);
      ref32.classify_gather(a32.data(), dim, phi.f32_data(), dim, ids.data(),
                            count, bias32, 1.0f, le, m_ref, band_ref);
      PLANAR_CHECK(std::equal(m, m + kernels::kMaskWords, m_ref));
      PLANAR_CHECK(std::equal(band, band + kernels::kMaskWords, band_ref));
      ops32.classify_range(a32.data(), dim, phi.f32_data(), dim, 3, count,
                           bias32, 1.0f, le, m, band);
      ref32.classify_range(a32.data(), dim, phi.f32_data(), dim, 3, count,
                           bias32, 1.0f, le, m_ref, band_ref);
      PLANAR_CHECK(std::equal(m, m + kernels::kMaskWords, m_ref));
      PLANAR_CHECK(std::equal(band, band + kernels::kMaskWords, band_ref));
    }
  }
}

// Residuals for every row, blocked: the scan / II hot loop shape.
Measurement BenchBatchDot(const PhiMatrix& phi, const std::vector<double>& a,
                          double b, int runs) {
  const size_t n = phi.size();
  const size_t dim = phi.dim();
  std::vector<double> residuals(n);
  Measurement m;
  const double base_ms = MinMillis(
      [&] {
        double acc = 0.0;
        for (size_t i = 0; i < n; ++i) {
          residuals[i] = Dot(a.data(), phi.row(i), dim) - b;
          acc += residuals[i];
        }
        g_sink = acc;
      },
      runs);
  const kernels::DotOps& ops = kernels::Ops();
  const double kern_ms = MinMillis(
      [&] {
        for (size_t row = 0; row < n; row += kernels::kBlockRows) {
          const size_t blk = std::min(kernels::kBlockRows, n - row);
          ops.dot_range(a.data(), dim, phi.data(), dim, row, blk, -b,
                        residuals.data() + row);
        }
        g_sink = residuals[n - 1];
      },
      runs);
  m.baseline_rows_per_sec = RowsPerSec(n, base_ms);
  m.kernel_rows_per_sec = RowsPerSec(n, kern_ms);
  return m;
}

// The full II verification shape: gather candidate rows by id, compute
// residuals, emit matching ids. Baseline is the pre-kernel per-row loop
// (one Dot, one data-dependent branch, one push_back per row).
Measurement BenchBatchVerify(const PhiMatrix& phi,
                             const std::vector<double>& a, double b,
                             const std::vector<uint32_t>& ids, int runs) {
  const size_t n = ids.size();
  const size_t dim = phi.dim();
  std::vector<uint32_t> accepted;
  Measurement m;
  const double base_ms = MinMillis(
      [&] {
        accepted.clear();
        for (size_t i = 0; i < n; ++i) {
          const double residual = Dot(a.data(), phi.row(ids[i]), dim) - b;
          if (residual <= 0.0) accepted.push_back(ids[i]);
        }
        g_sink = static_cast<double>(accepted.size());
      },
      runs);
  const BlockClassifier classifier(a.data(), dim, b, true, phi.data(),
                                   nullptr, dim, nullptr);
  const double kern_ms = MinMillis(
      [&] { g_sink = static_cast<double>(VerifyIds(classifier, ids,
                                                   &accepted)); },
      runs);
  m.baseline_rows_per_sec = RowsPerSec(n, base_ms);
  m.kernel_rows_per_sec = RowsPerSec(n, kern_ms);
  return m;
}

// Mixed-precision verification shape (core/mixed.h): f32 residuals over
// the mirror classify every row against the widened accept band; only the
// in-band rows are re-verified with the exact f64 gather. Baseline is the
// pure f64 gather + compress path (batch_verify's kernel side) — the
// speedup column is therefore mixed-vs-f64, the claim the mode exists
// for. The accepted id streams are asserted identical every run.
Measurement BenchBatchVerifyMixed(const PhiMatrix& phi,
                                  const std::vector<double>& a, double b,
                                  const std::vector<uint32_t>& ids,
                                  int runs) {
  const size_t n = ids.size();
  const size_t dim = phi.dim();
  std::vector<uint32_t> accepted;
  std::vector<uint32_t> accepted_mixed;
  Measurement m;
  const BlockClassifier f64(a.data(), dim, b, true, phi.data(), nullptr, dim,
                            nullptr);
  const double base_ms = MinMillis(
      [&] { g_sink = static_cast<double>(VerifyIds(f64, ids, &accepted)); },
      runs);
  const MixedQueryPlan plan = MakeMixedPlan(a.data(), dim, b, true, phi);
  PLANAR_CHECK(plan.usable);  // the bench data is well inside float range
  const BlockClassifier mixed(a.data(), dim, b, true, phi.data(),
                              phi.f32_data(), dim, &plan);
  const double kern_ms = MinMillis(
      [&] {
        g_sink = static_cast<double>(VerifyIds(mixed, ids, &accepted_mixed));
      },
      runs);
  // Bit-identity gate: the mixed path must accept exactly the f64 ids in
  // exactly the f64 order, or the measurement is meaningless.
  PLANAR_CHECK(accepted == accepted_mixed);
  m.baseline_rows_per_sec = RowsPerSec(n, base_ms);
  m.kernel_rows_per_sec = RowsPerSec(n, kern_ms);
  return m;
}

// Key construction: the Rebuild hot loop (key_i = <c, phi_i> + shift).
Measurement BenchBuildKeys(const PhiMatrix& phi,
                           const std::vector<double>& normal, double shift,
                           int runs) {
  const size_t n = phi.size();
  const size_t dim = phi.dim();
  std::vector<double> keys(n);
  Measurement m;
  const double base_ms = MinMillis(
      [&] {
        for (size_t i = 0; i < n; ++i) {
          keys[i] = Dot(normal.data(), phi.row(i), dim) + shift;
        }
        g_sink = keys[n - 1];
      },
      runs);
  const kernels::DotOps& ops = kernels::Ops();
  const double kern_ms = MinMillis(
      [&] {
        ops.dot_range(normal.data(), dim, phi.data(), dim, 0, n, shift,
                      keys.data());
        g_sink = keys[n - 1];
      },
      runs);
  m.baseline_rows_per_sec = RowsPerSec(n, base_ms);
  m.kernel_rows_per_sec = RowsPerSec(n, kern_ms);
  return m;
}

// One scan_vs_gather configuration: a fresh n_scan x d' matrix with its
// mirror, the f64 and the mirror classifier, one table row and one JSON
// line each. --smoke also checks the classify kernels against the scalar
// reference on it.
void RunScanVsGather(size_t n_scan, size_t dim, bool smoke, int runs,
                     TablePrinter* table) {
  PhiMatrix phi = RandomPhi(n_scan, dim, 1.0, 100.0, 211 + dim);
  phi.EnableF32Mirror();
  Rng rng(17 + dim);
  std::vector<double> a(dim);
  for (size_t j = 0; j < dim; ++j) a[j] = rng.Uniform(0.5, 4.0);
  const double b = 100.0 * static_cast<double>(dim);
  if (smoke) CheckClassifyAgainstScalar(phi, a, b);
  std::vector<uint32_t> ii;
  ii.reserve(n_scan / 3 + 1);
  for (size_t i = 0; i < n_scan; i += 3) {
    ii.push_back(static_cast<uint32_t>(i));
  }
  rng.Shuffle(ii);
  const MixedQueryPlan plan = MakeMixedPlan(a.data(), dim, b, true, phi);
  PLANAR_CHECK(plan.usable);
  const BlockClassifier f64(a.data(), dim, b, true, phi.data(), nullptr,
                            dim, nullptr);
  const BlockClassifier mirror(a.data(), dim, b, true, phi.data(),
                               phi.f32_data(), dim, &plan);
  struct Config {
    const char* precision;
    const BlockClassifier* classifier;
  };
  for (const Config& config :
       {Config{"f64", &f64}, Config{"f32-mirror", &mirror}}) {
    const ScanVsGather r =
        BenchScanVsGather(*config.classifier, n_scan, ii, runs);
    table->AddRow({std::to_string(n_scan), std::to_string(dim),
                   config.precision, FormatDouble(r.gather_ns_per_row, 2),
                   FormatDouble(r.scan_ns_per_row, 2),
                   FormatDouble(r.crossover(), 3)});
    std::printf(
        "{\"bench\":\"kernels\",\"workload\":\"scan_vs_gather\","
        "\"dim\":%zu,\"precision\":\"%s\",\"n\":%zu,\"ii_rows\":%zu,"
        "\"backend\":\"%s\",\"gather_ns_per_row\":%.3f,"
        "\"scan_ns_per_row\":%.3f,\"crossover_ii_frac\":%.3f%s}\n",
        dim, config.precision, n_scan, ii.size(), kernels::BackendName(),
        r.gather_ns_per_row, r.scan_ns_per_row, r.crossover(),
        bench::JsonStamp(1).c_str());
  }
}

}  // namespace
}  // namespace planar

int main(int argc, char** argv) {
  using namespace planar;  // NOLINT: bench brevity
  FlagParser flags(argc, argv);
  const bool smoke = flags.GetBool("smoke", false);
  const size_t n = smoke ? 4096 : bench::ScaledN(flags, 16384, 1000000);
  const int runs = smoke ? 1 : bench::Runs(flags, 25);

  bench::PrintHeader(
      "kernel throughput",
      "rows/s of batched kernels vs per-row baseline; backend=" +
          std::string(kernels::BackendName()));

  const size_t dims[] = {2, 4, 8, 16};
  TablePrinter table({"workload", "d'", "baseline Mrows/s", "kernel Mrows/s",
                      "speedup"});
  for (const size_t dim : dims) {
    PhiMatrix phi = RandomPhi(n, dim, 0.0, 100.0, 97 + dim);
    phi.EnableF32Mirror();  // for the batch_verify_mixed workload
    Rng rng(13 + dim);
    std::vector<double> a(dim);
    for (size_t j = 0; j < dim; ++j) a[j] = rng.Uniform(0.5, 4.0);
    const double b = 100.0 * static_cast<double>(dim);  // ~50% selectivity
    // Candidate ids with gaps, like a real intermediate interval.
    std::vector<uint32_t> ids;
    ids.reserve(n / 2);
    for (size_t i = 0; i < n; i += 2) {
      ids.push_back(static_cast<uint32_t>(i));
    }

    struct Row {
      const char* workload;
      Measurement m;
      // Hot-path streamed bytes of the measured configuration; 0 when
      // the workload has no footprint story to tell.
      size_t resident = 0;
    };
    const Row rows[] = {
        {"batch_dot", BenchBatchDot(phi, a, b, runs)},
        {"batch_verify", BenchBatchVerify(phi, a, b, ids, runs)},
        {"batch_verify_mixed", BenchBatchVerifyMixed(phi, a, b, ids, runs),
         n * dim * sizeof(float)},
        {"build_keys", BenchBuildKeys(phi, a, 0.25, runs)},
    };
    for (const Row& row : rows) {
      table.AddRow({row.workload, std::to_string(dim),
                    FormatDouble(row.m.baseline_rows_per_sec / 1e6, 1),
                    FormatDouble(row.m.kernel_rows_per_sec / 1e6, 1),
                    FormatDouble(row.m.speedup(), 2)});
      std::printf(
          "{\"bench\":\"kernels\",\"workload\":\"%s\",\"dim\":%zu,"
          "\"n\":%zu,\"backend\":\"%s\",\"baseline_rows_per_sec\":%.0f,"
          "\"kernel_rows_per_sec\":%.0f,\"speedup\":%.2f%s}\n",
          row.workload, dim, n, kernels::BackendName(),
          row.m.baseline_rows_per_sec, row.m.kernel_rows_per_sec,
          row.m.speedup(), bench::JsonStamp(1, row.resident).c_str());
    }
  }

  // scan_vs_gather at serving scale — a d' = 8 shard of the perfbench
  // set (250k rows) and the monolithic set (1M) — one matrix per
  // (size, d'), a shuffled third of its rows as the gathered II (in rank
  // order the II visits rows in no particular id order).
  std::vector<size_t> scan_sizes = {250000, 1000000};
  if (smoke) scan_sizes = {4096};
  if (flags.Has("n_scan")) {
    scan_sizes = {static_cast<size_t>(flags.GetInt("n_scan", 0))};
  }
  TablePrinter sv_table({"n", "d'", "precision", "gather ns/row",
                         "scan ns/row", "crossover II/n"});
  for (const size_t n_scan : scan_sizes) {
    for (const size_t dim : dims) {
      RunScanVsGather(n_scan, dim, smoke, runs, &sv_table);
    }
  }
  std::printf("\n");
  table.Print();
  std::printf("\n");
  sv_table.Print();
  return 0;
}
