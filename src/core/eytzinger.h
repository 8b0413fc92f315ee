// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Cache-optimized boundary search: a sampled Eytzinger (BFS /
// implicit-heap) tree over every kEytzingerStride-th key of a sorted
// array, searched by a branchless descent with explicit prefetch and
// finished by a branchless count over one stride-sized block of the
// sorted array itself.
//
// Why: a query against a Planar index pays two binary searches over the
// sorted keys (the SI/LI rank boundaries) before any verification runs.
// std::lower_bound over a large flat array takes one unpredictable branch
// and one dependent cache miss per level; the Eytzinger layout packs the
// first levels of the comparison tree into a handful of cache lines and
// makes every level's children adjacent, so the descent can prefetch
// great-great-grandchildren one line at a time and replace the branch
// with an arithmetic step. This is the standard cache-conscious layout
// result (van Emde Boas / Eytzinger literature; see PAPERS.md) and it
// compounds with the vectorized verification kernels: once |II| is small,
// the boundary searches ARE the per-query fixed cost.
//
// Sampling: the tree holds only keys[0], keys[16], keys[32], ... (8 bytes
// each plus a 4-byte block number), so it costs 12 / 16 = 0.75 bytes per
// indexed key, where a tree over every key (key plus rank) would cost 12,
// and at n = 1M the whole tree (~750 KB) stays close to L2. The descent finds the block whose first
// key is the last sample before the probe; the last step counts the keys
// of that block (two cache lines) that still sort before the probe. That
// block is read from the caller's sorted array, which is passed to every
// search rather than stored, so a moved or copied owner can never leave
// the layout pointing at freed storage.
//
// The layout is a read-only sidecar: the flat sorted array stays the
// source of truth for II range scans, serialization, and maintenance;
// Build() is re-run after any mutation of the underlying keys. Searches
// agree with std::lower_bound / std::upper_bound on every input,
// including duplicates, ±infinity and NaN probes, denormals, and sizes
// that are not a multiple of the stride (machine-checked by
// tests/eytzinger_test.cc).

#ifndef PLANAR_CORE_EYTZINGER_H_
#define PLANAR_CORE_EYTZINGER_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace planar {

/// Arrays below this size skip the Eytzinger sidecar: they fit in a few
/// cache lines, where std::lower_bound is already branch-cheap. Callers
/// fall back to the flat search when empty() is true.
inline constexpr size_t kEytzingerMinKeys = 64;

/// One tree node per this many sorted keys; the search finishes with a
/// branchless count over one block of this many keys (128 bytes).
inline constexpr size_t kEytzingerStride = 16;

/// A sampled Eytzinger tree over a sorted double array answering rank
/// (lower/upper bound) queries branchlessly. Immutable after Build(); every
/// search takes the same sorted array (same contents, same length) the
/// layout was built from.
class EytzingerKeys {
 public:
  /// Rebuilds the layout from `n` keys sorted ascending. With
  /// n < kEytzingerMinKeys the layout is not materialized and empty()
  /// stays true — the caller keeps using the flat array.
  void Build(const double* sorted_keys, size_t n);

  /// Releases the layout (empty() becomes true).
  void Clear();

  /// True iff no layout is materialized.
  bool empty() const { return n_ == 0; }

  /// Number of keys the layout covers (0 when not materialized).
  size_t size() const { return n_; }

  /// Rank of the first key not less than `x`; equals
  /// std::lower_bound(keys, keys + size(), x) - keys. Defined inline so
  /// the ~log2(n / 16)-step descent fuses into the caller's loop instead
  /// of paying a call per lookup.
  size_t LowerBound(const double* keys, double x) const {
    return Search<false>(keys, x);
  }

  /// Rank of the first key greater than `x`; equals
  /// std::upper_bound(keys, keys + size(), x) - keys.
  size_t UpperBound(const double* keys, double x) const {
    return Search<true>(keys, x);
  }

  /// UpperBound for two probes at once: *rank_x and *rank_y receive the
  /// ranks UpperBound(keys, x) and UpperBound(keys, y) would return. The
  /// two descents run interleaved, so their dependent cache misses
  /// overlap instead of queueing one search behind the other (a query
  /// plan's SI and LI boundaries).
  void UpperBoundPair(const double* keys, double x, double y, size_t* rank_x,
                      size_t* rank_y) const {
    const double* samples = samples_.data();
    const size_t blocks = blocks_;
    size_t kx = 1;
    size_t ky = 1;
    while (kx <= blocks && ky <= blocks) {
      Prefetch(samples + kx * kPrefetchAhead);
      Prefetch(samples + ky * kPrefetchAhead);
      kx = 2 * kx + static_cast<size_t>(Before<true>(samples[kx], x));
      ky = 2 * ky + static_cast<size_t>(Before<true>(samples[ky], y));
    }
    // The tree's last level is partial, so one descent may need a step
    // more than the other.
    kx = Descend<true>(kx, x);
    ky = Descend<true>(ky, y);
    *rank_x = Finish<true>(keys, kx, x);
    *rank_y = Finish<true>(keys, ky, y);
  }

  /// Heap footprint in bytes.
  size_t MemoryUsage() const {
    return samples_.capacity() * sizeof(double) +
           block_.capacity() * sizeof(uint32_t);
  }

 private:
  // The descendants four levels down span slots [16k, 16k + 16) — 128
  // bytes, two cache lines. Prefetching both pulls the whole candidate
  // set for the descent's position four iterations from now while the
  // current comparisons run; the addresses may lie past the array, which
  // is fine — prefetch never faults, it is a hint.
  static constexpr size_t kPrefetchAhead = 16;

  static void Prefetch(const double* addr) {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(addr);
    __builtin_prefetch(addr + 8);
#else
    (void)addr;
#endif
  }

  // True iff `key` sorts before the answer: key < x for lower_bound, and
  // !(x < key) for upper_bound — bitwise the comparator std::upper_bound
  // applies, including for NaN probes.
  template <bool kUpper>
  static bool Before(double key, double x) {
    if constexpr (kUpper) {
      return !(x < key);
    } else {
      return key < x;
    }
  }

  template <bool kUpper>
  size_t Search(const double* keys, double x) const {
    return Finish<kUpper>(keys, Descend<kUpper>(1, x), x);
  }

  // Walks from node k down to a leaf position past the tree.
  template <bool kUpper>
  size_t Descend(size_t k, double x) const {
    const double* samples = samples_.data();
    const size_t blocks = blocks_;
    while (k <= blocks) {
      Prefetch(samples + k * kPrefetchAhead);
      // Descend right iff the sample sorts before the answer: the left
      // subtree then cannot hold the first sample that does not. The
      // comparison writes into the index, not a branch.
      k = 2 * k + static_cast<size_t>(Before<kUpper>(samples[k], x));
    }
    return k;
  }

  // Turns a finished descent into the rank.
  template <bool kUpper>
  size_t Finish(const double* keys, size_t k, double x) const {
    const size_t blocks = blocks_;
    // The first sample not before x is the node where the descent last
    // went left: cancel the trailing right-moves (low 1-bits) plus that
    // left-move. k == 0 means every sample is before x. `before` counts
    // the samples before x; they are a prefix because keys are sorted.
    k >>= static_cast<unsigned>(std::countr_one(k)) + 1;
    const size_t before = k == 0 ? blocks : block_[k];
    if (before == 0) return 0;
    // The answer lies past the first key of block before - 1 and at or
    // before the first key of block `before`: count that block's keys
    // that sort before x.
    const size_t base = (before - 1) * kEytzingerStride;
    const double* block = keys + base;
    size_t count = 0;
    if (base + kEytzingerStride <= n_) {
      for (size_t i = 0; i < kEytzingerStride; ++i) {
        count += static_cast<size_t>(Before<kUpper>(block[i], x));
      }
    } else {
      for (size_t i = 0; i < n_ - base; ++i) {
        count += static_cast<size_t>(Before<kUpper>(block[i], x));
      }
    }
    return base + count;
  }

  // 1-indexed BFS order of the samples keys[0], keys[16], ...: node i has
  // children 2i and 2i+1; slot 0 unused.
  std::vector<double> samples_;
  // block_[i] = j when samples_[i] is keys[16 j].
  std::vector<uint32_t> block_;
  size_t blocks_ = 0;  // number of samples, ceil(n / 16)
  size_t n_ = 0;
};

}  // namespace planar

#endif  // PLANAR_CORE_EYTZINGER_H_
