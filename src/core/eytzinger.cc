// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.

#include "core/eytzinger.h"

#include "common/macros.h"

namespace planar {

namespace {

// In-order walk of the implicit tree assigns sample numbers to BFS slots.
// Recursion depth is the tree height (~log2(n / 16)), not n.
size_t FillNode(const double* sorted, size_t block, size_t node,
                size_t blocks, double* samples, uint32_t* block_of) {
  if (node > blocks) return block;
  block = FillNode(sorted, block, 2 * node, blocks, samples, block_of);
  samples[node] = sorted[block * kEytzingerStride];
  block_of[node] = static_cast<uint32_t>(block);
  ++block;
  return FillNode(sorted, block, 2 * node + 1, blocks, samples, block_of);
}

}  // namespace

void EytzingerKeys::Build(const double* sorted_keys, size_t n) {
  Clear();
  if (n < kEytzingerMinKeys) return;
  PLANAR_CHECK(sorted_keys != nullptr);
  n_ = n;
  blocks_ = (n + kEytzingerStride - 1) / kEytzingerStride;
  samples_.resize(blocks_ + 1);
  block_.resize(blocks_ + 1);
  samples_[0] = 0.0;
  block_[0] = 0;
  const size_t filled = FillNode(sorted_keys, 0, 1, blocks_, samples_.data(),
                                 block_.data());
  PLANAR_DCHECK(filled == blocks_);
  (void)filled;
}

void EytzingerKeys::Clear() {
  samples_.clear();
  samples_.shrink_to_fit();
  block_.clear();
  block_.shrink_to_fit();
  blocks_ = 0;
  n_ = 0;
}

}  // namespace planar
