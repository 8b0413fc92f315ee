#!/usr/bin/env bash
# Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
#
# Single-command thread-safety gate: configures a clang build (the
# clang-tsa preset's settings) and compiles the whole tree with
# -Wthread-safety promoted to -Werror (added automatically by
# CMakeLists.txt for clang), so any unguarded access to an annotated
# field, missing REQUIRES, or lock-balance error fails the build.
#
# Usage: tools/run_thread_safety.sh [build-dir]
#
#   build-dir   where to configure/build (default: build-clang-tsa)
#
# Environment:
#   CLANG_CXX   clang++ binary to use (default: clang++)
#
# Exit status: 0 clean, 1 findings or a failed configure/build, 77 with
# a SKIPPED note when clang is unavailable (environments without LLVM),
# so a caller can tell a skipped gate from a passed one. The CI
# clang-thread-safety job installs the real compiler and enforces the
# gate.
set -u -o pipefail

cd "$(dirname "$0")/.."

CLANG_CXX="${CLANG_CXX:-clang++}"
if ! command -v "$CLANG_CXX" > /dev/null 2>&1; then
  echo "run_thread_safety: SKIPPED ($CLANG_CXX not installed)"
  exit 77
fi

build_dir="${1:-build-clang-tsa}"

echo "run_thread_safety: configuring $build_dir with $CLANG_CXX"
if ! cmake -S . -B "$build_dir" \
    -DCMAKE_CXX_COMPILER="$CLANG_CXX" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON; then
  echo "run_thread_safety: configure failed" >&2
  exit 1
fi

jobs="$(nproc 2> /dev/null || echo 2)"
echo "run_thread_safety: building with -Werror=thread-safety (-j$jobs)"
if ! cmake --build "$build_dir" -j "$jobs"; then
  echo "run_thread_safety: FAILED — fix the thread-safety findings above" >&2
  echo "  (annotate guarded fields with PLANAR_GUARDED_BY, locked helpers" >&2
  echo "   with PLANAR_REQUIRES; see CONTRIBUTING 'Thread-safety" >&2
  echo "   annotations')" >&2
  exit 1
fi

echo "run_thread_safety: OK (tree is clean under -Werror=thread-safety)"
