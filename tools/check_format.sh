#!/usr/bin/env bash
# Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
#
# Verifies that every C++ file satisfies .clang-format
# (`clang-format --dry-run -Werror`). Pass --fix to rewrite in place.
#
# Environment:
#   CLANG_FORMAT  clang-format binary to use (default: clang-format)
#
# Without clang-format the script cannot run the full gate. It then checks
# only what needs no formatter (no tabs, trailing whitespace or CR bytes,
# a final newline), says so on stdout, and exits 0 when those hold, so
# hosts without LLVM still pass the full ctest suite. The CI format job
# installs the real tool and enforces the gate.
set -u -o pipefail

cd "$(dirname "$0")/.."

CLANG_FORMAT="${CLANG_FORMAT:-clang-format}"

mapfile -t sources < <(find src tests bench examples tools \
  \( -name '*.cc' -o -name '*.h' -o -name '*.cpp' \) | sort)

if ! command -v "$CLANG_FORMAT" > /dev/null 2>&1; then
  echo "check_format: $CLANG_FORMAT not installed; full gate NOT run," \
       "whitespace checks only on ${#sources[@]} files"
  bad=0
  if grep -nP '\t| +$|\r' "${sources[@]}"; then
    bad=1
  fi
  for f in "${sources[@]}"; do
    if [ -s "$f" ] && [ -n "$(tail -c1 "$f")" ]; then
      echo "$f: no newline at end of file"
      bad=1
    fi
  done
  if [ "$bad" -ne 0 ]; then
    echo "check_format: whitespace violations above" >&2
    exit 1
  fi
  echo "check_format: whitespace OK (clang-format gate skipped)"
  exit 0
fi

mode=(--dry-run -Werror)
if [ "${1:-}" = "--fix" ]; then
  mode=(-i)
fi

echo "check_format: ${#sources[@]} files"

if "$CLANG_FORMAT" "${mode[@]}" --style=file "${sources[@]}"; then
  echo "check_format: OK"
else
  echo "check_format: run tools/check_format.sh --fix" >&2
  exit 1
fi
