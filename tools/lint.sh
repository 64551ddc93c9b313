#!/usr/bin/env bash
# Custom repo lint: rules clang-tidy cannot express, kept fast enough for
# every push.  Each rule greps the tree and fails with the offending lines;
# files with a legitimate need are allowlisted here, next to the reason.
#
# Usage: tools/lint.sh  (from anywhere; operates on the repo the script
# lives in).  Exit 0 = clean, 1 = violations, with one header per rule.
set -u
cd "$(dirname "$0")/.."

fail=0

report() {
  # $1 = rule name, $2 = offending lines (possibly empty)
  if [ -n "$2" ]; then
    echo "lint: $1:" >&2
    echo "$2" | sed 's/^/  /' >&2
    fail=1
  fi
}

# --- rule: no raw new/delete outside the leaked caches ---------------------
# The deliberately leaked process-lifetime objects (the global scheme
# registry in net/scheme.cpp, the test instance cache in
# tests/test_support.h) are the only owners of raw allocations; everything
# else goes through containers or make_shared/make_unique.
# rtz3_repair.cpp / full_table.cpp: the repair splice path constructs its
# scheme through a private friend-only constructor, which make_shared
# cannot reach -- the raw new is immediately owned by a shared_ptr.
raw_new=$(grep -rnE '(^|[^_[:alnum:]])(new|delete)[[:space:]]+[A-Za-z:_<]' \
  src tools tests bench examples \
  --include='*.cpp' --include='*.h' 2>/dev/null |
  grep -vE '^(src/net/scheme\.cpp|tests/test_support\.h):' |
  grep -vE '^(src/rtz/rtz3_repair\.cpp|src/baseline/full_table\.cpp):' |
  grep -vE '//.*(new|delete)')
report "raw new/delete outside the leaked caches and the repair splice" \
  "$raw_new"

# --- rule: no std::rand / rand() -------------------------------------------
# All randomness flows through util/rng.h (seeded, reproducible); libc rand
# would silently break the benchmark harness's determinism contract.
rand_use=$(grep -rnE '(std::rand|[^_[:alnum:]]s?rand)\(' \
  src tools tests bench examples \
  --include='*.cpp' --include='*.h' 2>/dev/null)
report "std::rand/rand(); use util/rng.h (deterministic, seeded)" "$rand_use"

# --- rule: no naked memcpy into snapshot payloads --------------------------
# Snapshot bytes must go through SnapshotWriter/SnapshotReader so the
# little-endian framing and bounds checks hold on every platform.  The single
# allowed site is SnapshotReader::read_exact (bounds-checked BEFORE copying),
# marked with "rtr-lint: checked-copy"; even the rest of the format layer has
# to route through it, so a truncated or short-mapped region can never be
# read past its end.
raw_memcpy=$(grep -rnE 'memcpy' \
  src tools --include='*.cpp' --include='*.h' 2>/dev/null |
  grep -vE 'rtr-lint: checked-copy' |
  grep -vE '//.*memcpy')
report "memcpy outside io/snapshot_format.h (use the typed writer/reader)" \
  "$raw_memcpy"

# --- rule: no dense masked trees outside the oracles ------------------------
# dijkstra_out_tree_within / dijkstra_in_tree_within fill n-length arrays
# for every tree: they are test oracles, called in src/ only by their own
# definitions and by rt/metric.cpp's induced_roundtrip_from (a test and
# bench check).  A builder calling them pays O(n) per tree, O(n^2) per
# scheme; build member-local trees with cover/double_tree.h instead.
dense_tree=$(grep -rnE 'dijkstra_(out|in)_tree_within' \
  src --include='*.cpp' --include='*.h' 2>/dev/null |
  grep -vE '^(src/graph/dijkstra\.(h|cpp)|src/rt/metric\.cpp):' |
  grep -vE '//.*dijkstra_(out|in)_tree_within')
report "dense masked tree outside graph/dijkstra and rt/metric (test oracles)" \
  "$dense_tree"

# --- rule: src/util headers are self-contained -----------------------------
# Every utility header must compile on its own (no hidden include-order
# dependencies); gate on a C++ compiler being present so the script also
# runs on boxes without the toolchain.
CXX_BIN="${CXX:-}"
if [ -z "$CXX_BIN" ]; then
  for candidate in c++ g++ clang++; do
    if command -v "$candidate" >/dev/null 2>&1; then
      CXX_BIN=$candidate
      break
    fi
  done
fi
if [ -n "$CXX_BIN" ]; then
  for header in src/util/*.h; do
    if ! out=$(echo "#include \"${header#src/}\"" |
      "$CXX_BIN" -fsyntax-only -x c++ -std=c++20 -I src - 2>&1); then
      report "header not self-contained: $header" "$out"
    fi
  done
else
  echo "lint: note: no C++ compiler found; skipping header self-containment" >&2
fi

if [ "$fail" -eq 0 ]; then
  echo "lint: clean"
fi
exit "$fail"
