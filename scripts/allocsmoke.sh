#!/usr/bin/env sh
# Allocation-regression smoke: runs the commit/query/read hot-path benchmarks
# with -benchmem and fails if any allocs/op exceeds the checked-in budget
# (scripts/alloc_budget.txt). Used by CI; run locally before touching the
# commit path.
set -eu
cd "$(dirname "$0")/.."

out=$(go test -run=NONE -bench 'BenchmarkCommit|BenchmarkQueryBatch' -benchmem -benchtime 5000x ./internal/oracle
      go test -run=NONE -bench 'BenchmarkAdmissionDecision|BenchmarkSessionRoundTrip|BenchmarkSessionCommitRoundTrip|BenchmarkCommitRoundTrip|BenchmarkQueryRoundTrip' -benchmem -benchtime 5000x ./internal/netsrv
      go test -run=NONE -bench 'BenchmarkGet|BenchmarkPut|BenchmarkTxnCommit' -benchmem -benchtime 5000x ./internal/txn
      go test -run=NONE -bench 'BenchmarkCoordinatorCommit|BenchmarkPartitionedCommit' -benchmem -benchtime 5000x ./internal/partition
      go test -run=NONE -bench 'BenchmarkMultiGetHotRow' -benchmem -benchtime 5000x ./internal/kvstore
      go test -run=NONE -bench 'BenchmarkWriterAppend' -benchmem -benchtime 5000x ./internal/wal
      go test -run=NONE -bench 'BenchmarkTraceStamp|BenchmarkAtomicHistogramRecord' -benchmem -benchtime 5000x ./internal/metrics
      go test -run=NONE -bench 'BenchmarkTapRecord|BenchmarkTapSampledOut' -benchmem -benchtime 5000x ./internal/history)
echo "$out"
echo "---"
echo "$out" | awk '
  BEGIN {
    while ((getline line < "scripts/alloc_budget.txt") > 0) {
      if (line ~ /^#/ || line == "") continue
      split(line, f, " ")
      budget[f[1]] = f[2]
      seen[f[1]] = 0
    }
  }
  $1 ~ /^Benchmark/ {
    # The -GOMAXPROCS suffix is absent when GOMAXPROCS=1; try the raw name
    # first so a trailing batch size is never mistaken for the suffix.
    name = $1
    if (!(name in budget)) sub(/-[0-9]+$/, "", name)
    allocs = ""
    for (i = 1; i <= NF; i++) if ($i == "allocs/op") allocs = $(i - 1)
    if (!(name in budget)) next
    seen[name] = 1
    if (allocs + 0 > budget[name] + 0) {
      printf "ALLOC REGRESSION: %s at %s allocs/op exceeds budget %s\n", name, allocs, budget[name]
      bad = 1
    } else {
      printf "ok: %-45s %s allocs/op (budget %s)\n", name, allocs, budget[name]
    }
  }
  END {
    for (name in seen) if (!seen[name]) {
      printf "MISSING BENCHMARK: %s is budgeted but did not run\n", name
      bad = 1
    }
    exit bad
  }
'
