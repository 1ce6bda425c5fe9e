#!/bin/sh
# scripts/bench.sh — run the benchmark suite and record the results as
# BENCH_<n>.json at the repository root, so the performance trajectory of
# the hot paths is tracked PR over PR (BENCH_4.json is the pre-refactor
# baseline this series is measured against). The envelope records the date,
# Go version, CPU, nproc and GOMAXPROCS next to the results.
#
# Usage:
#   scripts/bench.sh <n> [bench-regex] [benchtime]
#
#   <n>           index of the BENCH_<n>.json file to write (required)
#   bench-regex   go test -bench pattern
#                 (default: the broadcast + baseline + sweep + labeling
#                 hot paths)
#   benchtime     go test -benchtime value (default: 1s)
#
# Examples:
#   scripts/bench.sh 5
#   scripts/bench.sh 5 'BenchmarkBroadcastB$' 3s
set -eu

cd "$(dirname "$0")/.."

n="${1:?usage: scripts/bench.sh <n> [bench-regex] [benchtime]}"
pattern="${2:-BenchmarkBroadcastB\$|BenchmarkBroadcastBack\$|BenchmarkBroadcastBarb\$|BenchmarkBaselines\$|BenchmarkSweep\$|BenchmarkLabeling\$|BenchmarkSessionCacheMiss\$|BenchmarkSessionCacheHit\$|BenchmarkStoreHit\$}"
benchtime="${3:-1s}"
out="BENCH_${n}.json"

# Recorded baselines are append-only: overwriting BENCH_<n>.json would
# silently rewrite the series history. Pick the next free index instead.
if [ -e "$out" ]; then
  echo "error: $out already exists; refusing to overwrite a recorded baseline" >&2
  exit 1
fi

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" . | tee "$raw"

cpu="$(awk -F': ' '/^cpu:/ {print $2; exit}' "$raw")"
nproc="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)"
# go test suffixes every benchmark name with -<GOMAXPROCS> unless it is 1.
gomaxprocs="$(awk '/^Benchmark/ { if (match($1, /-[0-9]+$/)) print substr($1, RSTART + 1); else print 1; exit }' "$raw")"

{
  printf '{\n'
  printf '  "bench": %s,\n' "$n"
  printf '  "note": "recorded by scripts/bench.sh (pattern %s, benchtime %s)",\n' "$pattern" "$benchtime" |
    sed 's/\\\$/$/g'
  printf '  "date": "%s",\n' "$(date -u +%Y-%m-%d)"
  printf '  "go": "%s",\n' "$(go version | awk '{print $3}')"
  printf '  "cpu": "%s",\n' "$cpu"
  printf '  "nproc": %s,\n' "$nproc"
  printf '  "gomaxprocs": %s,\n' "${gomaxprocs:-1}"
  printf '  "benchmarks": [\n'
  awk -v procs="${gomaxprocs:-1}" '
    /^Benchmark/ {
      name = $1
      if (procs != 1) sub("-" procs "$", "", name)
      line = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", name, $2, $3, $5, $7)
      if (count++) printf(",\n")
      printf("%s", line)
    }
    END { printf("\n") }
  ' "$raw"
  printf '  ]\n'
  printf '}\n'
} > "$out"

echo "wrote $out"
