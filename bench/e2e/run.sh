#!/usr/bin/env bash
# Runs wishbone-e2e workloads K times each, every run in a fresh process,
# and prints one line per metric per run on stdout:
#
#   <workload> <metric> <value> <unit>
#
# plus "<workload> attempted <n> count" and "<workload> failed <n> count"
# from the answer checks. Progress and run summaries go to stderr. The
# first run builds the benchmark (bench.py); later runs reuse the build.
#
# usage: bench/e2e/run.sh [-k K] [-s SEED] [-v] [-T] [WORKLOAD...]
#   -k K     runs per workload (default 5)
#   -s SEED  seed (default 1)
#   -v       vary the seed: run i uses SEED + i
#   -T       traced runs: per-layer metrics instead of end-to-end ones
# Each run lasts run_seconds from BENCHMARK.json.
#
# Save two sets and compare them:
#   bench/e2e/run.sh > A.txt; ...; bench/e2e/run.sh > B.txt
#   python3 bench/e2e/compare.py A.txt B.txt
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/../.." && pwd)"
k=5
seed=1
vary=0
trace=0
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"
while getopts "k:s:vT" opt; do
  case "$opt" in
    k) k="$OPTARG" ;;
    s) seed="$OPTARG" ;;
    v) vary=1 ;;
    T) trace=1 ;;
    *) sed -n '11,16p' "$0" >&2; exit 2 ;;
  esac
done
shift $((OPTIND - 1))
if [ "$#" -gt 0 ]; then
  workloads=("$@")
else
  workloads=(compile_native rate_search serve_drift stream_exec)
fi

cd "$root"
for w in "${workloads[@]}"; do
  for ((i = 0; i < k; i++)); do
    s=$((vary ? seed + i : seed))
    echo "run.sh: $w seed $s ($((i + 1))/$k)" >&2
    if ! out="$(python3 "$here/bench.py" --workload "$w" --seed "$s" \
                  --seconds "$seconds" --trace "$trace")"; then
      echo "run.sh: $w seed $s failed" >&2
      exit 1
    fi
    printf '%s\n' "$out" | tail -n 1 | python3 -c '
import json, sys
w = sys.argv[1]
r = json.loads(sys.stdin.read())
for name, m in r["metrics"].items():
    print(w, name, repr(m["value"]), m["unit"])
print(w, "attempted", r["attempted"], "count")
print(w, "failed", r["failed"], "count")
' "$w"
  done
done
