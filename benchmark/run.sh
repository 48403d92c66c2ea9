#!/usr/bin/env bash
# Builds wedgebench from source and runs it.
#
# One run (the form BENCHMARK.json's command uses); the last stdout line
# is the result JSON:
#   bash benchmark/run.sh --workload read_hot --seed 1 --seconds 10 --trace 0
#
# Several workloads, each in a fresh process (default: all four):
#   bash benchmark/run.sh [--seed N] [--out DIR] [--trace] [--smoke] [workload...]
# --out saves each run's output as DIR/<workload>-seed<N>[-trace].jsonl;
# --smoke runs 2 s windows with a single set-up and every check on.
#
# The build goes to .bench_build/ at the repository root. Traced runs
# write their per-op spans to .bench_build/spans/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build/wedgebench"

seed=1
trace=0
smoke=0
out=""
seconds=""
single=""
workloads=()
while (($#)); do
  case "$1" in
    --workload) single="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then trace="$2"; shift 2
      else trace=1; shift; fi ;;
    --out) out="$2"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    -*) echo "run.sh: unknown flag $1" >&2; exit 2 ;;
    *) workloads+=("$1"); shift ;;
  esac
done

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" -j "$(nproc)" --target wedgebench >&2

WEDGEBENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export WEDGEBENCH_COMMIT

bench_args() {
  local w="$1"
  args=(--workload "$w" --seed "$seed" --trace "$trace")
  [[ -n "$seconds" ]] && args+=(--seconds "$seconds")
  ((smoke)) && args+=(--smoke)
  if ((trace)); then
    mkdir -p "$root/.bench_build/spans"
    args+=(--spans "$root/.bench_build/spans/$w-seed$seed.jsonl")
  fi
  return 0
}

if [[ -n "$single" ]]; then
  bench_args "$single"
  exec "$build/wedgebench" "${args[@]}"
fi

((${#workloads[@]})) || workloads=(read_hot read_cold ingest_wan audit_socket)
[[ -n "$out" ]] && mkdir -p "$out"
status=0
for w in "${workloads[@]}"; do
  bench_args "$w"
  suffix=""
  ((trace)) && suffix="-trace"
  if [[ -n "$out" ]]; then
    "$build/wedgebench" "${args[@]}" | tee "$out/$w-seed$seed$suffix.jsonl" || status=1
  else
    "$build/wedgebench" "${args[@]}" || status=1
  fi
done
exit "$status"
