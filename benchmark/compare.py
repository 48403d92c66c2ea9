#!/usr/bin/env python3
"""Compares two sets of wedgebench runs: compare.py BASE_DIR NEW_DIR.

Each directory holds the outputs of `run.sh --out DIR` (one .jsonl file
per run). For every (end-to-end metric, workload) pair it prints each
side's median and quartiles, the fraction of runs the new side wins, and
a verdict under the bounds in BENCHMARK.json:

  improved    the new side wins at least 9 in 10 pairs (runs paired by
              seed when both sides ran the same seeds, otherwise every
              base run against every new run; ties count for neither)
              and the medians differ by more than the base side's own
              quartile distance;
  unresolved  the base side's quartile distance, as a share of its
              median, is wider than the bound, and the new side does not
              beat every base run;
  regressed   the new median is worse than the base median by more than
              the bound;
  unchanged   otherwise.

Per-layer metrics of traced runs, when both sides have them, are listed
with their medians only: they carry no bound. Exits 1 if any pair
regressed.
"""

import json
import pathlib
import statistics
import sys


def load_runs(directory):
    """Returns {(workload, traced): [record, ...]} for every run in `directory`."""
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.jsonl")):
        for line in path.read_text().splitlines():
            if '"record": "wedgebench"' not in line:
                continue
            record = json.loads(line)
            key = (record["workload"], bool(record["stamps"].get("trace")))
            runs.setdefault(key, []).append(record)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def win_fraction(base, new, lower_is_better):
    """Share of pairs the new side wins; pairs by seed when possible."""
    by_seed_base = {seed: v for seed, v in base}
    pairs = [(by_seed_base[seed], v) for seed, v in new if seed in by_seed_base]
    if len(pairs) < min(len(base), len(new)):
        pairs = [(b, n) for _, b in base for _, n in new]
    if not pairs:
        return 0.0
    wins = sum(1 for b, n in pairs if (n < b if lower_is_better else n > b))
    return wins / len(pairs)


def verdict(base, new, better, bound):
    lower = better == "lower"
    b_vals = [v for _, v in base]
    n_vals = [v for _, v in new]
    bq1, bmed, bq3 = quartiles(b_vals)
    _, nmed, _ = quartiles(n_vals)
    iqr = bq3 - bq1
    gain = (bmed - nmed) if lower else (nmed - bmed)
    wins = win_fraction(base, new, lower)
    beats_all = all(
        (n < b if lower else n > b) for n in n_vals for b in b_vals)
    if (wins >= 0.9 or beats_all) and gain > iqr:
        return "improved", wins
    spread = iqr / abs(bmed) if bmed else float("inf")
    if spread > bound and not beats_all:
        return "unresolved", wins
    worse = -gain / abs(bmed) if bmed else 0.0
    if worse > bound:
        return "regressed", wins
    return "unchanged", wins


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:11.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(
        (pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json")
        .read_text())
    base_runs, new_runs = load_runs(argv[1]), load_runs(argv[2])
    workloads = [w["name"] for w in spec["workloads"]]

    print(f"{'metric':24} {'workload':13} {'base median [q1, q3]':>30} "
          f"{'new median [q1, q3]':>30} {'runs':>7} {'win':>5}  verdict")
    regressed = False
    for metric in spec["end_to_end"]:
        name = metric["name"]
        for workload in workloads:
            base = [(r["stamps"]["seed"], r["metrics"][name]["value"])
                    for r in base_runs.get((workload, False), [])
                    if name in r["metrics"]]
            new = [(r["stamps"]["seed"], r["metrics"][name]["value"])
                   for r in new_runs.get((workload, False), [])
                   if name in r["metrics"]]
            if not base or not new:
                continue
            result, wins = verdict(base, new, metric["better"], metric["bound"])
            regressed |= result == "regressed"
            print(f"{name:24} {workload:13} {fmt([v for _, v in base]):>30} "
                  f"{fmt([v for _, v in new]):>30} {len(base):>3}/{len(new):<3} "
                  f"{wins:5.2f}  {result} (bound {metric['bound']})")

    layer_rows = []
    for metric in spec["per_layer"]:
        name = metric["name"]
        for workload in workloads:
            base = [r["layers"][name]["value"]
                    for r in base_runs.get((workload, True), [])
                    if name in r.get("layers", {})]
            new = [r["layers"][name]["value"]
                   for r in new_runs.get((workload, True), [])
                   if name in r.get("layers", {})]
            if base and new:
                layer_rows.append(
                    f"{name:32} {workload:13} {statistics.median(base):12.4g} "
                    f"{statistics.median(new):12.4g} {metric['unit']}")
    if layer_rows:
        print(f"\n{'per-layer metric':32} {'workload':13} {'base':>12} "
              f"{'new':>12}")
        print("\n".join(layer_rows))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
