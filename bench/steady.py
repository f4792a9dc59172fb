"""Steadiness check: two sets of runs of the same commit, compared.

    python3 bench/steady.py                       # 2 sets x 10 seeds, every workload
    python3 bench/steady.py --sets 1 --runs 1     # one table of every metric

Runs ``bench/run.py`` once per (set, seed, workload), interleaving the
workloads so that drift in machine load reaches all of them alike.  For each
end-to-end metric and workload it prints the median and the spread (the
distance between the first and third quartile over the median) of each set,
whether that spread is within the metric's bound in ``BENCHMARK.json``, and
whether the two sets' medians differ by no more than the bound, in either
direction.  Every metric, ``setup_s`` too, is held to both checks.  The
workloads and the run length come from ``BENCHMARK.json``.
The exit code is 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED_BASE = 100


def run_once(workload: str, seed: int, seconds: int):
    """The result line of one untraced run, or None when it printed none."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        print(f"{' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr.strip()}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is than the first, as a share."""
    change = (second - first) / first
    return change if better == "lower" else -change


def judge(bench: dict, results: dict) -> list:
    """Rows (workload, metric, medians, spreads, verdicts) over the sets."""
    rows = []
    for workload, sets in results.items():
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) if len(v) > 1 else None for v in values]
            steady = all(s is None or s <= bound for s in spreads)
            drift = worse_by(medians[0], medians[-1], metric["better"])
            rows.append({"workload": workload, "metric": name, "bound": bound,
                         "medians": medians, "spreads": spreads, "steady": steady,
                         "drift": drift, "agree": abs(drift) <= bound})
    return rows


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10, help="seeds per set")
    p.add_argument("--sets", type=int, default=2)
    args = p.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]

    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    attempted = {w: 0 for w in workloads}
    failed = {w: 0 for w in workloads}
    ok, started = True, time.monotonic()
    for k in range(args.sets):
        for r in range(args.runs):
            seed = SEED_BASE + k * args.runs + r
            for w in workloads:
                out = run_once(w, seed, bench["run_seconds"])
                if out is None or not out["correct"]:
                    print(f"{w} seed {seed}: run not correct", file=sys.stderr)
                    ok = False
                if out is None:
                    continue
                results[w][k].append(out)
                attempted[w] += out["attempted"]
                failed[w] += out["failed"]
                print(f"[{time.monotonic() - started:7.1f}s] set {k} seed {seed} {w}: "
                      + " ".join(f"{n}={m['value']:.6g}" for n, m in out["metrics"].items()),
                      flush=True)

    rows = judge(bench, results)
    print(f"\n{'workload':14} {'metric':12} {'bound':>6} "
          + " ".join(f"{'median' + str(k):>12} {'spread' + str(k):>8}"
                     for k in range(args.sets)) + "  verdict")
    for row in rows:
        cells = " ".join(f"{m:12.6g} {'-' if s is None else f'{s:.4f}':>8}"
                         for m, s in zip(row["medians"], row["spreads"]))
        verdict = []
        if args.runs > 1:
            verdict.append("steady" if row["steady"] else "SPREAD>BOUND")
        if args.sets > 1:
            verdict.append(f"drift {row['drift']:+.4f} "
                           + ("agree" if row["agree"] else "DISAGREE"))
        ok &= row["steady"] and row["agree"]
        print(f"{row['workload']:14} {row['metric']:12} {row['bound']:6.2f} {cells}  "
              + ", ".join(verdict))
    for w in workloads:
        frac = failed[w] / max(attempted[w], 1)
        print(f"{w:14} {'failed_frac':12} {'':6} {frac:12.6g}  "
              f"({failed[w]} of {attempted[w]} ops)")
        ok &= failed[w] == 0

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"steady-{int(time.time())}.json").write_text(
        json.dumps({"rows": rows, "results": results}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
