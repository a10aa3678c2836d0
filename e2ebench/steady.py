#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly and print the spread.

    python3 e2ebench/steady.py --seeds 1-10 --out set-a.json
    python3 e2ebench/steady.py --seeds 11-20 --out set-b.json
    python3 e2ebench/steady.py --compare set-a.json set-b.json

Each run is ``run.py`` in a fresh process, one per (seed, workload), with
the workloads interleaved so host drift reaches all of them alike.  For
every end-to-end metric it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``), the spread ``(q3 - q1) / median``
against the metric's bound from ``BENCHMARK.json``, and each run's
failed and attempted counts, which must be the same in every run.
``--compare`` reads two saved sets and prints, per metric, how much worse
the second median is than the first, as a share of the first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = CONFIG["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(CONFIG["run_seconds"]),
                               "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(runs: dict[str, list[dict]], trace: int) -> None:
    metrics = CONFIG["per_layer" if trace else "end_to_end"]
    for workload, results in runs.items():
        counts = {(r["failed"], r["attempted"]) for r in results}
        shares = {Fraction(f, a) for f, a in counts}
        print(f"\n{workload}: {len(results)} runs, all correct: "
              f"{all(r['correct'] for r in results)}, failed/attempted per "
              f"run: {sorted(f'{f}/{a}' for f, a in counts)}"
              f"{'' if len(shares) == 1 else '  <-- SHARE NOT CONSTANT'}")
        print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s":
                flag = ("" if spread <= bound / 3 else
                        "  > bound/3" if spread <= bound else "  > BOUND")
            print(f"  {m['name']:28s} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:7.3f} {'' if bound is None else bound:>6}{flag}")


def compare(path_a: str, path_b: str) -> None:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    for workload in a:
        print(f"\n{workload}")
        for m in CONFIG["end_to_end"]:
            meds = [statistics.median(r["metrics"][m["name"]]["value"]
                                      for r in s[workload]) for s in (a, b)]
            worse = (meds[1] - meds[0]) / meds[0]
            if m["better"] == "higher":
                worse = -worse
            flag = "  > BOUND" if worse > m["bound"] else ""
            print(f"  {m['name']:28s} {meds[0]:12.4f} {meds[1]:12.4f} "
                  f"worse by {worse:+.3f} (bound {m['bound']}){flag}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="save the raw results as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("SET_A", "SET_B"))
    args = ap.parse_args()
    if args.compare:
        compare(*args.compare)
        return
    workloads = [w["name"] for w in CONFIG["workloads"]]
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            runs[workload].append(run_once(workload, seed, args.trace))
            print(f"done {workload} seed {seed}", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(runs))
    summarise(runs, args.trace)


if __name__ == "__main__":
    main()
