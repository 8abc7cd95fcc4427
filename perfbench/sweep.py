"""Repeat benchmark runs over several seeds, interleaving the workloads.

Usage, from the root of a checkout:

    python3 perfbench/sweep.py                       # every workload, seed 1
    python3 perfbench/sweep.py --seeds 1-10 --workloads query,cli
    python3 perfbench/sweep.py --seeds 1-10 --save perfbench/out/a.json
    python3 perfbench/sweep.py --seeds 11-20 --baseline perfbench/out/a.json

Each run is `perfbench/run.py --trace 0` for BENCHMARK.json's run_seconds,
in a fresh process, one at a time; the order of the workloads rotates from
seed to seed.  Every run's report is printed as it finishes.  At the end, for each workload and end-to-end metric, the
sweep prints the median, the quartile spread as a share of the median (as
statistics.quantiles(values, n=4) gives the quartiles) and, with
--baseline, the change of the median against a saved sweep, each next to
the metric's bound from BENCHMARK.json.  It exits 1 if a run failed or
reported an incorrect result.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def worse_by(metric: dict, new: float, old: float) -> float:
    """Relative worsening of `new` against `old` (negative when better)."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--save", type=Path, help="write the collected results here")
    ap.add_argument("--baseline", type=Path, help="compare medians with a saved sweep")
    args = ap.parse_args(argv)
    chosen = args.workloads.split(",")
    seeds = seed_list(args.seeds)

    results = {w: [] for w in chosen}
    bad = 0
    for k, seed in enumerate(seeds):
        order = chosen[k % len(chosen):] + chosen[:k % len(chosen)]
        for w in order:
            cmd = [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            print(proc.stdout, end="")
            try:
                res = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                res = None
            if proc.returncode != 0 or res is None or not res["correct"]:
                print(f"!! {w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", flush=True)
                bad += 1
                continue
            results[w].append({"seed": seed, **res})
            sys.stdout.flush()

    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(results, indent=1))
    base = json.loads(args.baseline.read_text()) if args.baseline else {}
    print("\n# workload      metric           median        spread  bound  vs baseline")
    for w in chosen:
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results[w]]
            if not vals:
                continue
            med = statistics.median(vals)
            line = f"{w:14s} {m['name']:16s} {med:<13.6g}"
            if len(vals) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                line += f" {(q3 - q1) / abs(med):6.3f}"
            else:
                line += "      -"
            line += f"  {m['bound']:5.3f}"
            old = [r["metrics"][m["name"]]["value"] for r in base.get(w, [])]
            if old and statistics.median(old):
                line += f"  {worse_by(m, med, statistics.median(old)):+.3f} worse"
            print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
