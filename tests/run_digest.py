"""Digest of a fixed seeded set of closed-loop runs, one JSON line per run.

    python tests/run_digest.py > digest.jsonl
    python tests/run_digest.py --against digest.jsonl

The set: mu in {0.1, 0.3, 0.6, 0.9}, each with 12 seeded starts plus one on
theta = 0 and one on theta = pi, under nine strategy pairs; then the
deviation_report rows from four starts at mu = 0.3.  A run's line gives its
outcome, event kinds, t_final, theta_f, the integrator's counts and the
number of records.

--against FILE compares with a digest written before: it lists every run
whose outcome or event kinds differ, or whose time (t_final, or a row's time)
or shore-exit angle theta_f moves by more than TIME_BOUND, and then exits 1.
pytest does not collect this file; run it from the repository root.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from ladylake import sim  # noqa: E402
from ladylake.model import GameParams, PolarState  # noqa: E402

TIME_BOUND = 1e-9  # ROADMAP's bound for the deviation rows
MUS = (0.1, 0.3, 0.6, 0.9)
S = sim.StrategySpec
EQ_LADY, EQ_MAN = S.equilibrium("lady"), S.equilibrium("man")
# (name, lady, man, dt)
PAIRS = (
    ("eq/eq@1e-4", EQ_LADY, EQ_MAN, 1e-4),
    ("eq/eq@1e-3", EQ_LADY, EQ_MAN, 1e-3),
    ("eq/switching(0.2)", EQ_LADY, S.switching_omega(0.2), 1e-3),
    ("perturbed(+0.05)/eq", S.perturbed(0.05), EQ_MAN, 1e-3),
    ("perturbed(-0.05)/eq", S.perturbed(-0.05), EQ_MAN, 1e-3),
    ("eq/constant(0.8)", EQ_LADY, S.constant_omega(0.8), 1e-3),
    ("perturbed(+0.05)/constant(-0.7)", S.perturbed(0.05), S.constant_omega(-0.7), 1e-3),
    ("fixed(0.6,-0.8)/switching(0.3)", S.fixed_heading(0.6, -0.8), S.switching_omega(0.3), 1e-3),
    ("fixed(0.6,0.8)/constant(0)", S.fixed_heading(0.6, 0.8), S.constant_omega(0.0), 1e-3),
)
DEVIATION_STARTS = ((0.2, 1.0), (0.1, 2.85), (0.15, 0.25), (0.05, 2.5))


def starts(mu: float) -> list[tuple[float, float]]:
    rng = random.Random(int(mu * 1000))
    seeded = [(rng.uniform(0.02, 0.98), rng.uniform(0.0, math.pi)) for _ in range(12)]
    return seeded + [(0.5, 0.0), (0.5, math.pi)]


def digest():
    """The lines of the digest, as dicts, in a fixed order."""
    for mu in MUS:
        params = GameParams(mu)
        for r0, th0 in starts(mu):
            for name, lady, man, dt in PAIRS:
                traj = sim.simulate(PolarState(r0, th0), lady, man, dt=dt, t_max=20.0, params=params)
                yield {"run": f"mu={mu} start=({r0!r}, {th0!r}) {name}", "outcome": traj.outcome,
                       "events": [k for _, k in traj.events], "t_final": traj.t_final, "theta_f": traj.theta_f,
                       "steps": traj.steps, "rejected": traj.rejected, "evaluations": traj.evaluations,
                       "records": len(traj.t)}
    params = GameParams(0.3)
    for start in DEVIATION_STARTS:
        t_eq, rows = sim.deviation_report(PolarState(*start), params)
        for row in rows:
            yield {"run": f"mu=0.3 start={start} deviation {row.label}", "outcome": row.outcome,
                   "events": [], "t_final": row.time, "margin": row.margin, "t_eq": t_eq}


def differences(old: dict, new: dict) -> list[str]:
    """Why new fails against old, if it does."""
    why = []
    if (old["outcome"], old["events"]) != (new["outcome"], new["events"]):
        why.append(f"{old['outcome']}: {' '.join(old['events'])} -> {new['outcome']}: {' '.join(new['events'])}")
    for key in ("t_final", "theta_f"):  # theta_f: None off the shore, and no deviation row has one
        a, b = old.get(key), new.get(key)
        if (a is None) != (b is None) or a is not None and not abs(b - a) <= TIME_BOUND:
            why.append(f"{key} {a!r} -> {b!r}")
    return why


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="FILE", help="a digest to compare with; exit 1 if a run differs")
    args = parser.parse_args(argv)
    lines = list(digest())
    if not args.against:
        for line in lines:
            print(json.dumps(line))
        return 0
    with open(args.against) as f:
        old = {line["run"]: line for line in map(json.loads, f)}
    failed, moved = [], 0
    for line in lines:
        before = old.pop(line["run"], None)
        why = ["not in the old digest"] if before is None else differences(before, line)
        failed += [f"{line['run']}: {w}" for w in why]
        moved += before is not None and before != line
    failed += [f"{run}: not in the new digest" for run in old]
    for line in failed:
        print(line)
    print(f"{len(lines)} runs, {moved} with any field changed, {len(failed)} failures", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
