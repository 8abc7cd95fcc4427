"""ladylake benchmark: one seeded workload, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload query --seed 1 --seconds 20 --trace 0

Workloads: query, closed_loop, verify_sweep, cli (see perfbench/README.md).
With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
runs the workload untraced and then traced for half the time each, adds
the fixed probes, and reports the per-layer metrics and the tracing
overhead.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Details and the run context go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

from spans import Tracer, percentile, run_context

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5

# The bounded end-to-end metrics.  The three timings carry the suffix _cal:
# they are calibrated against the reference loop below.
E2E_UNITS = {
    "ops_per_s_cal": "1/s",
    "op_p50_ms_cal": "ms",
    "op_tail_ms_cal": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# A shared host's speed drifts by tens of percent over tens of seconds, for
# every process on it.  Each pass is bracketed by a fixed reference task that
# does not touch the package, and a calibrated time is the measured time
# scaled as if the reference had taken its nominal time; the drift then
# cancels in the ratio.  The workloads use a computation shaped like the
# package's hot paths: small frozen dataclasses built in a Python loop, then
# a numpy ufunc over 4096 points whose result is scanned as a list.  Its
# speed follows the host's closely enough that the ratio of a simulate run,
# a batch of closed-form advise calls or an entry solve to it spread by
# 0.05-0.09 over a minute, against 0.14-0.18 for a float loop with a few
# numpy calls; it also steadies cli, whose commands run in other processes
# on the same host.  setup_s, which times fresh processes, is calibrated
# with a fresh interpreter that imports numpy.
REF_NOMINAL_S = {"loop": 0.0006, "process": 0.2}


@dataclass(frozen=True)
class _Point:
    r: float
    theta: float


def _reference_loop(np, grid) -> int:
    """One round of the in-process reference task; returns a checksum."""
    points = []
    for i in range(300):
        points.append(_Point(i * 1e-3, math.atan2(i, 3.0)))
    values = np.arccos(np.clip(grid * 0.5, -1.0, 1.0)).tolist()
    crossings = 0
    for i in range(0, 4095, 4):
        if (values[i] < 0.7) != (values[i + 1] < 0.7):
            crossings += 1
    return len(points) + crossings

EVENT_KINDS = ("tangency", "fl_entry", "ul_entry", "origin_passage", "reflection",
               "barrier_crossing", "shore_exit", "reached_e", "strategy_error")
OUTCOMES = ("reached_e", "reached_shore", "timeout")
CLI_COMMANDS = ("solve", "critical-mu", "flowfield", "simulate")


def import_package():
    """Put the checkout's src/ first on sys.path and import ladylake from it."""
    src = ROOT / "src"
    if not (src / "ladylake" / "__init__.py").is_file():
        sys.exit(f"error: no package sources at {src / 'ladylake'}")
    sys.path.insert(0, str(src))
    import ladylake

    if Path(ladylake.__file__).resolve().parent != (src / "ladylake").resolve():
        sys.exit(f"error: imported ladylake from {ladylake.__file__}, not from {src}")


def make_workload(name: str, seed: int, tiny: bool, out_dir: Path):
    import workloads

    cls = workloads.WORKLOADS[name]
    if cls is workloads.Cli:
        return cls(seed, tiny, root=ROOT, out_dir=out_dir)
    return cls(seed, tiny)


def reference_s(kind: str) -> float:
    """Median time of the fixed reference task of the given kind."""
    times = []
    if kind == "process":
        for _ in range(2):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
            times.append(perf_counter() - t0)
        return statistics.median(times)
    import numpy as np

    grid = np.linspace(0.0, 1.0, 4096)
    for _ in range(7):
        t0 = perf_counter()
        _reference_loop(np, grid)
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Calibrator:
    """Samples the reference task between passes and, for the loop task,
    between ops at most every 0.1 s; an op's factor is the nominal
    reference time over the reference time interpolated at its midpoint, so
    an op longer than the period is scaled by the samples on both sides."""

    period_ns = 100_000_000

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.nominal = REF_NOMINAL_S[kind]
        self.t_ns: list[int] = []
        self.ref_s: list[float] = []
        self.spent_ns = 0
        self.last_ns = 0

    def sample(self) -> None:
        t0 = perf_counter_ns()
        ref = reference_s(self.kind)
        self.last_ns = perf_counter_ns()
        self.t_ns.append((t0 + self.last_ns) // 2)
        self.ref_s.append(ref)
        self.spent_ns += self.last_ns - t0

    def tick(self) -> None:
        if self.kind == "loop" and perf_counter_ns() - self.last_ns >= self.period_ns:
            self.sample()

    def factors(self, times: list[float]) -> list[float]:
        out = []
        for t in times:
            k = bisect.bisect_left(self.t_ns, t)
            if k == 0 or k == len(self.t_ns):
                ref = self.ref_s[min(k, len(self.t_ns) - 1)]
            else:
                t0, t1 = self.t_ns[k - 1], self.t_ns[k]
                w = (t - t0) / (t1 - t0)
                ref = (1.0 - w) * self.ref_s[k - 1] + w * self.ref_s[k]
            out.append(self.nominal / ref)
        return out


def measure(w, seconds: float, tracer=None) -> tuple[list, Calibrator]:
    """Whole passes until `seconds` have gone by (at least one), with the
    reference task sampled around and inside every pass."""
    cal = Calibrator("loop")
    passes = []
    t0 = perf_counter()
    while True:
        cal.sample()
        spent = cal.spent_ns
        p = w.run_pass(tracer, cal.tick)
        p.wall_ns -= cal.spent_ns - spent
        passes.append(p)
        # Exceptions raised by failing ops leave reference cycles; collecting
        # them here, off the clock, keeps the peak independent of run length.
        gc.collect()
        if perf_counter() - t0 >= seconds:
            break
    cal.sample()
    for p in passes:
        p.scale = cal.factors([t + ns / 2 for t, ns in zip(p.t_ns, p.lat_ns)])
    return passes, cal


def op_latencies(lats: list[list[float]], repeats: bool) -> list[float]:
    """One latency per op for the percentiles, from per-pass latency lists.

    When every pass repeats the same inputs, an op's latency is the median of
    its repeats in the run, so the host's speed drifting between passes moves
    the percentiles less; otherwise every run of an op is a sample.
    """
    if repeats and len({len(xs) for xs in lats}) == 1:
        return [statistics.median(xs) for xs in zip(*lats)]
    return [ns for xs in lats for ns in xs]


def summarize(measured, tail_pct: float, known, repeats: bool = False) -> dict:
    """End-to-end numbers of the passes of one measurement."""
    passes, cal = measured
    ok = sum(len(p.lat_ns) for p in passes)  # every attempted op, answered or failed
    lat = op_latencies([p.lat_ns for p in passes], repeats)
    cal_lat = op_latencies([[ns * c for ns, c in zip(p.lat_ns, p.scale)] for p in passes],
                           repeats)
    # A pass's wall clock is scaled by its ops' factors, weighted by time.
    cal_wall_s = sum(
        p.wall_ns * sum(ns * c for ns, c in zip(p.lat_ns, p.scale)) / sum(p.lat_ns)
        for p in passes if p.lat_ns) / 1e9
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    wall_s = sum(p.wall_ns for p in passes) / 1e9
    out = {
        "passes": len(passes),
        "attempted": attempted,
        "failed": len(failures),
        "failures_by_cause": dict(Counter(f"{cause}@{label}" for label, cause in failures)),
        "unexpected": sorted({f"{c}@{lab}" for lab, c in failures if (lab, c) not in known}),
        "wall_s": wall_s,
        "ops_per_s": ok / wall_s if wall_s > 0 else 0.0,
        "n_ops": ok,
        "n_latency": len(lat),
        "tail_pct": tail_pct,
        "op_p50_ms": percentile(lat, 50.0) / 1e6 if lat else 0.0,
        "op_tail_ms": percentile(lat, tail_pct) / 1e6 if lat else 0.0,
        "tail_beyond": int(len(lat) * (1.0 - tail_pct / 100.0)),
        "error_rate": len(failures) / attempted if attempted else 0.0,
        "ref_ms": [r * 1e3 for r in cal.ref_s],
        "ref_nominal_ms": cal.nominal * 1e3,
        "ops_per_s_cal": ok / cal_wall_s if cal_wall_s > 0 else 0.0,
        "op_p50_ms_cal": percentile(cal_lat, 50.0) / 1e6 if cal_lat else 0.0,
        "op_tail_ms_cal": percentile(cal_lat, tail_pct) / 1e6 if cal_lat else 0.0,
    }
    out["pass_ops_per_s"] = [len(p.lat_ns) / (p.wall_ns / 1e9) for p in passes]
    arr = [e for p in passes for e in p.arrival_err]
    hji = [e for p in passes for e in p.hji_residual]
    if arr:
        out["arrival_err_max"] = max(arr)
    if hji:
        out["hji_residual_max"] = max(hji)
    return out


def setup_times(name: str, seed: int, tiny: bool) -> tuple[list[float], list[float]]:
    """Raw and calibrated wall times of fresh processes that import, build
    inputs and warm up, each bracketed by the process reference task."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(seed), "--setup-only"] + (["--tiny"] if tiny else [])
    cal = Calibrator("process")
    starts, times = [], []
    for _ in range(1 if tiny else SETUP_REPEATS):
        cal.sample()
        t0 = perf_counter_ns()
        subprocess.run(argv, cwd=ROOT, check=True, timeout=120)
        starts.append(t0)
        times.append((perf_counter_ns() - t0) / 1e9)
    cal.sample()
    mids = [t0 + t * 5e8 for t0, t in zip(starts, times)]
    return times, [t * f for t, f in zip(times, cal.factors(mids))]


def peak_rss_mb(w) -> float:
    """Peak RSS of the benchmark process, or for cli of its largest command."""
    kb = w.max_rss_kb if w.name == "cli" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


def layer_metrics(tracer) -> dict:
    """Per-layer metrics from the spans of a traced run.

    Each metric is taken over the workload's own spans; a workload that makes
    no such call reports the same metric over the fixed probes' spans.
    """
    from workloads import MUS, START_CLASSES

    from ladylake import Region

    selfs = tracer.self_ns()
    by = defaultdict(lambda: ([], []))
    for s in tracer.spans:
        by[s.name][s.probe].append(s)

    def pick(name, pred=lambda s: True):
        for side in (0, 1):
            xs = [s for s in by[name][side] if pred(s)]
            if xs:
                return xs
        return []

    def ok(s):
        return "error" not in s.attrs

    def p50(xs, scale, key=lambda s: s.dur_ns):
        return percentile([key(s) for s in xs], 50.0) / scale if xs else 0.0

    def layer_self(layer):
        for side in (False, True):
            xs = [s for s in tracer.spans if s.layer == layer and s.probe is side]
            if xs:
                return sum(s.attrs.get("self_ns", selfs[s.id]) for s in xs) / 1e9
        return 0.0

    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    solves = pick("focal.solve_entry")
    good = [s for s in solves if ok(s)]
    put("focal.self_s", layer_self("focal"), "s")
    put("focal.solve_entry_us.p50", p50(good, 1e3), "us")
    put("focal.solve_entry_us.p99",
        percentile([s.dur_ns for s in good], 99.0) / 1e3 if good else 0.0, "us")
    put("focal.solve_entry_calls", len(solves), "count")
    put("focal.case_two_share",
        sum(s.attrs.get("case") == "Two" for s in good) / len(good) if good else 0.0, "ratio")
    put("focal.no_root_errors", sum(s.attrs.get("error") == "NoRootError" for s in solves), "count")

    put("solution.self_s", layer_self("solution"), "s")
    advs = pick("solution.advise", ok)
    put("solution.self_us", p50(advs, 1e3, key=lambda s: s.attrs["self_ns"]), "us")
    put("solution.classify_us", p50(pick("solution.classify", ok), 1e3), "us")
    for reg in Region:
        xs = pick("solution.advise", lambda s, v=reg.value: ok(s) and s.attrs["region"] == v)
        put(f"solution.advise_us.{reg.value}", p50(xs, 1e3), "us")
    for reg in Region:
        xs = pick("solution.advise", lambda s, v=reg.value: s.attrs.get("region") == v)
        put(f"solution.region_count.{reg.value}", len(xs), "count")

    put("classical.self_s", layer_self("classical"), "s")
    put("classical.solve_us", p50(pick("classical.solve_classical", ok), 1e3), "us")
    put("classical.barrier_sweep_ms", p50(pick("classical.barrier_sweep", ok), 1e6), "ms")
    put("universal.self_s", layer_self("universal"), "s")
    put("universal.time_to_antipode_us", p50(pick("universal.time_to_antipode", ok), 1e3), "us")

    put("sim.self_s", layer_self("sim"), "s")
    runs = pick("sim.simulate", ok)
    for c in START_CLASSES:
        xs = pick("sim.simulate", lambda s, c=c: ok(s) and s.attrs["class"] == c)
        put(f"sim.run_s.{c}", p50(xs, 1e9), "s")
        put(f"sim.steps.{c}", p50(xs, 1.0, key=lambda s: s.attrs["steps"]), "count")
        put(f"sim.us_per_step.{c}",
            p50(xs, 1e3, key=lambda s: s.dur_ns / max(1, s.attrs["steps"])), "us")
    put("sim.deviation_report_s", p50(pick("sim.deviation_report", ok), 1e9), "s")
    events = Counter(k for s in runs for k in s.attrs["events"])
    for kind in EVENT_KINDS:
        put(f"sim.events.{kind}", events[kind], "count")
    outcomes = Counter(s.attrs["outcome"] for s in runs)
    for kind in OUTCOMES:
        put(f"sim.outcome.{kind}", outcomes[kind], "count")
    errs = [s.attrs["arrival_err"] for s in runs if "arrival_err" in s.attrs]
    put("sim.arrival_err_max", max(errs) if errs else 0.0, "1")

    put("verify.self_s", layer_self("verify"), "s")
    for mu in MUS:
        xs = pick("verify.hji_sweep", lambda s, mu=mu: ok(s) and s.attrs["mu"] == mu)
        put(f"verify.hji_sweep_s.{mu:g}", p50(xs, 1e9), "s")
    sweeps = pick("verify.hji_sweep", ok)
    attempted = sum(s.attrs["cells_attempted"] for s in sweeps)
    used = sum(s.attrs["cells_used"] for s in sweeps)
    put("verify.cells_attempted", attempted, "count")
    put("verify.cells_used", used, "count")
    put("verify.used_ratio", used / attempted if attempted else 0.0, "ratio")
    put("verify.us_per_cell",
        sum(s.dur_ns for s in sweeps) / 1e3 / attempted if attempted else 0.0, "us")
    put("verify.hji_residual_max", max((s.attrs["residual"] for s in sweeps), default=0.0), "1")

    put("cli.self_s", layer_self("cli"), "s")
    imports = pick("cli.import")
    put("cli.import_s", p50(imports, 1e9), "s")
    for cmd in CLI_COMMANDS:
        put(f"cli.cmd_s.{cmd}", p50(pick("cli.cmd", lambda s, c=cmd: s.attrs["command"] == c), 1e9), "s")
    put("cli.write_s", p50(imports, 1e9, key=lambda s: s.attrs["write_ns"]), "s")
    put("cli.bytes_written", p50(imports, 1.0, key=lambda s: s.attrs["bytes_written"]), "count")
    return m


def probe_metrics(tracer) -> dict:
    """The ROADMAP baseline table, from the fixed probes alone."""
    def probe(name, **want):
        return [s for s in tracer.spans if s.probe and s.name == name and "error" not in s.attrs
                and all(s.attrs.get(k) == v for k, v in want.items())]

    def p50(xs, scale, key=lambda s: s.dur_ns):
        return percentile([key(s) for s in xs], 50.0) / scale if xs else 0.0

    run = probe("sim.simulate", **{"class": "focal_tributary"})
    steps = p50(run, 1.0, key=lambda s: s.attrs["steps"])
    return {
        "probe.solve_entry_us": (p50(probe("focal.solve_entry", label="solve_entry_0.2_1.0"), 1e3), "us"),
        "probe.advise_us.above_barrier": (p50(probe("solution.advise", label="above_barrier"), 1e3), "us"),
        "probe.advise_us.ul_tributary": (p50(probe("solution.advise", label="ul_tributary"), 1e3), "us"),
        "probe.advise_us.fl_tributary": (p50(probe("solution.advise", label="fl_tributary"), 1e3), "us"),
        "probe.simulate_s": (p50(run, 1e9), "s"),
        "probe.simulate_steps": (steps, "count"),
        "probe.simulate_us_per_step": (p50(run, 1e3) / steps if steps else 0.0, "us"),
    }


def describe(s: dict) -> list[str]:
    """Report lines for the numbers of one measurement."""
    lines = [
        f"ops_per_s        {s['ops_per_s']:.6g} 1/s  ({s['n_ops']} ops in "
        f"{s['passes']} passes, {s['wall_s']:.3f} s timed)",
        f"op_p50_ms        {s['op_p50_ms']:.6g} ms  (n={s['n_latency']})",
        f"op_tail_ms       {s['op_tail_ms']:.6g} ms  (p{s['tail_pct']:g}, n={s['n_latency']}, "
        f"{s['tail_beyond']} beyond it)",
        f"ops_per_s_cal    {s['ops_per_s_cal']:.6g} 1/s  (calibrated: reference task "
        f"{statistics.median(s['ref_ms']):.4g} ms measured, {s['ref_nominal_ms']:g} ms nominal)",
        f"op_p50_ms_cal    {s['op_p50_ms_cal']:.6g} ms",
        f"op_tail_ms_cal   {s['op_tail_ms_cal']:.6g} ms",
        f"error_rate       {s['error_rate']:.6g}  (attempted {s['attempted']}, "
        f"failed {s['failed']})",
    ]
    for cause, n in sorted(s["failures_by_cause"].items()):
        lines.append(f"  failed {n:6d}  {cause}")
    if "arrival_err_max" in s:
        lines.append(f"arrival_err_max  {s['arrival_err_max']:.6g} (time units)")
    if "hji_residual_max" in s:
        lines.append(f"hji_residual_max {s['hji_residual_max']:.6g}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("query", "closed_loop", "verify_sweep", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    import_package()
    import workloads

    ctx = run_context(ROOT, args.seed) if not args.setup_only else None
    scratch = OUT / f"cli-{os.getpid()}"
    try:
        if args.setup_only:
            make_workload(args.workload, args.seed, args.tiny, scratch).warm_up()
            return 0
        return run(args, ctx, scratch, workloads)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(args, ctx, scratch, workloads) -> int:
    name = args.workload
    tail = workloads.WORKLOADS[name].tail_pct
    repeats = workloads.WORKLOADS[name].repeats
    known = workloads.KNOWN_DEFECTS
    header = f"# ladylake benchmark  workload={name} seed={args.seed} " \
             f"seconds={args.seconds:g} trace={args.trace}"
    print(header)
    print("# context " + json.dumps(ctx))
    record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "context": ctx}
    if args.trace == 0:
        setups, setups_cal = setup_times(name, args.seed, args.tiny)
        w = make_workload(name, args.seed, args.tiny, scratch)
        w.warm_up()
        s = summarize(measure(w, args.seconds), tail, known, repeats)
        s["setup_s_raw"] = statistics.median(setups)
        s["setup_s"] = statistics.median(setups_cal)
        s["peak_rss_mb"] = peak_rss_mb(w)
        for line in describe(s):
            print(line)
        print(f"setup_s          {s['setup_s']:.6g} s  (calibrated, median of {len(setups)}; "
              f"raw {s['setup_s_raw']:.6g} s)")
        print(f"peak_rss_mb      {s['peak_rss_mb']:.6g} MB")
        metrics = {k: {"value": s[k], "unit": u} for k, u in E2E_UNITS.items()}
        record["summary"] = s
        attempted, failed, unexpected = s["attempted"], s["failed"], s["unexpected"]
    else:
        plain = make_workload(name, args.seed, args.tiny, scratch)
        plain.warm_up()
        su = summarize(measure(plain, args.seconds / 2), tail, known, repeats)
        tracer = Tracer()
        traced = make_workload(name, args.seed, args.tiny, scratch)
        traced.warm_up()
        st = summarize(measure(traced, args.seconds / 2, tracer), tail, known, repeats)
        tracer.probe = True
        probe_passes = []
        for w, n in workloads.probe_workloads(ROOT, scratch):
            w.warm_up()
            probe_passes += [w.run_pass(tracer) for _ in range(n)]
        probe_cal = Calibrator("loop")
        probe_cal.sample()
        for p in probe_passes:
            p.scale = probe_cal.factors(p.t_ns)
        sp = summarize((probe_passes, probe_cal), tail, known)
        layers = layer_metrics(tracer)
        layers.update(probe_metrics(tracer))
        layers["error_rate"] = ((su["failed"] + st["failed"]) /
                                max(1, su["attempted"] + st["attempted"]), "ratio")
        for k in ("ops_per_s", "op_p50_ms", "op_tail_ms"):
            layers[f"trace_overhead.{k}"] = (st[k + "_cal"] - su[k + "_cal"], E2E_UNITS[k + "_cal"])
        print("# untraced half")
        for line in describe(su):
            print(line)
        print("# traced half (op = the traced op, decomposition included)")
        for line in describe(st):
            print(line)
        print(f"# fixed probes: attempted {sp['attempted']}, failed {sp['failed']}")
        for cause, n in sorted(sp["failures_by_cause"].items()):
            print(f"  failed {n:6d}  {cause}")
        print("# per-layer metrics (probes stand in where the workload makes no such call)")
        for k, (v, u) in layers.items():
            print(f"{k:40s} {v:.6g} {u}")
        span_file = OUT / f"spans-{name}-seed{args.seed}.jsonl"
        tracer.write(span_file)
        print(f"# {len(tracer.spans)} spans written to {span_file.relative_to(ROOT)}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        record.update(untraced=su, traced=st, probes=sp)
        attempted = su["attempted"] + st["attempted"]
        failed = su["failed"] + st["failed"]
        unexpected = su["unexpected"] + st["unexpected"] + sp["unexpected"]
    if unexpected:
        print("# UNEXPECTED FAILURES: " + ", ".join(unexpected))
    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
