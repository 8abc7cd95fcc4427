"""The four benchmark workloads, their seeded inputs and their oracles.

Every workload is closed loop with one client: the next call starts when the
previous one has returned.  A pass runs the workload's input set once; the
timed loop stores raw results and the oracle checks them after the pass's
clock has stopped.  With a tracer, a pass also records a span around each
call into a layer.
"""
from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from time import perf_counter_ns

from ladylake import DomainError, GameParams, LakeGameError, PolarState, Region, advise, classify
from ladylake import classical, focal, sim, solution, universal, verify

MUS = (0.1, 0.3, 0.6, 0.9)
PI = math.pi

# Oracle tolerances, taken from the acceptance criteria and the CLI's
# verify thresholds.
TOL_CLOSED_FORM = 1e-12   # value against a closed form evaluated directly
TOL_ENTRY_DELTA = 1e-6    # |t_lady - t_man| at the returned entry radius (as criterion 06)
TOL_ROUND_TRIP = 1e-6     # flowfield_sample(s, tau) back to the state (criterion 06)
TOL_CLOSED_LOOP = 1e-3    # t_final / theta_f against the advise value (criteria 02-04)
TOL_MARGIN = 1e-3         # deviation_report margins (criterion 11, verify CLI)
TOL_HJI = 1e-3            # verify CLI threshold
TOL_BARRIER = 1e-10       # verify CLI threshold
TOL_SNAP_JUMP = 2e-3      # continuity across the E_SNAP band claimed in solution.py

# Failures that the program has today on the fixed edge slice.  They count
# as failed ops and in error_rate; only a failure outside this list marks a
# run incorrect.  Fixing one of them lowers error_rate.
KNOWN_DEFECTS = {
    ("origin", "DomainError"),
    ("below_eps_r", "DomainError"),
    ("snap_out", "snap_band_jump"),
    ("origin", "exit_2"),
    ("below_eps_r", "exit_2"),
    # Against constant_omega=0.8 from the probe's universal-tributary start
    # the equilibrium lady crosses the barrier and escapes to the shore;
    # deviation_report scores that as arriving at the horizon, so the margin
    # is about -18.  An escape from a closed_loop start is unexpected.
    ("ul_escape_probe", "deviation_escape"),
}

START_CLASSES = ("focal_tributary", "universal_tributary", "focal_line", "above_barrier")


@dataclass
class PassResult:
    """Per-op latencies and failures of one pass, plus its timed wall clock."""

    wall_ns: int = 0
    lat_ns: list[float] = field(default_factory=list)
    t_ns: list[int] = field(default_factory=list)  # start time of each lat_ns entry
    failures: list[tuple[str, str]] = field(default_factory=list)  # (label, cause)
    attempted: int = 0
    arrival_err: list[float] = field(default_factory=list)
    hji_residual: list[float] = field(default_factory=list)
    scale: list[float] = field(default_factory=list)  # calibration factor per entry


def _no_tick() -> None:
    """Default for run_pass's tick, the hook called between ops."""


def _cause(exc: BaseException) -> str:
    return type(exc).__name__


def _call(tracer, name, layer, fn, *args):
    """Time one call into a layer, in a span when tracing.

    Returns (result, span or None, nanoseconds); an exception propagates.
    """
    if tracer is None:
        t0 = perf_counter_ns()
        res = fn(*args)
        return res, None, perf_counter_ns() - t0
    res, span = tracer.call(name, layer, fn, *args)
    return res, span, span.dur_ns


# --------------------------------------------------------------------- query

def edge_slice(mu: float) -> list[tuple[str, float, float]]:
    """Fixed states on the edges of the domain and of the regions."""
    p = GameParams(mu)
    snap = solution.E_SNAP
    r_b = mu + 0.2 * (1.0 - mu)
    half = 0.5 * mu
    return [
        ("origin", 0.0, 1.0),
        ("below_eps_r", 0.5 * p.eps_r, 2.0),
        ("origin_focal_line", 0.0, PI),
        ("universal_line", half, 0.0),
        ("focal_line", half, PI),
        ("snap_in", mu, PI - 0.99 * snap),
        ("snap_out", mu, PI - 1.01 * snap),
        ("snap_out_radial", mu - 1.01 * snap, PI),
        ("partition_above", half, half / mu + 1e-9),
        ("partition_below", half, half / mu - 1e-9),
        ("barrier", r_b, classical.barrier_theta(r_b, p)),
        ("shore", 1.0, 2.0),
    ]


def query_oracle(label: str, state: PolarState, p: GameParams, adv) -> str | None:
    """None if the advice matches its closed form, else the failure cause."""
    region, v, r, th, mu = adv.region, adv.value, state.r, state.theta, p.mu
    if not math.isfinite(v):
        return "nan_value"
    if region is Region.SHORE:
        expect = th
    elif region is Region.ANTIPODAL_POINT:
        expect = 0.0
    elif region in (Region.ABOVE_BARRIER, Region.ON_BARRIER):
        expect = classical.classical_value(state, p)
    elif region is Region.FOCAL_LINE:
        expect = 0.5 * PI - math.asin(min(1.0, r / mu))
    elif region in (Region.UNIVERSAL_LINE, Region.UNIVERSAL_TRIBUTARY):
        expect = 0.5 * PI + r / mu
    else:
        e = adv.entry
        if e is None:
            return "missing_entry"
        if abs(focal.entry_delta(state, e.s, e.case, p)) > TOL_ENTRY_DELTA:
            return "entry_delta"
        # Retrograde time from the entry (s, pi) to the state: the path
        # touches r = s^2/mu at tangency_time and case One lies beyond it.
        leg = math.sqrt(max(0.0, mu * mu * r * r - e.s ** 4)) / (mu * mu)
        t_tan = focal.tangency_time(e.s, p)
        tau = t_tan + leg if e.case is focal.EntryCase.ONE else max(0.0, t_tan - leg)
        smp = focal.flowfield_sample(e.s, tau, p)
        if max(abs(smp.r - r), abs(smp.theta - th)) > TOL_ROUND_TRIP:
            return "flowfield_round_trip"
        expect = v
    if abs(v - expect) > TOL_CLOSED_FORM * max(1.0, abs(expect)):
        return "value_mismatch"
    if label == "snap_out" and abs(v) > TOL_SNAP_JUMP:
        return "snap_band_jump"
    return None


class Query:
    """Seeded advise() calls over the whole state space."""

    name = "query"
    tail_pct = 99.0
    repeats = True
    # Jittered grid cells per axis, by mu.  With equal grids about 51% of the
    # states are focal tributaries (~1 ms each, the rest ~10 us), so the
    # median op sat on the lower edge of the focal cluster, where the host's
    # speed states moved it by up to 60% from run to run.  The smaller mu get
    # more states, which brings the focal share to about 44%: the median
    # falls inside the closed-form cluster, where the solution layer's own
    # cost shows, and the focal solves still dominate ops_per_s and the tail.
    grid = {0.1: 40, 0.3: 40, 0.6: 30, 0.9: 30}

    def __init__(self, seed: int, tiny: bool = False, inputs=None) -> None:
        rng = random.Random(seed)
        self.params = {mu: GameParams(mu) for mu in MUS}
        if inputs is None:
            inputs = []
            for mu in MUS:
                n = 2 if tiny else self.grid[mu]
                # One uniform draw per cell: uniform on [0,1]x[0,pi] with
                # region shares that barely move between seeds.
                for i in range(n):
                    for j in range(n):
                        r = (i + rng.random()) / n
                        th = (j + rng.random()) / n * PI
                        inputs.append(("uniform", mu, r, th))
                inputs.extend((lab, mu, r, th) for lab, r, th in edge_slice(mu))
            rng.shuffle(inputs)
        self.inputs = [
            (lab, self.params[mu], PolarState(r, th)) for lab, mu, r, th in inputs
        ]

    def warm_up(self) -> None:
        for _, p, st in self.inputs[:32]:
            try:
                advise(st, p, omega_now=1.0)
            except LakeGameError:
                pass

    def run_pass(self, tracer=None, tick=_no_tick) -> PassResult:
        out = PassResult()
        results = []
        lat, starts = out.lat_ns, out.t_ns
        if tracer is None:
            t_pass = perf_counter_ns()
            for _, p, st in self.inputs:
                t0 = perf_counter_ns()
                try:
                    res = advise(st, p, omega_now=1.0)
                except Exception as exc:  # counted by cause, never aborts
                    res = exc
                lat.append(perf_counter_ns() - t0)
                starts.append(t0)
                results.append(res)
                tick()
            out.wall_ns = perf_counter_ns() - t_pass
        else:
            t_pass = perf_counter_ns()
            for lab, p, st in self.inputs:
                root = tracer.open("query.op", "bench")
                res = self._traced_op(tracer, lab, p, st)
                tracer.close(root)
                lat.append(root.dur_ns)
                starts.append(root.start)
                results.append(res)
                tick()
            out.wall_ns = perf_counter_ns() - t_pass
        for (lab, p, st), res in zip(self.inputs, results):
            out.attempted += 1
            cause = _cause(res) if isinstance(res, Exception) else query_oracle(lab, st, p, res)
            if cause is not None:
                out.failures.append((lab, cause))
        return out

    @staticmethod
    def _traced_op(tracer, label, p, st):
        """classify, then the region's own layer call, then advise.

        advise repeats the first two internally, so solution's self time is
        advise minus the separately timed layer call.
        """
        try:
            region, cls_span = tracer.call("solution.classify", "solution", classify, st, p)
        except Exception as exc:
            return exc
        cls_span.attrs["self_ns"] = 0
        child = None
        try:
            if region is Region.FOCAL_TRIBUTARY:
                entry, child = tracer.call("focal.solve_entry", "focal", focal.solve_entry, st, p)
                child.attrs["case"] = entry.case.value
            elif region in (Region.ABOVE_BARRIER, Region.ON_BARRIER):
                _, child = tracer.call("classical.solve_classical", "classical",
                                       classical.solve_classical, st, p)
            elif region in (Region.UNIVERSAL_LINE, Region.UNIVERSAL_TRIBUTARY):
                _, child = tracer.call("universal.time_to_antipode", "universal",
                                       universal.time_to_antipode, st, p)
            elif region is Region.FOCAL_LINE:
                _, child = tracer.call("focal.fl_control", "focal", focal.fl_control, st, 1.0, p)
            elif region is Region.SHORE:
                _, child = tracer.call("classical.classical_heading", "classical",
                                       classical.classical_heading, st, p)
        except Exception:
            child = tracer.spans[-1]
        if child is not None:
            child.attrs["label"] = label
        try:
            res, adv_span = tracer.call("solution.advise", "solution", advise, st, p, 1.0)
        except Exception as exc:
            res, adv_span = exc, tracer.spans[-1]
        adv_span.attrs["region"] = region.value
        adv_span.attrs["label"] = label
        adv_span.attrs["self_ns"] = adv_span.dur_ns - (child.dur_ns if child else 0)
        return res


# --------------------------------------------------------------- closed_loop

# Class centres at mu = 0.3; each start is jittered by up to +-0.003 in r and
# +-0.006 in theta.  Narrow boxes keep the run-to-run cost close, so the
# quartiles fall inside the cluster of deviation runs rather than between
# clusters; with +-0.01 and +-0.02 the two focal deviation reports of one
# seed differed by 16-18% in cost, and the p75 moved with them.
# Universal-tributary starts with r below about 0.1 are avoided: there
# deviation_report fails erratically against constant_omega=0.8 (see
# the probe in probe_workloads, which keeps that failure visible).
START_CENTRES = {
    "focal_tributary": (0.10, 2.85),
    "universal_tributary": (0.15, 0.25),
    "focal_line": (0.24, PI),
    "above_barrier": (0.85, 2.6),
}


def closed_loop_start(cls: str, rng: random.Random) -> PolarState:
    """A seeded start near the centre of one of the four start classes."""
    r, th = START_CENTRES[cls]
    r += rng.uniform(-0.003, 0.003)
    if th < PI:
        th += rng.uniform(-0.006, 0.006)
    return PolarState(r, th)


class ClosedLoop:
    """Equilibrium closed-loop runs from seeded starts in four classes,
    drawn once per run and repeated every pass.

    A plan entry is (kind, label, start); the label names the start class
    and is the label its failures are counted under.

    An op is one simulate run.  deviation_report makes six of them (the
    equilibrium run and five deviations); it is timed as one call and each of
    its runs gets a sixth of that time.
    """

    name = "closed_loop"
    tail_pct = 75.0
    repeats = False
    mu = 0.3
    dt = 1e-4
    dev_dt = 1e-3
    dev_runs = 6

    def __init__(self, seed: int, tiny: bool = False, plan=None) -> None:
        self.params = GameParams(self.mu)
        self.plan = self._seeded_plan(random.Random(seed), tiny) if plan is None else plan

    @staticmethod
    def _seeded_plan(rng, tiny):
        starts = {c: closed_loop_start(c, rng) for c in START_CLASSES}
        # Two focal-tributary deviation reports against one universal: the
        # focal deviation runs are then more than half of the ops, and both
        # quartiles fall inside their cluster instead of between clusters.
        plan = [
            ("sim", "focal_tributary", starts["focal_tributary"]),
            ("dev", "focal_tributary", starts["focal_tributary"]),
            ("dev", "focal_tributary", closed_loop_start("focal_tributary", rng)),
            ("sim", "universal_tributary", starts["universal_tributary"]),
            ("dev", "universal_tributary", starts["universal_tributary"]),
            ("sim", "focal_line", starts["focal_line"]),
            ("sim", "above_barrier", starts["above_barrier"]),
        ]
        if tiny:
            plan = [op for op in plan if op[1] in ("focal_line", "above_barrier")]
        return plan

    def warm_up(self) -> None:
        eq = sim.StrategySpec.equilibrium
        for c in START_CLASSES:
            st = closed_loop_start(c, random.Random(0))
            sim.simulate(st, eq("lady"), eq("man"), self.dt, 0.02, self.params)

    def _simulate(self, st):
        eq = sim.StrategySpec.equilibrium
        return sim.simulate(st, eq("lady"), eq("man"), self.dt, 20.0, self.params)

    def _deviation(self, st):
        return sim.deviation_report(st, self.params, dt=self.dev_dt)

    def run_pass(self, tracer=None, tick=_no_tick) -> PassResult:
        out = PassResult()
        results = []
        t_pass = perf_counter_ns()
        for kind, label, st in self.plan:
            fn = self._simulate if kind == "sim" else self._deviation
            name = "sim.simulate" if kind == "sim" else "sim.deviation_report"
            t0 = perf_counter_ns()
            try:
                res, span, ns = _call(tracer, name, "sim", fn, st)
            except Exception as exc:  # counted by cause, never aborts
                res, span, ns = exc, None, perf_counter_ns() - t0
            if span is not None:
                span.attrs["class"] = label
            results.append((kind, label, st, res, t0, ns, span))
            tick()
        out.wall_ns = perf_counter_ns() - t_pass
        for kind, label, st, res, t0, ns, span in results:
            if kind == "sim":
                out.t_ns.append(t0)
                self._check_sim(out, label, st, res, ns, span)
            else:
                out.t_ns.extend(t0 + k * ns // self.dev_runs for k in range(self.dev_runs))
                self._check_dev(out, label, res, ns)
        return out

    def _check_sim(self, out, cls, st, traj, ns, span) -> None:
        out.attempted += 1
        out.lat_ns.append(ns)
        if isinstance(traj, Exception):
            out.failures.append((cls, _cause(traj)))
            return
        adv = advise(st, self.params, omega_now=1.0)
        if span is not None:
            span.attrs["steps"] = len(traj.t)
            span.attrs["outcome"] = traj.outcome
            span.attrs["events"] = [k for _, k in traj.events]
        if cls == "above_barrier":
            ok = traj.outcome == "reached_shore" and traj.theta_f is not None and (
                abs(traj.theta_f - adv.value) <= TOL_CLOSED_LOOP
            )
        else:
            err = abs(traj.t_final - adv.value)
            ok = traj.outcome == "reached_e" and err <= TOL_CLOSED_LOOP
            if traj.outcome == "reached_e":
                out.arrival_err.append(err)
                if span is not None:
                    span.attrs["arrival_err"] = err
        if not ok:
            out.failures.append((cls, "closed_loop_mismatch"))

    def _check_dev(self, out, label, res, ns) -> None:
        out.attempted += self.dev_runs
        out.lat_ns.extend([ns / self.dev_runs] * self.dev_runs)
        if isinstance(res, Exception):
            out.failures.extend([(label, _cause(res))] * self.dev_runs)
            return
        t_eq, rows = res
        if not (math.isfinite(t_eq) and t_eq > 0.0):
            out.failures.append((label, "deviation_baseline"))
        for row in rows:
            if row.margin < -TOL_MARGIN:
                cause = "deviation_escape" if row.outcome == "reached_shore" else "deviation_margin"
                out.failures.append((label, cause))


# -------------------------------------------------------------- verify_sweep

def hji_cells_kept(p: GameParams, n_r: int, n_t: int, h: float = 1e-5) -> int:
    """The number of cells hji_sweep's band filter keeps: the cells whose
    residual it must report.  This is the sweep's own geometry; no value is
    solved."""
    mu = p.mu
    band = 2.0 * h * (1.0 + 1.0 / mu)
    kept = 0
    for i in range(1, n_r + 1):
        r = i / (n_r + 1)
        if r < band or r > 1.0 - band:
            continue
        for j in range(1, n_t + 1):
            th = PI * j / (n_t + 1)
            if th < band or th > PI - band or abs(th - r / mu) < band:
                continue
            if r >= mu - band:
                if r + h > 1.0:
                    continue
                try:
                    if th > classical.barrier_theta(max(r - h, mu), p) - band:
                        continue
                except DomainError:
                    continue
            kept += 1
    return kept


class VerifySweep:
    """hji_sweep and barrier_sweep(1000) for every mu in MUS.

    An op is one grid cell the sweep attempts, used or skipped; the sweep is
    timed as one call and each attempted cell gets an equal share of it.  A
    cell the band filter keeps but the sweep leaves out of its report (a
    solve that raised) is a failed op, so a sweep that drops cells gains
    nothing.
    """

    name = "verify_sweep"
    tail_pct = 99.0
    repeats = True
    barrier_n = 1000

    def __init__(self, seed: int, tiny: bool = False, grids=None) -> None:
        rng = random.Random(seed)
        if grids is None:
            # One grid size for every mu, so each sweep holds the same share of
            # the cells and the median falls between the same two sweeps.
            # Small grids keep each sweep (one timed call) under about 0.3 s,
            # so the reference task is sampled around it before the host's
            # speed flips; with n = 17..19 the quartile spreads over ten
            # seeds were 0.08-0.11, with n = 9..11 0.04-0.05 over five.
            order = list(MUS)
            rng.shuffle(order)
            n = 3 if tiny else rng.randint(9, 11)
            grids = [(mu, n, n) for mu in order]
        self.grids = [(GameParams(mu), n_r, n_t) for mu, n_r, n_t in grids]
        self.kept = [hji_cells_kept(p, n_r, n_t) for p, n_r, n_t in self.grids]

    def warm_up(self) -> None:
        for p, _, _ in self.grids:
            verify.hji_sweep(p, 3, 3)
            verify.barrier_sweep(p, 10)

    def run_pass(self, tracer=None, tick=_no_tick) -> PassResult:
        out = PassResult()
        results = []
        t_pass = perf_counter_ns()
        for p, n_r, n_t in self.grids:
            t0 = perf_counter_ns()
            try:
                rep, span, ns = _call(tracer, "verify.hji_sweep", "verify",
                                      verify.hji_sweep, p, n_r, n_t)
                worst, bspan, _ = _call(tracer, "classical.barrier_sweep", "classical",
                                        verify.barrier_sweep, p, self.barrier_n)
                results.append((rep, t0, ns, span, worst, bspan))
            except Exception as exc:  # counted by cause, never aborts
                results.append(exc)
            tick()
        out.wall_ns = perf_counter_ns() - t_pass
        for (p, n_r, n_t), kept, res in zip(self.grids, self.kept, results):
            cells = n_r * n_t
            out.attempted += cells
            label = f"mu={p.mu:g}"
            if isinstance(res, Exception):
                out.failures.extend([(label, _cause(res))] * cells)
                continue
            rep, t0, ns, span, worst, bspan = res
            out.lat_ns.extend([ns / cells] * cells)
            out.t_ns.extend(t0 + k * ns // cells for k in range(cells))
            out.hji_residual.append(rep.max_abs_residual)
            if span is not None:
                span.attrs.update(mu=p.mu, cells_attempted=cells,
                                  cells_used=rep.n_samples, residual=rep.max_abs_residual)
                bspan.attrs.update(mu=p.mu, residual=worst)
            if rep.max_abs_residual >= TOL_HJI:
                out.failures.extend([(label, "hji_threshold")] * cells)
            elif worst >= TOL_BARRIER:
                out.failures.extend([(label, "barrier_threshold")] * cells)
            else:
                out.failures.extend([(label, "cells_dropped")] * max(0, kept - rep.n_samples))
        return out


# ----------------------------------------------------------------------- cli

@dataclass
class CliCommand:
    kind: str            # solve | critical-mu | flowfield | simulate
    label: str
    argv: list[str]
    state: PolarState | None = None
    params: GameParams | None = None
    files: tuple[str, ...] = ()


def _sample_region(rng, p, want, tries=10000):
    for _ in range(tries):
        st = PolarState(rng.random(), rng.random() * PI)
        if classify(st, p) is want:
            return st
    raise RuntimeError(f"no {want.value} state found for mu={p.mu}")


# The simulate command's start is fixed: its run costs about a quarter of a
# pass, and a seeded start would move ops_per_s more than the seed moves
# anything else.
SIM_START = PolarState(0.05, 0.1)

# Each command runs under this launcher, which prints the command's wall time,
# its peak RSS in KiB and its exit code (None on a timeout) as the last line
# of standard error.  On Linux a child's ru_maxrss also holds the RSS of the
# process that spawned it; the launcher starts without site and imports
# neither numpy nor the package, so the peak it reports is the command's own.
LAUNCHER = """\
import resource, subprocess, sys, time
t0 = time.perf_counter_ns()
try:
    rc = subprocess.call(sys.argv[1:], timeout=120)
except subprocess.TimeoutExpired:
    rc = None
ns = time.perf_counter_ns() - t0
kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
sys.stderr.write(f"\\n{ns} {kb} {rc}\\n")
"""


class Cli:
    """Fresh-interpreter `python -m ladylake.cli` commands, one at a time.

    An op is one command, timed by the launcher from spawn to exit.  Output
    files go to a scratch directory inside the checkout, which the caller
    removes.  max_rss_kb is the largest peak RSS of any command run so far.
    """

    name = "cli"
    tail_pct = 75.0
    repeats = False
    sim_mu = 0.3

    def __init__(self, seed: int, tiny: bool = False, commands=None, *, root: Path,
                 out_dir: Path) -> None:
        from ladylake import cli as lcli  # only this workload pays its import

        self.lcli = lcli
        self.root = root
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        src = str(root / "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))
        if commands is None:
            commands = self._seeded_commands(random.Random(seed), tiny)
        self.commands = commands
        self.max_rss_kb = 0

    def path(self, name: str) -> str:
        return str(self.out_dir / name)

    def solve(self, label, st, p) -> CliCommand:
        argv = ["solve", "--mu", repr(p.mu), "--r", repr(st.r), "--theta", repr(st.theta)]
        return CliCommand("solve", label, argv, st, p)

    def flowfield(self, game, ext, p, samples=None) -> CliCommand:
        out = self.path(f"flow_{game}.{ext}")
        argv = ["flowfield", "--mu", repr(p.mu), "--game", game, "--out", out]
        if samples is not None:
            argv += ["--samples", str(samples)]
        return CliCommand("flowfield", f"{game}_{ext}", argv, params=p, files=(out,))

    def simulate(self, st, p) -> CliCommand:
        csv, svg = self.path("run.csv"), self.path("run.svg")
        argv = ["simulate", "--mu", repr(p.mu), "--r0", repr(st.r), "--theta0", repr(st.theta),
                "--lady", "eq", "--man", "switching:0.2", "--out", csv, "--svg", svg]
        return CliCommand("simulate", "eq_vs_switching", argv, st, p, (csv, svg))

    def _seeded_commands(self, rng, tiny) -> list[CliCommand]:
        p = GameParams(rng.choice(MUS))
        eps = 0.5 * p.eps_r
        if tiny:
            ft = _sample_region(rng, p, Region.FOCAL_TRIBUTARY)
            return [
                self.solve("focal_tributary", ft, p),
                self.solve("origin", PolarState(0.0, 1.0), p),
                CliCommand("critical-mu", "critical_mu", ["critical-mu"]),
                self.flowfield("time", "csv", p, samples=20),
            ]
        # Mostly solves, so both quartiles fall inside the cluster of
        # start-up-bound commands rather than between command kinds.
        cmds = [self.solve("uniform", PolarState(rng.random(), rng.random() * PI), p)
                for _ in range(14)]
        cmds += [self.solve("focal_tributary", _sample_region(rng, p, Region.FOCAL_TRIBUTARY), p)
                 for _ in range(4)]
        cmds += [self.solve("origin", PolarState(0.0, 1.0), p),
                 self.solve("below_eps_r", PolarState(eps, 2.0), p),
                 CliCommand("critical-mu", "critical_mu", ["critical-mu"])]
        cmds += [self.flowfield(g, e, p) for g in ("classical", "time") for e in ("svg", "csv")]
        cmds.append(self.simulate(SIM_START, GameParams(self.sim_mu)))
        return cmds

    def warm_up(self) -> None:
        self.lcli.build_parser()

    def _run_child(self, tracer, name, argv):
        """Run `python argv` under the launcher, in a span when tracing.

        Returns (process or None on a timeout, the command's wall time, the
        launcher's own overhead, span or None); the span covers the command
        alone.
        """
        span = tracer.open(name, "cli") if tracer else None
        t0 = perf_counter_ns()
        proc = subprocess.run(
            [sys.executable, "-S", "-c", LAUNCHER, sys.executable, *argv], cwd=self.root,
            env=self.env, capture_output=True, text=True, timeout=150,
        )
        total = perf_counter_ns() - t0
        stderr, _, last = proc.stderr.rstrip("\n").rpartition("\n")
        ns, kb, rc = last.split()
        ns = int(ns)
        self.max_rss_kb = max(self.max_rss_kb, int(kb))
        proc = None if rc == "None" else subprocess.CompletedProcess(
            proc.args, int(rc), proc.stdout, stderr)
        if span is not None:
            tracer.close(span)
            span.end = span.start + ns
        return proc, ns, total - ns, span

    def run_pass(self, tracer=None, tick=_no_tick) -> PassResult:
        out = PassResult()
        results = []
        overhead = 0
        t_pass = perf_counter_ns()
        for cmd in self.commands:
            t0 = perf_counter_ns()
            proc, ns, extra, span = self._run_child(tracer, "cli.cmd",
                                                    ["-m", "ladylake.cli", *cmd.argv])
            if span is not None:
                span.attrs.update(command=cmd.kind, label=cmd.label)
            results.append((cmd, proc, t0, ns, span))
            overhead += extra
            tick()
        out.wall_ns = perf_counter_ns() - t_pass - overhead
        written = 0
        for cmd, proc, t0, ns, span in results:
            out.attempted += 1
            out.lat_ns.append(ns)
            out.t_ns.append(t0)
            cause = self._check(cmd, proc)
            if cause is not None:
                out.failures.append((cmd.label, cause))
            if proc is not None:
                written += len(proc.stdout.encode()) + sum(
                    os.path.getsize(f) for f in cmd.files if os.path.exists(f))
        if tracer is not None:
            self._trace_extras(tracer, results, written)
        return out

    def _check(self, cmd: CliCommand, proc) -> str | None:
        if proc is None:
            return "timeout"
        if proc.returncode != 0:
            return f"exit_{proc.returncode}"
        try:
            if cmd.kind == "solve":
                got = json.loads(proc.stdout)["value"]
                want = advise(cmd.state, cmd.params, omega_now=1.0).value
                return None if abs(got - want) <= TOL_CLOSED_FORM * max(1.0, abs(want)) \
                    else "value_mismatch"
            if cmd.kind == "critical-mu":
                got = json.loads(proc.stdout)["critical_mu"]
                return None if abs(got - 0.21723) < 1e-4 else "value_mismatch"
            for f in cmd.files:
                if f.endswith(".svg"):
                    if not ET.parse(f).getroot().findall("{http://www.w3.org/2000/svg}polyline"):
                        return "empty_svg"
                else:
                    _check_csv(f, "trajectory,kind,r,theta" if cmd.kind == "flowfield"
                               else "t,r,theta,")
        except (ValueError, KeyError, OSError, ET.ParseError):
            return "parse_error"
        return None

    def _trace_extras(self, tracer, results, written) -> None:
        """Import time, and cli.main minus the same library call in-process."""
        _, _, _, span = self._run_child(tracer, "cli.import", ["-c", "import ladylake.cli"])
        write_ns = 0
        for cmd, proc, _, ns, cmd_span in results:
            if cmd.kind not in ("solve", "simulate") or proc is None or proc.returncode:
                continue
            argv = [a.replace(str(self.out_dir), str(self.out_dir / "inproc"))
                    for a in cmd.argv]
            (self.out_dir / "inproc").mkdir(exist_ok=True)
            main_span = tracer.open("cli.main_inproc", "cli")
            with redirect_stdout(StringIO()):
                self.lcli.main(argv)
            tracer.close(main_span)
            lib_span = tracer.open("cli.library", "cli")
            if cmd.kind == "solve":
                advise(cmd.state, cmd.params, omega_now=1.0)
            else:
                eq = sim.StrategySpec.equilibrium("lady")
                sim.simulate(cmd.state, eq, sim.StrategySpec.switching_omega(0.2),
                             params=cmd.params)
            tracer.close(lib_span)
            main_span.attrs["self_ns"] = lib_span.attrs["self_ns"] = 0
            cmd_span.attrs["self_ns"] = cmd_span.dur_ns - lib_span.dur_ns
            write_ns += main_span.dur_ns - lib_span.dur_ns
        span.attrs.update(write_ns=write_ns, bytes_written=written)


def _check_csv(path: str, header: str) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    if not lines[0].startswith(header) or len(lines) < 3:
        raise ValueError(f"{path}: bad header or too few rows")
    width = len(lines[0].split(","))
    for ln in (lines[1], lines[-1]):
        fields = ln.split(",")
        if len(fields) != width:
            raise ValueError(f"{path}: ragged row")
        if header.startswith("t,"):
            [float(v) for v in fields]
        else:
            float(fields[-1])


# -------------------------------------------------------------------- probes

def probe_workloads(root: Path, out_dir: Path) -> list:
    """Fixed inputs that time every layer in every traced run.

    They include the ROADMAP baseline cases: solve_entry at (0.2, 1.0),
    advise above the barrier, on a universal tributary and on a focal
    tributary at (0.05, 2.5), and simulate eq/eq from (0.2, 1.0), all at
    mu = 0.3.
    """
    mu = 0.3
    p = GameParams(mu)
    r_b = mu + 0.2 * (1.0 - mu)
    states = [
        ("solve_entry_0.2_1.0", 0.2, 1.0),
        ("above_barrier", 0.6, 2.5),
        ("ul_tributary", 0.25, 0.5),
        ("fl_tributary", 0.05, 2.5),
        ("on_barrier", r_b, classical.barrier_theta(r_b, p)),
        ("focal_line", 0.15, PI),
        ("universal_line", 0.15, 0.0),
        ("antipodal_point", mu, PI),
        ("shore", 1.0, 2.0),
    ]
    query = Query(0, inputs=[(lab, mu, r, th) for lab, r, th in states])
    closed = ClosedLoop(0, plan=[
        ("sim", "focal_tributary", PolarState(0.2, 1.0)),
        ("sim", "universal_tributary", PolarState(0.05, 0.1)),
        # The equilibrium lady escapes to the shore against constant_omega=0.8
        # from this universal-tributary start: a known deviation_escape
        # failure, kept visible under its own label.
        ("dev", "ul_escape_probe", PolarState(0.0557, 0.127)),
        ("sim", "focal_line", PolarState(0.25, PI)),
        ("sim", "above_barrier", PolarState(0.8, 2.5)),
    ])
    sweep = VerifySweep(0, grids=[(m, 6, 6) for m in MUS])
    cli = Cli(0, root=root, out_dir=out_dir, commands=[])
    cli.commands = [
        cli.solve("fl_tributary", PolarState(0.05, 2.5), p),
        CliCommand("critical-mu", "critical_mu", ["critical-mu"]),
        cli.flowfield("time", "svg", p),
        cli.simulate(PolarState(0.05, 0.1), p),
    ]
    return [(query, 5), (closed, 1), (sweep, 1), (cli, 1)]


WORKLOADS = {w.name: w for w in (Query, ClosedLoop, VerifySweep, Cli)}
