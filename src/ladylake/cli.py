"""Command-line interface: solve, flowfield, simulate, verify, critical-mu.

Emits JSON to stdout for point queries and reports, CSV for trajectory
and flowfield samples, and self-contained static SVG 1.1 for figures.
Exit codes: 0 success, 1 verification threshold failure, 2 domain or
argument errors, 3 file I/O errors.
"""
from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import re
import sys
from dataclasses import asdict

from . import classical, focal, universal, verify
from .model import (
    DomainError,
    GameParams,
    LakeGameError,
    PolarState,
    canonicalize,
)
from .sim import StrategySpec, deviation_report, simulate
from .solution import advise

_PI = math.pi

# Shared plot geometry so tests can invert the pixel mapping.
SVG_W = 800
SVG_H = 600
SVG_PAD = 40
CART_SPAN = 2.2  # Cartesian frames cover [-1.1, 1.1] in both axes.
_CART_SCALE = (min(SVG_W, SVG_H) - 2 * SVG_PAD) / CART_SPAN  # pixels per unit length


def polar_to_px(r: float, theta: float) -> tuple[float, float]:
    """(r, theta) rectangle -> SVG pixels; theta up the page."""
    x = SVG_PAD + r * (SVG_W - 2 * SVG_PAD)
    y = SVG_H - SVG_PAD - theta / _PI * (SVG_H - 2 * SVG_PAD)
    return x, y


def px_to_polar(x: float, y: float) -> tuple[float, float]:
    r = (x - SVG_PAD) / (SVG_W - 2 * SVG_PAD)
    theta = (SVG_H - SVG_PAD - y) / (SVG_H - 2 * SVG_PAD) * _PI
    return r, theta


def cart_to_px(x: float, y: float) -> tuple[float, float]:
    return SVG_W / 2 + x * _CART_SCALE, SVG_H / 2 - y * _CART_SCALE


def px_to_cart(px: float, py: float) -> tuple[float, float]:
    return (px - SVG_W / 2) / _CART_SCALE, (SVG_H / 2 - py) / _CART_SCALE


def _fmt(v: float) -> str:
    return format(v, ".12g")


# The writers format a whole row or point at once; "%.12g" % v == _fmt(v).
_POINT = "%.12g,%.12g"
_TRAJECTORY_ROW = ",".join(["%.12g"] * 10) + "\n"


_SVG_STYLE = """\
  <style>
    polyline { fill: none; stroke-width: 1; }
    .FocalTributary { stroke: #1f77b4; }
    .UniversalTributary { stroke: #2ca02c; }
    .Classical { stroke: #1f77b4; }
    .barrier { stroke: #d62728; stroke-width: 2; }
    .focal-line { stroke: #9467bd; stroke-width: 2; }
    .universal-line { stroke: #8c564b; stroke-width: 2; }
    .partition { stroke: #7f7f7f; stroke-dasharray: 4 3; }
    .lady-path { stroke: #1f77b4; stroke-width: 1.5; }
    .man-path { stroke: #ff7f0e; stroke-width: 1.5; }
    .lake { fill: none; stroke: #333333; }
    .start-marker { fill: none; stroke: #333333; }
  </style>
"""


def _svg_document(body: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_W}" height="{SVG_H}" viewBox="0 0 {SVG_W} {SVG_H}">\n'
    )
    return head + _SVG_STYLE + "\n".join(body) + "\n</svg>\n"


def _polyline(points: list[tuple[float, float]], cls: str) -> str:
    pts = " ".join([_POINT % p for p in points])
    return f'  <polyline class="{cls}" points="{pts}" />'


def parse_strategy(side: str, text: str) -> StrategySpec:
    """Strategy mini-language: eq | constant:W | switching:T | fixed:C,S |
    perturbed:D."""
    if text == "eq":
        return StrategySpec.equilibrium(side)
    kind, sep, arg = text.partition(":")
    try:
        if kind == "constant" and sep:
            return StrategySpec.constant_omega(float(arg))
        if kind == "switching" and sep:
            return StrategySpec.switching_omega(float(arg))
        if kind == "fixed" and sep:
            c, s = (float(v) for v in arg.split(","))
            return StrategySpec.fixed_heading(c, s)
        if kind == "perturbed" and sep:
            return StrategySpec.perturbed(float(arg))
    except ValueError as exc:
        raise DomainError(f"bad strategy argument in {text!r}: {exc}") from exc
    raise DomainError(f"unknown strategy spec {text!r}")


def cmd_solve(args: argparse.Namespace) -> int:
    params = GameParams(args.mu)
    state = canonicalize(args.r, args.theta)
    adv = advise(state, params, omega_now=args.omega_now)
    out = {
        "region": adv.region.value,
        "cos_psi": adv.controls.cos_psi,
        "sin_psi": adv.controls.sin_psi,
        "omega": adv.controls.omega,
        "omega_arbitrary": adv.controls.omega_arbitrary,
        "value": adv.value,
        "value_kind": adv.value_kind.value,
        "entry": None,
    }
    if adv.entry is not None:
        out["entry"] = {
            "s": adv.entry.s,
            "case": adv.entry.case.value,
            "t_L": adv.entry.t_lady,
            "t_M": adv.entry.t_man,
        }
    print(json.dumps(out, indent=2))
    return 0


def cmd_critical_mu(args: argparse.Namespace) -> int:
    print(json.dumps({"critical_mu": classical.critical_mu()}, indent=2))
    return 0


def _classical_trajectory(theta0: float, params: GameParams, n: int) -> list[tuple[float, float]]:
    """n samples of classical.path_segment from (mu, theta0), evenly spaced
    in time; the last one is exactly on the shore."""
    seg = classical.path_segment(0.0, params.mu, theta0, params)
    return [seg.state(seg.t1 * (k / (n - 1)))[:2] for k in range(n)]


def _below_barrier(samples, params: GameParams) -> list[tuple[float, float]]:
    """Leading flowfield samples that stay in the lake and below the barrier."""
    pts = []
    for smp in samples:
        # Allow a rounding ulp past theta = pi at the focal-line entry point.
        if smp.r >= 1.0 or not -params.tol_event <= smp.theta <= _PI + params.tol_event:
            break
        theta = min(max(smp.theta, 0.0), _PI)
        if smp.r >= params.mu and theta > classical.barrier_theta(smp.r, params):
            break
        pts.append((smp.r, theta))
    return pts


def _flowfield_paths(game: str, params: GameParams, n_s: int, n_ul: int, n_pts: int):
    """(class, points) pairs for one flowfield figure."""
    mu = params.mu
    paths: list[tuple[str, list[tuple[float, float]]]] = []
    # The barrier is the classical equilibrium path through the antipodal point.
    barrier = _classical_trajectory(_PI, params, n_pts)
    if game == "classical":
        for k in range(1, n_s + 1):
            theta0 = _PI * k / n_s
            paths.append(("Classical", _classical_trajectory(theta0, params, n_pts)))
        paths.append(("barrier", barrier))
        return paths
    lo, hi = 0.02 * mu, 0.999 * mu
    for k in range(n_s):
        s = lo * (hi / lo) ** (k / (n_s - 1))
        taus = itertools.accumulate([4.0 / n_pts] * (2 * n_pts - 1), initial=0.0)
        pts = _below_barrier((focal.flowfield_sample(s, tau, params) for tau in taus), params)
        if len(pts) >= 2:
            paths.append(("FocalTributary", pts))
    for k in range(n_ul):
        r_exit = 0.9 * k / n_ul
        taus = (_PI * j / (n_pts - 1) for j in range(n_pts))
        pts = _below_barrier((universal.flowfield_sample(tau, params, r_exit) for tau in taus), params)
        if len(pts) >= 2:
            paths.append(("UniversalTributary", pts))
    paths.append(("focal-line", [(params.eps_r, _PI), (mu, _PI)]))
    paths.append(("universal-line", [(0.0, 0.0), (1.0, 0.0)]))
    paths.append(("partition", [(0.0, 0.0), (mu * _PI, _PI)]))
    paths.append(("barrier", barrier))
    return paths


def cmd_flowfield(args: argparse.Namespace) -> int:
    params = GameParams(args.mu)
    if args.samples < 2 or args.s_grid < 2 or args.ul_grid < 0:
        raise DomainError("--samples and --s-grid must be at least 2, --ul-grid at least 0")
    paths = _flowfield_paths(args.game, params, args.s_grid, args.ul_grid, args.samples)
    if args.out.endswith(".svg"):
        body = []
        for cls, pts in paths:
            body.append(_polyline([polar_to_px(r, th) for r, th in pts], cls))
        text = _svg_document(body)
    else:
        buf = io.StringIO()
        buf.write("trajectory,kind,r,theta\n")
        for idx, (cls, pts) in enumerate(paths):
            row = f"{idx},{cls},{_POINT}\n"
            buf.write("".join([row % p for p in pts]))
        text = buf.getvalue()
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0


def _trajectory_csv(traj, cart) -> str:
    rows = zip(traj.t, traj.r, traj.theta, cart, traj.cos_psi, traj.sin_psi, traj.omega)
    return "".join([
        "t,r,theta,x_L,y_L,x_M,y_M,cos_psi,sin_psi,omega\n",
        *[_TRAJECTORY_ROW % (t, r, th, *xy, c, s, w) for t, r, th, xy, c, s, w in rows],
        *[f"# event,{_fmt(t)},{kind}\n" for t, kind in traj.events],
    ])


def _simulate_svg(cart) -> str:
    lady = [cart_to_px(x, y) for x, y, _, _ in cart]
    man = [cart_to_px(xm, ym) for _, _, xm, ym in cart]
    cx, cy = cart_to_px(0.0, 0.0)
    rim, _ = cart_to_px(1.0, 0.0)
    body = [
        f'  <circle class="lake" cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(rim - cx)}" />',
        _polyline(lady, "lady-path"),
        _polyline(man, "man-path"),
    ]
    for x, y in (lady[0], man[0]):
        body.append(
            f'  <circle class="start-marker" cx="{_fmt(x)}" cy="{_fmt(y)}" r="5" />'
        )
    return _svg_document(body)


def cmd_simulate(args: argparse.Namespace) -> int:
    params = GameParams(args.mu)
    state = canonicalize(args.r0, args.theta0)
    lady = parse_strategy("lady", args.lady)
    man = parse_strategy("man", args.man)
    traj = simulate(state, lady, man, dt=args.dt, t_max=args.t_max, params=params)
    cart = traj.cartesian()
    csv_text = _trajectory_csv(traj, cart)
    if args.out is None:
        sys.stdout.write(csv_text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    if args.svg is not None:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(_simulate_svg(cart))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    params = GameParams(args.mu)
    mu = params.mu
    tol, tol_barrier = 1e-3, 1e-10  # the HJI and saddle threshold, then the barrier's
    hji = verify.hji_sweep(params, args.grid, args.grid)
    barrier = verify.barrier_sweep(params, 1000)
    starts = [
        PolarState(0.5 * mu, 2.8),
        PolarState(0.5 * mu, min(0.4, 0.8 * 0.5)),
        PolarState(min(1.5 * mu, 0.9), 2.0),
    ]
    saddle = []
    saddle_pass = True
    for st in starts:
        t_eq, rows = deviation_report(st, params, dt=args.dt)
        saddle.append(
            {"r": st.r, "theta": st.theta, "t_eq": t_eq, "rows": [asdict(row) for row in rows]}
        )
        saddle_pass &= all(row.margin >= -tol for row in rows)
    report = {
        "mu": mu,
        "hji": {**asdict(hji), "threshold": tol, "pass": hji.max_abs_residual < tol},
        "barrier": {
            "max_abs_residual": barrier,
            "threshold": tol_barrier,
            "pass": barrier < tol_barrier,
        },
        "saddle": {"starts": saddle, "threshold": tol, "pass": saddle_pass},
    }
    report["pass"] = (
        report["hji"]["pass"] and report["barrier"]["pass"] and saddle_pass
    )
    print(json.dumps(report, indent=2))
    return 0 if report["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ladylake",
        description="Lady-in-the-lake differential game solver",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="equilibrium controls and value at a state")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--omega-now", type=float, default=1.0,
                   help="M's current turn rate (used only on the focal line)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("flowfield", help="equilibrium flowfield figure or CSV")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--game", choices=("classical", "time"), default="time")
    p.add_argument("--s-grid", type=int, default=20)
    p.add_argument("--ul-grid", type=int, default=10)
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--out", required=True, help=".svg or .csv path")
    p.set_defaults(func=cmd_flowfield)

    p = sub.add_parser("simulate", help="closed-loop simulation to CSV/SVG")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--r0", type=float, required=True)
    p.add_argument("--theta0", type=float, required=True)
    p.add_argument("--lady", default="eq",
                   help="eq | fixed:C,S | perturbed:D")
    p.add_argument("--man", default="eq",
                   help="eq | constant:W | switching:T")
    p.add_argument("--dt", type=float, default=1e-4,
                   help="record spacing; the run itself does not depend on it")
    p.add_argument("--t-max", type=float, default=20.0)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.add_argument("--svg", default=None, help="optional Cartesian SVG path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run verification sweeps, emit JSON report")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--grid", type=int, default=50)
    p.add_argument("--dt", type=float, default=1e-3,
                   help="kept for compatibility: the deviation runs record only at events, "
                        "and their rows do not depend on it; must be finite and positive")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("critical-mu", help="critical speed ratio")
    p.set_defaults(func=cmd_critical_mu)
    # argparse's own pattern reads "-0.001" as a number but "-1e-3" as an option.
    for parser in (ap, *sub.choices.values()):
        parser._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (LakeGameError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
