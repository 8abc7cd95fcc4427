"""Closed-form segments sample whole columns: each kind's state(ts) must equal,
with ==, the per-time form it replaced, kept here as the oracle."""
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from ladylake import classical, focal, solution, universal
from ladylake.model import GameParams, NoRootError, classical_drift


def universal_at(t0, r0, th0, on_line, params):
    mu, om = params.mu, 0.0 if on_line else 1.0
    t1 = t0 + (r0 / mu if on_line else th0)

    def state(t):
        tau = min(max(t, t0), t1) - t0
        r, th = r0 - mu * tau, th0 - om * tau
        if t >= t1:
            r, th = (0.0, th) if on_line else (r, 0.0)
        return r, th, -1.0, 0.0

    return state


def classical_at(t0, r0, th0, params):
    mu = params.mu
    u0, v = math.sqrt(max(0.0, r0 * r0 - mu * mu)), th0 + classical_drift(r0, mu)
    t1 = t0 if r0 >= 1.0 - params.tol_event else t0 + (math.sqrt(1.0 - mu * mu) - u0) / mu

    def state(t):
        r = r0 if t <= t0 else 1.0 if t >= t1 else math.hypot(mu, u0 + mu * (t - t0))
        th = th0 if t <= t0 else v - classical_drift(r, mu)
        sin_psi = mu / r
        return r, th, math.sqrt(max(0.0, 1.0 - sin_psi * sin_psi)), sin_psi

    return state


def tributary_at(t0, r0, th0, params):
    mu = params.mu
    s, case = focal.entry_root(r0, th0, params)
    a = s * s / mu
    leg_r, leg_s, _, _ = focal._legs(r0, s, mu)
    d0 = -leg_r if case is focal.EntryCase.ONE else leg_r
    t1, phi0 = t0 + (leg_s - d0) / mu, math.atan2(d0, a)

    def state(t):
        if t <= t0:
            return r0, th0, d0 / r0, a / r0
        if t >= t1:
            return s, math.pi, leg_s / s, a / s
        d = d0 + mu * (t - t0)
        r = math.hypot(a, d)
        return r, th0 - (t - t0) + math.atan2(d, a) - phi0, d / r, a / r

    return state


def line_at(t0, r0, th0, omega, params):
    mu, w = params.mu, abs(omega(t0))
    phi0, phi1 = math.asin(min(1.0, w * r0 / mu)), math.asin(w)
    t1 = t0 if mu - r0 <= params.tol_event else t0 + ((phi1 - phi0) / w if w else (mu - r0) / mu)

    def state(t):
        if w and t0 < t < t1:
            phi = phi1 - w * (t1 - t)
            sin_phi = math.sin(phi)
            return mu / w * sin_phi, th0, math.cos(phi), math.copysign(sin_phi, omega(t))
        r = r0 if t <= t0 else mu if t >= t1 else r0 + mu * (t - t0)
        sin_psi = min(1.0, max(-1.0, omega(t) * r / mu))
        return r, th0, math.sqrt(max(0.0, 1.0 - sin_psi * sin_psi)), sin_psi

    return state


mus = st.floats(0.05, 0.95)
# A grid point is t0, t1 or a fraction of the way from t0 to t1, a quarter
# of the span either side included; an empty or one-point grid is drawn too.
points = st.lists(st.one_of(st.just("t0"), st.just("t1"), st.floats(-0.25, 1.25)), max_size=40)


def grid(seg, drawn):
    t0, t1 = seg.t0, seg.t1
    return sorted(t0 if p == "t0" else t1 if p == "t1" else t0 + p * (t1 - t0) for p in drawn)


def assert_columns(seg, reference, ts):
    columns = seg.state(ts)
    assert len(columns) == 4
    assert all(type(col) is list and len(col) == len(ts) for col in columns)
    assert columns == tuple([reference(t)[i] for t in ts] for i in range(4))


class TestSegmentColumns:
    @settings(max_examples=200, deadline=None)
    @given(mu=mus, t0=st.floats(0.0, 3.0), x=st.floats(0.001, 1.0), y=st.floats(0.0, 1.0),
           on_line=st.booleans(), drawn=points)
    def test_universal(self, mu, t0, x, y, on_line, drawn):
        params = GameParams(mu)
        r0 = x * mu
        th0 = 0.0 if on_line else y * r0 / mu
        seg = universal.path_segment(t0, r0, th0, on_line, params)
        assert_columns(seg, universal_at(t0, r0, th0, on_line, params), grid(seg, drawn))

    @settings(max_examples=200, deadline=None)
    @given(mu=mus, t0=st.floats(0.0, 3.0), x=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
           th0=st.floats(0.0, math.pi), drawn=points)
    def test_classical(self, mu, t0, x, th0, drawn):
        # x = 1 starts on the shore, where the segment is the point t0 = t1.
        params = GameParams(mu)
        r0 = mu + x * (1.0 - mu)
        seg = classical.path_segment(t0, r0, th0, params)
        assert_columns(seg, classical_at(t0, r0, th0, params), grid(seg, drawn))

    @settings(max_examples=200, deadline=None)
    @given(mu=mus, t0=st.floats(0.0, 3.0), r0=st.floats(0.001, 0.999), th0=st.floats(0.0, math.pi),
           drawn=points)
    def test_focal_tributary(self, mu, t0, r0, th0, drawn):
        params = GameParams(mu)
        assume(solution.region_of(r0, th0, params) is solution.Region.FOCAL_TRIBUTARY)
        try:
            reference = tributary_at(t0, r0, th0, params)
        except NoRootError:
            assume(False)
        seg, _ = focal.tributary_segment(t0, r0, th0, params)
        assert_columns(seg, reference, grid(seg, drawn))

    @settings(max_examples=200, deadline=None)
    @given(mu=mus, t0=st.floats(0.0, 3.0), x=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
           w=st.one_of(st.just(0.0), st.just(1.0), st.floats(-1.0, 1.0)),
           period=st.one_of(st.none(), st.floats(0.05, 1.0)), drawn=points)
    def test_focal_line(self, mu, t0, x, w, period, drawn):
        # A constant man, w = 0 included, or the switching man, whose rate
        # changes sign along the segment.
        params = GameParams(mu)
        r0 = x * mu
        if period is None:
            def omega(t):
                return w
        else:
            def omega(t):
                return 1.0 if int(t / period) % 2 == 0 else -1.0
        seg = focal.line_segment(t0, r0, math.pi, omega, params)
        assert_columns(seg, line_at(t0, r0, math.pi, omega, params), grid(seg, drawn))
        if period is None:  # a rate that holds, given as a float, is read at no record
            seg = focal.line_segment(t0, r0, math.pi, w, params)
            assert_columns(seg, line_at(t0, r0, math.pi, omega, params), grid(seg, drawn))
            assert seg.omega(t0) == w

    @pytest.mark.parametrize("ts", [[], ["t0"], ["t1"], ["t0", "t0", "t1", "t1"]], ids=str)
    def test_empty_one_point_and_repeated_end_grids(self, ts):
        params = GameParams(0.3)
        for seg, reference in (
            (universal.path_segment(0.5, 0.15, 0.3, False, params), universal_at(0.5, 0.15, 0.3, False, params)),
            (classical.path_segment(0.5, 0.5, 2.8, params), classical_at(0.5, 0.5, 2.8, params)),
            (focal.tributary_segment(0.5, 0.2, 1.0, params)[0], tributary_at(0.5, 0.2, 1.0, params)),
            (focal.line_segment(0.5, 0.15, math.pi, lambda t: 1.0, params),
             line_at(0.5, 0.15, math.pi, lambda t: 1.0, params)),
        ):
            assert_columns(seg, reference, grid(seg, ts))
