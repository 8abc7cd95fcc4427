import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad

from ladylake import classical, focal
from ladylake.model import DomainError, GameParams, PolarState, RegionError
from ladylake.solution import Region, advise, classify, region_of

MU = 0.3


@pytest.fixture
def params():
    return GameParams(MU)


class TestFlControl:
    def test_reactive_heading(self, params):
        c = focal.fl_control(PolarState(0.15, math.pi), 1.0, params)
        assert c.sin_psi == pytest.approx(0.5)
        assert c.cos_psi == pytest.approx(math.sqrt(3) / 2)

    def test_endpoint_is_antipodal(self, params):
        c = focal.fl_control(PolarState(MU, math.pi), 1.0, params)
        assert c.sin_psi == 1.0
        assert c.cos_psi == pytest.approx(0.0, abs=1e-12)

    def test_mirrored_man(self, params):
        c = focal.fl_control(PolarState(0.15, math.pi), -1.0, params)
        assert c.sin_psi == pytest.approx(-0.5)
        assert c.cos_psi > 0.0

    def test_off_line_rejected(self, params):
        with pytest.raises(RegionError):
            focal.fl_control(PolarState(0.15, 3.0), 1.0, params)

    def test_outside_radius_rejected(self, params):
        with pytest.raises(DomainError):
            focal.fl_control(PolarState(0.5, math.pi), 1.0, params)

    def test_nan_rate_rejected(self, params):
        with pytest.raises(DomainError):
            focal.fl_control(PolarState(0.15, math.pi), math.nan, params)

    @pytest.mark.parametrize("r, theta, omega_now", [(0.9, 3.0, math.nan), (0.05, 2.5, 7.0), (0.1, 0.2, math.inf)],
                             ids=["above_barrier", "focal_tributary", "universal_tributary"])
    def test_bad_rate_rejected_off_the_line(self, params, r, theta, omega_now):
        with pytest.raises(DomainError):
            advise(PolarState(r, theta), params, omega_now=omega_now)


class TestTimeOnFocalLine:
    def test_endpoints(self, params):
        assert focal.time_on_focal_line(MU, params) == pytest.approx(0.0, abs=1e-12)
        assert focal.time_on_focal_line(0.0, params) == pytest.approx(math.pi / 2)

    def test_closed_form_at_half_mu(self, params):
        assert focal.time_on_focal_line(0.15, params) == pytest.approx(math.pi / 3)

    def test_quadrature_oracle(self, params):
        # Independent oracle: integrate dr/dt = sqrt(mu^2 - r^2) along the
        # line (theta held by the reactive control) from s to mu.
        for s in (0.05, 0.15, 0.25):
            oracle, _ = quad(
                lambda r: 1.0 / math.sqrt(MU * MU - r * r), s, MU
            )
            assert focal.time_on_focal_line(s, params) == pytest.approx(
                oracle, abs=1e-9
            )

    def test_domain(self, params):
        with pytest.raises(DomainError):
            focal.time_on_focal_line(0.5, params)


class TestTributaryHeading:
    def test_matches_fl_control_at_entry(self, params):
        # Tangential merge: at r = s the tributary heading equals the
        # on-line reactive control.
        c = focal.tributary_heading(
            PolarState(0.15, 3.0), 0.15, focal.EntryCase.TWO, params
        )
        assert c.sin_psi == pytest.approx(0.5)
        assert c.cos_psi == pytest.approx(math.sqrt(3) / 2)

    def test_tangency_point(self, params):
        c = focal.tributary_heading(
            PolarState(0.075, 3.0), 0.15, focal.EntryCase.ONE, params
        )
        assert c.sin_psi == 1.0
        assert c.cos_psi == pytest.approx(0.0, abs=1e-12)

    def test_pre_tangent_sign(self, params):
        c = focal.tributary_heading(
            PolarState(0.5, 2.0), 0.15, focal.EntryCase.ONE, params
        )
        assert c.sin_psi == pytest.approx(0.15)
        assert c.cos_psi == pytest.approx(-math.sqrt(1 - 0.0225))

    def test_under_tangency_circle_rejected(self, params):
        with pytest.raises(DomainError):
            focal.tributary_heading(
                PolarState(0.05, 2.0), 0.15, focal.EntryCase.ONE, params
            )

    @pytest.mark.parametrize("s", [0.0, -0.1, 2 * MU])
    def test_entry_radius_outside_range_rejected(self, params, s):
        with pytest.raises(DomainError, match=r"^entry radius must lie in \(0, mu\], got "):
            focal.tributary_heading(PolarState(0.5, 2.0), s, focal.EntryCase.ONE, params)
        with pytest.raises(DomainError, match=r"^entry radius must lie in \(0, mu\], got "):
            focal.tangency_time(s, params)


class TestFlowfield:
    def test_entry_point(self, params):
        smp = focal.flowfield_sample(0.2, 0.0, params)
        assert smp.r == pytest.approx(0.2, abs=1e-15)
        assert smp.theta == pytest.approx(math.pi, abs=1e-12)

    def test_tangency_radius_at_tau_bar(self, params):
        for s in (0.05, 0.15, 0.25):
            tau_bar = focal.tangency_time(s, params)
            smp = focal.flowfield_sample(s, tau_bar, params)
            assert smp.r == pytest.approx(s * s / MU, abs=1e-12)

    def test_closest_approach_is_minimum(self, params):
        s = 0.15
        a = s * s / MU
        for tau in np.linspace(0.0, 1.5, 200):
            assert focal.flowfield_sample(s, tau, params).r >= a - 1e-12

    def test_small_s_limit_parallels_partition(self, params):
        # As s -> 0 the tributary degenerates to a line of slope 1/mu in
        # (r, theta), parallel to the partition.
        s = 1e-6
        p1 = focal.flowfield_sample(s, 0.5, params)
        p2 = focal.flowfield_sample(s, 0.6, params)
        slope = (p2.theta - p1.theta) / (p2.r - p1.r)
        assert slope == pytest.approx(1.0 / MU, abs=1e-3)

    def test_retrograde_ode_oracle(self, params):
        # Independent oracle: RK4 on the retrograde equilibrium dynamics.
        for s in (0.05, 0.15, 0.25):
            worst = _flowfield_vs_rk4(s, params)
            assert worst < 1e-6

    def test_domain(self, params):
        with pytest.raises(DomainError):
            focal.flowfield_sample(0.0, 0.1, params)
        with pytest.raises(DomainError):
            focal.flowfield_sample(0.15, -0.1, params)


def _flowfield_vs_rk4(s, params, tau_end=2.0, dtau=1e-3):
    """Max |closed form - RK4| over tau in [0, tau_end].

    The retrograde radial rate is +-(mu/r)sqrt(r^2 - s^4/mu^2) with the
    sign flipping at the tangency time; writing the signed square root as
    mu*tau - sqrt(s^2 - s^4/mu^2) resolves the sign algebraically and
    leaves a smooth right-hand side that RK4 integrates through the
    tangency without degeneracy.
    """
    mu = params.mu
    u0 = math.sqrt(s * s - s**4 / (mu * mu))

    def deriv(tau, r, theta):
        return mu * (mu * tau - u0) / r, 1.0 - s * s / (r * r)

    r, theta = float(s), math.pi
    n = int(round(tau_end / dtau))
    h = tau_end / n
    tau = 0.0
    worst = 0.0
    for _ in range(n):
        k1 = deriv(tau, r, theta)
        k2 = deriv(tau + 0.5 * h, r + 0.5 * h * k1[0], theta + 0.5 * h * k1[1])
        k3 = deriv(tau + 0.5 * h, r + 0.5 * h * k2[0], theta + 0.5 * h * k2[1])
        k4 = deriv(tau + h, r + h * k3[0], theta + h * k3[1])
        r += h / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        theta += h / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        tau += h
        smp = focal.flowfield_sample(s, tau, params)
        worst = max(worst, abs(smp.r - r), abs(smp.theta - theta))
    return worst


class TestArrivalTimes:
    # (t_lady, t_man) by focal._times on focal._legs; entry_delta is their mismatch.
    def test_degenerate_on_line(self):
        t_lady, t_man = focal._times(focal._legs(0.1, 0.1, MU), math.pi, focal.EntryCase.TWO, MU)
        assert t_lady == pytest.approx(0.0, abs=1e-12)
        assert t_man == pytest.approx(0.0, abs=1e-12)

    def test_cartesian_geometry_oracle(self):
        # Independent oracle: L's straight path is tangent to the circle
        # of radius s^2/mu, length = difference/sum of the two tangent
        # legs; M walks the matching arc at unit speed.
        r, theta, s = 0.05, 2.0, 0.12
        a = s * s / MU
        leg_from_r = math.sqrt(r * r - a * a)
        leg_from_s = math.sqrt(s * s - a * a)
        t_lady, t_man = focal._times(focal._legs(r, s, MU), theta, focal.EntryCase.ONE, MU)
        assert t_lady == pytest.approx((leg_from_r + leg_from_s) / MU, abs=1e-12)
        arc = theta + math.acos(a / r) + math.acos(s / MU) - math.pi
        assert t_man == pytest.approx(arc, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(mu=st.floats(0.01, 0.99), u=st.floats(1e-6, 1.0), theta=st.floats(0.0, math.pi),
           case=st.sampled_from(focal.EntryCase),
           at=st.one_of(st.sampled_from(["0", "r", "s_hi", "mu"]), st.floats(0.0, 1.0)))
    def test_kernel_is_the_composed_formula(self, mu, u, theta, case, at):
        # _newton's Delta equals t_lady - t_man of _times on _legs with ==, and
        # both raise at the same states: s from 0 to mu, r and s_hi included.
        r = u * mu * 1.2
        s_hi = min(mu, math.sqrt(mu * r))
        s = {"0": 0.0, "r": r, "s_hi": s_hi, "mu": mu}.get(at) if isinstance(at, str) else at * mu

        def outcome(f):
            try:
                return f()
            except ValueError as exc:  # DomainError, or math's own domain error
                return type(exc)

        def composed():
            t_lady, t_man = focal._times(focal._legs(r, s, mu), theta, case, mu)
            return t_lady - t_man

        assert outcome(lambda: focal._newton(r, theta, s, case, mu)[0]) == outcome(composed)

    def test_case_two_requires_s_at_least_r(self, params):
        with pytest.raises(DomainError):
            focal.entry_delta(PolarState(0.2, 2.0), 0.1, focal.EntryCase.TWO, params)

    def test_delta_continuous_on_grid(self, params):
        state = PolarState(0.05, 2.0)
        s_hi = min(MU, math.sqrt(MU * state.r))
        grid = np.linspace(1e-6, s_hi, 4096)
        vals = [
            focal.entry_delta(state, s, focal.EntryCase.ONE, params) for s in grid
        ]
        assert all(math.isfinite(v) for v in vals)
        # No jumps beyond what the square-root endpoint behavior allows.
        jumps = np.abs(np.diff(vals))
        assert jumps.max() < 0.05


class TestSolveEntry:
    def test_golden_state(self, params):
        # Golden value frozen from the grid+bisection oracle.
        ent = focal.solve_entry(PolarState(0.05, 2.5), params)
        assert ent.s == pytest.approx(0.12159414598912888, abs=1e-9)
        assert ent.case is focal.EntryCase.TWO
        assert ent.total_time == pytest.approx(1.4958944900512612, abs=1e-9)

    def test_time_mismatch_vanishes(self, params):
        ent = focal.solve_entry(PolarState(0.5, 2.0), params)
        assert abs(ent.t_lady - ent.t_man) < 1e-9

    def test_on_line_degenerate(self, params):
        ent = focal.solve_entry(PolarState(0.1, math.pi), params)
        assert ent.case is focal.EntryCase.TWO
        assert ent.s == pytest.approx(0.1, abs=1e-9)
        assert ent.t_lady == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("mu", [0.1, 0.3, 0.9])
    def test_partition_enters_at_zero(self, mu):
        # On theta = r/mu the proof's Delta_1(0) = r/mu - theta is 0.0, the
        # scan's first grid value, so that end, s = 0, is returned as it is.
        params = GameParams(mu)
        for r in (0.25 * mu, 0.5 * mu, 0.8 * mu):
            ent = focal.solve_entry(PolarState(r, r / mu), params)
            assert ent.s == 0.0 and ent.case is focal.EntryCase.ONE

    def test_below_eps_r_rejected(self, params):
        with pytest.raises(DomainError, match=r"^r = 5e-10 below cutoff 1e-09$"):
            focal.solve_entry(PolarState(0.5 * params.eps_r, 2.0), params)

    def test_no_root_outside_region(self, params):
        # Universal-tributary states have no focal-line entry.
        with pytest.raises(focal.NoRootError):
            focal.solve_entry(PolarState(0.8, 1.0), params)
        # r >= mu empties the picked case's bracket, so entry_root raises too.
        with pytest.raises(focal.NoRootError):
            focal.entry_root(0.8, 1.0, params)

    @settings(max_examples=40, deadline=None)
    @given(
        s0=st.floats(0.02, 0.29),
        tau=st.floats(0.01, 2.0),
    )
    def test_round_trip(self, s0, tau):
        # Generate a state from a known entry radius, then re-solve.
        params = GameParams(MU)
        smp = focal.flowfield_sample(s0, tau, params)
        if smp.r >= 1.0 or not 1e-4 < smp.theta < math.pi - 1e-9:
            return
        if smp.theta <= smp.r / MU:
            return
        ent = focal.solve_entry(PolarState(smp.r, smp.theta), params)
        assert ent.s == pytest.approx(s0, abs=1e-6)

    @staticmethod
    def scanned(monkeypatch, state, params):
        """solve_entry's answer, NoRootError's type if it raises, and the case
        of each _scan_case call it makes."""
        calls, scan = [], focal._scan_case
        monkeypatch.setattr(focal, "_scan_case", lambda *a: calls.append(a[4]) or scan(*a))
        try:
            return focal.solve_entry(state, params), calls
        except focal.NoRootError as exc:
            return type(exc), calls
        finally:
            monkeypatch.setattr(focal, "_scan_case", scan)

    @pytest.mark.parametrize("r,theta,case", [
        (0.2, 1.0, focal.EntryCase.ONE), (0.2, 2.0, focal.EntryCase.ONE), (0.25, 3.0, focal.EntryCase.ONE),
        (0.1, 2.85, focal.EntryCase.TWO), (0.05, 2.5, focal.EntryCase.TWO), (0.2, 3.0, focal.EntryCase.TWO),
    ])
    def test_one_scan_in_the_picked_case(self, params, monkeypatch, r, theta, case):
        # The sign of Delta_1(s_hi) picks the case before any scan, so a
        # case-Two state no longer scans case One first.
        entry, calls = self.scanned(monkeypatch, PolarState(r, theta), params)
        assert calls == [case] and entry.case is case

    @pytest.mark.parametrize("mu,r,theta", [
        (0.99, 0.7345729053600155, 3.046334281945336),
        (0.6, 0.4673468402230951, 3.067054638011287),
    ])
    def test_one_scan_on_switch(self, monkeypatch, mu, r, theta):
        # On the case switch the kernel's Delta_1(s_hi) rounds below 0 here
        # (-3.9e-16 and -1.1e-16; +1.4e-16 and +4.6e-16 at 50 digits), so case
        # Two is picked and scanned alone, its bracket ending at that value.
        params = GameParams(mu)
        entry, calls = self.scanned(monkeypatch, PolarState(r, theta), params)
        assert calls == [focal.EntryCase.TWO] and entry.case is focal.EntryCase.TWO
        s, case = focal.entry_root(r, theta, params)
        assert case is focal.EntryCase.TWO and entry.s == pytest.approx(s, abs=1e-12)

    @staticmethod
    def picked(r, theta, params):
        """entry_root's pick: case One where that case has a root."""
        one = focal.entry_root(r, theta, params, focal.EntryCase.ONE) is not None
        return focal.EntryCase.ONE if one else focal.EntryCase.TWO

    def test_case_is_entry_roots_pick(self, monkeypatch):
        # Seeded tributary states, and states on the case switch s = s_hi: a
        # tributary's tangency point.  Only the picked case is scanned, and the
        # answer is in it, on the switch too, where Delta at s_hi carries a
        # rounding of about 1e-8 that the pick's one value hides.
        rng = random.Random(28)
        away = switch = 0
        while away < 200 or switch < 100:
            params = GameParams(rng.uniform(0.01, 0.99))
            s = params.mu * rng.uniform(0.02, 1.0)
            tau_bar = focal.tangency_time(s, params)
            on_switch = switch < 100 and rng.random() < 0.5
            tau = tau_bar if on_switch else rng.uniform(0.0, 3.0 * tau_bar + 0.5)
            smp = focal.flowfield_sample(s, tau, params)
            if not (params.eps_r < smp.r < 1.0 and 0.0 < smp.theta < math.pi):
                continue
            if region_of(smp.r, smp.theta, params) is not Region.FOCAL_TRIBUTARY:
                continue
            switch += on_switch
            away += not on_switch
            pick = self.picked(smp.r, smp.theta, params)
            entry, calls = self.scanned(monkeypatch, PolarState(smp.r, smp.theta), params)
            assert calls == [pick] and entry.case is pick
            assert focal.entry_root(smp.r, smp.theta, params)[1] is pick

    def test_tangency_points_answer(self):
        # Seeded tangency points r = s^2/mu and points 1e-9 to 1e-7 of
        # tau_bar off them, where Delta_1(s_hi) and Delta_2(s_hi) once
        # differed by about 1e-8 and neither solver found a root.
        rng = random.Random(29)
        points = []
        for _ in range(300):
            params = GameParams(rng.uniform(0.01, 0.99))
            points.append((params, params.mu * rng.uniform(0.02, 1.0)))
        for d in (0.0, 1e-9, -1e-9, 1e-8, -1e-8, 1e-7, -1e-7):
            for params, s in points:
                smp = focal.flowfield_sample(s, focal.tangency_time(s, params) * (1.0 + d), params)
                assert region_of(smp.r, smp.theta, params) is Region.FOCAL_TRIBUTARY
                adv = advise(PolarState(smp.r, smp.theta), params)
                s_root, _ = focal.entry_root(smp.r, smp.theta, params)
                assert adv.entry.s == pytest.approx(s_root, abs=1e-12), (params.mu, smp, d)

    def test_total_time_composition(self, params):
        ent = focal.solve_entry(PolarState(0.2, 1.0), params)
        assert ent.total_time == pytest.approx(
            focal.time_on_focal_line(ent.s, params) + ent.t_lady, abs=1e-12
        )


class TestNonCrossing:
    def test_flowfield_stays_above_partition(self, params):
        # Tributaries never dip below theta = r/mu before shore exit.
        for k in range(1, 101):
            s = MU * k / 101
            for tau in np.linspace(0.0, 2.0, 100):
                smp = focal.flowfield_sample(s, tau, params)
                if smp.r >= 1.0 or smp.theta <= 0.0:
                    break
                assert smp.theta >= smp.r / MU - 1e-9


class TestEntryMismatchMonotone:
    """The sign pattern that makes each entry case's root unique.

    The derivative proof is in solve_entry's docstring; these checks hold
    it to the implementation over the whole mu range.
    """

    @settings(max_examples=200, deadline=None)
    @given(
        mu=st.floats(0.01, 0.99),
        u=st.floats(1e-3, 1.0),
        v=st.floats(0.01, 0.99),
    )
    def test_case_sign_pattern(self, mu, u, v):
        params = GameParams(mu)
        r = u * min(0.99, 2.5 * mu)
        theta_hi = math.pi if r < mu else classical.barrier_theta(r, params)
        assume(r / mu < theta_hi)
        state = PolarState(r, r / mu + v * (theta_hi - r / mu))
        assume(classify(state, params) is Region.FOCAL_TRIBUTARY)
        one, two = focal.EntryCase.ONE, focal.EntryCase.TWO
        s_hi = min(mu, math.sqrt(mu * r))

        d1 = [focal.entry_delta(state, s, one, params) for s in np.linspace(0.0, s_hi, 64)]
        assert np.all(np.diff(d1) > 0.0)
        assert d1[0] == pytest.approx(r / mu - state.theta, abs=1e-12)
        if r < s_hi:
            d2 = [focal.entry_delta(state, s, two, params) for s in np.linspace(r, s_hi, 64)]
            assert np.all(np.diff(d2) <= 1e-12)
            assert d2[0] == pytest.approx(math.pi - state.theta, abs=1e-9)
            # The tangent leg vanishes at s_hi = sqrt(mu r); rounding leaves
            # a square root of an ulp in it, hence the loose tolerance.
            assert d1[-1] == pytest.approx(d2[-1], abs=1e-6)
        entry = focal.solve_entry(state, params)
        assert (entry.case is one) == (d1[-1] >= 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        mu=st.floats(0.01, 0.99),
        u=st.floats(1e-3, 1.0),
        v=st.floats(0.01, 0.99),
        w=st.floats(0.0, 1.0),
    )
    # Case Two with the hint at s_hi, where the slope is infinite, so a short
    # Newton step there lies far from the root.
    @example(mu=0.03125, u=0.025390625, v=0.65625, w=0.0)
    def test_entry_root_matches_scan(self, mu, u, v, w):
        # The states of test_case_sign_pattern; solve_entry's scan is the reference.
        params = GameParams(mu)
        r = u * min(0.99, 2.5 * mu)
        theta_hi = math.pi if r < mu else classical.barrier_theta(r, params)
        assume(r / mu < theta_hi)
        state = PolarState(r, r / mu + v * (theta_hi - r / mu))
        assume(classify(state, params) is Region.FOCAL_TRIBUTARY)
        entry = focal.solve_entry(state, params)
        s, case = focal.entry_root(state.r, state.theta, params)
        assert case is entry.case
        assert s == pytest.approx(entry.s, abs=1e-10)
        lo = 0.0 if case is focal.EntryCase.ONE else state.r
        s_hi = min(mu, math.sqrt(mu * state.r))
        for hint in (lo, s_hi, lo + w * (s_hi - lo)):
            s_h, case_h = focal.entry_root(state.r, state.theta, params, case, hint)
            assert case_h is case
            assert s_h == pytest.approx(entry.s, abs=1e-10)
        other = focal.EntryCase.TWO if case is focal.EntryCase.ONE else focal.EntryCase.ONE
        assert focal.entry_root(state.r, state.theta, params, other) is None


class TestEntryTrack:
    """The stage corrector either returns entry_root's radius or declines.

    States lie on seeded tributaries (flowfield_sample at retrograde time tau
    from an entry radius s), and each hint is the root displaced by 1e-6 to
    1e-3, the size of an RK4 step's change at dt = 1e-3."""

    DT = 1e-3

    @staticmethod
    def tau_of(kind, tau_bar, rng):
        if kind == "anywhere":
            return rng.uniform(0.0, 3.0 * tau_bar + 0.5)
        if kind == "near_tangency":  # r close to s^2/mu, on either side of the turn
            return tau_bar * (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-9.0, -2.0))
        return tau_bar * 10.0 ** rng.uniform(-9.0, -2.0)  # near_entry: case Two with s close to r

    @pytest.mark.parametrize("kind,seed", [("anywhere", 1), ("near_tangency", 2), ("near_entry", 3)])
    def test_matches_entry_root_or_declines(self, kind, seed):
        rng = random.Random(seed)
        accepted = declined = 0
        while accepted + declined < 1000:
            params = GameParams(rng.uniform(0.05, 0.95))
            s = params.mu * rng.uniform(0.02, 1.0)
            smp = focal.flowfield_sample(s, self.tau_of(kind, focal.tangency_time(s, params), rng), params)
            if not (params.eps_r < smp.r < 1.0 and 0.0 < smp.theta < math.pi):
                continue
            if region_of(smp.r, smp.theta, params) is not Region.FOCAL_TRIBUTARY:
                continue
            for case in focal.EntryCase:
                ref = focal.entry_root(smp.r, smp.theta, params, case)
                shift = rng.choice((-1.0, 1.0)) * self.DT * 10.0 ** rng.uniform(-3.0, 0.0)
                got = focal.entry_track(smp.r, smp.theta, params, case, (ref[0] if ref else s) + shift)
                # A case with no root (the other side of the turn) must decline.
                if ref is None or got is None:
                    assert got is None, (kind, params.mu, smp, case)
                    declined += ref is not None
                    continue
                accepted += 1
                assert got[1] is case
                assert got[0] == pytest.approx(ref[0], abs=1e-10), (kind, params.mu, smp, case)
        # Away from the tangency circle most hints converge.
        assert accepted > (700 if kind == "anywhere" else 0)


class TestEntryRootCasePick:
    """entry_root with no case evaluates Delta_1(s_hi) to pick the case.  The
    cases meet at s_hi, so either case reuses that pair as its bracket end, and
    the pick costs nothing over a solve given the case."""

    @staticmethod
    def solve_counted(monkeypatch, r, theta, params, case=None, seen=None):
        calls, newton = [], focal._newton
        monkeypatch.setattr(focal, "_newton", lambda *a: calls.append(a) or newton(*a))
        try:
            return focal.entry_root(r, theta, params, case, None, seen), len(calls)
        finally:
            monkeypatch.setattr(focal, "_newton", newton)

    @pytest.mark.parametrize("r,theta,case", [
        (0.2, 1.0, focal.EntryCase.ONE), (0.2, 2.0, focal.EntryCase.ONE), (0.25, 3.0, focal.EntryCase.ONE),
        (0.1, 2.85, focal.EntryCase.TWO), (0.05, 2.5, focal.EntryCase.TWO), (0.2, 3.0, focal.EntryCase.TWO),
    ])
    def test_pick_adds_one_evaluation_only_for_case_two(self, params, monkeypatch, r, theta, case):
        picked, n_picked = self.solve_counted(monkeypatch, r, theta, params)
        given, n_given = self.solve_counted(monkeypatch, r, theta, params, case)
        assert picked == given and picked[1] is case
        assert n_picked == n_given

    def test_callers_pairs_are_not_written(self, params, monkeypatch):
        # A pair left in the caller's dict would serve a later case-Two lookup at the same radius.
        seen = {0.5: (1.0, 0.5)}
        picked, _ = self.solve_counted(monkeypatch, 0.2, 1.0, params, seen=seen)
        assert picked[1] is focal.EntryCase.ONE and seen == {0.5: (1.0, 0.5)}

