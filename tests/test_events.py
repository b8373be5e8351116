"""Unit tests for event detection, closed-form event times and the
cavity phase diagram."""

import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

from entransfer import _roots, errors
from entransfer import events as events_module
from entransfer.amplitudes import SystemParams, exact_squares
from entransfer.errors import ConfigError
from entransfer.events import (
    ESB,
    ESD,
    ESR,
    cavity_boundary,
    cavity_entangled_intervals,
    cavity_phase,
    concurrence_series,
    dead_window,
    detect_events,
    esb_time_strong,
    phase_diagram,
    weak_event_times,
)
from entransfer.jointstate import (
    DIAGONAL_PAIRS,
    PAIR_LABELS,
    InitialAmplitudes,
    lambda_minus,
    pair_concurrence,
)

P_STRONG = SystemParams.from_geff(5.0)
P_WEAK = SystemParams.from_geff(0.1)
SAME_CHAIN = tuple(pair for pair in PAIR_LABELS if pair[1] == pair[3])
DIFFERENT_CHAINS = tuple(pair for pair in PAIR_LABELS if pair[1] != pair[3])


def lam_at(pair, t, init, p):
    idx = ("a1a2", "c1c2", "r1r2").index(pair)
    return lambda_minus(pair, exact_squares(t, p)[idx], init)


class TestClosedFormTimes:
    def test_strong_esb_examples(self):
        assert esb_time_strong(InitialAmplitudes.from_ratio(1.5)) == pytest.approx(
            2.0 * np.log(1.5), rel=1e-12)
        assert esb_time_strong(InitialAmplitudes.from_ratio(3.0)) == pytest.approx(
            2.0 * np.log(3.0), rel=1e-12)
        assert esb_time_strong(InitialAmplitudes.from_ratio(1.0)) == 0.0

    def test_strong_esb_rejects_alpha_dominant(self):
        with pytest.raises(ValueError):
            esb_time_strong(InitialAmplitudes.from_ratio(0.5))
        with pytest.raises(ValueError, match="never crosses"):
            esb_time_strong(InitialAmplitudes(alpha=0.0, beta=1.0))

    def test_weak_times_beta_3alpha(self):
        init = InitialAmplitudes.from_ratio(3.0)
        wt = weak_event_times(init, gamma=0.1)
        assert wt.t_esd == pytest.approx(25.0 * np.log(1.5))
        assert wt.t_esb == pytest.approx(25.0 * np.log(3.0))
        assert wt.window == pytest.approx(25.0 * np.log(2.0))

    def test_weak_window_closes_at_beta_2alpha(self):
        wt = weak_event_times(InitialAmplitudes.from_ratio(2.0), gamma=0.1)
        assert wt.window is None
        wt = weak_event_times(InitialAmplitudes.from_ratio(2.0 + 1e-9), gamma=0.1)
        assert wt.window == pytest.approx(0.0, abs=1e-6)

    def test_weak_times_reject_bad_inputs(self):
        init = InitialAmplitudes.from_ratio(3.0)
        for gamma in (0.0, -0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="gamma"):
                weak_event_times(init, gamma=gamma)
        with pytest.raises(ValueError, match="alpha = 0"):
            weak_event_times(InitialAmplitudes(alpha=0.0, beta=1.0), gamma=0.1)
        with pytest.raises(ValueError, match="beta > alpha"):
            weak_event_times(InitialAmplitudes.from_ratio(1.0), gamma=0.1)

    def test_weak_times_scale_with_gamma(self):
        init = InitialAmplitudes.from_ratio(3.0)
        a = weak_event_times(init, gamma=0.1)
        b = weak_event_times(init, gamma=0.05)
        assert b.t_esd == pytest.approx(4.0 * a.t_esd)
        assert b.t_esb == pytest.approx(4.0 * a.t_esb)


class TestDetectEvents:
    def test_roots_are_zeros_of_lambda(self):
        init = InitialAmplitudes.from_ratio(1.5)
        for pair in ("a1a2", "c1c2", "r1r2"):
            for ev in detect_events(pair, init, P_STRONG, 3.0):
                if ev.time > 0.0:
                    assert abs(lam_at(pair, ev.time, init, P_STRONG)) < 1e-8

    def test_event_kinds_alternate(self):
        init = InitialAmplitudes.from_ratio(1.5)
        events = detect_events("a1a2", init, P_STRONG, 3.0)
        kinds = [ev.kind for ev in events]
        assert kinds[0] == ESD
        for prev, cur in zip(kinds, kinds[1:]):
            assert {prev, cur} in ({ESD, ESR}, {ESD, ESB})

    def test_cavity_pair_born_entangled(self):
        # alpha > beta: the cavity pair entangles immediately after t = 0
        init = InitialAmplitudes.from_ratio(0.5)
        events = detect_events("c1c2", init, P_STRONG, 3.0)
        assert events[0].kind == ESB and events[0].time == 0.0

    def test_reservoir_esb_near_prediction(self):
        # ~8% deviation of the detected root from the leading-order
        # prediction at g_eff = 5 kappa, beta = 1.5 alpha (measured)
        init = InitialAmplitudes.from_ratio(1.5)
        events = detect_events("r1r2", init, P_STRONG, 3.0)
        births = [ev for ev in events if ev.kind == ESB]
        assert len(births) == 1
        predict = esb_time_strong(init)
        assert abs(births[0].time - predict) / predict < 0.10

    def test_prediction_improves_with_coupling(self):
        init = InitialAmplitudes.from_ratio(1.5)
        p20 = SystemParams.from_geff(20.0)
        births = [ev for ev in detect_events("r1r2", init, p20, 3.0)
                  if ev.kind == ESB]
        predict = esb_time_strong(init)
        assert abs(births[0].time - predict) / predict < 0.05

    def test_no_events_without_superposition(self):
        init = InitialAmplitudes(alpha=1.0, beta=0.0)
        for pair in ("a1a2", "c1c2", "r1r2"):
            assert detect_events(pair, init, P_STRONG, 3.0) == []

    @pytest.mark.parametrize("horizon", [np.nan, np.inf, -np.inf, 0.0])
    def test_bad_horizon_rejected(self, horizon):
        init = InitialAmplitudes.from_ratio(1.5)
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            detect_events("a1a2", init, P_STRONG, horizon)

    @pytest.mark.parametrize("pair, p, horizon", [
        ("a1a2", P_STRONG, 1e307), ("a1a2", P_STRONG, None),
        # at kappa = 0 and beta = 2 alpha the a1c2 margin touches 0 at every
        # peak of |E|^2 |G|^2, and each touch is cut down to 1e-8: about 19
        # times the points of the dense grid, whose size check passes here
        ("a1c2", SystemParams.from_geff(30.0, kappa=0.0), 150.0),
    ], ids=["1e307", "past_memory", "split_points"])
    def test_huge_horizon_rejected_before_allocating(self, pair, p, horizon, monkeypatch):
        # a machine with 64 MiB, so that a missing guard would allocate little
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 16384}
        monkeypatch.setattr(errors.os, "sysconf", pages.__getitem__)
        init = InitialAmplitudes.from_ratio(2.0)
        if horizon is None:
            # the default grid just past 64 MiB, and one just inside
            period = 2.0 * np.pi / p.omega_bar.real
            fits = 64 * 2**20 / events_module.GRID_POINT_BYTES - 1.0
            horizon = 1.01 * fits * period / events_module.POINTS_PER_PERIOD
            detect_events(pair, init, p, horizon / 1.02)
        elif pair != "a1a2":
            events_module._detection_cells(p, horizon)
        with pytest.raises(ConfigError, match=re.escape(f"on horizon {horizon:g} needs")):
            detect_events(pair, init, p, horizon)

    def test_a1a2_esd_in_first_grid_cell(self):
        # a1a2 starts at lambda = -alpha beta, and for beta / alpha = 1e6
        # its ESD (|E|^2 = 1 - alpha / beta) comes at t ~ 2e-4, inside the
        # first of 2000 cells on [0, 3]; at 1e9 it comes at t ~ 6.3e-6,
        # where beta^2 - alpha^2 - beta^2 s would have lost 1 - |E|^2
        for ratio in (1e6, 1e9):
            init = InitialAmplitudes.from_ratio(ratio)
            events = detect_events("a1a2", init, P_STRONG, 3.0)
            assert [ev.kind for ev in events] == [ESD]
            assert 0.0 < events[0].time < 3.0 / 2000
            assert events[0].time == pytest.approx(0.2 / np.sqrt(ratio), rel=1e-3)
            assert abs(lam_at("a1a2", events[0].time, init, P_STRONG)) < 1e-8
            assert lam_at("a1a2", 0.5 * events[0].time, init, P_STRONG) < 0.0

    def test_cross_pair_born_and_dead_in_first_grid_cell(self):
        # a1c2 has C(0) = 0 and is entangled just after, while
        # beta^2 (1 - |E|^2) < alpha^2: until g_eff t ~ alpha / beta, here
        # t ~ 1e-3, inside the first of 2000 cells on [0, 30]
        init = InitialAmplitudes.from_ratio(1e4)
        events = detect_events("a1c2", init, P_WEAK, 30.0)
        assert [(ev.kind, ev.time) for ev in events[:1]] == [(ESB, 0.0)]
        assert [ev.kind for ev in events[1:]] == [ESD]
        assert events[1].time == pytest.approx(1e-3, rel=1e-3)
        c = concurrence_series("a1c2", init, P_WEAK, np.array([0.5, 1.0]) * events[1].time)
        assert c[0] > 0.0 and c[1] < 2e-8

    def test_root_where_g_rounds_to_one_sign(self):
        # beta - alpha = 3.3e-16: a1c2 dies where
        # |E|^2 + |G|^2 - |E|^2 |G|^2 = (beta^2 - alpha^2) / beta^2 ~ 9e-16, at
        # t ~ 69, where beta sqrt(q) - alpha has rounded to one sign on both
        # sides of the root and only the margin still brackets it
        init = InitialAmplitudes.from_ratio(1.0 + 4.4e-16)
        events = detect_events("a1c2", init, P_STRONG, 800.0)
        assert [ev.kind for ev in events] == [ESB, ESD]
        e2, g2, _ = exact_squares(events[1].time, P_STRONG)
        a, b = init.alpha, init.beta
        assert e2 + g2 - e2 * g2 == pytest.approx((b - a) * (b + a) / b**2, rel=1e-6)

    @pytest.mark.parametrize("k", [0, -545, -1000])
    @pytest.mark.parametrize("pair, g_eff, kappa, ratio, horizon, expected", [
        ("a1c2", 12.583154755782562, 1.0, 1.6821989422104262, 32.23938776228566,
         [(ESB, 0.0), (ESD, 0.4272785471), (ESR, 0.4508546712), (ESD, 0.5468251122),
          (ESR, 0.5819381853), (ESD, 0.656965999), (ESR, 0.7241120493),
          (ESD, 0.7741390545), (ESR, 0.8681476196), (ESD, 0.8732213051)]),
        ("a1c2", 13.31916133988106, 1.0, 4.194230474098405, 12.622618867406935,
         [(ESB, 0.0), (ESD, 0.0186847432), (ESR, 0.1149563166), (ESD, 0.1177954852)]),
        ("a1r2", 5.4973923151212, 0.5, 3.7053193456774802, 89.25110447470547,
         [(ESB, 0.0), (ESD, 0.0498284293), (ESR, 10.1804076634), (ESD, 10.4760053323),
          (ESR, 10.4832527072)]),
    ])
    def test_mixed_pair_crossings_closer_than_a_grid_cell(self, pair, g_eff, kappa, ratio,
                                                          horizon, expected, k):
        # the last ESR and ESD lie closer than one cell of a grid of 40 points
        # per Rabi period; the expected times are a grid of 32 times as many.
        # Rates times s = 2^k and the horizon over s give the same list; the
        # curvature bound (beta (g_eff + kappa) h)^2 underflowed to 0 from
        # k ~ -543 on, and no lattice cell was cut.  Delta = 1 keeps g_eff
        # Delta normal
        s = 2.0**k
        p = SystemParams.from_geff(s * g_eff, kappa=s * kappa, Delta=1.0)
        events = detect_events(pair, InitialAmplitudes.from_ratio(ratio), p, horizon / s)
        assert [ev.kind for ev in events] == [kind for kind, _ in expected]
        assert [ev.time * s for ev in events] == pytest.approx([t for _, t in expected],
                                                               abs=1e-8)

    def test_touch_of_zero_is_no_event(self):
        # at kappa = 0 and beta = 2 alpha the a1c2 margin is
        # -beta^2 (|E|^2 - |G|^2)^2 / 4, which touches 0 at the midpoint of
        # lattice cells that are cut in 16; kappa = 1e-6 lifts each touch
        # into two crossings (a grid of 5e-8 steps finds the same 38 on [0, 1])
        init = InitialAmplitudes.from_ratio(2.0)
        events = detect_events("a1c2", init, SystemParams.from_geff(30.0, kappa=0.0), 60.0)
        assert [(ev.kind, ev.time) for ev in events] == [(ESB, 0.0)]
        events = detect_events("a1c2", init, SystemParams.from_geff(30.0, kappa=1e-6), 1.0)
        assert [ev.kind for ev in events] == [ESB] + [ESD, ESR] * 19
        assert [ev.time for ev in events[1:5]] == pytest.approx(
            [0.0261783, 0.02618155, 0.07853465, 0.07854495], abs=1e-7)

    def test_interacting_pair_rejected(self):
        init = InitialAmplitudes.from_ratio(1.5)
        for pair in SAME_CHAIN:
            with pytest.raises(ValueError, match="different chains"):
                detect_events(pair, init, P_STRONG, 3.0)
        for pair in DIFFERENT_CHAINS:
            detect_events(pair, init, P_STRONG, 3.0)

    @pytest.mark.parametrize("ratio", [1.0, 0.5])
    def test_no_false_esd_when_rounding_or_underflow_flattens_lambda(self, ratio):
        # a1a2 is entangled at every finite time here: from t ~ 63 on,
        # 1 - |E|^2 rounds to 1 (beta (1 - |E|^2) - alpha = 0 at ratio 1),
        # and from t ~ 1476 on beta |E|^2 (...) underflows to 0 (ratio 0.5)
        init = InitialAmplitudes.from_ratio(ratio)
        assert detect_events("a1a2", init, P_STRONG, 4000.0) == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("p, horizon", [
        (SystemParams.from_geff(5.0, kappa=1e150), 1.0),   # cosh overflows, the damping underflows
        (SystemParams.from_geff(0.01), 3000.0),            # overdamped past kappa t ~ 2840
    ])
    def test_non_finite_amplitudes_rejected(self, p, horizon):
        # NaN squares compare false with 0 and once read as an ESB at t = 0
        init = InitialAmplitudes.from_ratio(1.5)
        for pair in ("a1c2", "a1a2"):
            with pytest.raises(ValueError, match="not finite"):
                detect_events(pair, init, p, horizon)
        with pytest.raises(ValueError, match="not finite"):
            dead_window(init, p, horizon)

    def test_a1a2_starts_entangled_where_alpha_squared_underflows(self):
        # at beta / alpha = 1e200, alpha^2 = 1e-400 rounds to 0, and the
        # margin beta^2 q - alpha^2 at t = 0 read -0.0: not entangled
        init = InitialAmplitudes.from_ratio(1e200)
        events = detect_events("a1a2", init, P_STRONG, 3.0)
        assert [ev.kind for ev in events] == [ESD] and events[0].time < 1e-7
        t_start, t_end = dead_window(init, P_STRONG, 3.0)
        assert t_start < 1e-7 and t_end == 3.0


def log_uniform(lo, hi):
    return st.floats(np.log(lo), np.log(hi)).map(np.exp)


class TestDetectEventsProperties:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(gamma=log_uniform(0.05, 5.0), ratio=log_uniform(1e-3, 1e6),
           horizon=log_uniform(1.0, 60.0), pair=st.sampled_from(DIFFERENT_CHAINS))
    def test_events_split_time_into_signed_intervals(self, gamma, ratio,
                                                     horizon, pair):
        p = SystemParams.from_geff(gamma)
        init = InitialAmplitudes.from_ratio(ratio)
        events = detect_events(pair, init, p, horizon)
        conc = lambda t: concurrence_series(pair, init, p, np.array([t]))[0]

        def holds(lo, hi, entangled):
            mid = 0.5 * (lo + hi)
            x2, y2 = (exact_squares(mid, p)["acr".index(pair[k])] for k in (0, 2))
            # near t = 0, R^2 ~ t^3 can round to 0 and leave C = 0 with no sign
            return hi == lo or x2 * y2 == 0.0 or (conc(mid) > 0.0) == entangled

        # a1a2 starts entangled (alpha beta > 0); every other pair holds a
        # cavity or a reservoir, which starts empty
        entangled = ever = pair == "a1a2"
        t_prev = 0.0
        for ev in events:
            assert ev.kind == (ESD if entangled else ESR if ever else ESB)
            assert t_prev <= ev.time and holds(t_prev, ev.time, entangled)
            if ev.time > 0.0:
                assert conc(ev.time) < 2e-8
            entangled, ever, t_prev = not entangled, True, ev.time
        assert holds(t_prev, horizon, entangled)


class TestLattice:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(g_eff=log_uniform(0.01, 20.0), kappa=st.sampled_from([0.0, 1.0, 2.0]),
           horizon=log_uniform(1.0, 60.0))
    @example(g_eff=0.25, kappa=1.0, horizon=60.0)      # critical damping, gamma = 1/4
    @example(g_eff=0.5, kappa=2.0, horizon=60.0)
    @example(g_eff=5.0, kappa=0.0, horizon=10.0)
    def test_squares_monotone_between_neighbours(self, g_eff, kappa, horizon):
        p = SystemParams.from_geff(g_eff, kappa=kappa, Delta=1e6)
        ts, squares = events_module._lattice(p, horizon)
        assert ts[0] == 0.0 and ts[-1] == horizon and np.all(np.diff(ts) > 0.0)
        assert np.array_equal(squares, exact_squares(ts, p))
        # 40 samples in each cell, both neighbours included
        s = ts[:-1, None] + np.diff(ts)[:, None] * np.linspace(0.0, 1.0, 40)
        e2, g2, r2 = (x.reshape(s.shape) for x in exact_squares(s.ravel(), p))
        tol = 1e-13
        for x2 in (e2, g2):
            step = np.diff(x2, axis=1)
            assert np.all(np.all(step >= -tol, axis=1) | np.all(step <= tol, axis=1))
        assert np.all(np.diff(r2, axis=1) >= -tol)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(g_eff=log_uniform(0.01, 30.0), kappa=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
           ratio=st.one_of(log_uniform(0.2, 20.0), st.floats(1.0, 1.01)),
           horizon=log_uniform(1.0, 60.0), pair=st.sampled_from(DIFFERENT_CHAINS))
    @example(g_eff=12.583154755782562, kappa=1.0, ratio=1.6821989422104262,
             horizon=32.23938776228566, pair="a1c2")
    @example(g_eff=0.0772967532473333, kappa=0.0, ratio=2.0, horizon=36.0, pair="a1c2")
    def test_margin_changes_sign_once_in_split_cells(self, g_eff, kappa, ratio, horizon, pair):
        p, init = SystemParams.from_geff(g_eff, kappa=kappa), InitialAmplitudes.from_ratio(ratio)
        ts, squares = events_module._split_opposed(pair, init, p, horizon,
                                                   *events_module._lattice(p, horizon))
        assert np.all(np.diff(ts) > 0.0)
        assert np.array_equal(squares, exact_squares(ts, p))
        wide = np.diff(ts) > 1e-8 + _roots.RTOL * ts[1:]
        # 40 samples in each cell wider than brentq's tolerance, both ends included
        s = ts[:-1][wide, None] + np.diff(ts)[wide, None] * np.linspace(0.0, 1.0, 40)
        margin = events_module._cross_margin(pair, init, exact_squares(s, p))[0]
        # where the margin touches 0 (the second example) it reads either sign
        # within rounding of 0
        signed = np.abs(margin) > events_module._margin_rounding(init)
        assert all(np.sum(np.diff(m[k] < 0.0)) <= 1 for m, k in zip(margin, signed))


def union_grid_events(pair, init, p, horizon):
    """[(kind, time)] of a diagonal pair from the whole detection grid joined
    with the lattice, read and refined as ``detect_events`` reads and
    refines its filled lattice."""
    cells = events_module._detection_cells(p, horizon)
    grid = np.union1d(np.linspace(0.0, horizon, cells + 1),
                      events_module._lattice(p, horizon)[0])
    squares = exact_squares(grid, p)
    g = events_module._cross_pair(pair, init, squares)
    margin, live = events_module._cross_margin(pair, init, squares)
    born, live[0] = not live[0] and live[1:].any(), init.beta > 0.0
    live[1:] &= np.abs(margin[1:]) > events_module._margin_rounding(init)
    live = np.flatnonzero(live)
    entangled = margin[live] < 0.0
    g_at = lambda t: events_module._cross_pair(pair, init, exact_squares(t, p))
    margin_at = lambda t: events_module._cross_margin(pair, init, exact_squares(t, p))[0]
    ever = entangled[:1].any()
    found = [(ESB, 0.0)] if born and ever else []
    for k in np.flatnonzero(entangled[:-1] != entangled[1:]):
        lo, hi = live[k], live[k + 1]
        f = g_at if np.sign(g[lo]) * np.sign(g[hi]) < 0.0 else margin_at
        found.append((ESD if entangled[k] else ESR if ever else ESB,
                      _roots.brentq(f, grid[lo], grid[hi], xtol=1e-8)))
        ever = True
    return found


class TestFilledLattice:
    @pytest.mark.parametrize("seed", [31, 32])
    def test_events_equal_the_whole_grid(self, seed):
        # the detection grid is read only where the lattice cannot sign a
        # span; the brackets, and so every time, are those of the whole grid
        rng = np.random.default_rng(seed)
        n_events = 0
        for _ in range(100):
            g_eff = np.exp(rng.uniform(np.log(0.01), np.log(50.0)))
            kappa = rng.choice([0.0, 0.5, 1.0, 2.0])
            ratio = rng.choice([1.0 + 10.0 ** rng.uniform(-15.0, -1.0),
                                1.0 - 10.0 ** rng.uniform(-15.0, -1.0),
                                np.exp(rng.uniform(np.log(1e-3), np.log(1e9)))])
            horizon = np.exp(rng.uniform(np.log(0.01), np.log(400.0)))
            pair = rng.choice(DIAGONAL_PAIRS)
            p = SystemParams.from_geff(g_eff, kappa=kappa)
            init = InitialAmplitudes.from_ratio(ratio)
            found = [(ev.kind, ev.time.hex()) for ev in detect_events(pair, init, p, horizon)]
            expected = union_grid_events(pair, init, p, horizon)
            assert found == [(kind, t.hex()) for kind, t in expected], (g_eff, kappa, ratio,
                                                                        horizon, pair)
            n_events += len(found)
        assert n_events > 200

    def test_unsigned_point_between_points_signed_alike(self):
        # |E|^2 rounds to 0 at the lattice zero of E near t = 12.557, so that
        # point is dead although the margin there is beta^2 - alpha^2 > 0;
        # its spans hold an ESD and an ESR that the lattice alone misses
        p = SystemParams.from_geff(0.6677902682358862, kappa=2.0)
        init = InitialAmplitudes.from_ratio(1.0000000010569488)
        horizon = 21.66315796931774
        ts = events_module._lattice(p, horizon)[0]
        zero = ts[np.argmin(np.abs(ts - 12.557273))]
        assert exact_squares(zero, p)[0] == 0.0
        found = detect_events("a1a2", init, p, horizon)
        assert [ev.kind for ev in found] == [ESD, ESR] * 2 + [ESD]
        assert [ev.time for ev in found[2:4]] == pytest.approx([12.5316512158, 12.5835686671],
                                                               abs=1e-9)
        assert [(ev.kind, ev.time.hex()) for ev in found] == [
            (kind, t.hex()) for kind, t in union_grid_events("a1a2", init, p, horizon)]

    @pytest.mark.parametrize("seed", [33])
    def test_filled_squares_are_those_of_its_times(self, seed):
        # _filled keeps the lattice's squares and evaluates only the points it
        # adds: the merged squares must be exact_squares of the merged times
        rng = np.random.default_rng(seed)
        added = 0
        for _ in range(40):
            p = SystemParams.from_geff(np.exp(rng.uniform(np.log(0.01), np.log(50.0))),
                                       kappa=rng.choice([0.0, 0.5, 1.0, 2.0]))
            horizon = rng.choice([np.exp(rng.uniform(np.log(0.01), np.log(400.0))), 5e-322])
            lattice = events_module._lattice(p, horizon)
            live = rng.random(lattice[0].size) < 0.5
            read = (np.zeros(live.size, bool),) * 2 + (live,)
            signs = lambda s: (s[0] < s[1], s[1] < s[2], s[0] > 0.5)
            ts, squares, merged = events_module._filled(p, horizon, signs,
                                                        events_module._detection_cells(p, horizon),
                                                        *lattice, read)
            assert np.all(np.diff(ts) > 0.0) and set(lattice[0]) <= set(ts)
            assert np.array_equal(squares, exact_squares(ts, p))
            # the lattice's points keep what they read, the added ones their signs
            at = np.searchsorted(ts, lattice[0])
            added_at = np.ones(ts.size, bool)
            added_at[at] = False
            assert all(np.array_equal(m[at], r) for m, r in zip(merged, read))
            assert all(np.array_equal(m[added_at], a)
                       for m, a in zip(merged, signs(squares[:, added_at])))
            added += ts.size - lattice[0].size
        assert added > 10000

    def test_each_point_read_once(self, monkeypatch):
        # a diagonal pair reads the margin on the lattice, then only on the
        # grid points that _filled adds, never again on the merged grid
        p, init, horizon = SystemParams.from_geff(5.0), InitialAmplitudes.from_ratio(7.08), 10.0
        lattice = events_module._lattice(p, horizon)[0]
        cells = events_module._detection_cells(p, horizon)
        grid = np.linspace(0.0, horizon, cells + 1)
        merged = []
        filled = events_module._filled
        monkeypatch.setattr(events_module, "_filled", lambda *a: merged.append(filled(*a))
                            or merged[-1])
        read = []
        margin = events_module._cross_margin
        monkeypatch.setattr(events_module, "_cross_margin", lambda pair, init, squares:
                            read.append(np.size(squares[0])) or margin(pair, init, squares))
        # brentq's scalar reads come after the array reads
        found = detect_events("c1c2", init, p, horizon)
        assert found and len(merged) == 1
        added = merged[0][0].size - lattice.size
        assert 0 < added and set(merged[0][0]) - set(lattice) <= set(grid)
        assert read[:2] == [lattice.size, added] and read[2:] == [1] * len(read[2:])

    @pytest.mark.parametrize("horizon", [5e-322, 4e-321])
    def test_grid_step_below_the_float_range(self, horizon):
        # horizon / cells underflows to 0, and linspace's points are
        # (i / cells) horizon, several of them equal
        p = SystemParams.from_geff(1e300, kappa=1e299, Delta=1.0)
        assert horizon / events_module._detection_cells(p, horizon) == 0.0
        for ratio in (1.0, 0.5):
            init = InitialAmplitudes.from_ratio(ratio)
            for pair in DIAGONAL_PAIRS:
                assert [(ev.kind, ev.time) for ev in detect_events(pair, init, p, horizon)] \
                    == union_grid_events(pair, init, p, horizon)


class TestConcurrenceSeries:
    def test_matches_brute_force(self):
        # the closed forms against partial trace + Wootters of the joint
        # state: overdamped, critical damping, underdamped
        init = InitialAmplitudes.from_ratio(1.5)
        for gamma, horizon in ((0.1, 60.0), (0.25, 20.0), (5.0, 2.0)):
            p = SystemParams.from_geff(gamma)
            grid = np.linspace(0.0, horizon, 21)
            for pair in PAIR_LABELS:
                series = concurrence_series(pair, init, p, grid)
                brute = [pair_concurrence(pair, t, init, p) for t in grid]
                assert np.max(np.abs(series - np.array(brute))) < 1e-12, (gamma, pair)

    def test_finite_where_a_square_rounds_above_one(self):
        # |E|^2 rounds to 1 + 4e-16 at a few per cent of these early times;
        # (1 - |E|^2)(1 - |G|^2) must not give NaN at the first of them
        p = SystemParams.from_geff(0.05)
        ts = np.linspace(1e-8, 1e-7, 2001)
        above = ts[exact_squares(ts, p)[0] > 1.0]
        assert above.size
        grid = np.array([0.0, above[0]])
        assert exact_squares(grid, p)[0][1] > 1.0
        init = InitialAmplitudes.from_ratio(1.5)
        for pair in ("a1c2", "a1r2", "a1a2"):
            assert np.all(np.isfinite(concurrence_series(pair, init, p, grid)))

    def test_rejects_bad_grid(self):
        init = InitialAmplitudes.from_ratio(1.5)
        with pytest.raises(ValueError):
            concurrence_series("a1a2", init, P_STRONG, np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="empty time grid"):
            concurrence_series("a1a2", init, P_STRONG, [])

    def test_unknown_pair_rejected(self):
        init = InitialAmplitudes.from_ratio(1.5)
        with pytest.raises(ValueError, match="unknown pair label 'a1b9'"):
            concurrence_series("a1b9", init, P_STRONG, [0.0, 1.0])
        # lambda_minus is the closed form of the three diagonal pairs only
        with pytest.raises(ValueError, match="no closed-form lambda for pair 'a1c2'"):
            lambda_minus("a1c2", 0.5, init)

    @pytest.mark.parametrize("grid", [[0.0, np.nan], [0.0, np.inf], [np.nan], [np.inf]])
    def test_rejects_non_finite_grid(self, grid):
        init = InitialAmplitudes.from_ratio(1.5)
        with pytest.raises(ValueError, match="grid must be finite"):
            concurrence_series("a1a2", init, P_STRONG, grid)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(gamma=st.floats(0.02, 20.0), ratio=st.floats(0.1, 10.0),
           ts=st.lists(st.floats(0.0, 60.0), min_size=1, max_size=400))
    def test_every_pair_between_zero_and_one(self, gamma, ratio, ts):
        p = SystemParams.from_geff(gamma, Delta=1e5)
        init = InitialAmplitudes.from_ratio(ratio)
        grid = np.unique(ts)
        for pair in PAIR_LABELS:
            c = concurrence_series(pair, init, p, grid)
            assert np.all((0.0 <= c) & (c <= 1.0)), pair


class TestCavityPhase:
    def test_boundary_matches_direct_scan(self):
        # boundary = min_t (1 - |G|^2), checked against a dense scan
        for gamma in (0.1, 0.25, 0.3):
            p = SystemParams.from_geff(gamma)
            ts = np.linspace(0.0, 100.0, 200001)
            scan = np.min(1.0 - exact_squares(ts, p)[1])
            assert cavity_boundary(gamma) == pytest.approx(scan, abs=1e-9)

    def test_verdicts(self):
        b = cavity_boundary(0.1)
        assert cavity_phase(0.1, min(0.999, b + 0.01)) == "entangled"
        assert cavity_phase(0.1, b - 0.01) == "unentangled"

    def test_boundary_decreases_with_coupling(self):
        # stronger coupling pushes more population through the cavity,
        # entangling it for smaller alpha / beta
        bs = [cavity_boundary(g) for g in (0.05, 0.1, 0.2, 0.5)]
        assert bs[0] > bs[1] > bs[2] > bs[3]

    @pytest.mark.parametrize("gamma", [1e-12, 1e-9, 3e-9])
    def test_below_double_resolution(self, gamma):
        # 4 nu / kappa rounds to 1, putting the peak time at inf; the peak,
        # of order gamma^2, rounds away against 1 there anyway
        assert cavity_boundary(gamma) == 1.0
        assert cavity_phase(gamma, 1.0 - 1e-15) == "unentangled"
        assert cavity_entangled_intervals(gamma, 1.0 - 1e-15) == []

    def test_entangled_intervals_consistent_with_verdict(self):
        assert cavity_entangled_intervals(0.1, 0.985)
        assert cavity_entangled_intervals(0.1, 0.95) == []

    @pytest.mark.parametrize("gamma, ratio, horizon", [
        (0.1, 0.985, 60.0),         # overdamped, ESD at 27.67
        (0.05, 0.995, 150.0),       # overdamped, ESD at 72.66
        (5.0, 1.0 - 1e-5, 40.0),    # underdamped, 37 intervals, last ESD at 22.99
        (0.25, 0.99, 60.0),         # critical damping, ESD at 14.31
    ])
    def test_entangled_intervals_reach_the_last_esd(self, gamma, ratio, horizon):
        # the first three end past 20 / kappa; at critical damping no
        # oscillation period sets the time scale
        p = SystemParams.from_geff(gamma)
        intervals = cavity_entangled_intervals(gamma, ratio)
        # one interval around each peak of |G|^2 above 1 - ratio; at
        # gamma = 5 the gap near t = pi / 5 is only ~0.0015 wide, which a
        # scan coarser than that merges into one interval
        assert len(intervals) == (37 if gamma == 5.0 else 1)
        for ends in intervals:
            for t in ends:
                assert abs((1.0 - exact_squares(t, p)[1]) - ratio) < 1e-9
        events = detect_events("c1c2", InitialAmplitudes.from_ratio(1.0 / ratio),
                               p, horizon)
        assert events[-1].kind == ESD
        # every ESB, ESD and ESR, not only the last ESD
        assert len(events) == 2 * len(intervals)
        assert np.allclose([ev.time for ev in events], np.ravel(intervals), rtol=0.0, atol=1e-8)

    def test_entangled_intervals_input_checks(self):
        for ratio in (0.0, 1.0, float("nan")):
            with pytest.raises(ValueError):
                cavity_entangled_intervals(0.1, ratio)
        # the ESD (near t = 3466) lies past kappa t ~ 2840, where the exact
        # amplitudes overflow: an error, not a truncated interval
        with pytest.raises(ValueError, match="finite"):
            cavity_entangled_intervals(0.01, 0.9999)

    def test_entangled_intervals_past_memory_rejected_before_allocating(self):
        # ~2.2e8 half periods to the last peak above 1 - ratio: 6.6e8 lattice
        # points, 5.3 GB per float array, inside a detection grid of 4.4e9 cells
        with pytest.raises(ConfigError, match=r"a detection grid of 4\.39772e\+09 cells "
                                              r"on horizon 69\.0792 needs about 563 GB"):
            cavity_entangled_intervals(1e7, 1.0 - 1e-15)

    @pytest.mark.parametrize("gamma, ratio, n_ends", [(30.0, 1.0 - 1e-12, 1056),
                                                      (100.0, 1.0 - 1e-9, 2638)])
    def test_entangled_interval_ends_match_40_digits(self, gamma, ratio, n_ends):
        # 1 - |G|^2 rounds to eps / 2 absolute where |G|^2 - (1 - ratio) is
        # 1e-12 or less, so (1 - |G|^2) - ratio put these ends off by up to
        # 8.4e-6 and 1.7e-9; 1 - ratio is exact, and so is (1 - ratio) - |G|^2
        # where it crosses 0
        p = SystemParams.from_geff(gamma)
        ends = np.ravel(cavity_entangled_intervals(gamma, ratio))
        assert ends.size == n_ends
        with mpmath.workdps(40):
            kappa, g_eff = mpmath.mpf(p.kappa), mpmath.mpf(p.g_eff)
            w, level = mpmath.sqrt(g_eff**2 - kappa**2 / 16), 1 - mpmath.mpf(ratio)
            f = lambda t: level - (g_eff * mpmath.sin(w * t) / w)**2 * mpmath.exp(-kappa * t / 2)
            roots = np.array([float(mpmath.findroot(f, (mpmath.mpf(t), mpmath.mpf(t) + 1e-12)))
                              for t in ends])
        assert np.all(np.abs(ends - roots) <= 1e-10 + 4.0 * np.finfo(float).eps * roots)

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(gamma=log_uniform(0.05, 10.0), gap=log_uniform(1e-6, 0.5))
    def test_entangled_intervals_match_a_dense_scan(self, gamma, gap):
        ratio = 1.0 - gap
        try:
            intervals = cavity_entangled_intervals(gamma, ratio)
        except ValueError as exc:
            if "finite" not in str(exc):
                raise
            reject()    # an ESD past kappa t ~ 2840, where the amplitudes overflow
        p = SystemParams.from_geff(gamma)
        f = lambda t: (1.0 - exact_squares(t, p)[1]) - ratio
        ends = np.ravel(intervals)
        assert np.all(np.diff(ends) > 0.0)
        assert np.all(np.abs(f(ends)) < 1e-9)
        ts, step = np.linspace(0.0, 1.1 * ends[-1] if intervals else 100.0,
                               200001, retstep=True)
        # inside an interval after an odd number of ends; the ends next to
        # ts are padded[i] and padded[i + 1]
        i = np.searchsorted(ends, ts)
        padded = np.concatenate(([-np.inf], ends, [np.inf]))
        near = np.minimum(ts - padded[i], padded[i + 1] - ts) <= step
        assert np.all(((f(ts) < 0.0) == (i % 2 == 1)) | near)

    @pytest.mark.parametrize("ratio", [0.0, 1.0, 1.5, -0.5, np.nan, np.inf])
    def test_ratio_outside_the_unit_interval_rejected(self, ratio):
        # one check serves all three: NaN is no verdict, and 1.5 no alpha / beta
        for call in (lambda: cavity_phase(0.1, ratio),
                     lambda: cavity_entangled_intervals(0.1, ratio),
                     lambda: phase_diagram([0.5], [0.9, ratio])):
            with pytest.raises(ValueError, match=re.escape("must lie in (0, 1)")):
                call()

    @pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan, np.inf])
    def test_gamma_rejected_by_name(self, gamma):
        for call in (lambda: cavity_boundary(gamma), lambda: phase_diagram([gamma], [0.9]),
                     lambda: cavity_entangled_intervals(gamma, 0.9)):
            with pytest.raises(ValueError, match="gamma must be positive and finite"):
                call()

    def test_empty_phase_diagram_rejected(self):
        for gammas, ratios in (([], [0.9]), ([0.5], [])):
            with pytest.raises(ValueError, match="empty grid"):
                phase_diagram(gammas, ratios)

    def test_phase_diagram_grid(self):
        gammas = np.array([0.05, 0.1, 0.3])
        ratios = np.array([0.9, 0.95, 0.99])
        d = phase_diagram(gammas, ratios)
        assert d.entangled.shape == (3, 3)
        for i in range(3):
            for j in range(3):
                assert d.entangled[i, j] == (ratios[j] > d.boundary[i])


class TestDeadWindow:
    def test_present_for_beta_3alpha(self):
        init = InitialAmplitudes.from_ratio(3.0)
        win = dead_window(init, P_WEAK, 60.0)
        assert win is not None
        lo, hi = win
        assert 0.0 < lo < hi < 60.0
        # strictly inside, every closed-form pair is unentangled
        mid = 0.5 * (lo + hi)
        for pair in ("a1a2", "c1c2", "r1r2"):
            assert lam_at(pair, mid, init, P_WEAK) >= 0.0

    def test_absent_below_threshold(self):
        init = InitialAmplitudes.from_ratio(1.9)
        assert dead_window(init, P_WEAK, 60.0) is None

    def test_absent_for_equal_amplitudes(self):
        init = InitialAmplitudes.from_ratio(1.0)
        assert dead_window(init, P_WEAK, 60.0) is None

    @pytest.mark.parametrize("horizon", [np.nan, np.inf, 0.0])
    def test_non_finite_horizon_rejected(self, horizon):
        # checked first, also where alpha beta = 0 leaves no window to find
        for init in (InitialAmplitudes.from_ratio(3.0), InitialAmplitudes(1.0, 0.0)):
            with pytest.raises(ValueError, match="horizon"):
                dead_window(init, P_WEAK, horizon)

    def test_absent_without_superposition(self):
        init = InitialAmplitudes(alpha=0.0, beta=1.0)
        assert dead_window(init, P_WEAK, 60.0) is None

    @pytest.mark.filterwarnings("error")
    def test_undamped_window_without_warnings(self):
        # at kappa = 0 the peak of |G|^2 is pi / 2w, not a quotient by kappa
        p = SystemParams.from_geff(5.0, kappa=0.0)
        lo, hi = dead_window(InitialAmplitudes.from_ratio(3.0), p, 60.0)
        assert lo == pytest.approx(0.1230959417, abs=1e-8)
        assert hi == pytest.approx(0.1910633236, abs=1e-8)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(gamma=log_uniform(0.05, 10.0), ratio=st.floats(2.01, 50.0),
           horizon=log_uniform(5.0, 80.0))
    def test_every_pair_on_different_chains_dead_inside(self, gamma, ratio,
                                                        horizon):
        # the window comes from a1a2, c1c2 and r1r2 alone; by the proof in
        # dead_window's docstring the six other pairs are dead there too
        p = SystemParams.from_geff(gamma)
        init = InitialAmplitudes.from_ratio(ratio)
        win = dead_window(init, p, horizon)
        if win is None:
            return
        ts = np.linspace(*win, 9)[1:-1]
        for pair in DIFFERENT_CHAINS:
            assert np.all(concurrence_series(pair, init, p, ts) == 0.0), pair

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(gamma=log_uniform(0.05, 10.0), ratio=log_uniform(1.01, 50.0),
           horizon=log_uniform(1.0, 60.0))
    @example(gamma=5.0, ratio=7.08, horizon=10.0)   # c1c2 entangled on [0.30432, 0.30476]
    def test_window_matches_a_dense_scan(self, gamma, ratio, horizon):
        p = SystemParams.from_geff(gamma)
        init = InitialAmplitudes.from_ratio(ratio)
        win = dead_window(init, p, horizon)
        ts, step = np.linspace(0.0, horizon, 20001, retstep=True)
        dead = np.all([concurrence_series(pair, init, p, ts) == 0.0
                       for pair in DIAGONAL_PAIRS], axis=0)
        if win is None:
            # no dead run longer than two scan steps
            assert not np.any(dead[1:-1] & dead[2:] & dead[:-2])
            return
        lo, hi = win
        # nothing entangled inside, but for the root tolerance at each end
        inner = (ts > lo + 2e-8) & (ts < hi - 2e-8)
        assert np.all(dead[inner])
        # every end is 0, the horizon or a root of a margin
        margin = lambda pair, t: events_module._cross_margin(pair, init, exact_squares(t, p))[0]
        tol = 1e-8 + 1e-15 * horizon
        for t in win:
            assert t in (0.0, horizon) or any(
                margin(pair, max(t - tol, 0.0)) * margin(pair, t + tol) <= 0.0
                for pair in DIAGONAL_PAIRS)
        # and no dead run of the scan is wider than the window
        runs = np.flatnonzero(np.diff(np.concatenate(([0], dead.astype(int), [0]))))
        assert np.max(np.diff(runs)[::2] - 1) * step <= hi - lo + 2e-8

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(gamma=log_uniform(0.05, 20.0), kappa=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
           ratio=log_uniform(1.01, 1e3), horizon=log_uniform(1.0, 60.0))
    @example(gamma=5.0, kappa=1.0, ratio=7.08, horizon=10.0)
    def test_window_ends_are_event_times(self, gamma, kappa, ratio, horizon):
        # window and events read the same crossings, to the last bit
        p = SystemParams.from_geff(gamma, kappa=kappa)
        init = InitialAmplitudes.from_ratio(ratio)
        win = dead_window(init, p, horizon)
        if win is None:
            return
        times = {ev.time for pair in DIAGONAL_PAIRS
                 for ev in detect_events(pair, init, p, horizon)}
        assert all(t in (0.0, horizon) or t in times for t in win)

    def test_window_opens_at_the_cavity_esd_of_events(self):
        # c1c2 is entangled on [0.30432, 0.30476]; window printed 0.30475606378
        init = InitialAmplitudes.from_ratio(7.08)
        esd = [ev.time for ev in detect_events("c1c2", init, P_STRONG, 10.0) if ev.kind == ESD]
        t_start, _ = dead_window(init, P_STRONG, 10.0)
        assert t_start == esd[0] and f"{t_start:.12g}" == "0.30475606233"


def recorded_brackets(search):
    """(f, a, b, xtol) of every root-finder call that ``search()`` makes."""
    calls = []

    def spy(f, a, b, xtol):
        calls.append((f, a, b, xtol))
        return _roots.brentq(f, a, b, xtol)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(events_module, "brentq", spy)
        search()
    return calls


def assert_scipy_roots(calls):
    for f, a, b, xtol in calls:
        assert _roots.brentq(f, a, b, xtol).hex() == scipy_brentq(f, a, b, xtol=xtol).hex()


class TestBrentq:
    def test_detect_events_brackets_match_scipy(self):
        rng = np.random.default_rng(20)
        calls = []
        for _ in range(100):
            gamma = np.exp(rng.uniform(np.log(0.05), np.log(10.0)))
            ratio = rng.choice([rng.uniform(1.0, 4.0), rng.uniform(0.2, 1.0),
                                np.exp(rng.uniform(0.0, np.log(1e6)))])
            horizon = np.exp(rng.uniform(0.0, np.log(80.0)))
            p, init = SystemParams.from_geff(gamma), InitialAmplitudes.from_ratio(ratio)
            for pair in DIFFERENT_CHAINS:
                calls += recorded_brackets(lambda: detect_events(pair, init, p, horizon))
        assert len(calls) > 150
        assert_scipy_roots(calls)

    def test_dead_window_brackets_match_scipy(self):
        rng = np.random.default_rng(21)
        calls = []
        for _ in range(60):
            gamma = np.exp(rng.uniform(np.log(0.05), np.log(10.0)))
            ratio = np.exp(rng.uniform(0.0, np.log(50.0)))
            horizon = np.exp(rng.uniform(0.0, np.log(80.0)))
            p, init = SystemParams.from_geff(gamma), InitialAmplitudes.from_ratio(ratio)
            calls += recorded_brackets(lambda: dead_window(init, p, horizon))
        assert len(calls) > 150
        assert_scipy_roots(calls)

    @pytest.mark.parametrize("gamma, ratio, n_calls", [(5.0, 1.0 - 1e-5, 74), (0.1, 0.985, 2)])
    def test_cavity_brackets_match_scipy(self, gamma, ratio, n_calls):
        calls = recorded_brackets(lambda: cavity_entangled_intervals(gamma, ratio))
        assert len(calls) == n_calls
        assert_scipy_roots(calls)

    def test_root_at_an_endpoint_returned_exactly(self):
        f = lambda t: np.cbrt(t - 1.0)
        assert _roots.brentq(f, 1.0, 2.0, 1e-8) == 1.0
        assert _roots.brentq(f, 0.0, 1.0, 1e-8) == 1.0
        assert _roots.brentq(f, 0.5, 3.0, 1e-8) == scipy_brentq(f, 0.5, 3.0, xtol=1e-8)

    def test_signs_read_where_the_product_of_values_underflows(self):
        f = lambda t: (t - 0.7) * 1e-200
        for a, b in ((0.0, 1.0), (0.5, 3.0)):
            assert _roots.brentq(f, a, b, 1e-12).hex() == scipy_brentq(f, a, b, xtol=1e-12).hex()

    def test_interpolation_dividing_by_zero_bisects_as_scipy(self):
        # the denominators of the interpolation underflow to 0: C divides to
        # inf or nan and bisects, Python raises ZeroDivisionError
        f = lambda t: (t - 0.7) ** 3 * 1e-200
        assert_scipy_roots([(f, 0.0, 1.0, 1e-12), (f, -5.0, 2.0, 1e-12)])

    @pytest.mark.parametrize("f, xtol, match", [
        (lambda t: np.nan, 1e-8, "is NaN; solver cannot continue"),
        (lambda t: t - 0.5, 0.0, re.escape("xtol too small (0 <= 0)")),
    ], ids=["nan", "xtol"])
    def test_bad_input_rejected_as_scipy(self, f, xtol, match):
        for find in (lambda: _roots.brentq(f, 0.0, 1.0, xtol),
                     lambda: scipy_brentq(f, 0.0, 1.0, xtol=xtol)):
            with pytest.raises(ValueError, match=match):
                find()

    def test_same_sign_bracket_rejected(self):
        f = lambda t: t - 5.0
        for find in (lambda: _roots.brentq(f, 0.0, 1.0, 1e-8),
                     lambda: scipy_brentq(f, 0.0, 1.0, xtol=1e-8)):
            with pytest.raises(ValueError, match="different signs"):
                find()

    def test_no_convergence_raises(self):
        # a step function defeats interpolation, and bisecting [0, 1e300]
        # down to ~1e-16 takes ~1000 halvings, not MAXITER = 100
        f = lambda t: np.sign(t - 1.0)
        for find in (lambda: _roots.brentq(f, 0.0, 1e300, 1e-300),
                     lambda: scipy_brentq(f, 0.0, 1e300, xtol=1e-300)):
            with pytest.raises(RuntimeError, match="converge"):
                find()
