"""Unit tests for the closed-form single-chain amplitudes."""

import dataclasses
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entransfer import cli, events
from entransfer.amplitudes import (
    SystemParams,
    amplitudes_exact,
    amplitudes_strong,
    amplitudes_weak,
    exact_squares,
)


RATES = ("delta", "g_eff", "omega_bar", "gamma")


def params_geff(geff, kappa=1.0, Delta=None):
    return SystemParams.from_geff(geff, kappa=kappa, Delta=Delta)


class TestSystemParams:
    def test_derived_quantities(self):
        p = SystemParams(g=50.0, Omega=50.0, Delta=500.0, kappa=1.0)
        assert p.g_eff == pytest.approx(5.0)
        assert p.delta == 0.0
        assert p.gamma == pytest.approx(5.0)
        assert p.omega_bar == pytest.approx(np.sqrt(25.0 - 1.0 / 16.0))

    def test_from_geff(self):
        p = params_geff(0.1)
        assert p.g_eff == pytest.approx(0.1)
        assert p.g == p.Omega
        assert p.Delta == 500.0

    def test_overdamped_omega_bar_imaginary(self):
        p = params_geff(0.1)
        assert p.omega_bar.real == 0.0
        assert p.omega_bar.imag > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemParams(g=-1.0, Omega=1.0, Delta=100.0)
        with pytest.raises(ValueError):
            SystemParams(g=1.0, Omega=1.0, Delta=0.0)
        with pytest.raises(ValueError):
            SystemParams(g=1.0, Omega=1.0, Delta=100.0, kappa=-0.5)

    @pytest.mark.parametrize("field", ["g", "Omega", "Delta", "kappa"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, field, value):
        fields = dict(g=1.0, Omega=1.0, Delta=100.0, kappa=1.0)
        fields[field] = value
        with pytest.raises(ValueError, match="finite"):
            SystemParams(**fields)

    def test_from_geff_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SystemParams.from_geff(np.nan)

    @pytest.mark.parametrize("geff", [0.0, -5.0])
    def test_from_geff_non_positive_rejected(self, geff):
        with pytest.raises(ValueError, match="g_eff must be positive"):
            SystemParams.from_geff(geff)

    @pytest.mark.filterwarnings("error")
    def test_small_detuning_builds_quietly(self):
        # Delta is read against the closed forms only by the oracle's
        # ReservoirDiscretization.validate, which warns about it
        SystemParams(g=10.0, Omega=10.0, Delta=20.0)
        SystemParams.from_geff(60.0, Delta=500.0)
        SystemParams.from_geff(60.0)

    def test_from_geff_keeps_the_warning_registry(self):
        # a "default" warning shows once per location; a filter swap inside
        # from_geff would reset the registry and show it on every pass
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            for _ in range(3):
                SystemParams.from_geff(1.0)
                warnings.warn("raised elsewhere", UserWarning)
        assert len(caught) == 1

    @pytest.mark.parametrize("geff, kappa, omega_bar", [
        (5.0, 1e200, 2.5e199j),     # overdamped: i sqrt(kappa^2 / 16 - g_eff^2)
        (1e200, 1.0, 1e200),
        (1e300, 1e300, np.sqrt(15.0 / 16.0) * 1e300),
    ])
    def test_omega_bar_where_the_squares_overflow(self, geff, kappa, omega_bar):
        p = params_geff(geff, kappa=kappa, Delta=1e3)
        assert p.omega_bar == pytest.approx(omega_bar, rel=1e-14)

    def test_delta_where_the_squares_overflow(self):
        assert SystemParams(g=1e200, Omega=1e200, Delta=1e300).delta == 0.0
        p = SystemParams(g=2e200, Omega=1e200, Delta=1e300)
        assert p.delta == pytest.approx(3e100, rel=1e-14)

    def test_squares_that_underflow(self):
        # g_eff^2 rounds to 0 below about 1.5e-162; g^2 is subnormal below 1.5e-154
        p = params_geff(1e-165, kappa=0.0)
        assert p.omega_bar == p.g_eff
        assert SystemParams(g=1e-200, Omega=1e-200, Delta=1.0, kappa=0.0).omega_bar == 0.0
        p = SystemParams(g=2e-160, Omega=1e-160, Delta=1e-300)
        assert p.delta == pytest.approx(3e-20, rel=1e-14)

    def test_geff_where_geff_delta_is_subnormal(self):
        # g_eff Delta = 5e-318 holds 20 significant bits: g = sqrt(g_eff Delta)
        # gave g_eff = 9.999997e-161 and |E|^2 1e-7 high at g_eff t = 1/2
        p = params_geff(1e-160, kappa=1e-160)
        assert p.g_eff == 1e-160
        unit = 8.0 * np.finfo(float).eps * (1.0 + abs(params_geff(1.0).omega_bar) * 0.5)
        assert np.all(np.abs(np.subtract(exact_squares(5e159, p),
                                         exact_squares(0.5, params_geff(1.0)))) <= unit)

    def test_gamma_infinite_without_decay(self):
        p = SystemParams(g=50.0, Omega=50.0, Delta=500.0, kappa=0.0)
        assert p.gamma == np.inf

    @pytest.mark.parametrize("p", [
        params_geff(5.0, kappa=0.0),
        params_geff(1e-160, kappa=1e-160),      # g_eff Delta subnormal
        params_geff(0.1),                       # overdamped
        params_geff(5.0, kappa=1e150),
    ], ids=["kappa0", "subnormal", "overdamped", "kappa1e150"])
    def test_rates_kept_with_the_bits_of_a_recompute(self, p):
        kept = [getattr(p, name) for name in RATES]
        assert all(getattr(p, name) is rate for name, rate in zip(RATES, kept))
        # a fresh instance, its rates read in the other order
        fresh = dataclasses.replace(p)
        recomputed = [getattr(SystemParams, name).func(fresh) for name in reversed(RATES)]
        assert [np.asarray(x).tobytes() for x in kept] == \
            [np.asarray(x).tobytes() for x in reversed(recomputed)]

    def test_replace_gets_fresh_rates(self):
        p = params_geff(5.0)
        before = [getattr(p, name) for name in RATES]
        q = dataclasses.replace(p, kappa=100.0)
        assert q.gamma == pytest.approx(0.05)
        assert q.omega_bar == pytest.approx(1j * np.sqrt(600.0))
        assert [getattr(p, name) for name in RATES] == before


class TestExactAmplitudes:
    def test_initial_condition(self):
        p = params_geff(5.0)
        a = amplitudes_exact(0.0, p)
        assert a.E == pytest.approx(1.0)
        assert a.G == 0.0
        assert a.R == 0.0

    def test_lossless_full_swap(self):
        # without decay the excitation swaps fully into the cavity at
        # g_eff t = pi / 2
        p = SystemParams(g=50.0, Omega=50.0, Delta=500.0, kappa=0.0)
        a = amplitudes_exact(np.pi / 2.0 / p.g_eff, p)
        assert abs(a.E) < 1e-12
        assert abs(abs(a.G) - 1.0) < 1e-12
        assert a.R < 1e-6

    def test_no_reservoir_without_decay(self):
        # 1 - (|E|^2 + |G|^2) is rounding noise there, not a reservoir
        p = SystemParams.from_geff(5.0, kappa=0.0)
        ts = np.linspace(0.0, 5.0, 501)
        assert np.all(exact_squares(ts, p)[2] == 0.0)
        assert np.all(amplitudes_exact(ts, p).R == 0.0)
        assert amplitudes_exact(0.3, p).R == 0.0

    def test_normalization(self):
        for geff in (0.05, 0.1, 0.25, 1.0, 5.0):
            p = params_geff(geff)
            e2, g2, r2 = exact_squares(np.linspace(0.0, 30.0, 301), p)
            assert np.max(np.abs(e2 + g2 + r2 - 1.0)) < 1e-12

    def test_reservoir_monotone(self):
        for geff in (0.05, 0.25, 5.0):
            p = params_geff(geff)
            r2 = exact_squares(np.linspace(0.0, 30.0, 3001), p)[2]
            assert np.min(np.diff(r2)) > -1e-9

    def test_continuous_across_critical_damping(self):
        # omega_bar = 0 at g_eff = kappa / 4; the two branches must agree
        ts = np.linspace(0.0, 20.0, 200)
        eps = 1e-8
        lo = exact_squares(ts, params_geff(0.25 - eps))
        hi = exact_squares(ts, params_geff(0.25 + eps))
        for a, b in zip(lo, hi):
            assert np.max(np.abs(a - b)) < 1e-6

    def test_scalar_and_array_agree(self):
        p = params_geff(5.0)
        ts = np.array([0.3, 1.7, 4.2])
        arr = amplitudes_exact(ts, p)
        for i, t in enumerate(ts):
            one = amplitudes_exact(float(t), p)
            assert one.E == pytest.approx(arr.E[i])
            assert one.G == pytest.approx(arr.G[i])
            assert one.R == pytest.approx(arr.R[i])

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(g_eff=st.one_of(st.floats(0.01, 0.249),         # overdamped
                           st.just(0.25),                   # critically damped
                           st.floats(0.251, 20.0)),         # underdamped
           seed=st.integers(0, 2**32 - 1))
    def test_scalar_and_array_squares_agree_bit_for_bit(self, g_eff, seed):
        p = params_geff(g_eff)
        ts = np.random.default_rng(seed).uniform(0.0, 50.0, 300)
        # at g_eff = 1.1246 this |E|^2 is where pow(x, 2), a numpy scalar's
        # ** 2, misrounds the x * x of the array path
        ts[0] = float.fromhex("0x1.589127c3c088cp-6")
        arr = np.array(exact_squares(ts, p)).T
        assert arr.tobytes() == np.array([exact_squares(t, p) for t in ts]).tobytes()

    def test_scalar_r_is_the_root_of_exact_squares_bit_for_bit(self):
        # one squaring kernel serves both; squared apart, 1 of these differed
        p = params_geff(0.37)
        for t in np.linspace(0.01, 30.0, 3001):
            assert amplitudes_exact(t, p).R == np.sqrt(exact_squares(t, p)[2])

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            amplitudes_exact(-0.1, params_geff(5.0))

    @pytest.mark.parametrize("fn", [amplitudes_exact, exact_squares,
                                    amplitudes_strong, amplitudes_weak])
    @pytest.mark.parametrize("t", [np.nan, np.inf, [0.0, np.nan], [1.0, -np.inf]])
    def test_non_finite_time_rejected(self, fn, t):
        with pytest.raises(ValueError, match="time must be finite"):
            fn(t, params_geff(0.37))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(g_eff=st.floats(0.02, 20.0),
           ts=st.one_of(st.lists(st.floats(0.0, 60.0), min_size=2, max_size=400),
                        st.integers(2, 4001).map(lambda n: np.linspace(0.0, 60.0, n))))
    def test_reservoir_never_decreases(self, g_eff, ts):
        r2 = exact_squares(np.unique(ts), params_geff(g_eff, Delta=1e5))[2]
        assert np.all(np.diff(r2) >= 0.0)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(log_geff=st.floats(np.log(0.01), np.log(20.0)),
           kappa=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
           critical=st.booleans(),
           ts=st.lists(st.floats(0.0, 60.0), min_size=1, max_size=400))
    def test_squares_sum_to_at_most_one(self, log_geff, kappa, critical, ts):
        # _squares clips R^2 = 1 - (|E|^2 + |G|^2) at 0, so it hides no more
        # than this excess; critical draws sit at gamma = 1/4
        g_eff = kappa / 4.0 if critical and kappa else np.exp(log_geff)
        e2, g2, _ = exact_squares(np.array(ts), params_geff(g_eff, kappa, Delta=1e5))
        assert np.max(e2 + g2) - 1.0 <= 1e-12

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(g_eff=st.floats(0.01, 20.0), kappa=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
           t=st.floats(0.0, 60.0), data=st.data())
    def test_squares_invariant_under_rate_scaling(self, g_eff, kappa, t, data):
        # rates times s = 2^k and time over s leave omega_bar t and kappa t
        # as they are; from_geff's Delta = 500 kappa s keeps g_eff Delta
        # above 0 only down to k = -530 with decay, subnormal from about -510
        k = data.draw(st.integers(-1000 if kappa == 0.0 else -530, 500), label="k")
        s = 2.0**k
        p = params_geff(g_eff, kappa)
        unit = 8.0 * np.finfo(float).eps * (1.0 + abs(p.omega_bar) * t)
        scaled = exact_squares(t / s, params_geff(s * g_eff, s * kappa))
        assert np.all(np.abs(np.subtract(scaled, exact_squares(t, p))) <= unit)

    def test_decay_only_limit(self):
        # deep overdamping: the excitation decays at rate 4 gamma^2 kappa
        p = params_geff(0.01)
        e2 = exact_squares(50.0, p)[0]
        assert e2 == pytest.approx(np.exp(-4.0 * p.gamma**2 * 50.0), rel=1e-2)


def mp_squares(t, p):
    """|E|^2 and |G|^2 of the closed forms at the same float inputs, in
    40-digit arithmetic."""
    with mpmath.workdps(40):
        t, kappa, g_eff = mpmath.mpf(t), mpmath.mpf(p.kappa), mpmath.mpf(p.g_eff)
        w = mpmath.sqrt(mpmath.mpc(g_eff**2 - kappa**2 / 16))
        sinc = mpmath.sin(w * t) / w if w else t
        damp = mpmath.exp(-kappa * t / 4)
        e = (mpmath.cos(w * t) + kappa / 4 * sinc) * damp
        return float(abs(e)**2), float(abs(g_eff * sinc * damp)**2)


class TestAccuracy:
    @pytest.mark.parametrize("kappa", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("g_eff", [0.01, 0.05, 0.1, 0.2, 0.2499, 0.25, 0.25 * (1 + 1e-9),
                                       0.2501, 0.3, 1.0, 5.0, 20.0])
    def test_squares_match_40_digits(self, g_eff, kappa):
        # the rounding of x = omega_bar t alone moves cos and sin by up to
        # eps |omega_bar| t; the worst point measured 3 of this unit
        p = params_geff(g_eff, kappa)
        rng = np.random.default_rng(27)
        ts = np.concatenate([[1e-8, 60.0], 10.0 ** rng.uniform(-8.0, np.log10(60.0), 20),
                             rng.uniform(0.0, 60.0, 20)])
        unit = 8.0 * np.finfo(float).eps * (1.0 + abs(p.omega_bar) * ts)
        e2, g2, _ = exact_squares(ts, p)
        ref = np.array([mp_squares(t, p) for t in ts])
        assert np.all(np.abs(e2 - ref[:, 0]) <= unit)
        assert np.all(np.abs(g2 - ref[:, 1]) <= unit)


def same_bits(a, b):
    """Byte-equal arrays, where NaN equals NaN only where both are NaN."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


def assert_scalar_is_array(t, p):
    """A scalar t gives the bits of the array code at np.array([t])."""
    ts = np.array([t])
    with np.errstate(all="ignore"):
        assert same_bits(exact_squares(t, p), np.ravel(exact_squares(ts, p))), (t, p)
        one, arr = amplitudes_exact(t, p), amplitudes_exact(ts, p)
    assert same_bits([one.E, one.G], [arr.E[0], arr.G[0]]), (t, p)
    assert same_bits(one.R, arr.R[0]), (t, p)


class TestScalarRoute:
    """A Python float t is evaluated on Python floats; these bind that
    spelling of the closed forms to the array one."""

    def test_seeded_sweep_matches_arrays(self):
        rng = np.random.default_rng(25)
        for i in range(6000):
            kappa = (0.0, 1.0, 2.0, rng.uniform(0.0, 5.0))[i % 4]
            g_eff = 10.0 ** rng.uniform(-3.0, 3.0)
            if i % 7 == 0 and kappa:    # critical damping and its neighbours
                g_eff = kappa / 4.0 * (1.0 + (0.0, 1e-9, -1e-9, 1e-15)[i % 4])
            t = rng.uniform(0.0, (1.0, 50.0, 5000.0)[i % 3])
            assert_scalar_is_array(t, params_geff(g_eff, kappa))

    def test_every_searched_time_matches_arrays(self, monkeypatch, capsys):
        seen = []

        def spy(t, p):
            if np.ndim(t) == 0:
                seen.append((t, p))
            return exact_squares(t, p)

        monkeypatch.setattr(events, "exact_squares", spy)
        assert cli.main(["events", "--geff", "5", "--ratio", "1.5", "--t-max", "3"]) == 0
        with open("tests/golden/events_strong.csv") as golden:
            assert capsys.readouterr().out == golden.read()
        events.dead_window(events.InitialAmplitudes.from_ratio(7.08), params_geff(5.0), 10.0)
        events.cavity_entangled_intervals(5.0, 1.0 - 1e-5)
        assert len(seen) > 500
        for t, p in seen:
            assert_scalar_is_array(t, p)

    @pytest.mark.parametrize("fn", [amplitudes_exact, exact_squares])
    @pytest.mark.parametrize("t", [np.nan, np.inf, -1.0, -1])
    def test_invalid_time_raises_as_arrays(self, fn, t):
        p = params_geff(0.37)
        with pytest.raises(ValueError) as scalar:
            fn(t, p)
        with pytest.raises(ValueError) as array:
            fn(np.array([t]), p)
        assert str(scalar.value) == str(array.value) == "time must be finite and non-negative"

    def test_overflow_takes_the_array_route(self):
        # cosh and sinh overflow to inf from x = 710.5 on, and the damping
        # underflows to 0 from kappa t / 4 = 745 on: the squares are NaN
        p = params_geff(0.01)
        with np.errstate(all="ignore"):
            assert np.all(np.isnan(exact_squares(3000.0, p)))
        for t in np.linspace(2830.0, 2850.0, 401):     # x from 707 to 712
            assert_scalar_is_array(float(t), p)
        # x = rate t overflows to inf, where math.sin raises ValueError
        assert_scalar_is_array(1e300, params_geff(1e100))

    def test_no_decay_leaves_no_reservoir(self):
        p = params_geff(5.0, kappa=0.0)
        for t in (0.0, 0.3, 1.7, 40.0):
            assert exact_squares(t, p)[2] == 0.0
            assert amplitudes_exact(t, p).R == 0.0


class TestStrongApproximation:
    def test_sums_to_one(self):
        p = params_geff(10.0)
        e2, g2, r2 = amplitudes_strong(np.linspace(0.0, 10.0, 101), p)
        assert np.max(np.abs(e2 + g2 + r2 - 1.0)) < 1e-12

    def test_deviation_bound(self):
        # measured accuracy of the O(kappa / g_eff) form at g_eff = 10 kappa
        p = params_geff(10.0)
        ts = np.linspace(0.0, 10.0, 2001)
        exact = exact_squares(ts, p)
        approx = amplitudes_strong(ts, p)
        dev = max(np.max(np.abs(a - b)) for a, b in zip(exact, approx))
        assert dev < 0.03

    def test_converges_with_coupling(self):
        devs = []
        for geff in (5.0, 10.0, 20.0, 40.0):
            p = params_geff(geff)
            ts = np.linspace(0.0, 10.0, 2001)
            exact = exact_squares(ts, p)
            approx = amplitudes_strong(ts, p)
            devs.append(max(np.max(np.abs(a - b)) for a, b in zip(exact, approx)))
        assert devs[0] > devs[1] > devs[2] > devs[3]


class TestWeakApproximation:
    def test_initial_condition(self):
        p = params_geff(0.1)
        e2, g2, r2 = amplitudes_weak(0.0, p)
        assert e2 == pytest.approx(1.0)
        assert g2 == pytest.approx(0.0, abs=1e-14)
        assert r2 == pytest.approx(0.0, abs=1e-12)

    def test_deviation_bound(self):
        # measured accuracy of the O(gamma^2) form at gamma = 0.1
        p = params_geff(0.1)
        ts = np.linspace(0.0, 60.0, 2001)
        exact = exact_squares(ts, p)
        approx = amplitudes_weak(ts, p)
        dev = max(np.max(np.abs(a - b)) for a, b in zip(exact, approx))
        assert dev < 0.04

    def test_converges_with_damping(self):
        devs = []
        for gamma in (0.1, 0.05, 0.025):
            p = params_geff(gamma)
            # compare over a fixed number of effective decay times
            ts = np.linspace(0.0, 1.5 / (4.0 * gamma**2), 2001)
            exact = exact_squares(ts, p)
            approx = amplitudes_weak(ts, p)
            devs.append(max(np.max(np.abs(a - b)) for a, b in zip(exact, approx)))
        assert devs[0] > devs[1] > devs[2]
