"""Unit tests for the closed-form single-chain amplitudes."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entransfer.amplitudes import (
    SystemParams,
    amplitudes_exact,
    amplitudes_strong,
    amplitudes_weak,
    exact_squares,
)


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

    def test_gamma_infinite_without_decay(self):
        p = SystemParams(g=50.0, Omega=50.0, Delta=500.0, kappa=0.0)
        assert p.gamma == np.inf


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

    def test_decay_only_limit(self):
        # deep overdamping: the excitation decays at rate 4 gamma^2 kappa
        p = params_geff(0.01)
        e2 = exact_squares(50.0, p)[0]
        assert e2 == pytest.approx(np.exp(-4.0 * p.gamma**2 * 50.0), rel=1e-2)


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
