"""Unit tests for the discretized-reservoir and Lindblad oracles."""

import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from entransfer import oracle as oracle_module
from entransfer.amplitudes import SystemParams, exact_squares
from entransfer.errors import ConfigError
from entransfer.jointstate import build_hamiltonian, collective_chain, evolve
from entransfer.oracle import (
    IDX_E0,
    IDX_G0,
    IDX_G1,
    ReservoirDiscretization,
    discretized_errors,
    _mode_sums,
    lindblad_evolve,
    lindblad_max_error,
    populations,
    spectrum,
)

EPS = np.finfo(float).eps
EXTENDED = np.finfo(np.longdouble).eps < 1e-18


def dense_populations(p, d, ts):
    """|e00>, |c00>, |g10> and summed reservoir populations from the
    dense eigendecomposition."""
    h = build_hamiltonian(p, d)
    psi0 = np.zeros(h.shape[0])
    psi0[0] = 1.0
    pops = np.abs(evolve(h, psi0, ts)) ** 2
    return np.column_stack([pops[:, :3], pops[:, 3:].sum(axis=1)])


def direct_populations(p, d, ts):
    """The same populations from ``spectrum`` through the direct
    T x (N + 3) phase matrix: cos(outer(ts, lam)) @ w and likewise sin."""
    lam, comps = spectrum(p, d)
    weights = (comps * comps[0]).T
    phase = np.outer(ts, lam)
    head = (np.cos(phase) @ weights) ** 2 + (np.sin(phase) @ weights) ** 2
    return np.column_stack([head, 1.0 - head.sum(axis=1)])


def longdouble_populations(p, d, ts):
    """The same populations from the secular equation of the same real
    Hamiltonian, solved in extended precision by bisection on direct sums
    over the modes: an independent reference for the float64 route."""
    ld = np.longdouble
    h = build_hamiltonian(p, d).astype(ld)
    delta, big, om, g = -h[0, 0], h[1, 1], h[0, 1], h[1, 2]
    modes, c2 = np.diag(h)[3:], h[2, 3:] ** 2
    radius = np.sqrt(((big + delta) / 2) ** 2 + om**2)
    h_plus = (big - delta) / 2 + radius
    heads = np.array([(-delta * big - om**2) / h_plus, h_plus])

    def f(lam):
        den = (lam - heads[0]) * (lam - heads[1])
        modes_sum = (c2 / (lam[:, None] - modes)).sum(axis=1)
        return lam - modes_sum - g * g * (lam + delta) / den

    poles = np.sort(np.concatenate([modes, heads]))
    reach = 2 * np.sqrt(c2.sum() + g * g) + 1
    lo = np.concatenate([[min(poles[0], 0) - reach], poles])
    hi = np.concatenate([poles, [max(poles[-1], 0) + reach]])
    for _ in range(160):      # halvings to an ulp of np.longdouble
        mid = (lo + hi) / 2
        neg = f(mid) < 0
        lo, hi = np.where(neg, mid, lo), np.where(neg, hi, mid)
    lam = (lo + hi) / 2
    den = (lam - heads[0]) * (lam - heads[1])
    v_e, v_c = om * g / den, g * (lam + delta) / den
    norm2 = 1 + v_e**2 + v_c**2 + (c2 / (lam[:, None] - modes) ** 2).sum(axis=1)
    weights = np.array([v_e, v_c, np.ones_like(v_e)]) * v_e / norm2
    phase = np.exp(-1j * np.outer(np.asarray(ts, dtype=ld), lam))
    head = np.abs(phase @ weights.T) ** 2
    return np.column_stack([head, 1 - head.sum(axis=1)])


def _quiet(build):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return build()


# (p, d) pairs for the secular route; the dense solve is accurate to
# ~eps |H| t, so these keep |H| moderate
SECULAR_CASES = {
    "N=0": lambda: (SystemParams.from_geff(5.0), ReservoirDiscretization(0, 1.0)),
    "N=1": lambda: (SystemParams.from_geff(5.0), ReservoirDiscretization(1, 20.0)),
    "N=2": lambda: (SystemParams.from_geff(5.0), ReservoirDiscretization(2, 20.0)),
    "N=3": lambda: (SystemParams.from_geff(5.0), ReservoirDiscretization(3, 20.0)),
    "N=50": lambda: (SystemParams.from_geff(5.0), ReservoirDiscretization(50, 40.0)),
    "N=101": lambda: (SystemParams.from_geff(5.0), ReservoirDiscretization(101, 60.0)),
    "kappa=0": lambda: (SystemParams.from_geff(5.0, kappa=0.0),
                        ReservoirDiscretization(50, 40.0)),
    "g!=Omega": lambda: (SystemParams(g=30.0, Omega=50.0, Delta=500.0),
                         ReservoirDiscretization(101, 60.0)),
    "Delta<0": lambda: (SystemParams(g=50.0, Omega=20.0, Delta=-500.0),
                        ReservoirDiscretization(101, 60.0)),
    # h- = -1 of the (e, c) block sits exactly on the mode at -1
    "pole on mode": lambda: (SystemParams(g=2.0, Omega=2.0, Delta=3.0),
                             ReservoirDiscretization(3, 3.0)),
    "both poles on modes": lambda: (SystemParams(g=2.0, Omega=2.0, Delta=3.0),
                                    ReservoirDiscretization(11, 11.0)),
    # couplings below rounding are deflated: all modes, or both head poles
    # (then |g10> couples to nothing and h- = 0 is also a root)
    "kappa=1e-100": lambda: (SystemParams.from_geff(5.0, kappa=1e-100),
                             ReservoirDiscretization(50, 40.0)),
    "g=1e-300": lambda: (SystemParams(g=1e-300, Omega=1.0, Delta=1.0),
                         ReservoirDiscretization(0, 1.0)),
}


class TestDiscretization:
    def test_basic_arithmetic(self):
        d = ReservoirDiscretization(n_modes=4, bandwidth=2.0)
        assert d.spacing == pytest.approx(0.5)
        assert np.allclose(d.offsets, [-0.75, -0.25, 0.25, 0.75])
        assert d.recurrence_time == pytest.approx(4.0 * np.pi)

    def test_mode_couplings_take_kappa_from_the_chain(self):
        d = ReservoirDiscretization(n_modes=4, bandwidth=2.0)
        h = build_hamiltonian(SystemParams.from_geff(5.0, kappa=2.0), d)
        assert np.all(h[2, 3:] == np.sqrt(2.0 * d.spacing / (2.0 * np.pi)))
        assert np.all(h[3:, 2] == h[2, 3:])

    @pytest.mark.parametrize("bandwidth", [np.nan, np.inf, 0.0, -1.0])
    def test_bandwidth_must_be_positive_and_finite(self, bandwidth):
        for n in (0, 10):
            with pytest.raises(ValueError, match="bandwidth"):
                ReservoirDiscretization(n, bandwidth)

    def test_spacing_must_not_underflow(self):
        with pytest.raises(ValueError, match="spacing"):
            ReservoirDiscretization(2000, 5e-324)
        assert ReservoirDiscretization(1, 5e-324).spacing == 5e-324

    def test_offsets_symmetric(self):
        for n in (3, 4, 101):
            d = ReservoirDiscretization(n_modes=n, bandwidth=10.0)
            assert np.allclose(d.offsets, -d.offsets[::-1])

    def test_empty_reservoir(self):
        d = ReservoirDiscretization(n_modes=0, bandwidth=1.0)
        assert d.recurrence_time == np.inf
        p = SystemParams(g=50.0, Omega=50.0, Delta=500.0)
        assert build_hamiltonian(p, d).shape == (3, 3)

    def test_validate(self):
        p = SystemParams.from_geff(5.0)
        good = ReservoirDiscretization(n_modes=2000, bandwidth=200.0)
        assert good.validate(p, 10.0)
        bad = ReservoirDiscretization(n_modes=20, bandwidth=2.0)
        with pytest.warns(UserWarning):
            assert not bad.validate(p, 10.0)
        empty = ReservoirDiscretization(n_modes=0, bandwidth=200.0)
        with pytest.warns(UserWarning, match="no reservoir modes"):
            assert not empty.validate(p, 10.0)

    def test_validate_warns_on_small_delta(self):
        # at the caller's line, once: the only check that reads Delta
        d = ReservoirDiscretization(n_modes=2000, bandwidth=200.0)
        with pytest.warns(UserWarning, match="Delta is not large") as record:
            assert not d.validate(SystemParams(g=10.0, Omega=10.0, Delta=20.0), 10.0)
        assert len(record) == 1 and record[0].filename == __file__

    def test_rejects_negative_modes(self):
        with pytest.raises(ValueError):
            ReservoirDiscretization(n_modes=-1, bandwidth=1.0)


class TestEvolve:
    def test_matches_expm(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = a + a.conj().T
        psi0 = rng.normal(size=6) + 1j * rng.normal(size=6)
        psi0 /= np.linalg.norm(psi0)
        for t in (0.3, 1.7):
            expect = expm(-1j * h * t) @ psi0
            assert np.max(np.abs(evolve(h, psi0, t) - expect)) < 1e-10

    def test_norm_preserved(self):
        p = SystemParams.from_geff(5.0)
        d = ReservoirDiscretization(n_modes=50, bandwidth=100.0)
        h = build_hamiltonian(p, d)
        psi0 = np.zeros(53, dtype=complex)
        psi0[0] = 1.0
        states = evolve(h, psi0, np.linspace(0.0, 5.0, 11))
        assert np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            evolve(np.array([[0.0, 1.0], [0.0, 0.0]]), [1.0, 0.0], 1.0)

    def test_real_hamiltonian_matches_complex(self):
        p = SystemParams.from_geff(5.0, Delta=1e4)
        h = build_hamiltonian(p, ReservoirDiscretization(n_modes=50, bandwidth=100.0))
        assert h.dtype == np.float64
        psi0 = np.zeros(53)
        psi0[0] = 1.0
        ts = np.linspace(0.0, 5.0, 11)
        diff = evolve(h, psi0, ts) - evolve(h.astype(complex), psi0, ts)
        assert np.max(np.abs(diff)) < 1e-12


class TestDiscretizedAgreement:
    def test_small_run_matches_closed_forms(self):
        # deep-detuning configuration: the closed forms hold at the
        # percent level and a modest bath already resolves the decay
        p = SystemParams.from_geff(5.0, Delta=1e4)
        d = ReservoirDiscretization(n_modes=800, bandwidth=120.0)
        assert discretized_errors(p, d, 5.0)[0] < 0.02

    def test_leakage_small_at_deep_detuning(self):
        p = SystemParams.from_geff(5.0, Delta=1e4)
        d = ReservoirDiscretization(n_modes=800, bandwidth=120.0)
        assert discretized_errors(p, d, 5.0)[1] < 5e-3

    @pytest.mark.skipif(not EXTENDED, reason="np.longdouble is float64 here")
    def test_matches_per_sample_loop(self):
        # against an extended-precision secular solve, sample by sample
        p = SystemParams.from_geff(5.0, Delta=1e4)
        d = ReservoirDiscretization(n_modes=100, bandwidth=100.0)
        ts = np.linspace(0.0, 5.0, 201)
        amp_err = leak = 0.0
        for t, pops in zip(ts, longdouble_populations(p, d, ts)):
            e2, g2, r2 = exact_squares(float(t), p)
            amp_err = max(amp_err, abs(pops[0] - e2), abs(pops[2] - g2),
                          abs(pops[3] - r2))
            leak = max(leak, pops[1])
        got = discretized_errors(p, d, 5.0)
        assert abs(got[0] - float(amp_err)) < 1e-14
        assert abs(got[1] - float(leak)) < 1e-14

    def test_matches_dense_within_eigh_backward_error(self):
        # a backward-stable eigh solves H + E with |E| <= dim eps |H|; over
        # a time t that moves each amplitude by at most |E| t, and each
        # population by twice that
        p = SystemParams.from_geff(5.0, Delta=1e4)
        d = ReservoirDiscretization(n_modes=100, bandwidth=100.0)
        ts = np.linspace(0.0, 5.0, 201)
        h = build_hamiltonian(p, d)
        bound = 2.0 * h.shape[0] * EPS * np.linalg.norm(h, 2) * ts[-1]
        assert np.max(np.abs(populations(p, d, 5.0, 201) - dense_populations(p, d, ts))) < bound

    def test_bandwidth_floor(self):
        # the error is a bandwidth floor: ten times the modes at the same
        # B changes it by far less than its size
        p = SystemParams.from_geff(5.0, Delta=1e4)
        start = time.perf_counter()
        fine = discretized_errors(p, ReservoirDiscretization(20000, 200.0), 10.0)
        elapsed = time.perf_counter() - start
        coarse = discretized_errors(p, ReservoirDiscretization(2000, 200.0), 10.0)
        assert abs(fine[0] - coarse[0]) < 1e-6
        assert fine[0] > 0.003
        assert elapsed < 10.0

    def test_kappa_taken_from_the_chain(self):
        # the modes couple at the chain's kappa = 2; a reservoir fixed at
        # kappa = 1 would leave an error of 0.25
        p = SystemParams.from_geff(5.0, kappa=2.0, Delta=1e4)
        err = discretized_errors(p, ReservoirDiscretization(2000, 400.0), 5.0)[0]
        assert err == pytest.approx(0.0021988977109, rel=1e-6)

    @pytest.mark.parametrize("horizon", [np.nan, np.inf, -1.0])
    def test_bad_horizon_rejected(self, horizon):
        p = SystemParams.from_geff(5.0, Delta=1e4)
        with pytest.raises(ValueError, match="horizon must be finite"):
            discretized_errors(p, ReservoirDiscretization(10, 200.0), horizon)

    def test_oversized_reservoir_rejected_before_solving(self):
        p = SystemParams.from_geff(5.0, Delta=1e4)
        with pytest.raises(ConfigError, match="GB"):
            discretized_errors(p, ReservoirDiscretization(10**10, 200.0), 10.0)

    @pytest.mark.parametrize("delta", [1e15, 3e15, 1e16])
    def test_deflated_head_rejected(self, delta):
        # past Delta ~ g_eff / 8 eps spectrum deflates the atom's head pole,
        # which then never decays: rejected exactly where that happens
        p = SystemParams.from_geff(5.0, Delta=delta)
        d = ReservoirDiscretization(2000, 200.0)
        deflated = np.any(spectrum(p, d)[1][2] == 0.0)     # no |g10> component
        assert deflated == (delta > 1e15)
        if deflated:
            message = re.escape(f"Delta {delta:g} is too large for g_eff 5:")
            with pytest.raises(ConfigError, match=message):
                discretized_errors(p, d, 10.0)
        else:
            assert discretized_errors(p, d, 10.0)[0] < 0.01

    def test_deflated_head_within_the_horizon_kept(self):
        # g_eff = 1e-12 is below the floor 8 eps Delta = 1.8e-11, so the
        # atom's head is deflated; over t = 10 that coupling moves the
        # populations by ~(g_eff t)^2 = 1e-22, but over t = 1e6 by ~1e-12
        p = SystemParams.from_geff(1e-12, Delta=1e4)
        d = ReservoirDiscretization(2000, 200.0)
        assert np.any(spectrum(p, d)[1][2] == 0.0)
        assert discretized_errors(p, d, 10.0)[0] < 1e-14
        with pytest.raises(ConfigError, match="too large for g_eff 1e-12"):
            discretized_errors(p, d, 1e6)

    def test_memory_guard_covers_the_peak(self, monkeypatch):
        asked = []
        monkeypatch.setattr(oracle_module, "require_memory",
                            lambda nbytes, what: asked.append(nbytes))
        p = SystemParams.from_geff(5.0, Delta=1e4)
        tracemalloc.start()
        try:
            discretized_errors(p, ReservoirDiscretization(20000, 200.0), 10.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(asked) == 1 and peak < asked[0] < 2 * peak

    def test_convergence_in_mode_count(self):
        p = SystemParams.from_geff(5.0, Delta=5e4)
        errs = [discretized_errors(
                    p, ReservoirDiscretization(n_modes=n, bandwidth=200.0), 10.0)[0]
                for n in (125, 250, 500)]
        assert errs[0] > errs[1] > errs[2]

    def test_convergence_in_bandwidth(self):
        # fixed mode spacing, growing bandwidth
        p = SystemParams.from_geff(5.0, Delta=5e4)
        errs = []
        for b in (50.0, 100.0, 200.0):
            d = ReservoirDiscretization(n_modes=int(b / 0.4), bandwidth=b)
            errs.append(discretized_errors(p, d, 10.0)[0])
        assert errs[0] > errs[1] > errs[2]


class TestSecularSpectrum:
    @pytest.mark.parametrize("case", SECULAR_CASES)
    def test_eigenvalues_match_eigvalsh(self, case):
        p, d = _quiet(SECULAR_CASES[case])
        h = build_hamiltonian(p, d)
        lam, comps = spectrum(p, d)
        assert lam.shape == (3 + d.n_modes,) and comps.shape == (3, 3 + d.n_modes)
        tol = 8.0 * EPS * np.linalg.norm(h, 2)
        assert np.max(np.abs(lam - np.linalg.eigvalsh(h))) < tol

    @pytest.mark.parametrize("case", SECULAR_CASES)
    def test_populations_match_dense(self, case):
        p, d = _quiet(SECULAR_CASES[case])
        ts = np.linspace(0.0, 3.0, 61)
        got = populations(p, d, 3.0, 61)
        assert np.max(np.abs(got - dense_populations(p, d, ts))) < 1e-12

    @pytest.mark.parametrize("samples", [1, 2, 3, 15, 16, 17, 201, 202])
    @pytest.mark.parametrize("horizon", [0.0, 1e-3, 10.0, 1e3])
    def test_factored_phases_match_direct(self, horizon, samples):
        # exp(-i lam t) of the direct route and the coarse and fine phases of
        # the factored one round lam t apart by at most 2.5 eps |lam| t, which
        # moves a population by at most twice that times |v_X v_e|
        p = SystemParams.from_geff(5.0, Delta=1e4)
        d = ReservoirDiscretization(n_modes=100, bandwidth=100.0)
        ts = np.linspace(0.0, horizon, samples)
        got = populations(p, d, horizon, samples)
        assert got.shape == (samples, 4)
        lam, comps = spectrum(p, d)
        phase_rounding = 5.0 * EPS * horizon * np.max(np.abs(comps * comps[0] * lam).sum(axis=1))
        assert np.max(np.abs(got - direct_populations(p, d, ts))) <= 1e-14 + phase_rounding

    def test_head_pole_on_mode_deflated(self):
        p, d = _quiet(SECULAR_CASES["pole on mode"])
        lam, comps = spectrum(p, d)
        at_pole = np.flatnonzero(lam == -1.0)
        assert at_pole.size == 1
        assert comps[2, at_pole[0]] == 0.0 and comps[0, at_pole[0]] != 0.0
        assert abs(np.sum(comps[0] ** 2) - 1.0) < 1e-15

    def test_root_on_minus_delta_is_finite(self):
        # with g = Omega (delta = 0) and an even mode count the modes sum to
        # 0 at lam = 0, so lam = -delta is a root, where v_c = 0; nothing
        # divides by lam + delta
        p, d = SECULAR_CASES["N=50"]()
        lam, comps = spectrum(p, d)
        at_root = np.flatnonzero(np.abs(lam + p.delta) < 1e-12)
        assert at_root.size == 1
        assert np.all(np.isfinite(comps)) and abs(comps[1, at_root[0]]) < 1e-12

    def test_initial_state_complete(self):
        for build in SECULAR_CASES.values():
            p, d = _quiet(build)
            pops = populations(p, d, 0.0, 1)[0]
            assert np.max(np.abs(pops - [1.0, 0.0, 0.0, 0.0])) < 1e-14

    @pytest.mark.skipif(not EXTENDED, reason="np.longdouble is float64 here")
    def test_mode_sums_match_direct_sums(self):
        # psi(u + n) - psi(u) and psi1(u) - psi1(u + n) against the sums
        # they stand for, in extended precision; u >> n is where a
        # difference of digammas would keep few digits
        u = np.concatenate([np.linspace(1e-3, 12.0, 300), np.logspace(1, 12, 45)])
        for n in (0, 1, 3, 50, 2000):
            terms = u.astype(np.longdouble)[:, None] + np.arange(n)
            direct = (1 / terms).sum(axis=1), (1 / terms**2).sum(axis=1)
            for got, want in zip(_mode_sums(u, n), direct):
                assert np.all(np.abs(got - want) <= 4 * EPS * np.abs(want))


class TestCollectiveChain:
    D = ReservoirDiscretization(n_modes=64, bandwidth=40.0)

    def test_first_vector_is_normalized_couplings(self):
        # every mode couples equally, so the normalized couplings are uniform
        chain = collective_chain(self.D, 1)
        assert np.allclose(chain.vectors[0], 1.0 / np.sqrt(self.D.n_modes))

    def test_orthonormality(self):
        chain = collective_chain(self.D, 10)
        gram = chain.vectors @ chain.vectors.T
        assert np.max(np.abs(gram - np.eye(10))) < 1e-10

    def test_tridiagonalization(self):
        chain = collective_chain(self.D, 10)
        freq = np.diag(-self.D.offsets)
        t = chain.vectors @ freq @ chain.vectors.T
        expect = (np.diag(chain.alphas) + np.diag(chain.betas, 1)
                  + np.diag(chain.betas, -1))
        assert np.max(np.abs(t - expect)) < 1e-9

    def test_hand_gram_schmidt_small(self):
        d = ReservoirDiscretization(n_modes=4, bandwidth=2.0)
        chain = collective_chain(d, 2)
        freq = -d.offsets
        v0 = chain.vectors[0]
        w = freq * v0 - (v0 @ (freq * v0)) * v0
        assert np.allclose(chain.vectors[1], w / np.linalg.norm(w), atol=1e-12)

    def test_depth_bounded_by_modes(self):
        with pytest.raises(ValueError):
            collective_chain(self.D, 65)

    def test_breakdown_flagged(self):
        # two modes symmetric around resonance with equal couplings span a
        # two-dimensional Krylov space; depth 2 completes, no further
        d = ReservoirDiscretization(n_modes=2, bandwidth=1.0)
        chain = collective_chain(d, 2)
        assert chain.depth == 2 and not chain.truncated


class TestLindblad:
    P = SystemParams.from_geff(5.0, Delta=1e5)

    def test_initial_state(self):
        rho = lindblad_evolve(self.P, np.array([0.0]))[0]
        expect = np.zeros((4, 4))
        expect[IDX_E0, IDX_E0] = 1.0
        assert np.allclose(rho, expect)

    def test_trace_preserved(self):
        grid = np.linspace(0.5, 10.0, 20)
        rhos = lindblad_evolve(self.P, grid)
        traces = np.trace(rhos, axis1=1, axis2=2).real
        assert np.max(np.abs(traces - 1.0)) < 1e-8

    def test_pure_without_decay(self):
        p = SystemParams(g=self.P.g, Omega=self.P.Omega, Delta=self.P.Delta,
                         kappa=0.0)
        rho = lindblad_evolve(p, np.array([2.0]))[0]
        purity = np.trace(rho @ rho).real
        assert abs(purity - 1.0) < 1e-8

    @pytest.mark.parametrize("grid", [[0.0, np.nan], [0.0, np.inf], [np.nan]])
    def test_non_finite_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="grid must be finite"):
            lindblad_evolve(self.P, grid)

    def test_substep_count_overflow_rejected(self):
        with pytest.raises(ValueError, match=r"horizon 1\.79769e\+308 .* substeps of 1e-07"):
            lindblad_evolve(self.P, np.array([np.finfo(float).max]))

    def test_matches_closed_forms(self):
        grid = np.linspace(0.2, 10.0, 50)
        assert lindblad_max_error(self.P, grid) < 1e-3

    def test_excitation_ends_in_ground_vacuum(self):
        rho = lindblad_evolve(self.P, np.array([80.0]))[0]
        assert rho[IDX_G0, IDX_G0].real > 0.999

    def test_photon_population_tracks_cavity(self):
        grid = np.array([0.1, 0.3])
        rhos = lindblad_evolve(self.P, grid)
        from entransfer.amplitudes import exact_squares
        for t, rho in zip(grid, rhos):
            g2 = exact_squares(t, self.P)[1]
            assert rho[IDX_G1, IDX_G1].real == pytest.approx(g2, abs=1e-3)
