"""Unit tests for the discretized-reservoir and Lindblad oracles."""

import numpy as np
import pytest
from scipy.linalg import expm

from entransfer.amplitudes import SystemParams, exact_squares
from entransfer.errors import ConfigError
from entransfer.oracle import (
    IDX_E0,
    IDX_G0,
    IDX_G1,
    ReservoirDiscretization,
    build_hamiltonian,
    collective_chain,
    discretized_errors,
    evolve,
    lindblad_evolve,
    lindblad_max_error,
)


class TestDiscretization:
    def test_basic_arithmetic(self):
        d = ReservoirDiscretization(n_modes=4, bandwidth=2.0)
        assert d.spacing == pytest.approx(0.5)
        assert np.allclose(d.offsets, [-0.75, -0.25, 0.25, 0.75])
        assert np.allclose(d.couplings, np.sqrt(0.5 / (2.0 * np.pi)))
        assert d.recurrence_time == pytest.approx(4.0 * np.pi)

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
        with pytest.raises(ConfigError):
            bad.validate(p, 10.0)
        with pytest.warns(UserWarning):
            assert not bad.validate(p, 10.0, strict=False)

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

    def test_matches_per_sample_loop(self):
        p = SystemParams.from_geff(5.0, Delta=1e4)
        d = ReservoirDiscretization(n_modes=100, bandwidth=100.0)
        psi0 = np.zeros(103)
        psi0[0] = 1.0
        ts = np.linspace(0.0, 5.0, 201)
        states = evolve(build_hamiltonian(p, d), psi0, ts)
        amp_err = leak = 0.0
        for t, psi in zip(ts, states):
            e2, g2, r2 = exact_squares(float(t), p)
            amp_err = max(amp_err, abs(abs(psi[0]) ** 2 - e2),
                          abs(abs(psi[2]) ** 2 - g2),
                          abs(np.linalg.norm(psi[3:]) ** 2 - r2))
            leak = max(leak, abs(psi[1]) ** 2)
        got = discretized_errors(p, d, 5.0)
        assert abs(got[0] - amp_err) < 1e-14
        assert abs(got[1] - leak) < 1e-14

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


class TestCollectiveChain:
    D = ReservoirDiscretization(n_modes=64, bandwidth=40.0)

    def test_first_vector_is_normalized_couplings(self):
        chain = collective_chain(self.D, 1)
        g = self.D.couplings
        assert np.allclose(chain.vectors[0], g / np.linalg.norm(g))

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
        expect = np.zeros((6, 6))
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

    def test_matches_closed_forms(self):
        grid = np.linspace(0.2, 10.0, 50)
        assert lindblad_max_error(self.P, grid) < 1e-3

    def test_excitation_ends_in_ground_vacuum(self):
        rho = lindblad_evolve(self.P, np.array([80.0]))[0]
        assert rho[IDX_G0, IDX_G0].real > 0.999

    def test_literal_gain_convention_diverges(self):
        # the alternative operator ordering pumps the cavity instead of
        # draining it and quickly departs from the decaying closed forms
        grid = np.linspace(0.5, 3.0, 6)
        assert lindblad_max_error(self.P, grid, photon_loss=False) > 0.1

    def test_oversized_step_rejected(self):
        with pytest.raises(ConfigError):
            lindblad_evolve(self.P, np.array([1.0]), max_step=1.0)

    def test_photon_population_tracks_cavity(self):
        grid = np.array([0.1, 0.3])
        rhos = lindblad_evolve(self.P, grid)
        from entransfer.amplitudes import exact_squares
        for t, rho in zip(grid, rhos):
            g2 = exact_squares(t, self.P)[1]
            assert rho[IDX_G1, IDX_G1].real == pytest.approx(g2, abs=1e-3)
