"""Unit tests for the dense quantum-operator kernel."""

import numpy as np
import pytest

from entransfer import qops


def bell_state():
    return np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_x_state(rng):
    """Random two-qubit X-form density matrix with balanced one-excitation
    populations and a single outer coherence — the structure every reduced
    pair of the transfer dynamics has.  (The negativity shortcut equals the
    Wootters value exactly on this family; unbalanced X states only share
    the entangled/separable verdict.)"""
    d = rng.uniform(0.05, 1.0, size=3)     # |00>, |01>=|10>, |11> weights
    d = np.array([d[0], d[1], d[1], d[2]])
    d /= d.sum()
    rho = np.diag(d).astype(complex)
    m14 = np.sqrt(d[0] * d[3]) * rng.uniform(0.0, 1.0) * np.exp(2j * np.pi * rng.uniform())
    rho[0, 3] = m14
    rho[3, 0] = np.conj(m14)
    return rho


class TestPartialTrace:
    def test_bell_marginals_maximally_mixed(self):
        rho = np.outer(bell_state(), bell_state())
        for keep in ((0,), (1,)):
            red = qops.partial_trace(rho, (2, 2), keep)
            assert np.allclose(red, np.eye(2) / 2.0, atol=1e-14)

    def test_product_state(self):
        psi = np.kron([1.0, 0.0], [0.0, 1.0])
        rho = np.outer(psi, psi)
        assert np.allclose(qops.partial_trace(rho, (2, 2), (0,)), np.diag([1.0, 0.0]))
        assert np.allclose(qops.partial_trace(rho, (2, 2), (1,)), np.diag([0.0, 1.0]))

    def test_multi_factor_against_kron(self):
        rng = np.random.default_rng(3)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 2)
        rho_c = random_density(rng, 2)
        joint = np.kron(np.kron(rho_a, rho_b), rho_c)
        assert np.allclose(qops.partial_trace(joint, (2, 2, 2), (0, 2)),
                           np.kron(rho_a, rho_c), atol=1e-13)

    def test_trace_preserved(self):
        rng = np.random.default_rng(4)
        rho = random_density(rng, 8)
        red = qops.partial_trace(rho, (2, 2, 2), (1,))
        assert abs(np.trace(red).real - 1.0) < 1e-12

    def test_invalid_selection(self):
        rho = np.eye(4) / 4.0
        with pytest.raises(ValueError):
            qops.partial_trace(rho, (2, 2), (5,))
        with pytest.raises(ValueError):
            qops.partial_trace(rho, (2, 2), (0, 0))


class TestPartialTranspose:
    def test_involution(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 6)
        for sub in (0, 1):
            back = qops.partial_transpose(
                qops.partial_transpose(rho, (2, 3), sub), (2, 3), sub)
            assert np.allclose(back, rho)

    def test_bell_spectrum(self):
        rho = np.outer(bell_state(), bell_state())
        pt = qops.partial_transpose(rho, (2, 2), 1)
        vals = np.sort(np.linalg.eigvalsh(pt))
        assert np.allclose(vals, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_full_transpose_composition(self):
        rng = np.random.default_rng(6)
        rho = random_density(rng, 4)
        both = qops.partial_transpose(
            qops.partial_transpose(rho, (2, 2), 0), (2, 2), 1)
        assert np.allclose(both, rho.T)


class TestConcurrence:
    def test_bell_is_one(self):
        rho = np.outer(bell_state(), bell_state())
        assert abs(qops.wootters_concurrence(rho) - 1.0) < 1e-12

    def test_product_is_zero(self):
        psi = np.kron([1.0, 0.0], [1.0, 0.0])
        assert qops.wootters_concurrence(np.outer(psi, psi)) == 0.0

    def test_werner(self):
        # C(p) = max(0, (3p - 1) / 2) for p |Bell><Bell| + (1-p) I/4
        rho_bell = np.outer(bell_state(), bell_state())
        for p, expect in ((0.8, 0.7), (0.5, 0.25), (0.2, 0.0)):
            rho = p * rho_bell + (1.0 - p) * np.eye(4) / 4.0
            assert abs(qops.wootters_concurrence(rho) - expect) < 1e-12

    def test_negativity_matches_wootters_on_x_states(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            rho = random_x_state(rng)
            cw = qops.wootters_concurrence(rho)
            cn = qops.negativity_concurrence(rho)
            assert abs(cw - cn) < 1e-10

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            qops.wootters_concurrence(np.eye(4))

    def test_dense_route_agrees_with_x_branch(self):
        # rotating an X state by local unitaries leaves the concurrence
        # unchanged but forces the generic eigensolver branch
        rng = np.random.default_rng(13)
        for _ in range(25):
            rho = random_x_state(rng)
            expect = qops.wootters_concurrence(rho)
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            u1, _ = np.linalg.qr(a)
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            u2, _ = np.linalg.qr(a)
            u = np.kron(u1, u2)
            rotated = u @ rho @ u.conj().T
            assert np.max(np.abs(rotated[qops._X_OFF_PATTERN])) > 1e-6
            assert abs(qops.wootters_concurrence(rotated) - expect) < 1e-7


class TestIConcurrence:
    def test_bell(self):
        assert abs(qops.i_concurrence(bell_state(), (2, 2)) - 1.0) < 1e-12

    def test_product(self):
        psi = np.kron([1.0, 0.0], [0.0, 1.0])
        assert qops.i_concurrence(psi, (2, 2)) < 1e-12

    def test_requires_normalized(self):
        with pytest.raises(ValueError):
            qops.i_concurrence(np.ones(4), (2, 2))

    def test_schmidt_two_levels(self):
        # sqrt(2 (1 - a^4 - b^4)) for a |00> + b |11>
        a, b = 0.6, 0.8
        psi = np.zeros(4)
        psi[0], psi[3] = a, b
        expect = np.sqrt(2.0 * (1.0 - a**4 - b**4))
        assert abs(qops.i_concurrence(psi, (2, 2)) - expect) < 1e-12


class TestValidateDensityMatrix:
    def test_accepts_valid(self):
        rng = np.random.default_rng(12)
        qops.validate_density_matrix(random_density(rng, 4), dim=4)

    def test_rejects_non_hermitian(self):
        rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        rho[0, 1] = 0.1
        with pytest.raises(ValueError):
            qops.validate_density_matrix(rho)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            qops.validate_density_matrix(np.diag([1.5, -0.5]))


@pytest.mark.parametrize("fn, args, match", [
    (qops.partial_trace, (np.ones((4, 2)), (2, 2), (0,)), "square matrix"),
    (qops.validate_density_matrix, (np.full((2, 2), np.nan),), "non-finite"),
    (qops.wootters_concurrence, (np.eye(2) / 2.0,), "expected dimension 4"),
    (qops.partial_trace, (np.eye(4) / 4.0, (2, 3), (0,)), "inconsistent"),
    (qops.partial_transpose, (np.eye(4) / 4.0, (2, 3), 0), "inconsistent"),
    (qops.partial_transpose, (np.eye(4) / 4.0, (2, 2), 2), "subsystem must be"),
    (qops.i_concurrence, (bell_state(), (2, 3)), "inconsistent"),
    (qops.partial_transpose, (np.eye(4) / 4.0, (2, 2), "B"), "subsystem must be"),
])
def test_rejects_malformed_input(fn, args, match):
    with pytest.raises(ValueError, match=match):
        fn(*args)
