"""Unit tests for the two-chain joint state and pair concurrences."""

import numpy as np
import pytest

from entransfer import events, jointstate, qops
from entransfer.amplitudes import SystemParams, amplitudes_exact, exact_squares
from entransfer.jointstate import (
    CROSS_PAIRS,
    DIAGONAL_PAIRS,
    InitialAmplitudes,
    PAIR_LABELS,
    concurrence_closed,
    cross_concurrence_closed,
    global_tangle,
    joint_state,
    lambda_minus,
    pair_concurrence,
    pair_qubits,
    reduced_pair,
    rho_closed,
)

P_STRONG = SystemParams.from_geff(5.0)
P_WEAK = SystemParams.from_geff(0.1)


def test_model_definitions_are_the_events_objects():
    # one owner: the reference route reads the runtime's definitions
    for name in ("DIAGONAL_PAIRS", "InitialAmplitudes", "PAIR_LABELS", "lambda_minus"):
        assert getattr(jointstate, name) is getattr(events, name)


class TestInitialAmplitudes:
    def test_from_ratio(self):
        init = InitialAmplitudes.from_ratio(3.0)
        assert init.beta == pytest.approx(3.0 * init.alpha)
        assert init.alpha**2 + init.beta**2 == pytest.approx(1.0)

    @pytest.mark.parametrize("ratio", [1e154, 1.5e154, 1e155, 1e300, np.float64(1e300)])
    def test_from_huge_ratio(self, ratio):
        # ratio^2 overflows past 1.34e154, where 1 + ratio^2 is ratio^2
        init = InitialAmplitudes.from_ratio(ratio)
        assert init.alpha == pytest.approx(1.0 / ratio, rel=1e-15)
        assert init.beta == pytest.approx(1.0, rel=1e-15)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            InitialAmplitudes(alpha=0.5, beta=0.5)

    @pytest.mark.parametrize("alpha, beta", [(1e200, 0.0), (0.0, 1e300)])
    def test_rejects_amplitude_whose_square_overflows(self, alpha, beta):
        with pytest.raises(ValueError, match="must equal 1"):
            InitialAmplitudes(alpha=alpha, beta=beta)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            InitialAmplitudes(alpha=-0.6, beta=0.8)

    @pytest.mark.parametrize("alpha, beta", [(1.2, np.nan), (np.nan, 0.8),
                                             (np.inf, 0.0), (0.6, -np.inf)])
    def test_rejects_non_finite(self, alpha, beta):
        with pytest.raises(ValueError, match="finite"):
            InitialAmplitudes(alpha=alpha, beta=beta)


class TestJointState:
    def test_normalized(self):
        init = InitialAmplitudes.from_ratio(1.5)
        for t in (0.0, 0.7, 5.0):
            psi = joint_state(t, init, P_STRONG)
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    def test_initial_structure(self):
        init = InitialAmplitudes.from_ratio(2.0)
        psi = joint_state(0.0, init, P_STRONG)
        # alpha |000000> + beta |100100>: both atoms excited
        assert psi[0] == pytest.approx(init.alpha)
        assert psi[0b100100] == pytest.approx(init.beta)
        assert np.count_nonzero(np.abs(psi) > 1e-14) == 2

    def test_all_pairs_are_x_states(self):
        # every two-qubit marginal of this state has X sparsity
        init = InitialAmplitudes.from_ratio(1.5)
        psi = joint_state(0.9, init, P_STRONG)
        x_mask = np.array([[1, 0, 0, 1], [0, 1, 1, 0],
                           [0, 1, 1, 0], [1, 0, 0, 1]], dtype=bool)
        for pair in PAIR_LABELS:
            rho = reduced_pair(psi, pair)
            assert np.max(np.abs(rho[~x_mask])) < 1e-14, pair


class TestClosedFormMatrices:
    @pytest.mark.parametrize("pair", DIAGONAL_PAIRS)
    @pytest.mark.parametrize("ratio", [0.5, 1.0, 1.5, 3.0])
    def test_matches_partial_trace(self, pair, ratio):
        init = InitialAmplitudes.from_ratio(ratio)
        for t in (0.0, 0.3, 0.9, 2.5, 8.0):
            amps = amplitudes_exact(t, P_STRONG)
            direct = rho_closed(pair, amps, init)
            brute = reduced_pair(joint_state(t, init, P_STRONG), pair)
            assert np.max(np.abs(direct - brute)) < 1e-12

    def test_lambda_is_partial_transpose_eigenvalue(self):
        init = InitialAmplitudes.from_ratio(1.5)
        for t in (0.2, 0.8, 1.4):
            amps = amplitudes_exact(t, P_STRONG)
            for i, pair in enumerate(DIAGONAL_PAIRS):
                x2 = float(exact_squares(t, P_STRONG)[i])
                rho = rho_closed(pair, amps, init)
                pt_min = np.linalg.eigvalsh(
                    qops.partial_transpose(rho, (2, 2), 1))[0]
                lam = lambda_minus(pair, x2, init)
                if lam < 0:
                    assert lam == pytest.approx(pt_min, abs=1e-12)

    def test_closed_concurrence_matches_wootters(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            init = InitialAmplitudes.from_ratio(rng.uniform(0.2, 4.0))
            t = rng.uniform(0.0, 5.0)
            amps = amplitudes_exact(t, P_STRONG)
            for pair in DIAGONAL_PAIRS:
                closed = concurrence_closed(pair, amps, init)
                brute = pair_concurrence(pair, t, init, P_STRONG)
                # the eigensolver route loses ~sqrt(eps) near pure states
                assert abs(closed - brute) < 1e-8


class TestPairConcurrence:
    def test_initial_values(self):
        init = InitialAmplitudes.from_ratio(1.0)
        assert pair_concurrence("a1a2", 0.0, init, P_STRONG) == pytest.approx(
            2.0 * init.alpha * init.beta)
        for pair in ("c1c2", "r1r2", "a1c1", "a1c2"):
            assert pair_concurrence(pair, 0.0, init, P_STRONG) < 1e-12

    def test_chain_swap_symmetry(self):
        # the two chains are identical, so mirrored pairs agree
        init = InitialAmplitudes.from_ratio(1.5)
        for t in (0.4, 1.1):
            for a, b in (("a1c2", "a2c1"), ("a1r2", "a2r1"), ("c1r2", "c2r1"),
                         ("a1c1", "a2c2"), ("c1r1", "c2r2"), ("a1r1", "a2r2")):
                ca = pair_concurrence(a, t, init, P_STRONG)
                cb = pair_concurrence(b, t, init, P_STRONG)
                assert ca == pytest.approx(cb, abs=1e-12)

    def test_unknown_pair(self):
        with pytest.raises(ValueError):
            pair_qubits("a1b2")


class TestCrossConcurrence:
    def test_printed_formula_value(self):
        # direct hand evaluation of the printed expression
        init = InitialAmplitudes.from_ratio(1.5)
        amps = amplitudes_exact(0.3, P_STRONG)
        e, g = abs(amps.E), abs(amps.G)
        w = init.alpha**4 * e * g**2 * (1.0 - e**2) * (1.0 - g**2)
        expect = max(0.0, 2.0 * (init.alpha * init.beta * e * g - np.sqrt(w)))
        assert cross_concurrence_closed("a1c2", amps, init) == pytest.approx(expect)

    def test_rejects_other_pairs(self):
        amps = amplitudes_exact(0.3, P_STRONG)
        init = InitialAmplitudes.from_ratio(1.0)
        with pytest.raises(ValueError):
            cross_concurrence_closed("a1a2", amps, init)

    def test_cross_pairs_vanish_without_initial_superposition(self):
        # alpha = 0 gives a product of two chain states: no cross
        # entanglement anywhere
        init = InitialAmplitudes(alpha=0.0, beta=1.0)
        for pair in CROSS_PAIRS:
            assert pair_concurrence(pair, 0.7, init, P_STRONG) < 1e-10


class TestGlobalTangle:
    def test_conserved(self):
        init = InitialAmplitudes.from_ratio(2.0)
        expect = 2.0 * init.alpha * init.beta
        for p in (P_STRONG, P_WEAK):
            for t in (0.0, 0.5, 3.0, 20.0):
                assert global_tangle(t, init, p) == pytest.approx(expect, abs=1e-12)
