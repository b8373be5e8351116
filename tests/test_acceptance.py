"""Acceptance gate: ten numbered criteria, one verdict line each.

Every criterion prints ``ACCEPTANCE <n>: PASS/FAIL`` (run pytest with
``-s`` or check captured output).  Each criterion asserts what the
closed forms promise at its parameter point: where a paper claim is a
limit (complete transfer as t -> infinity) or leading order (the
strong-coupling birth time, the dropped intermediate level), the test
states the time, the bound or the detuning at which it holds and
derives that from the exact dynamics, rather than asserting the
leading-order number where the exact dynamics departs from it.
"""

import csv
import os
import time

import numpy as np
import pytest

from entransfer import qops
from entransfer.amplitudes import SystemParams, amplitudes_exact, exact_squares
from entransfer.events import (
    dead_window,
    detect_events,
    cavity_boundary,
    cavity_entangled_intervals,
    cavity_phase,
    esb_time_strong,
    weak_event_times,
)
from entransfer.jointstate import (
    CROSS_PAIRS,
    DIAGONAL_PAIRS,
    InitialAmplitudes,
    collective_chain,
    concurrence_closed,
    cross_concurrence_closed,
    global_tangle,
    joint_state,
    pair_concurrence,
    reduced_pair,
    rho_closed,
)
from entransfer.oracle import (
    ReservoirDiscretization,
    discretized_errors,
    lindblad_max_error,
)

REPORT_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "reports")


def verdict(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_discretized_oracle_agreement():
    # the `validate` defaults; the closed forms drop the intermediate
    # level, an error of order 4 g_eff / Delta that no N or B removes, so
    # agreement to the tolerance needs 4 g_eff / Delta below it
    tol = 0.02
    p = SystemParams.from_geff(5.0, Delta=1e4)
    d = ReservoirDiscretization(n_modes=2000, bandwidth=200.0)
    dropped = 4.0 * p.g_eff / p.Delta
    start = time.monotonic()
    err = discretized_errors(p, d, 10.0)[0]
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    verdict(1, dropped < tol and err < tol,
            f"max |squared amplitude| error {err:.4f} vs < {tol}; dropped-level "
            f"scale 4 g_eff/Delta = {dropped:.4f} vs < {tol} (g_eff=5, "
            f"Delta=1e4, N=2000, B=200; {elapsed:.1f}s)")


def test_criterion_2_lindblad_agreement():
    p = SystemParams.from_geff(5.0, Delta=1e5)
    grid = np.linspace(0.0, 10.0, 101)
    err = lindblad_max_error(p, grid)
    verdict(2, err < 1e-3,
            f"max matrix-element error {err:.2e} vs < 1e-3 over kt in [0, 10]")


def test_criterion_3_initial_and_final_entanglement():
    init = InitialAmplitudes(alpha=1.0 / np.sqrt(2.0), beta=1.0 / np.sqrt(2.0))
    c0 = concurrence_closed("a1a2", amplitudes_exact(0.0, SystemParams.from_geff(0.1)), init)
    exact_start = c0 == 2.0 * init.alpha * init.beta
    gamma = 0.1
    p = SystemParams.from_geff(gamma)
    # complete transfer is a t -> infinity limit: take ten atomic decay
    # times 1 / (4 gamma^2 kappa)
    t_final = 10.0 / (4.0 * gamma**2 * p.kappa)
    c_end = concurrence_closed("r1r2", amplitudes_exact(t_final, p), init)
    target = 2.0 * init.alpha * init.beta
    transferred = abs(c_end - target) < 1e-2
    verdict(3, exact_start and transferred,
            f"C_a1a2(0)={c0} (= 2ab: {exact_start}); "
            f"C_r1r2({t_final:g})={c_end:.4f} vs {target:.4f} +- 0.01 "
            f"(within: {transferred})")


def test_criterion_4_tangle_conservation():
    rng = np.random.default_rng(42)
    worst_std = 0.0
    for _ in range(20):
        alpha = rng.uniform(0.1, 0.9)
        init = InitialAmplitudes(alpha=alpha, beta=float(np.sqrt(1.0 - alpha**2)))
        gamma = rng.uniform(0.05, 5.0)
        p = SystemParams.from_geff(gamma)
        ts = np.linspace(0.0, 20.0, 200)
        tangles = np.array([global_tangle(t, init, p) for t in ts])
        assert np.allclose(tangles.mean(), 2.0 * init.alpha * init.beta, atol=1e-9)
        worst_std = max(worst_std, tangles.std())
    verdict(4, worst_std < 1e-10,
            f"sqrt(tau) std {worst_std:.2e} vs < 1e-10 over 20 random (alpha, gamma)")


def strong_esb_shift_bound(p):
    """Largest shift of the exact reservoir birth time from the
    leading-order 2 ln(beta/alpha) / kappa: 1 - R^2 is e^{-kappa t/2} times
    a factor in [1 - kappa/4w, 1 + kappa/4w + kappa^2/8w^2], w = omega_bar."""
    x = p.kappa / (4.0 * abs(p.omega_bar))
    return (2.0 / p.kappa) * max(np.log(1.0 + x + 2.0 * x**2), -np.log(1.0 - x))


@pytest.mark.parametrize("ratio", [1.2, 1.5, 2.0, 3.0])
def test_criterion_5_strong_esb_time(ratio):
    init = InitialAmplitudes.from_ratio(ratio)
    p = SystemParams.from_geff(5.0)
    births = [ev for ev in detect_events("r1r2", init, p, 4.0)
              if ev.kind == "ESB"]
    assert len(births) == 1
    predict = esb_time_strong(init)
    shift = births[0].time - predict
    bound = strong_esb_shift_bound(p)
    verdict(5, abs(shift) < bound,
            f"beta/alpha={ratio}: detected {births[0].time:.4f} vs predicted "
            f"{predict:.4f} (shift {shift:+.4f} vs |shift| < {bound:.4f}, "
            f"the leading-order error bound from omega_bar)")


def test_criterion_6_weak_event_times():
    init = InitialAmplitudes.from_ratio(3.0)
    gamma = 0.05
    p = SystemParams.from_geff(gamma)
    wt = weak_event_times(init, gamma)
    deaths = [ev for ev in detect_events("a1a2", init, p, 140.0)
              if ev.kind == "ESD"]
    births = [ev for ev in detect_events("r1r2", init, p, 140.0)
              if ev.kind == "ESB"]
    assert deaths and births
    rel_d = abs(deaths[0].time - wt.t_esd) / wt.t_esd
    rel_b = abs(births[0].time - wt.t_esb) / wt.t_esb
    verdict(6, rel_d < 0.05 and rel_b < 0.05,
            f"gamma=0.05, beta=3alpha: ESD dev {100 * rel_d:.1f}%, "
            f"ESB dev {100 * rel_b:.1f}% vs < 5%")


def window_midpoint_claims(init, p, mid):
    """Brute-force concurrences at the dead-window midpoint: the six
    non-interacting pairs must vanish while a1c1 / c1r1 stay finite."""
    dead = {pair: pair_concurrence(pair, mid, init, p)
            for pair in DIAGONAL_PAIRS + CROSS_PAIRS}
    alive = {pair: pair_concurrence(pair, mid, init, p)
             for pair in ("a1c1", "c1r1")}
    return dead, alive


def test_criterion_7_dead_window():
    p = SystemParams.from_geff(0.1)
    init = InitialAmplitudes.from_ratio(3.0)
    win = dead_window(init, p, 60.0)
    assert win is not None
    width = win[1] - win[0]
    target = 25.0 * np.log(2.0)
    width_ok = abs(width - target) / target < 0.10
    absent = dead_window(InitialAmplitudes.from_ratio(1.9), p, 60.0) is None
    mid = 0.5 * (win[0] + win[1])
    dead, alive = window_midpoint_claims(init, p, mid)
    dead_ok = all(v < 1e-12 for v in dead.values())
    alive_ok = all(v > 1e-4 for v in alive.values())
    verdict(7, width_ok and absent and dead_ok and alive_ok,
            f"window {win[0]:.2f}-{win[1]:.2f} width {width:.2f} vs 25 ln2 = "
            f"{target:.2f}; absent at beta=1.9alpha: {absent}; midpoint dead "
            f"max {max(dead.values()):.1e}, interacting min "
            f"{min(alive.values()):.3f}")


def test_criterion_8_phase_boundary():
    b = cavity_boundary(0.1)
    boundary_ok = abs(b - 0.972) <= 0.005
    entangled_ok = cavity_phase(0.1, 0.985) == "entangled"
    # gamma < 1/4 is overdamped: |G|^2 peaks once, so the entangled set is
    # one interval from an ESB to an ESD, both found by event detection
    intervals = cavity_entangled_intervals(0.1, 0.985)
    horizon = 60.0
    events = detect_events("c1c2", InitialAmplitudes.from_ratio(1.0 / 0.985),
                           SystemParams.from_geff(0.1), horizon)
    kinds = [ev.kind for ev in events]
    one_interval = (
        len(intervals) == 1 and kinds == ["ESB", "ESD"]
        and 0.0 < events[0].time < events[1].time < horizon
        and all(abs(end - ev.time) < 1e-8 for end, ev in zip(intervals[0], events)))
    verdict(8, boundary_ok and entangled_ok and one_interval,
            f"boundary {b:.4f} vs 0.972 +- 0.005 ({boundary_ok}); ratio 0.985 "
            f"entangled ({entangled_ok}); entangled set "
            f"{[(round(lo, 6), round(hi, 6)) for lo, hi in intervals]} vs one "
            f"interval ending at the c1c2 {kinds} at "
            f"{[round(ev.time, 6) for ev in events]} ({one_interval})")


def test_criterion_9_property_suites():
    rng = np.random.default_rng(7)
    # (a) Wootters vs negativity on the model's X states, >= 1000 cases
    max_dev_c = 0.0
    geffs = (0.05, 0.1, 0.5, 5.0)
    for k in range(1000):
        p = SystemParams.from_geff(geffs[k % 4])
        init = InitialAmplitudes.from_ratio(rng.uniform(0.2, 4.0))
        t = rng.uniform(0.01, 30.0)
        pair = DIAGONAL_PAIRS[k % 3]
        rho = rho_closed(pair, amplitudes_exact(t, p), init)
        max_dev_c = max(max_dev_c, abs(qops.wootters_concurrence(rho)
                                       - qops.negativity_concurrence(rho)))
    # (b) closed-form vs partial-trace matrices
    max_dev_m = 0.0
    p = SystemParams.from_geff(5.0)
    for _ in range(50):
        init = InitialAmplitudes.from_ratio(rng.uniform(0.2, 4.0))
        t = rng.uniform(0.0, 10.0)
        amps = amplitudes_exact(t, p)
        psi = joint_state(t, init, p)
        for pair in DIAGONAL_PAIRS:
            max_dev_m = max(max_dev_m, np.max(np.abs(
                rho_closed(pair, amps, init) - reduced_pair(psi, pair))))
    # (c) collective-chain orthonormality
    chain = collective_chain(
        ReservoirDiscretization(n_modes=256, bandwidth=100.0), 20)
    gram_dev = np.max(np.abs(chain.vectors @ chain.vectors.T - np.eye(20)))
    # (d) oracle convergence ladders, monotone in N and in B
    pd = SystemParams.from_geff(5.0, Delta=5e4)
    ladder_n = [discretized_errors(
                    pd, ReservoirDiscretization(n_modes=n, bandwidth=200.0), 10.0)[0]
                for n in (125, 250, 500)]
    ladder_b = [discretized_errors(
                    pd, ReservoirDiscretization(n_modes=int(b / 0.4), bandwidth=b),
                    10.0)[0]
                for b in (50.0, 100.0, 200.0)]
    mono = (ladder_n[0] > ladder_n[1] > ladder_n[2]
            and ladder_b[0] > ladder_b[1] > ladder_b[2])
    ok = max_dev_c < 1e-10 and max_dev_m < 1e-12 and gram_dev < 1e-10 and mono
    verdict(9, ok,
            f"Wootters-negativity dev {max_dev_c:.1e} (<1e-10); matrix dev "
            f"{max_dev_m:.1e} (<1e-12); chain gram dev {gram_dev:.1e} (<1e-10); "
            f"ladders N {['%.3f' % e for e in ladder_n]} / "
            f"B {['%.3f' % e for e in ladder_b]} monotone: {mono}")


def test_criterion_10_cross_concurrence_audit():
    p = SystemParams.from_geff(0.1)
    rows = []
    max_diff = 0.0
    for ratio in (1.0, 1.5, 2.0, 3.0):
        init = InitialAmplitudes.from_ratio(ratio)
        for t in np.linspace(0.0, 60.0, 31):
            amps = amplitudes_exact(t, p)
            for pair in CROSS_PAIRS:
                printed = cross_concurrence_closed(pair, amps, init)
                brute = pair_concurrence(pair, t, init, p)
                diff = abs(printed - brute)
                max_diff = max(max_diff, diff)
                rows.append((pair, "%.6g" % ratio, "%.6g" % t,
                             "%.12g" % printed, "%.12g" % brute, "%.3e" % diff))
    os.makedirs(REPORT_DIR, exist_ok=True)
    report = os.path.join(REPORT_DIR, "cross_concurrence_audit.csv")
    with open(report, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("pair", "ratio", "t", "printed_formula",
                         "partial_trace", "abs_diff"))
        writer.writerows(rows)
    # no pass/fail on the printed form itself; the audit artifact must
    # exist and the brute-force route must satisfy the window claims
    init = InitialAmplitudes.from_ratio(3.0)
    win = dead_window(init, p, 60.0)
    mid = 0.5 * (win[0] + win[1])
    dead, alive = window_midpoint_claims(init, p, mid)
    ok = (os.path.isfile(report)
          and all(v < 1e-12 for v in dead.values())
          and all(v > 1e-4 for v in alive.values()))
    verdict(10, ok,
            f"audit written ({len(rows)} rows, max |printed - brute| "
            f"{max_diff:.3f}); brute-force window claims hold: {ok}")
