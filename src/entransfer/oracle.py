"""Brute-force validation routes for the closed-form amplitudes: the two
oracles that ``entransfer validate`` runs.

* exact unitary evolution of the full atom-cavity-reservoir Hamiltonian
  with an explicitly discretized reservoir (flat spectral density,
  uniform couplings g_k = sqrt(kappa * dw / 2 pi)).  Its spectrum is
  solved from the secular equation of this "picket-fence" model (Bixon
  and Jortner, J. Chem. Phys. 48, 715 (1968)), whose mode sums have
  digamma closed forms, in O(N) time and memory per iteration and a few
  iterations; the dense eigendecomposition that checks it lives in the
  reference route, :mod:`entransfer.jointstate`.  On the uniform grid of
  T sample times each phase exp(-i lam t) factors into one of ~sqrt(T)
  coarse and one of ~sqrt(T) fine phases, so the populations take
  O(sqrt(T) N) cosines and sines plus O(T N) BLAS work.
  Its error against the closed forms has two terms that partly cancel:
  the dropped intermediate level (~4 g_eff / Delta) and the finite
  bandwidth B.  Once the recurrence time exceeds the horizon the mode
  count does not set it: at g_eff = 5, Delta = 1e4, B = 200 the error is
  0.0034 with N = 2000, 4000 and 20000 (the last two differ by 5e-10),
  and 0.0018 with B = 400; and
* a fixed-step RK4 integration of the dissipative atom-cavity master
  equation on the four states the excitation reaches from |e0>:
  |e0>, |c0>, |g1> and, once the photon leaks out, |g0>.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .amplitudes import _check_grid, _squares, amplitudes_exact, exact_squares
from .errors import ConfigError, require_memory

_ERROR_SAMPLES = 201    # times in [0, horizon] that discretized_errors compares
# peak bytes per reservoir mode of discretized_errors, measured with numpy 2
# on CPython 3.11
_MODE_BYTES = 1536


@dataclass(frozen=True)
class ReservoirDiscretization:
    """Uniform flat-band discretization of one reservoir.

    n_modes modes span ``bandwidth`` centred on the cavity frequency;
    every mode couples with g_k = sqrt(kappa * spacing / 2 pi), kappa the
    chain's decay rate, which reproduces it in the continuum limit.
    """

    n_modes: int
    bandwidth: float

    def __post_init__(self):
        if self.n_modes < 0:
            raise ValueError("n_modes must be non-negative")
        if not (np.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError("bandwidth must be positive and finite")
        if self.n_modes and self.spacing == 0.0:
            raise ValueError(f"bandwidth {self.bandwidth:g} over {self.n_modes} modes "
                             "underflows the mode spacing to 0")

    @property
    def spacing(self):
        return self.bandwidth / self.n_modes if self.n_modes else 0.0

    @property
    def offsets(self):
        """Mode detunings omega_k - omega, symmetric around resonance."""
        n = self.n_modes
        return (np.arange(n) - (n - 1) / 2.0) * self.spacing

    @property
    def recurrence_time(self):
        return 2.0 * np.pi / self.spacing if self.n_modes else np.inf

    def validate(self, p, horizon):
        """Check that this oracle run can stand in for the closed forms
        over ``horizon``: a mode, no recurrence, bandwidth well above every
        system rate and Delta well above g and Omega.  Warns on each
        violation; True if there is none."""
        problems = []
        if not self.n_modes:
            problems.append("no reservoir modes")
        if self.recurrence_time <= horizon:
            problems.append(
                f"recurrence time {self.recurrence_time:.3g} <= horizon {horizon:.3g}")
        floor = 20.0 * max(p.kappa, p.g_eff, abs(p.omega_bar))
        if self.bandwidth < floor:
            problems.append(f"bandwidth {self.bandwidth:.3g} < {floor:.3g}")
        if p.Delta < 10.0 * max(p.g, p.Omega):
            problems.append("Delta is not large compared to the couplings "
                            f"(Delta={p.Delta}, g={p.g}, Omega={p.Omega}); "
                            "the effective two-level description degrades")
        for msg in problems:
            warnings.warn(msg, stacklevel=2)
        return not problems


# --- secular solve of the picket-fence reservoir ------------------------------

def _root_pair(mean, radius, product):
    """The roots mean -+ radius of x^2 - 2 mean x + product, ascending; the
    one of smaller magnitude is the product over the other, so neither
    cancels."""
    big = mean + math.copysign(radius, mean)
    return tuple(sorted((product / big, big)))


# Bernoulli numbers B_2 .. B_18: psi(y) ~ ln y - 1/2y - sum_k B_2k / (2k y^2k)
# and psi1(y) ~ 1/y + 1/2y^2 + sum_k B_2k / y^(2k+1); at y >= 10 the first
# omitted terms are below 3e-19 and 5e-19 (the digamma function psi and the
# trigamma function psi1 = polygamma(1, .))
_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0,
              -691.0 / 2730.0, 7.0 / 6.0, -3617.0 / 510.0, 43867.0 / 798.0)
_PSI_WEIGHTS = tuple(b / (2 * k) for k, b in enumerate(_BERNOULLI, 1))


def _series(z, weights):
    """sum_k weights[k - 1] z^(2k), k = 1, 2, ..."""
    z2 = z * z
    acc = 0.0
    for w in reversed(weights):
        acc = (acc + w) * z2
    return acc


def _mode_sums(u, n):
    """sum_{j < n} 1 / (u + j) and sum_{j < n} 1 / (u + j)^2, that is
    psi(u + n) - psi(u) and psi1(u) - psi1(u + n), for u > 0 and n >= 0,
    each to a few ulps relative: ten steps of psi(y + 1) = psi(y) + 1 / y
    and psi1(y + 1) = psi1(y) - 1 / y^2, then the difference of the
    asymptotic series at u + 10 and u + n + 10, led by log1p; nothing
    cancels, also where u >> n."""
    first = second = 0.0
    top = u + n
    for j in range(10):
        a, b = u + j, top + j
        first = first + n / b / a
        second = second + n * (a + b) / (b * b) / a / a
    z1, z2 = 1.0 / (u + 10.0), 1.0 / (top + 10.0)
    step = n * z1 * z2
    first = (first + np.log1p(n * z1) + 0.5 * step
             + _series(z1, _PSI_WEIGHTS) - _series(z2, _PSI_WEIGHTS))
    second = (second + step * (1.0 + 0.5 * (z1 + z2))
              + z1 * _series(z1, _BERNOULLI) - z2 * _series(z2, _BERNOULLI))
    return first, second


def _heads(p, offsets):
    """The eigenvalues h-+ of the (e, c) block [[-delta, Omega], [Omega,
    Delta]], h-+ + delta, the shares a-+ = u_c^2 of |c00> in their
    eigenvectors, whether each head's coupling g sqrt(a-+) to |g10> is
    deflated, and the floor 8 eps |H| it is deflated below, |H| the largest
    of |h-+|, the mode ``offsets``, g and Omega."""
    om, delta = p.Omega, p.delta
    radius = math.hypot((p.Delta + delta) / 2.0, om)
    heads = np.array(_root_pair((p.Delta - delta) / 2.0, radius,
                                -delta * p.Delta - om * om))
    shifted = np.array(_root_pair((p.Delta + delta) / 2.0, radius, -om * om))
    share = np.abs(shifted) / (2.0 * radius)
    floor = 8.0 * np.finfo(float).eps * max(
        np.max(np.abs(heads)), np.max(np.abs(offsets), initial=0.0), p.g, om)
    return heads, shifted, share, p.g * np.sqrt(share) <= floor, floor


def spectrum(p, d):
    """Eigenvalues of the real single-excitation Hamiltonian over
    {|e00>, |c00>, |g10>, |g0 1_k>} (``jointstate.build_hamiltonian(p, d)``,
    of dimension N + 3) and the |e00>, |c00> and |g10> components of their
    normalized eigenvectors (shape (3, N + 3)), in ascending order of
    eigenvalue.

    The (e, c) block [[-delta, Omega], [Omega, Delta]] has eigenvalues h+-
    with eigenvectors (u_e, u_c), u_c^2 = a+-.  With v_g = 1 an eigenvector
    has v_c = g sum a / (lam - h) = g (lam + delta) / den,
    v_e = g Omega / den, den = (lam - h-)(lam - h+), and reservoir
    components c / (lam - omega_k), c^2 = kappa s / 2 pi.  Its eigenvalue
    solves the secular equation

        f(lam) = lam - c^2 S1(lam) - g v_c(lam) = 0,
        S1(lam) = sum_k 1 / (lam - omega_k),

    and its squared norm is f'(lam).  f increases between consecutive
    poles (the N modes and h+-), so each interval between them holds one
    root and one more lies beyond each outer pole, within the square root
    of the summed pole weights.  The mode sums have digamma closed forms:
    with u_lo, u_hi the distances from lam to the nearest modes below and
    above in units of s, and m modes below,

        s S1 = [psi(m + u_lo) - psi(u_lo)] - [psi(N - m + u_hi) - psi(u_hi)],

    and s^2 S2 = sum_k s^2 / (lam - omega_k)^2 likewise with the trigamma
    function; every argument is positive, so no sum is reflected, and
    ``_mode_sums`` evaluates each bracket without cancellation.  Each root
    is kept as an offset from its nearer pole.  A root between two modes
    starts from the picket-fence model of its cell,

        f ~ f_mid + D (lam - lam_mid) - (kappa / 2) cot(pi (lam - omega_lo) / s),

    which matches f and f' at the midpoint: from its root at D = 0,
    (lam - omega_lo) / s = 1/2 - arctan(2 f_mid / kappa) / pi, two Newton
    steps; the roots next to a head pole or beyond the outer poles start
    at their interval's midpoint.  Each is then found by a rational
    two-pole model in the manner of LAPACK's dlaed4 (the base pole at its
    own weight) inside a bisection bracket.  At the ``validate``
    parameters 80-93 % of the roots stop one step after the seed; each
    step evaluates f only on the roots still moving, so the cost is O(N)
    per step and no N x N matrix is formed.

    Deflation: a head pole exactly on a mode is itself an eigenvalue, with
    no |g10> component; so is a head pole, or are all modes, whose coupling
    is below 8 eps |H| (kappa = 0 or N = 0 among them), which moves the
    result by no more than the rounding of a dense solve would.

    Accuracy: each root is found to the rounding of f, and an eigenvector
    inherits that error over f' |lam - nearest pole|.  At the ``validate``
    parameters the populations agree with an extended-precision solve to
    a few ulps; with a head weight or a mode spacing many orders below the
    other scales, two nearly degenerate eigenvectors split their weight
    less accurately (5e-11 at g_eff = 1e-6, Delta = 1e4, N = 50, B = 200).
    """
    g, om, delta = p.g, p.Omega, p.delta
    offsets = d.offsets
    heads, shifted, share, weak, tol = _heads(p, offsets)   # weak: out of the secular sum
    s = d.spacing
    rate = p.kappa / (2.0 * np.pi)                 # c^2 / s
    eps = np.finfo(float).eps
    coupled = d.n_modes > 0 and math.sqrt(rate * s * d.n_modes) > tol
    modes = offsets if coupled else np.empty(0)
    nm = modes.size

    on_mode = np.zeros(2, dtype=bool)
    if nm:
        k = np.clip(np.rint((heads - modes[0]) / s), 0, nm - 1).astype(int)
        on_mode = ~weak & (heads == modes[k])
    # poles and their weights; a head on a mode adds its weight to the mode's
    in_sum = ~weak & ~on_mode
    poles = np.concatenate([modes, heads[in_sum]])
    weights = np.concatenate([np.full(nm, rate * s), g * g * share[in_sum]])
    if on_mode.any():
        np.add.at(weights, k[on_mode], g * g * share[on_mode])
    order = np.argsort(poles)
    poles, weights = poles[order], weights[order]
    reach = 2.0 * math.sqrt(rate * s * nm + g * g * np.sum(share[~weak]))
    lo = np.concatenate([[poles.min(initial=0.0) - reach], poles])
    hi = np.concatenate([poles, [poles.max(initial=0.0) + reach]])
    m = np.searchsorted(modes, lo, side="right")       # modes below each root
    counts = np.stack([m, nm - m]).astype(float)        # modes below, above
    mode_lo = modes[np.maximum(m - 1, 0)] if nm else np.zeros_like(lo)
    mode_hi = modes[np.minimum(m, nm - 1)] if nm else np.zeros_like(lo)
    lo_weight = np.concatenate([[0.0], weights])
    hi_weight = np.concatenate([weights, [0.0]])
    bottom, top = np.zeros((2, lo.size), dtype=bool)
    bottom[0] = top[-1] = True
    # lanes between two modes that carry no head weight
    plain = (order < nm) & (weights == rate * s)
    fence = np.zeros(lo.size, dtype=bool)
    fence[1:-1] = plain[:-1] & plain[1:]
    width = hi - lo
    # with a weak head left out, v_c and v_e come from the other one alone
    to_c = (g * share)[:, None]
    to_e = (g * om * share / shifted)[:, None]
    log_n = math.log(nm + 2.0)

    def frame(base):
        """Pole offsets from ``base``, exactly 0 for the base pole, and the
        mode counts below and above."""
        plus_delta = base + delta                # lam + delta = plus_delta + tau
        for h, hd in zip(heads, shifted):
            plus_delta = np.where(base == h, hd, plus_delta)
        return dict(base=base, plus_delta=plus_delta, mode_lo=mode_lo - base,
                    mode_hi=mode_hi - base, heads=heads[:, None] - base,
                    counts=counts)

    def terms(tau, fr):
        """f, a bound on its rounding error, f', v_e, v_c and c^2 S2 at
        lam = base + tau."""
        sums, norm_modes = np.zeros((2, 1)), 0.0
        if nm:
            # distances to the nearest modes below and above, in spacings
            below, above = fr["counts"] > 0.0
            u = np.stack([np.where(below, (tau - fr["mode_lo"]) / s, 1.0),
                          np.where(above, (fr["mode_hi"] - tau) / s, 1.0)])
            sums, squares = _mode_sums(u, fr["counts"])
            norm_modes = rate / s * (squares[0] + squares[1])
        # 1 / (lam - h+-), 0 for a head out of the secular sum
        inverse = np.where(weak[:, None], 0.0, 1.0 / (tau - fr["heads"]))
        if weak.any():
            v_c = np.sum(to_c * inverse, axis=0)
            v_e = np.sum(to_e * inverse, axis=0)
        else:   # one fraction: no cancellation between the two heads
            v_c = g * (fr["plus_delta"] + tau) * inverse[0] * inverse[1]
            v_e = g * om * inverse[0] * inverse[1]
        lam = fr["base"] + tau
        f = lam - rate * (sums[0] - sums[1]) - g * v_c
        f_err = 4.0 * eps * (np.abs(lam) + rate * (sums[0] + sums[1] + log_n) + np.abs(g * v_c))
        slope = 1.0 + norm_modes + np.sum(g * to_c * inverse**2, axis=0)
        return f, f_err, slope, v_e, v_c, norm_modes

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # evaluate at each interval's midpoint; keep the nearer pole as base
        base = np.where(bottom, hi, lo)
        half = np.where(bottom, -width / 2.0, width / 2.0)
        f_mid, _, slope_mid, *_ = terms(half, frame(base))
        upper = ~(bottom | top) & (f_mid < 0.0)
        at_lo = ~(bottom | upper)
        base = np.where(at_lo, lo, hi)
        tau = np.where(upper, -half, half)
        fr = frame(base)
        fr["weight"] = np.where(at_lo, lo_weight, hi_weight)
        fr["end"] = np.where(at_lo, hi, lo) - base
        fr["br_lo"] = np.where(f_mid < 0.0, tau, lo - base)
        fr["br_hi"] = np.where(f_mid < 0.0, hi - base, tau)
        if fence.any():
            # the picket-fence seed in x = tau / s, the offset from the base
            # pole in spacings: pi rate = kappa / 2, ``rest`` is the model's D,
            # and arctan(pi rate / f_mid) / pi is the docstring's start taken
            # from the base pole, so that a root next to either mode keeps
            # its relative precision
            rest = slope_mid - np.pi**2 * rate / s
            x = np.arctan(np.pi * rate / f_mid) / np.pi
            x_mid = np.where(upper, -0.5, 0.5)
            for _ in range(2):
                angle = np.pi * x
                x = x - ((f_mid + rest * s * (x - x_mid) - np.pi * rate / np.tan(angle))
                         / (rest * s + np.pi**2 * rate / np.sin(angle) ** 2))
            seed = s * x
            tau = np.where(fence & (seed > fr["br_lo"]) & (seed < fr["br_hi"]), seed, tau)
        # each pass evaluates only the lanes still moving and keeps, for each,
        # the root estimate it last evaluated with its v_e, v_c and c^2 S2
        lam, v_e, v_c, norm_modes = np.empty((4, lo.size))
        lanes = np.arange(lo.size)
        for _ in range(64):
            f, f_err, slope, *values = terms(tau, fr)
            lam[lanes] = fr["base"] + tau
            v_e[lanes], v_c[lanes], norm_modes[lanes] = values
            br_lo = np.where(f < 0.0, tau, fr["br_lo"])
            br_hi = np.where(f > 0.0, tau, fr["br_hi"])
            # the root of the model c + w / (0 - x) + s_o / (end - x) that
            # matches f and f' at tau, with the base pole at its own weight w
            # and the rest of f' on the interval's other end, solved for the
            # offset x from the base so that a root next to the base pole
            # does not cancel
            end = fr["end"]
            d_b = fr["weight"] / (tau * tau)
            d_o = np.maximum(slope - d_b, 0.0)
            qa = f + tau * d_b - (end - tau) * d_o
            qb = f * end + tau * (end + tau) * d_b - tau * (end - tau) * d_o
            qc = tau * tau * d_b * end
            q = qb + np.copysign(np.sqrt(np.abs(qb * qb - 4.0 * qa * qc)), qb)
            small, large = 2.0 * qc / q, q / (2.0 * qa)
            step = np.where((small > br_lo) & (small < br_hi), small, large)
            step = np.where((step > br_lo) & (step < br_hi), step, tau - f / slope)
            step = np.where((step > br_lo) & (step < br_hi), step, 0.5 * (br_lo + br_hi))
            moving = ~((np.abs(f) <= f_err) | (np.abs(step - tau) <= 2.0 * eps * np.abs(tau))
                       | (br_hi - br_lo <= 2.0 * eps * np.abs(tau)))
            if not moving.any():
                break
            fr["br_lo"], fr["br_hi"] = br_lo, br_hi
            fr = {key: value[..., moving] for key, value in fr.items()}
            lanes, tau = lanes[moving], step[moving]

    norm = np.sqrt(1.0 + v_e**2 + v_c**2 + norm_modes)
    lam = [lam]
    comps = [np.array([v_e, v_c, np.ones_like(v_e)]) / norm]
    for h, hd, a_c, on, out in zip(heads, shifted, share, on_mode, weak):
        if on or out:   # the head mode, mixed on a mode so that |g10> does not see it
            mix = math.sqrt(rate * s / (g * g * a_c + rate * s)) if on else 1.0
            u_c = math.sqrt(a_c)
            lam.append([h])
            comps.append(np.array([[mix * om * u_c / hd], [mix * u_c], [0.0]]))
    if d.n_modes and not coupled:
        lam.append(offsets)
        comps.append(np.zeros((3, d.n_modes)))
    lam = np.concatenate(lam)
    order = np.argsort(lam, kind="stable")
    return lam[order], np.concatenate(comps, axis=1)[:, order]


def populations(p, d, horizon, samples):
    """|e00>, |c00>, |g10> and summed reservoir populations at the
    ``samples`` times ``np.linspace(0, horizon, samples)``, shape
    (samples, 4), from ``spectrum``.

    psi_X(t) = sum_j v_Xj v_ej exp(-i lam_j t) over normalized eigenvectors;
    the reservoir holds what the three head levels do not.  The grid is
    uniform, so with m = ceil(sqrt(samples)) sample q m + r is the time
    t_qm + t_r and exp(-i lam t) factors into a coarse and a fine phase:
    the fine cosines and sines fold into the weights v_Xj v_ej as an
    (N + 3) x 6m block, and one product of it with the cosines and one
    with the sines of the ceil(samples / m) coarse rows give the real and
    imaginary parts of every amplitude by angle addition.  That is
    O(sqrt(samples) N) cosines and sines and O(samples N) BLAS work.
    """
    m = math.isqrt(samples - 1) + 1
    step = horizon / (samples - 1) if samples > 1 else 0.0
    lam, comps = spectrum(p, d)
    weights = (comps * comps[0]).T
    fine = np.outer(lam, step * np.arange(m))
    # (N + 3, 6m): columns 3r + X hold cos(lam t_r) v_X v_e, then 3m + 3r + X
    # the same with sin
    folded = (np.concatenate([np.cos(fine), np.sin(fine)], axis=1)[:, :, None]
              * weights[:, None, :]).reshape(lam.size, 6 * m)
    coarse = np.outer(step * m * np.arange(-(-samples // m)), lam)
    cos_part = np.cos(coarse) @ folded
    sin_part = np.sin(coarse) @ folded
    re = cos_part[:, :3 * m] - sin_part[:, 3 * m:]
    im = sin_part[:, :3 * m] + cos_part[:, 3 * m:]
    head = (re**2 + im**2).reshape(-1, 3)[:samples]
    return np.column_stack([head, 1.0 - head.sum(axis=1)])


# --- Lindblad route ---------------------------------------------------------

# the states the excitation reaches from |e0>: atomic level, photon number
IDX_E0, IDX_C0, IDX_G1, IDX_G0 = range(4)


def _liouvillian(p):
    h = np.zeros((4, 4))
    h[IDX_E0, IDX_E0] = -p.delta
    h[IDX_C0, IDX_C0] = p.Delta
    h[IDX_C0, IDX_E0] = h[IDX_E0, IDX_C0] = p.Omega
    # g (a |c><g| + a+ |g><c|) maps |g1> <-> |c0>
    h[IDX_C0, IDX_G1] = h[IDX_G1, IDX_C0] = p.g
    a = np.zeros((4, 4))
    a[IDX_G0, IDX_G1] = 1.0              # the cavity photon leaks out
    eye = np.eye(4)

    def kron(x, y):
        return np.multiply.outer(x, y).transpose(0, 2, 1, 3).reshape(16, 16)

    lv = -1j * (kron(h, eye) - kron(eye, h.T))
    n_op = a.T @ a
    anti = kron(n_op, eye) + kron(eye, n_op.T)
    jump = kron(a, a.conj())             # a rho a+
    return lv + (p.kappa / 2.0) * (2.0 * jump - anti)


def _lindblad_step(p):
    """The internal step of ``lindblad_evolve``, a Python float, so that a
    horizon over it overflows to inf without a numpy warning."""
    return 0.01 / float(max(p.kappa, abs(p.omega_bar), abs(p.Delta)))


def lindblad_evolve(p, grid):
    """RK4 integration of the dissipative atom-cavity master equation.

    Starts from |e0><e0| and returns the 4x4 density matrices over IDX_*
    at each grid time.  The internal step is 0.01 / max(kappa,
    |omega_bar|, |Delta|); because the generator is linear and constant,
    the fixed-step RK4 update is the degree-4 Taylor polynomial of the
    exact propagator, applied once per substep.  A horizon of more substeps
    than a float holds raises ValueError.
    """
    grid = _check_grid(grid)
    step = _lindblad_step(p)
    if not math.isfinite(float(grid[-1]) / step):
        raise ValueError(f"horizon {grid[-1]:g} takes more RK4 substeps of "
                         f"{step:.3g} than a float holds")
    lv = _liouvillian(p)
    term = rk4 = np.eye(16, dtype=complex)
    for k in (1, 2, 3, 4):
        term = term @ (step * lv) / k
        rk4 = rk4 + term

    rho = np.zeros((4, 4), dtype=complex)
    rho[IDX_E0, IDX_E0] = 1.0
    v = rho.reshape(16)
    out = np.empty((grid.size, 4, 4), dtype=complex)
    t_now = 0.0
    prop_cache = {}
    for i, t in enumerate(grid.tolist()):
        n_sub = int(round((t - t_now) / step))
        if n_sub:
            if n_sub not in prop_cache:
                prop_cache[n_sub] = np.linalg.matrix_power(rk4, n_sub)
            v = prop_cache[n_sub] @ v
            t_now += n_sub * step
        out[i] = v.reshape(4, 4)
    return out


def lindblad_max_error(p, grid):
    """Max deviation of the integrated populations/coherences of
    {|e0>, |g1>, |g0>} from the closed-form single-chain matrix."""
    rhos = lindblad_evolve(p, grid)
    amps = amplitudes_exact(np.asarray(grid, dtype=float), p)
    e2, g2, r2 = _squares(amps.E.real, amps.G.imag, p.kappa > 0)
    return float(max(
        np.max(np.abs(rhos[:, IDX_E0, IDX_E0].real - e2)),
        np.max(np.abs(rhos[:, IDX_G1, IDX_G1].real - g2)),
        np.max(np.abs(rhos[:, IDX_G0, IDX_G0].real - r2)),
        np.max(np.abs(rhos[:, IDX_E0, IDX_G1] - amps.E * np.conj(amps.G))),
    ))


def discretized_errors(p, d, horizon):
    """(amplitude_error, leakage) of the discretized-reservoir oracle over
    ``_ERROR_SAMPLES`` times in [0, horizon], from one secular solve.

    amplitude_error is the max deviation of |E|^2, |G|^2 and R^2 from the
    closed forms, with R^2 the summed reservoir-mode population; leakage
    is the max population of the far-detuned intermediate level, the
    size of the term the closed forms drop.  Raises ConfigError, before
    solving, when ``_MODE_BYTES`` per mode would not fit in physical
    memory, or when ``spectrum`` would deflate a head level that moves
    the populations within the horizon: the atom's coupling
    g sqrt(a-) ~ g_eff reaches that floor, 8 eps |H| ~ 8 eps Delta, near
    Delta = 3e15 at g_eff = 5, and the atom would never decay.  A head
    whose coupling c gives (c horizon)^2 <= eps moves them by less than
    the rounding the oracle already carries, and is deflated quietly.
    """
    if not (np.isfinite(horizon) and horizon >= 0):
        raise ValueError("horizon must be finite and non-negative")
    require_memory(_MODE_BYTES * (d.n_modes + 3.0),
                   f"the oracle at {d.n_modes} reservoir modes")
    _, _, share, weak, floor = _heads(p, d.offsets)
    if np.any((p.g * np.sqrt(share[weak]) * horizon)**2 > np.finfo(float).eps):
        raise ConfigError(
            f"Delta {p.Delta:g} is too large for g_eff {p.g_eff:g}: the secular "
            f"solve resolves no coupling below {floor:.3g} (8 eps |H|), so the "
            "oracle's atom would not decay")
    ts = np.linspace(0.0, horizon, _ERROR_SAMPLES)
    pops = populations(p, d, horizon, _ERROR_SAMPLES)
    e2, g2, r2 = exact_squares(ts, p)
    amplitude_error = max(np.max(np.abs(pops[:, 0] - e2)),
                          np.max(np.abs(pops[:, 2] - g2)),
                          np.max(np.abs(pops[:, 3] - r2)))
    return float(amplitude_error), float(np.max(pops[:, 1]))
