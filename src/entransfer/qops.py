"""Dense complex-matrix kernel for small quantum systems.

Density-matrix validation, partial trace / partial transpose over tensor
factors, and the two-qubit entanglement measures of the reference route
in :mod:`entransfer.jointstate`: Wootters concurrence, the
negativity-based concurrence for X-form states, and the pure-state
I-concurrence.  No runtime module imports it.

All functions are pure; none of them mutates its arguments.
"""

import numpy as np

# Tolerances for validating matrices produced by closed-form expressions.
# They accumulate rounding error only, so these can be tight.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
POSITIVITY_FLOOR = -1e-10

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(SIGMA_Y, SIGMA_Y).real  # real matrix, entries in {0, +-1}


def _as_square(m):
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def validate_density_matrix(rho, dim=None):
    """Check Hermiticity, unit trace and positivity of a density matrix.

    Returns the validated array; raises ValueError on violation.
    """
    rho = _as_square(rho)
    if dim is not None and rho.shape[0] != dim:
        raise ValueError(f"expected dimension {dim}, got {rho.shape[0]}")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {np.trace(rho).real} != 1")
    if np.linalg.eigvalsh(rho)[0] < POSITIVITY_FLOOR:
        raise ValueError("density matrix has a significantly negative eigenvalue")
    return rho


def partial_trace(rho, dims, keep):
    """Trace out all tensor factors except ``keep``.

    Parameters
    ----------
    rho : (D, D) array with D = prod(dims)
    dims : dimensions of the tensor factors, e.g. (2, 2) or (2,)*6
    keep : sequence of distinct factor indices; its order fixes the factor
        order of the result.
    """
    rho = _as_square(rho)
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    if int(np.prod(dims)) != rho.shape[0]:
        raise ValueError(f"dims {dims} inconsistent with matrix of size {rho.shape[0]}")
    keep = tuple(int(k) for k in keep)
    if any(k < 0 or k >= n for k in keep) or len(set(keep)) != len(keep):
        raise ValueError(f"invalid subsystem selection {keep} for {n} factors")

    t = rho.reshape(dims + dims)
    row = list(range(n))
    col = [n + i if i in keep else i for i in range(n)]
    out = [i for i in keep] + [n + i for i in keep]
    red = np.einsum(t, row + col, out)
    d = int(np.prod([dims[i] for i in keep]))
    return red.reshape(d, d)


def partial_transpose(rho, dims, subsystem):
    """Transpose the indices of factor ``subsystem`` (0 or 1) of a
    bipartite operator."""
    rho = _as_square(rho)
    da, db = int(dims[0]), int(dims[1])
    if da * db != rho.shape[0]:
        raise ValueError(f"dims {dims} inconsistent with matrix of size {rho.shape[0]}")
    if subsystem not in (0, 1):
        raise ValueError(f"subsystem must be 0 or 1, got {subsystem!r}")
    axes = (2, 1, 0, 3) if subsystem == 0 else (0, 3, 2, 1)
    return rho.reshape(da, db, da, db).transpose(axes).reshape(da * db, da * db)


def _psd_sqrt(rho):
    ev, u = np.linalg.eigh(rho)
    ev = np.clip(ev, 0.0, None)
    return (u * np.sqrt(ev)) @ u.conj().T


# entries outside the X pattern below this threshold are treated as zero
X_SPARSITY_TOL = 1e-12

_X_OFF_PATTERN = ~np.array([[1, 0, 0, 1], [0, 1, 1, 0],
                            [0, 1, 1, 0], [1, 0, 0, 1]], dtype=bool)


def _x_state_concurrence(rho):
    # exact spectrum of the spin-flipped product for X states:
    # C = 2 max(0, |rho14| - sqrt(rho22 rho33), |rho23| - sqrt(rho11 rho44))
    outer = abs(rho[0, 3]) - np.sqrt(max(0.0, rho[1, 1].real * rho[2, 2].real))
    inner = abs(rho[1, 2]) - np.sqrt(max(0.0, rho[0, 0].real * rho[3, 3].real))
    return float(max(0.0, 2.0 * outer, 2.0 * inner))


def wootters_concurrence(rho):
    """Wootters concurrence of a two-qubit density matrix.

    C = max(0, l1 - l2 - l3 - l4) where the l_i are the descending square
    roots of the eigenvalues of rho (sy x sy) rho* (sy x sy).  X-form
    matrices take the machine-precise analytic branch; everything else is
    evaluated through the Hermitian form
    sqrt(rho) (sy x sy) rho* (sy x sy) sqrt(rho), which has the same
    spectrum and avoids the non-Hermitian eigensolver (at the cost of
    ~sqrt(eps) accuracy near pure states).
    """
    rho = validate_density_matrix(rho, dim=4)
    if np.max(np.abs(rho[_X_OFF_PATTERN])) < X_SPARSITY_TOL:
        return _x_state_concurrence(rho)
    rt = _psd_sqrt(rho)
    m = rt @ _YY @ rho.conj() @ _YY @ rt
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(m), 0.0, None))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def negativity_concurrence(rho):
    """max(0, -2 * min eigenvalue of the partial transpose).

    On a two-qubit X state it is positive exactly when the Wootters
    concurrence is; where both are positive they are equal only if the
    entangling coherence links equally populated states: rho[1,1] =
    rho[2,2] for a |00>-|11> coherence, rho[0,0] = rho[3,3] for a
    |01>-|10> one.
    """
    rho = validate_density_matrix(rho, dim=4)
    pt = partial_transpose(rho, (2, 2), 1)
    return float(max(0.0, -2.0 * np.linalg.eigvalsh(pt)[0]))


def i_concurrence(psi, dims):
    """I-concurrence sqrt(2 (1 - Tr rho_A^2)) of a bipartite pure state."""
    psi = np.asarray(psi, dtype=complex).ravel()
    da, db = int(dims[0]), int(dims[1])
    if da * db != psi.size:
        raise ValueError(f"dims {dims} inconsistent with vector of size {psi.size}")
    nrm = np.linalg.norm(psi)
    if not abs(nrm - 1.0) <= 1e-12:       # a NaN norm fails too
        raise ValueError(f"state norm {nrm} != 1")
    m = psi.reshape(da, db)
    rho_a = m @ m.conj().T
    val = 2.0 * (1.0 - np.trace(rho_a @ rho_a).real)
    return float(np.sqrt(max(0.0, val)))
