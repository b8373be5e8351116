"""Brent's root finder.

A line-for-line port of SciPy's ``Zeros/brentq.c`` (R. P. Brent,
*Algorithms for Minimization without Derivatives*, 1973, ch. 4).  It
takes the steps of the C code in the same IEEE double operations on
Python floats, so its root equals SciPy's ``optimize.brentq(f, a, b,
xtol=xtol)`` to the last bit.
"""

import math
import sys

RTOL = 4.0 * sys.float_info.epsilon  # SciPy's default and least rtol
MAXITER = 100


def _value(f, x):
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x:f} is NaN; solver cannot continue.")
    return fx


def brentq(f, a, b, xtol):
    """Root of the scalar function ``f`` in [a, b], to xtol + RTOL |root|.

    Raises ValueError if ``f`` is NaN or has one sign at both ends,
    RuntimeError if no root is found in MAXITER steps.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    xpre, xcur = float(a), float(b)
    fpre, fcur = _value(f, xpre), _value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        short = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
            except ZeroDivisionError:
                pass  # C divides to inf or nan, which never makes a short step
        if short:
            spre, scur = scur, stry
        else:
            # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = _value(f, xcur)
    raise RuntimeError(f"Failed to converge after {MAXITER} iterations.")
