"""One-dimensional concave maximization and convex conjugation.

All exponential tail bounds in this package reduce to evaluating
``sup_{x >= 0} (x*u - f(x))`` for a convex log-MGF ``f``, or to inverting a
monotone function.  The routines here work on the extended real line:
an objective may return ``-inf`` (resp. ``+inf`` for ``f``) outside its
domain, and searches treat such points as barriers rather than failures.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

__all__ = [
    "NotBracketedError",
    "fenchel",
    "invert_monotone",
    "maximize_concave",
]

_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0
_FIRST_STEP = 1e-8
_MAX_DOUBLINGS = 64
_MAX_BRENT_STEPS = 200
_EPS = sys.float_info.epsilon


class NotBracketedError(ValueError):
    """A root or target value could not be bracketed on the search ray."""


def _brent_max(obj: Callable[[float], float], a: float, b: float, c: float,
               fa: float, fb: float, fc: float, tol: float,
               rtol: float) -> tuple[float, float]:
    """Brent's parabolic-plus-golden search for a maximum on [a, c].

    ``b`` is a point of [a, c] whose value ``fb`` is at least ``fa`` and
    ``fc``; it may be an end point, as for a scanned argmax at the edge
    of its grid.  Each step fits a parabola through the three best
    points and falls back to a golden-section step when the fit is not
    usable (a ``-inf`` among the points, a step outside the bracket, or
    one not shrinking fast enough).  Stops once the bracket is narrower
    than ``tol + rtol*|x|``.  Returns the best (x, obj(x)) seen.
    """
    x, fx = b, fb
    # the bracket ends are the first two runners-up, so the very first
    # step can already be parabolic
    (w, fw), (v, fv) = sorted(((a, fa), (c, fc)), key=lambda p: p[1],
                              reverse=True)
    d = e = c - a
    for _ in range(_MAX_BRENT_STEPS):
        m = 0.5 * (a + c)
        tol1 = 0.25 * (tol + rtol * abs(x)) + _EPS * abs(x)
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (c - a):
            break
        golden = True
        if abs(e) > tol1 and math.isfinite(fw) and math.isfinite(fv):
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (c - x):
                e, d = d, p / q
                u = x + d
                if u - a < tol2 or c - u < tol2:
                    d = tol1 if x < m else -tol1
                golden = False
        if golden:
            e = (a - x) if x >= m else (c - x)
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = obj(u)
        if fu >= fx:
            if u >= x:
                a = x
            else:
                c = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                c = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def maximize_concave(obj: Callable[[float], float], x_lo: float,
                     tol: float = 1e-9, x0: float | None = None,
                     rtol: float = 0.0) -> tuple[float, float]:
    """Maximize a concave objective on the ray [x_lo, inf).

    The search starts from ``x0`` (default ``x_lo + 1e-8``).  When
    ``obj(x0)`` beats ``obj(x_lo)`` the maximum is bracketed by doubling
    the step from ``x_lo`` outward until the objective stops increasing;
    otherwise by halving it towards ``x_lo``.  Brent's parabolic-plus-golden
    search then refines the bracket until it is narrower than
    ``tol + rtol*|x|``.

    An evaluation returning ``-inf`` is an ordinary point that loses every
    comparison: it closes a bracket like any decrease, and it blocks the
    parabolic step.  A ``-inf`` between ``x_lo`` and a finite value
    therefore never ends the search.  The best point evaluated is
    returned, so the value is never below ``obj(x_lo)``: if the objective
    still increases at the cap ``x_lo + 1e-8 * 2**63``, that is
    ``(cap, obj(cap))``; if no probe down to ``x_lo + 1e-8`` beats
    ``obj(x_lo)``, it is the origin ``(x_lo, obj(x_lo))``.

    ``obj(x_lo)`` must not be ``+inf`` or NaN.  A ``-inf`` there is a
    barrier like any other; when no probe is finite, ``(x_lo, -inf)`` is
    returned.
    """
    v_lo = obj(x_lo)
    if v_lo == math.inf or math.isnan(v_lo):
        raise ValueError("objective must be below +inf at the ray origin")
    cap = x_lo + _FIRST_STEP * 2.0 ** (_MAX_DOUBLINGS - 1)
    step = _FIRST_STEP
    if x0 is not None and math.isfinite(x0) and x0 > x_lo:
        step = min(x0 - x_lo, 0.5 * (cap - x_lo))
    x, v = x_lo + step, obj(x_lo + step)
    if v > v_lo:
        a, fa = x_lo, v_lo
        while x < cap:
            step *= 2.0
            c = min(x_lo + step, cap)
            fc = obj(c)
            if fc <= v:
                return _brent_max(obj, a, x, c, fa, v, fc, tol, rtol)
            a, fa, x, v = x, v, c, fc
        return x, v
    c, fc = x, v
    while step > _FIRST_STEP:
        step *= 0.5
        x, v = x_lo + step, obj(x_lo + step)
        if v > v_lo:
            return _brent_max(obj, x_lo, x, c, v_lo, v, fc, tol, rtol)
        c, fc = x, v
    return x_lo, v_lo


def fenchel(f: Callable[[float], float], u: float) -> float:
    """One-sided convex conjugate ``sup_{x >= 0} (x*u - f(x))``.

    ``f`` must be convex with ``f(0) = 0``; it may return ``+inf``
    outside its domain, which makes ``x*u - f(x)`` a ``-inf`` barrier.
    The result is always >= 0 (x = 0 is feasible); when the supremum
    still grows at the search cap it is the value there.
    """
    return maximize_concave(lambda x: x * u - f(x), 0.0)[1]


def invert_monotone(f: Callable[[float], float], y: float, x_lo: float,
                    x_hi_hint: float) -> float:
    """Solve f(x) = y for f continuous and strictly increasing on [x_lo, inf).

    The answer is never below the root: a point is accepted only when
    ``0 <= f(x) - y <= 1e-10 * |y|``.  Expands a bracket from
    ``x_hi_hint`` by doubling; its first end that reaches y is tested
    the same way, and the bracket is then bisected until a midpoint
    passes or it is narrower than ``4e-16 * |hi|``, when its upper end
    is returned.  Raises :class:`NotBracketedError` when ``y`` lies
    below ``f(x_lo)`` or is never reached before the expansion
    overflows.
    """
    tol_y = 1e-10 * abs(y)

    def above(fx: float) -> bool:
        return 0.0 <= fx - y <= tol_y

    f_lo = f(x_lo)
    if above(f_lo):
        return x_lo
    if f_lo > y:
        raise NotBracketedError(f"target {y} below f({x_lo}) = {f_lo}")

    step = max(x_hi_hint - x_lo, _FIRST_STEP)
    hi = x_lo + step
    for _ in range(200):
        if hi > 1e300:
            raise NotBracketedError(f"target {y} not reached before overflow")
        f_hi = f(hi)
        if f_hi >= y:
            break
        step *= 2.0
        hi = x_lo + step
    else:
        raise NotBracketedError(f"target {y} not reached on the search ray")
    if above(f_hi):
        return hi

    lo = x_lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if above(f_mid):
            return mid
        if f_mid < y:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 4e-16 * abs(hi):
            break
    return hi
