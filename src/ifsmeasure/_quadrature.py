"""Adaptive Gauss-Legendre quadrature on finite intervals.

Panels are refined globally, worst error estimate first, until the summed
estimate meets an absolute budget.  Global refinement stays robust for
integrands with isolated kinks or jumps, where the usual per-panel
tolerance halving can stall (the local budget and the local error then
shrink at the same rate).  A panel calls its integrand once, on all 15
nodes, and adds the weighted rows in node order.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from .exceptions import RefinementLimit
from .hilbert import _EPS, _norm

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)
_MAX_PANELS = 16384


def _panel(f, a: float, b: float):
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    t = mid + half * _NODES
    v = f(t)
    finite = np.isfinite(v).reshape(len(t), -1).all(axis=1)
    if not finite.all():
        raise ValueError("integrand returned a non-finite value at "
                         f"t={t[np.argmin(finite)]!r}")
    # a running sum adds the rows one at a time, in node order
    w = _WEIGHTS.reshape((-1,) + (1,) * (v.ndim - 1))
    return half * np.cumsum(w * v, axis=0)[-1]


def adaptive_gauss(f, a: float, b: float, abs_tol: float):
    """Integrate ``f`` over ``[a, b]`` to absolute accuracy ``abs_tol``.

    ``f`` maps a 1-D array of k points to k rows, each the value at its
    point: a scalar or a fixed-shape ndarray.  Returns the refined
    estimate; raises RefinementLimit past 16384 panels, or at once when
    ``abs_tol`` is below the rounding of the first estimate.
    """
    if b <= a:
        return 0.0 * _panel(f, a, a + max(1e-12, abs(a) * 1e-12))

    def make(lo, hi):
        coarse = _panel(f, lo, hi)
        mid = 0.5 * (lo + hi)
        fine = _panel(f, lo, mid) + _panel(f, mid, hi)
        return fine, _norm(coarse - fine)

    counter = itertools.count()  # tiebreaker keeps heap order deterministic
    val, err = make(a, b)
    rounding = _EPS * _norm(val)
    if abs_tol < rounding:
        raise RefinementLimit(f"tol={abs_tol:g} is below the rounding "
                              f"of the integral (about {rounding:g})")
    heap = [(-err, next(counter), a, b, val, err)]
    n_panels = 1
    total_err = err
    while total_err > abs_tol:
        if n_panels >= _MAX_PANELS:
            raise RefinementLimit(
                f"quadrature needs more than {_MAX_PANELS} panels for tol={abs_tol:g}")
        _, _, lo, hi, _, popped_err = heapq.heappop(heap)
        total_err -= popped_err
        mid = 0.5 * (lo + hi)
        for seg in ((lo, mid), (mid, hi)):
            v, e = make(*seg)
            heapq.heappush(heap, (-e, next(counter), seg[0], seg[1], v, e))
            total_err += e
        n_panels += 1
    # sum in position order so the result does not depend on heap layout
    return np.cumsum([it[4] for it in sorted(heap, key=lambda it: it[2])],
                     axis=0)[-1]
