"""Adaptive Gauss-Legendre quadrature on finite intervals.

Panels are refined globally, worst error estimate first, until the summed
estimate meets an absolute budget.  Global refinement stays robust for
integrands with isolated kinks or jumps, where the usual per-panel
tolerance halving can stall (the local budget and the local error then
shrink at the same rate).
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from .exceptions import RefinementLimit

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)
_MAX_PANELS = 16384


def _panel(f, a: float, b: float):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    total = None
    for x, w in zip(_NODES, _WEIGHTS):
        v = f(mid + half * x)
        if not np.all(np.isfinite(v)):
            raise ValueError(f"integrand returned a non-finite value at t={mid + half * x!r}")
        total = w * v if total is None else total + w * v
    return half * total


def _err(x) -> float:
    return float(np.linalg.norm(np.atleast_1d(np.asarray(x))))


def adaptive_gauss(f, a: float, b: float, abs_tol: float):
    """Integrate ``f`` over ``[a, b]`` to absolute accuracy ``abs_tol``.

    ``f`` maps a float to a scalar or a fixed-shape ndarray.  Returns the
    refined estimate; raises RefinementLimit past 16384 panels.
    """
    if b <= a:
        return 0.0 * _panel(f, a, a + max(1e-12, abs(a) * 1e-12))

    def make(lo, hi):
        coarse = _panel(f, lo, hi)
        mid = 0.5 * (lo + hi)
        fine = _panel(f, lo, mid) + _panel(f, mid, hi)
        return fine, _err(coarse - fine)

    counter = itertools.count()  # tiebreaker keeps heap order deterministic
    val, err = make(a, b)
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
    total = None
    for item in sorted(heap, key=lambda it: it[2]):
        total = item[4] if total is None else total + item[4]
    return total
