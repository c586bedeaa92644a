"""Integration of vector-valued functions against vector measures.

The pairing is the uniform (sesquilinear) integral: for a simple function
f = sum_i x_i 1_{A_i} it is sum_i (x_i, mu(A_i)), linear in the function and
conjugate-linear in the measure, with |integral| <= sup||f|| * ||mu||.
Continuous integrands pair exactly with the atoms, all in one call, and
piece by piece by adaptive Gauss-Legendre quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._quadrature import adaptive_gauss
from .exceptions import DimensionMismatch, PartitionError
from .hilbert import _pairings, _row_norms, _up
from .measure import VectorMeasure
from .space import Span

__all__ = ["SimpleFunction", "ContinuousFunction", "vector_polynomial",
           "integrate_simple", "integrate"]


@dataclass(frozen=True)
class SimpleFunction:
    """Finitely-valued function: constant vector value on each cell of a
    partition of [0, 1] into evaluable sets."""
    cells: tuple
    values: tuple

    def __post_init__(self):
        if len(self.cells) != len(self.values):
            raise ValueError("cells and values must have equal length")
        object.__setattr__(self, "cells", tuple(self.cells))
        object.__setattr__(self, "values",
                          tuple(np.atleast_1d(np.asarray(v)) for v in self.values))

    @property
    def dim(self) -> int:
        return len(self.values[0]) if self.values else 0

    def validate_partition(self):
        """Cells must be pairwise disjoint and cover [0, 1] exactly: in
        (lo, not lo_incl, hi) order, points as closed spans [a, a], each
        span starts where the last ended and exactly one holds that point."""
        spans = [s for c in self.cells for s in c.spans]
        spans += [Span(a, a) for c in self.cells for a in c.atoms]
        end, end_incl = 0.0, False
        for s in sorted(spans, key=lambda s: (s.lo, not s.lo_incl, s.hi)):
            if s.lo != end or s.lo_incl == end_incl:
                raise PartitionError(f"cells do not partition [0, 1] at {s.lo!r}")
            end, end_incl = s.hi, s.hi_incl
        if (end, end_incl) != (1.0, True):
            raise PartitionError(f"cells do not partition [0, 1] at {end!r}")


@dataclass(frozen=True)
class ContinuousFunction:
    """Integrand with declared bounds, evaluated on arrays of points.

    ``func`` maps a 1-D array of k points to a (k, dim) array, row i the
    value at point i; each row must not depend on the other points.
    ``sup_bound`` dominates sup ||f||; ``lip_bound`` (optional) dominates
    the Lipschitz constant.  The bounds travel through operator transforms,
    so norm estimates stay certified without re-sampling.
    """
    func: Callable[[np.ndarray], np.ndarray]
    dim: int
    sup_bound: float
    lip_bound: Optional[float] = None

    def __call__(self, t) -> np.ndarray:
        """f at a point, shape (dim,), or at an array of k points, (k, dim)."""
        t = np.asarray(t, dtype=float)
        v = np.asarray(self.func(np.atleast_1d(t)))
        if v.shape != (t.size, self.dim):
            raise DimensionMismatch(f"integrand returned shape {v.shape}, "
                                    f"expected ({t.size}, {self.dim})")
        return v if t.ndim else v[0]


def vector_polynomial(coeffs) -> ContinuousFunction:
    """Polynomial t -> sum_k c_k t^k with vector coefficients, with
    certified sup and Lipschitz bounds on [0, 1]."""
    c = np.atleast_2d(np.asarray(coeffs))
    degp1, n = c.shape
    norms = _row_norms(c)
    sup = _up(norms.sum())
    lip = _up(sum(k * norms[k] for k in range(degp1)))

    def f(t, _c=c):
        # the terms added in degree order, point by point
        terms = t[:, None, None] ** np.arange(len(_c))[:, None] * _c
        return np.cumsum(terms, axis=1)[:, -1]

    return ContinuousFunction(f, dim=n, sup_bound=sup, lip_bound=lip)


def integrate_simple(f: SimpleFunction, mu: VectorMeasure):
    """Exact pairing of a simple function with a measure."""
    f.validate_partition()
    if f.dim != mu.dim:
        raise DimensionMismatch(f"function dim {f.dim} vs measure dim {mu.dim}")
    pairs = _pairings(np.array(f.values), mu.evaluate_many(f.cells))
    return np.cumsum(np.append(0.0, pairs))[-1]


def integrate(f: ContinuousFunction, mu: VectorMeasure, tol: float = 1e-10):
    """Pairing of a continuous integrand with a measure.

    Atom contributions (f(t_j), w_j) are exact; each density piece is
    integrated adaptively with budget tol / (number of pieces), so the
    quadrature error is at most tol.
    """
    if f.dim != mu.dim:
        raise DimensionMismatch(f"function dim {f.dim} vs measure dim {mu.dim}")
    v = f(mu.atom_points)
    finite = np.isfinite(v).all(axis=1)
    if not finite.all():
        raise ValueError(
            f"integrand not finite at atom {mu.atom_points[np.argmin(finite)]!r}")
    # the atoms' pairings added in atom order, from 0.0
    out = np.cumsum(np.append(0.0, _pairings(v, mu.atom_weights)))[-1]
    if mu.n_pieces:
        per_piece = tol / mu.n_pieces
        for lo, hi, dens in zip(mu.piece_lo, mu.piece_hi, mu.piece_density):
            out = out + adaptive_gauss(
                lambda t, _d=dens: _pairings(f(t), _d), lo, hi, per_piece)
    return out
