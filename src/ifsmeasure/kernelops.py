"""Finite-rank integral operators with separable polynomial kernels.

A kernel F(x, y) = scale * sum_k u_k(x) v_k(y) acts on densities by
(T phi)(x) = integral_0^1 F(x, y) phi(y) dy.  Because the range is spanned
by the u_k, the invariance equation phi = g + (T1 + T2) phi reduces to a
small linear system in the moments a_k = integral v_k phi, solved here in
exact rational arithmetic so the fixed-point density has exact fractional
coefficients.

Also provided: a refining sup bound for kernels on the unit square, and the
partition-sum estimate of the variation of the interval-indexed family
m(B) = the L2 representer of B shifted to vanish outside; its equipartition
sums increase to 2/3 under refinement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = ["PolynomialFunction", "SeparableKernel", "kernel_sup_bound",
           "solve_invariance", "partition_variation_estimate"]

_MAX_RANK = 8
_MAX_GRID = 2048
_MAX_CELLS = 1 << 20  # partition cells, refused beyond before allocating
_ZOOM_ROUNDS = 3


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10 ** 12)
    raise TypeError(f"cannot convert {x!r} to an exact rational")


@dataclass(frozen=True)
class PolynomialFunction:
    """Polynomial with exact rational coefficients, ascending powers."""
    coeffs: tuple

    def __post_init__(self):
        c = tuple(_to_fraction(x) for x in self.coeffs)
        while len(c) > 1 and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c if c else (Fraction(0),))

    def __call__(self, x):
        """p(x): exact for Fraction and int x; the float Horner rule over
        the coefficients for floats and for arrays, elementwise."""
        if isinstance(x, np.ndarray):
            return np.polynomial.polynomial.polyval(
                x, [float(c) for c in self.coeffs])
        out = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            out = out * x + c
        return out

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "PolynomialFunction") -> "PolynomialFunction":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return PolynomialFunction(tuple(out))

    def scale(self, a) -> "PolynomialFunction":
        a = _to_fraction(a)
        return PolynomialFunction(tuple(a * c for c in self.coeffs))

    def times(self, other: "PolynomialFunction") -> "PolynomialFunction":
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return PolynomialFunction(tuple(out))

    def integral01(self) -> Fraction:
        """Exact integral over [0, 1]."""
        return sum((c / (k + 1) for k, c in enumerate(self.coeffs)),
                   Fraction(0))


@dataclass(frozen=True)
class SeparableKernel:
    """scale * sum_k u_k(x) v_k(y) on the unit square."""
    terms: tuple
    scale: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "scale", _to_fraction(self.scale))
        object.__setattr__(self, "terms", tuple(
            (u if isinstance(u, PolynomialFunction) else PolynomialFunction(tuple(u)),
             v if isinstance(v, PolynomialFunction) else PolynomialFunction(tuple(v)))
            for u, v in self.terms))
        if not self.terms:
            raise ValueError("kernel needs at least one separable term")

    @property
    def rank(self) -> int:
        return len(self.terms)

    def evaluate(self, x, y):
        """F(x, y) for scalars; for arrays, the grid of F(x_i, y_j)."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        ys = np.atleast_1d(np.asarray(y, dtype=float))
        out = np.zeros((len(xs), len(ys)))
        for u, v in self.terms:
            out += np.outer(u(xs), v(ys))
        out = float(self.scale) * out
        return float(out[0, 0]) if np.ndim(x) == np.ndim(y) == 0 else out


def kernel_sup_bound(F: SeparableKernel, grid: int = 64) -> float:
    """sup |F| over the unit square, by lattice search with local refinement.

    The coarse lattice uses points i/grid (nested under grid doubling, so
    the estimate is nondecreasing in grid); each of three zoom rounds
    re-searches a one-cell neighborhood of the current maximizer at finer
    spacing.
    """
    if not 2 <= grid <= _MAX_GRID:
        # each search holds a few (grid + 1)^2 arrays at once
        raise ValueError(f"grid must be between 2 and {_MAX_GRID}")

    def search(x0, x1, y0, y1, k):
        xs = np.linspace(x0, x1, k + 1)
        ys = np.linspace(y0, y1, k + 1)
        vals = np.abs(F.evaluate(xs, ys))
        # argmax picks the first maximum in row order
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        return float(vals[i, j]), float(xs[i]), float(ys[j])

    val, bx, by = search(0.0, 1.0, 0.0, 1.0, grid)
    span = 1.0 / grid
    for _ in range(_ZOOM_ROUNDS):
        x0, x1 = max(0.0, bx - span), min(1.0, bx + span)
        y0, y1 = max(0.0, by - span), min(1.0, by + span)
        v, x, y = search(x0, x1, y0, y1, grid)
        if v > val:
            val, bx, by = v, x, y
        span /= grid / 2.0
    return val


def _solve_exact(M, rhs):
    """Gaussian elimination over the rationals with partial pivoting."""
    k = len(rhs)
    A = [[Fraction(M[i][j]) for j in range(k)] + [Fraction(rhs[i])]
         for i in range(k)]
    for col in range(k):
        piv = None
        for row in range(col, k):
            if A[row][col] != 0:
                piv = row
                break
        if piv is None:
            raise ValueError("moment system is singular")
        A[col], A[piv] = A[piv], A[col]
        inv = A[col][col]
        A[col] = [x / inv for x in A[col]]
        for row in range(k):
            if row != col and A[row][col] != 0:
                f = A[row][col]
                A[row] = [x - f * y for x, y in zip(A[row], A[col])]
    return [A[i][k] for i in range(k)]


# x/2, the cumulative of the half-Lebesgue base: the inhomogeneity that
# solve_invariance assumes and the CLI's verify substitutes back
DEFAULT_INHOMOGENEITY = PolynomialFunction((Fraction(0), Fraction(1, 2)))


def solve_invariance(F1: SeparableKernel, F2: SeparableKernel) -> PolynomialFunction:
    """Exact fixed-point density of phi = g + (T1 + T2) phi.

    T_j integrates against kernel F_j; g is ``DEFAULT_INHOMOGENEITY``, x/2,
    the cumulative slope of the half-Lebesgue base.  Writing phi = g +
    sum scale_j u_jk a_jk with moments a_jk = integral v_jk phi, the
    moments solve a linear system with exact rational entries; the
    returned polynomial has exact Fraction coefficients.  Raises
    ValueError if the combined rank exceeds 8 or the system is singular.
    """
    g = DEFAULT_INHOMOGENEITY
    basis = []  # (scale, u, v) per separable term across both kernels
    for kern in (F1, F2):
        for u, v in kern.terms:
            basis.append((kern.scale, u, v))
    k = len(basis)
    if k > _MAX_RANK:
        raise ValueError(f"combined separable rank {k} exceeds {_MAX_RANK}")
    # a_i = int v_i g + sum_j scale_j (int v_i u_j) a_j
    M = [[basis[j][0] * basis[i][2].times(basis[j][1]).integral01()
          for j in range(k)] for i in range(k)]
    rhs = [basis[i][2].times(g).integral01() for i in range(k)]
    I_minus_M = [[(Fraction(1) if i == j else Fraction(0)) - M[i][j]
                  for j in range(k)] for i in range(k)]
    moments = _solve_exact(I_minus_M, rhs)
    phi = g
    for (scale, u, _v), a in zip(basis, moments):
        phi = phi + u.scale(scale * a)
    return phi


def partition_variation_estimate(n: int) -> float:
    """Equipartition variation sum of the interval representer family.

    For a cell B = [alpha, beta], the representer's L2 norm is
    sqrt((beta - alpha)^3 / 3 + (beta - alpha)^2 (1 - beta)); the returned
    value is the sum over the n equal cells of [0, 1].  Nondecreasing under
    refinement with supremum 2/3.  Raises ValueError unless 1 <= n <= 2^20.
    """
    if not 1 <= n <= _MAX_CELLS:
        raise ValueError(f"n must be between 1 and {_MAX_CELLS}")
    i = np.arange(n)
    w = 1.0 / n
    return float(np.sum(np.sqrt(w ** 3 / 3.0 + w ** 2 * (1.0 - (i + 1) * w))))
