"""Finite-dimensional coefficient spaces R^n / C^n and their operators.

Vectors are 1-D numpy arrays, operators square 2-D arrays.  The scalar
product is linear in the first argument and conjugate-linear in the second:
(x, y) = sum_i x_i * conj(y_i).  Operator norm means the norm induced by the
Euclidean vector norm, i.e. the largest singular value.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionMismatch, FieldMismatch

__all__ = ["scalar_product", "operator_norm", "adjoint", "matrix_exp"]

_EPS = float(np.finfo(float).eps)


def _as_vector(x) -> np.ndarray:
    a = np.asarray(x)
    if a.ndim != 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {a.shape}")
    return a


def _as_operator(r) -> np.ndarray:
    a = np.asarray(r)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def _field_cast(arrays, field, what: str):
    """``(field, arrays)``: the coefficient arrays of one object cast to its
    field, which None infers ("complex" when any array is complex).  A real
    object refuses a nonzero imaginary part with FieldMismatch("complex
    <what>") and keeps the real part of the rest.
    """
    if field is None:
        field = "complex" if any(np.iscomplexobj(a) for a in arrays) else "real"
    if field == "real" and any(np.iscomplexobj(a) and np.any(a.imag)
                               for a in arrays):
        raise FieldMismatch(f"complex {what}")
    if field == "complex":
        return field, [a.astype(np.complex128) for a in arrays]
    return field, [np.real(a).astype(np.float64) for a in arrays]


def _fold_columns(f, n, op=np.add):
    """``op`` folded from the left, in place, over ``f(0), ..., f(n - 1)``,
    new arrays made from the columns of (rows, n) arrays: several times
    faster than a reduction along the short axis, and for ``np.add`` that
    sum to the bit on rows of fewer than 8 real or 4 complex entries."""
    out = f(0)
    for j in range(1, n):
        op(out, f(j), out=out)
    return out


def _rows_differ(a: np.ndarray, b) -> np.ndarray:
    """``np.any(a != b, axis=1)`` for ``b`` an array of a's shape or 0."""
    if not a.size:  # no rows, or rows of no entries: no column to fold
        return np.zeros(len(a), dtype=bool)
    b = b.T if isinstance(b, np.ndarray) else [b] * a.shape[1]
    return _fold_columns(lambda j: a[:, j] != b[j], a.shape[1], np.logical_or)


def _squares(a: np.ndarray) -> np.ndarray:
    """sum_j |a_ij|^2 for each row i, by ``_fold_columns``: real entries
    squared as they are, complex magnitudes taken whole (not by column)."""
    m = np.abs(a) if np.iscomplexobj(a) else a
    return _fold_columns(lambda j: m[:, j] ** 2, a.shape[1])


# rows whose norm comes out outside this range are recomputed, scaled by
# their largest entry, so that no square overflows or underflows to zero;
# every other row keeps the plain formula's result
_NORM_LO, _NORM_HI = 1e-150, 1e150


def _row_norms(a: np.ndarray) -> np.ndarray:
    # squares summed by column (``_squares``), with no |a| copied for real
    # rows: numpy's sum along a short row to the bit, several times faster
    with np.errstate(over="ignore"):
        out = np.sqrt(_squares(a))
    odd = (out < _NORM_LO) | (out > _NORM_HI)
    # zero rows, which set evaluation has many of, stay zero
    odd = np.flatnonzero(odd & _rows_differ(a, 0)) if odd.any() else ()
    if len(odd):
        m = np.abs(a.take(odd, axis=0))
        top = _fold_columns(lambda j: m[:, j].copy(), m.shape[1], np.maximum)
        out[odd] = np.sqrt(_squares(m / top[:, None])) * top
    return out


def _up(x) -> float:
    """The next double above ``x``: a bound from norms rounded to nearest."""
    return float(np.nextafter(x, np.inf))


def _norm(x) -> float:
    """Euclidean norm of a scalar or an array's entries, by ``_row_norms``,
    so that no square overflows or underflows."""
    return float(_row_norms(np.ravel(x)[None, :])[0])


def _pairings(x, y):
    """(x, y) along the last axis, summed left to right from zero: the
    package's one pairing of coefficient rows.  Complex products are taken
    in real arithmetic, two products and a sum per part: numpy's complex
    multiply rounds about a quarter of the real parts otherwise (numpy 2.4
    on x86-64, on C, Fortran and strided layouts alike)."""
    if np.iscomplexobj(x) or np.iscomplexobj(y):
        p = np.empty(np.broadcast_shapes(np.shape(x), np.shape(y)), complex)
        p.real = x.real * y.real + x.imag * y.imag
        p.imag = x.imag * y.real - x.real * y.imag
    else:
        p = x * y
    return np.cumsum(p, axis=-1)[..., -1] + 0.0


def scalar_product(x, y):
    """(x, y) = sum_i x_i conj(y_i); real inputs give a real result."""
    xv = _as_vector(x)
    yv = _as_vector(y)
    if xv.shape != yv.shape:
        raise DimensionMismatch(f"vector shapes differ: {xv.shape} vs {yv.shape}")
    out = _pairings(xv, yv)
    return complex(out) if np.iscomplexobj(out) else float(out)


def operator_norm(r) -> float:
    """Largest singular value of the matrix."""
    a = _as_operator(r)
    if not np.all(np.isfinite(a)):
        raise ValueError("operator has non-finite entries")
    return float(np.linalg.svd(a, compute_uv=False)[0])


def adjoint(r) -> np.ndarray:
    """Conjugate transpose; satisfies (Rx, y) = (x, adjoint(R) y)."""
    return _as_operator(r).conj().T.copy()


def matrix_exp(a, t: float = 1.0) -> np.ndarray:
    """exp(t*A) by scaling and squaring of a 20-term Taylor series.

    The argument is halved until its norm is at most 1/2; 20 series terms
    at that size leave a truncation error near machine precision, and the
    squarings undo the scaling.
    """
    b = t * _as_operator(a).astype(complex if np.iscomplexobj(a) else float)
    n = b.shape[0]
    nrm = operator_norm(b) if np.any(b) else 0.0
    k = 0 if nrm <= 0.5 else int(np.ceil(np.log2(nrm / 0.5)))
    s = b / (2.0 ** k)
    eye = np.eye(n, dtype=s.dtype)
    acc = eye.copy()
    for j in range(20, 0, -1):
        acc = eye + (s @ acc) / j
    for _ in range(k):
        acc = acc @ acc
    return acc
