"""Monge-Kantorovich-type norms of vector measures on [0, 1].

Two independent routes are implemented and cross-checked:

* ``mk_star_exact`` evaluates the Lipschitz-ball dual norm of a zero-total
  measure through a one-dimensional identity.  Writing F(t) = mu([0, t]),
  summation by parts turns sup { |integral f dmu| : Lip(f) <= 1 } into
  integral_0^1 ||F(t)|| dt: the optimal witness steers its (unit) derivative
  along F, which is piecewise affine for this representation, so each
  breakpoint panel integrates sqrt(quadratic) in closed form.
  ``mk_upper_bound`` builds on it: splitting off a measure of the same
  total bounds the bounded-Lipschitz norm from above in closed form.
* ``mk_lower_bound`` pairs explicit piecewise-linear witnesses with the
  measure.  Each value is the pairing divided by the ball size measured on
  the witness's node values, hence a true lower bound for either ball; it
  never consults the closed form.

Both routes run as one array sweep over ``VectorMeasure.panels()`` (the
breakpoints, F entering each panel, and the density on it): the closed
form evaluates every panel at once and sums the terms exactly
(``_exact_sum``), and the witness pairing reduces the measure to one
influence vector per witness node.  ``mk_star_exact(mu, nu)`` is the
distance of two measures: it reads the panels of mu - nu off one merge
of the two, so the iteration in this metric builds no difference.

Balls: "l1" is the Lipschitz seminorm ball (zero-total measures only, the
pairing is otherwise unbounded); "bl1" is the bounded-Lipschitz ball
sup||f|| + Lip(f) <= 1, defined for every measure, and the CLI reports
its norm as the bracket [``mk_lower_bound``, ``mk_upper_bound``].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .hilbert import (_EPS, _fold_columns, _norm, _pairings, _row_norms,
                      _squares, _up)
from .measure import (VectorMeasure, _panels, _rows_differ, _take, _unique,
                      _variation)

__all__ = ["mk_star_exact", "mk_lower_bound", "mk_upper_bound",
           "sandwich_check", "LipschitzWitness", "SandwichReport"]

_TOTAL_TOL = 1e-12
_ROUNDING = 1.0 + 1e-12  # relative slack of the sandwich_check inequalities
# a vertex of ||F|| this close (relative to the panel) to a panel end is
# not a node: the cell it would cut off is too narrow to hold its
# difference quotient under rounding, and skipping it loses at most
# about 2e-6 of the panel's integral (scalar F)
_VERTEX_MARGIN = 1e-3


@np.errstate(over="ignore", invalid="ignore")  # only in lanes redone below
def _segment_norm_integral(f0: np.ndarray, rho: np.ndarray,
                           h: np.ndarray) -> np.ndarray:
    """integral_0^h_j ||f0_j + s*rho_j|| ds in closed form, for every panel j.

    With a = ||rho||^2, the integrand is sqrt(a w^2 + q) in the shifted
    variable w = s + b/(2a), where q >= 0 is the discriminant remainder;
    the antiderivative is G(w) = w sqrt(a w^2 + q)/2
    + q asinh(w sqrt(a/q)) / (2 sqrt(a)).  Evaluating G at the panel ends
    and subtracting loses all precision once the vertex sits far outside
    the panel (|b| >> a h, e.g. when the density is cancellation residue
    of overlapping pieces), so same-sign panels go through rationalized
    difference forms that stay accurate in that limit.  Each branch is
    evaluated on its own lanes only.  The form multiplies squares (b^2 is
    of order ||f0||^2 ||rho||^2), so a panel whose squares leave [2^-400,
    2^400] is evaluated again with f0 and rho scaled by a power of two,
    which the integral (homogeneous of degree one) carries back exactly.
    """
    a, c = _squares(rho), _squares(f0)
    # lanes whose squares leave [2^-400, 2^400], zero lanes aside, go again
    # scaled by 2^-e, before h narrows below; e is clipped so that 2^-e is
    # finite, and non-finite lanes (exponent 0) stay as they are
    odd = np.maximum(a, c)
    odd = np.flatnonzero((odd > 2.0 ** 400) | ((odd < 2.0 ** -400) & (
        _rows_differ(f0, 0) | _rows_differ(rho, 0))))
    m = np.abs(np.hstack([f0.take(odd, axis=0), rho.take(odd, axis=0)]))
    e = np.clip(np.frexp(_fold_columns(lambda i: m[:, i].copy(), m.shape[1],
                                       np.maximum))[1], -1000, 1000)
    odd, scale = odd[e != 0], np.ldexp(1.0, -e[e != 0])[:, None]
    rescaled = scale[:, 0] if not len(odd) else _segment_norm_integral(
        f0.take(odd, axis=0) * scale, rho.take(odd, axis=0) * scale,
        h[odd]) / scale[:, 0]
    # flat, or the density moves F by a negligible fraction of ||f0||
    out = np.sqrt(c) * h
    j = np.flatnonzero((a != 0.0) & (np.sqrt(a) * h > 1e-12 * np.sqrt(c)))
    a, c, h = a[j], c[j], h[j]
    b = 2.0 * np.real(_pairings(f0.take(j, axis=0), rho.take(j, axis=0)))
    u = b / (2.0 * a)
    v = u + h
    q = np.maximum(c - b * b / (4.0 * a), 0.0)
    sqrt_a = np.sqrt(a)
    gu = u * np.sqrt(a * u * u + q)
    gv = v * np.sqrt(a * v * v + q)
    k = np.zeros_like(u)  # the asinh part vanishes with q
    s = q > 1e-300
    k[s] = sqrt_a[s] / np.sqrt(q[s])
    x, y = k * u, k * v
    term, asinh_diff = np.empty_like(u), np.zeros_like(u)
    # vertex inside the panel: both halves contribute with the same sign,
    # the plain difference of antiderivatives is well posed
    inside = (u < 0.0) & (0.0 < v)
    i = np.flatnonzero(inside)
    term[i] = 0.5 * (gv[i] - gu[i])
    asinh_diff[i] = np.arcsinh(y[i]) - np.arcsinh(x[i])
    # monotone panel: g(v) - g(u) = h (u+v) (a (u^2+v^2) + q) / (g(u)+g(v))
    # and asinh(y) - asinh(x) = asinh((y^2-x^2) / (y sqrt(1+x^2)
    # + x sqrt(1+y^2))), both cancellation-free for same-sign arguments;
    # |g(u) + g(v)| is at least h times the integrand's larger end value,
    # so where it underflows to zero (a panel 1e-300 wide) so does the term
    i = np.flatnonzero(~inside)
    den = gu[i] + gv[i]
    den[den == 0.0] = np.inf
    term[i] = (0.5 * h[i] * (u[i] + v[i])
               * (a[i] * (u[i] * u[i] + v[i] * v[i]) + q[i]) / den)
    i = np.flatnonzero(~inside & s)
    asinh_diff[i] = np.arcsinh(
        k[i] * k[i] * h[i] * (u[i] + v[i])
        / (y[i] * np.sqrt(1.0 + x[i] * x[i]) + x[i] * np.sqrt(1.0 + y[i] * y[i])))
    out[j] = term + q / (2.0 * sqrt_a) * asinh_diff
    out[odd] = rescaled
    return out


def _require_zero_total(tot: float, variation, what: str) -> None:
    """Refuse a total above rounding residue: ||total|| must be at most
    1e-12 max(1, variation()), relative to the mass that rounded into it."""
    if tot > _TOTAL_TOL and tot > _TOTAL_TOL * variation():
        raise ValueError(f"{what} (||total|| = {tot:g})")


def _exact_sum(x: np.ndarray) -> float:
    """``math.fsum(x.tolist())`` from exact integer bins: the 27- and
    26-bit halves of each term's 53-bit mantissa (``np.frexp``) are summed
    by exponent with ``np.bincount``, exactly below 2^26 terms, and the
    bins as one Python int, divided once.  A zero sum (for its sign), more
    terms or a non-finite one go to fsum.  Where only a partial sum
    overflows, fsum raises OverflowError and this returns the sum."""
    if len(x) >= 1 << 26 or not np.isfinite(x).all():
        return math.fsum(x.tolist())
    m, e = np.frexp(x)
    m *= 2.0 ** 27
    hi, low = np.trunc(m), int(e.min(initial=0))
    bins = [np.bincount(e - low, weights=w).tolist()
            for w in (hi, (m - hi) * 2.0 ** 26)]
    total = sum(((int(h) << 26) + int(l)) << i
                for i, (h, l) in enumerate(zip(*bins)))
    if not total:
        return math.fsum(x.tolist())
    shift = low - 53
    return float(total << shift) if shift >= 0 else total / (1 << -shift)


def mk_star_exact(mu: VectorMeasure, nu: VectorMeasure | None = None) -> float:
    """Lipschitz-ball dual norm of the zero-total measure mu - nu (mu when
    nu is None), evaluated exactly, with no difference measure built.

    Requires ||(mu - nu)([0, 1])|| <= 1e-12 max(1, ||mu - nu||_var);
    raises ValueError otherwise, since the supremum over the unbounded
    ball is infinite for nonzero total.  The panels come from one merge of
    mu and nu (``_panels``), so the value is bitwise that of
    ``mk_star_exact(mu - nu)``, and the panel terms are summed exactly
    (``_exact_sum``).  The total is read as F(1): ``(mu - nu).total()``
    to the bit for dim >= 2, but summed in order for dim 1.
    """
    bps, F, rho, (wts, *pieces) = _panels(mu, nu)
    _require_zero_total(  # the atoms of mu - nu are its nonzero weight rows
        _norm(F[-1]), lambda: _variation(*_take(_rows_differ(wts, 0), wts), *pieces),
        "defined only for zero-total measures")
    return _exact_sum(_segment_norm_integral(F[:-1], rho, np.diff(bps)))


@dataclass(frozen=True)
class LipschitzWitness:
    """Piecewise-linear witness function: values at sorted grid nodes,
    divided by ``scale`` on the way out (rescaled values would round again).

    The interpolant's Lipschitz constant equals the largest consecutive
    difference quotient and its sup norm the largest node value norm, so
    ball feasibility is checkable from the nodes alone.
    """
    points: np.ndarray
    values: np.ndarray
    ball: str
    scale: float = 1.0

    def __call__(self, t: float) -> np.ndarray:
        return np.array([np.interp(t, self.points, col)
                         for col in self.values.T]) / self.scale

    def lipschitz(self) -> float:
        d = np.diff(self.values, axis=0)
        h = np.diff(self.points)
        if len(h) == 0:
            return 0.0
        return _up(float((_row_norms(d) / h).max()) / self.scale)

    def sup_norm(self) -> float:
        return _up(float(_row_norms(np.asarray(self.values)).max()) / self.scale)

    def size(self) -> float:
        """The ball's gauge: Lip(f), plus sup||f|| for "bl1", each norm and
        their sum rounded up one step."""
        lip = self.lipschitz()
        return _up(lip + self.sup_norm()) if self.ball == "bl1" else lip

    def is_feasible(self, tol: float = 1e-9) -> bool:
        return self.size() <= 1.0 + tol

    def pairing(self, mu: VectorMeasure):
        """Exact integral of the interpolant against a measure."""
        out = _pairings(np.ravel(self.values),
                        np.ravel(_influence_vectors(mu, self.points)))
        return (complex(out) if np.iscomplexobj(self.values) else float(out)) / self.scale


def _influence_vectors(mu: VectorMeasure, nodes: np.ndarray) -> np.ndarray:
    """g_k with integral f dmu = sum_k (f(node_k), g_k) for every f that is
    piecewise linear on the node grid and constant beyond its ends
    (conjugation lives in the pairing).  Point masses split linearly over
    their two nodes; a density cell between consecutive cuts (nodes and
    breakpoints) acts as a point mass at its midpoint.
    """
    if len(nodes) == 1:
        return mu.total()[None, :]
    bps, _, rho = mu.panels()
    cuts = _unique(np.concatenate([bps, nodes[(nodes > 0.0) & (nodes < 1.0)]]))
    j = np.searchsorted(bps, cuts[:-1], side="right") - 1
    t = np.concatenate([mu.atom_points, 0.5 * (cuts[:-1] + cuts[1:])])
    w = np.concatenate([mu.atom_weights,
                        rho.take(j, axis=0) * np.diff(cuts)[:, None]])
    k = np.clip(np.searchsorted(nodes, t, side="right") - 1, 0, len(nodes) - 2)
    lam = np.clip((t - nodes[k]) / (nodes[k + 1] - nodes[k]), 0.0, 1.0)[:, None]
    out = np.zeros((len(nodes), mu.dim), dtype=w.dtype)
    np.add.at(out, k, (1.0 - lam) * w)
    np.add.at(out, k + 1, lam * w)
    return out


def _midrange(F: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(F):
        return (0.5 * (F.real.max(axis=0) + F.real.min(axis=0))
                + 0.5j * (F.imag.max(axis=0) + F.imag.min(axis=0)))
    return 0.5 * (F.max(axis=0) + F.min(axis=0))


def _unit_derivative_witness(mu: VectorMeasure):
    """Nodes and values of the piecewise-linear witness steered against F.

    The nodes are the breakpoints plus, on each sloped panel, the vertex
    of ||F|| when it falls strictly inside, so F keeps one half-plane of
    directions on every cell.  On each cell the derivative is
    -F(midpoint)/||F(midpoint)||; F is affine there, so the cell pairs to
    h ||F(midpoint)||, which is exact where F is flat or keeps its
    direction.  A cell where ||F(midpoint)|| is at most (atoms + pieces)
    eps ||mu||_var, the rounding a zero-total F carries, gets derivative
    zero: its direction is rounding noise, and a rescaled measure would
    steer elsewhere.  Only directions matter, so F and rho are first
    scaled by one power of two, exactly, to keep every square in range.
    """
    bps, F, rho = mu.panels()
    top = max(float(np.abs(F).max(initial=0.0)),
              float(np.abs(rho).max(initial=0.0)))
    unit = math.ldexp(1.0, -math.frexp(top)[1]) if top > 0.0 else 1.0
    F, rho = F * unit, rho * unit
    a = _squares(rho)
    s = np.flatnonzero(a > 0.0)
    vertex = bps[s] - np.real(_pairings(F.take(s, axis=0),
                                        rho.take(s, axis=0))) / a[s]
    off = _VERTEX_MARGIN * (bps[s + 1] - bps[s])
    inside = (vertex > bps[s] + off) & (vertex < bps[s + 1] - off)
    nodes = _unique(np.concatenate([bps, vertex[inside]]))
    j = np.searchsorted(bps, nodes[:-1], side="right") - 1
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    Fm = F.take(j, axis=0) + (mid - bps[j])[:, None] * rho.take(j, axis=0)
    n = _row_norms(Fm)
    # F within rounding of zero has no direction to steer along
    nz = n > (mu.n_atoms + mu.n_pieces) * _EPS * mu.variation_norm() * unit
    u = np.divide(-Fm, n[:, None], out=np.zeros_like(Fm), where=nz[:, None])
    steps = u * np.diff(nodes)[:, None]
    return nodes, np.concatenate([np.zeros((1, mu.dim), dtype=u.dtype),
                                  np.cumsum(steps, axis=0)])


def _certify(mu: VectorMeasure, points: np.ndarray, values: np.ndarray,
             ball: str):
    """``(|pairing|, witness)``, the witness scaled into the ball.

    Its scale is max(size, 1), the size (Lipschitz constant, plus the sup
    norm for "bl1") measured on the stored values, so the value is the
    pairing of an interpolant that lies in the ball however the values
    were rounded on the way: on 1e-8 wide cells the rounding of a
    cumulative sum moves difference quotients by about 1e-8.
    """
    w = LipschitzWitness(points, values, ball)
    w = replace(w, scale=max(w.size(), 1.0))
    return abs(w.pairing(mu)), w


def mk_lower_bound(mu: VectorMeasure, ball: str = "l1"):
    """Certified lower bound for the Monge-Kantorovich pairing supremum.

    Returns ``(value, witness)``: the witness lies in the ball and pairs
    to the value (see ``_certify``).
    "l1" pairs the unit-derivative witness, which falls short of
    ``mk_star_exact`` only where F turns within a cell.  "bl1" takes the
    best of the constant witness total/||total|| (pairing to ||total||)
    and the unit-derivative witness recentred at f(1/2) or at its
    midrange, each scaled into the ball; recentred at f(1/2) the sup norm
    is at most 1/2, so on a zero-total measure the value is at least
    2/3 of the l1 one.  Every value is measured, not assumed (see
    ``_certify``).
    """
    if ball not in ("l1", "bl1"):
        raise ValueError(f"unknown ball {ball!r}")
    total = mu.total()
    tot = _norm(total)
    if ball == "l1":
        _require_zero_total(tot, mu.variation_norm, "l1 ball requires zero total mass")
        return _certify(mu, *_unit_derivative_witness(mu), ball)
    nodes, values = _unit_derivative_witness(mu)
    half = LipschitzWitness(nodes, values, ball)(0.5)
    best = [_certify(mu, nodes, values - c[None, :], ball)
            for c in (half, _midrange(values))]
    if tot > 0.0:
        # one node: the pairing reads mu.total(), the vector the upper
        # bound measures, so a closed bracket's ends differ only by the
        # steps that round the witness's size up
        best.append(_certify(mu, np.zeros(1), (total / tot)[None, :], ball))
    return max(best, key=lambda c: c[0])


def mk_upper_bound(mu: VectorMeasure) -> float:
    """Upper bound for the bounded-Lipschitz ("bl1") norm, in closed form.

    For nu with the total of mu, every f in the ball has
    |integral f dmu| <= Lip(f) mk_star(mu - nu) + sup||f|| ||nu||_var
    <= max(mk_star(mu - nu), ||nu||_var).  With
    nu = eps mu + (1 - eps) T delta_t (T the total, V = ||mu||_var and
    m_t = mk_star(mu - T delta_t)) the two terms balance at
    (1 - eps) m_t = m_t V / (m_t - T + V) when m_t > T, and eps = 0
    gives T otherwise.  t is the breakpoint minimizing
    m_t = integral_0^t ||F|| + integral_t^1 ||F - T||, found by one
    prefix-sum sweep over the panels; m_t is then the ``_exact_sum`` of its
    panel terms, as ``mk_star_exact(mu - T delta_t)`` would sum them.
    """
    total = mu.total()
    tot = _norm(total)
    bps, F, rho = mu.panels()
    h = np.diff(bps)
    before = _segment_norm_integral(F[:-1], rho, h)
    after = _segment_norm_integral(F[:-1] - total[None, :], rho, h)
    i = int(np.argmin(np.concatenate([[0.0], np.cumsum(before)])
                      + np.concatenate([np.cumsum(after[::-1])[::-1], [0.0]])))
    m = _exact_sum(np.concatenate([before[:i], after[i:]]))
    if m <= tot:
        return tot
    # m V / (m - T + V) with no product that can overflow
    return m / (1.0 + (m - tot) / mu.variation_norm())


@dataclass(frozen=True)
class SandwichReport:
    """Cross-check of the two norm routes against the variation norm."""
    mk_star: float
    bl1_lower: float
    bl1_upper: float
    variation: float
    lower_vs_upper: bool
    lower_vs_star: bool
    star_vs_doubled_lower: bool
    lower_vs_variation: bool

    @property
    def ok(self) -> bool:
        return (self.lower_vs_upper and self.lower_vs_star
                and self.star_vs_doubled_lower and self.lower_vs_variation)


def sandwich_check(mu: VectorMeasure) -> SandwichReport:
    """Verify the norm chain on a zero-total measure.

    The witness route ("bl1" lower bound) must sit below the closed-form
    routes (``mk_upper_bound`` and the exact Lipschitz-ball norm) and below
    the variation norm.  Conversely the exact norm is at most twice the
    lower bound: the unit-derivative witness recentred at f(1/2) has sup
    norm at most 1/2, so the lower bound is 2/3 of a witness pairing near
    the exact norm.  Every inequality is computed, allowing only 1e-12
    relative rounding.
    """
    star = mk_star_exact(mu)
    lower, _ = mk_lower_bound(mu, ball="bl1")
    upper = mk_upper_bound(mu)
    var = mu.variation_norm()
    return SandwichReport(
        mk_star=star,
        bl1_lower=lower,
        bl1_upper=upper,
        variation=var,
        lower_vs_upper=lower <= upper * _ROUNDING,
        lower_vs_star=lower <= star * _ROUNDING,
        star_vs_doubled_lower=star <= 2.0 * lower * _ROUNDING,
        lower_vs_variation=lower <= var * _ROUNDING,
    )
