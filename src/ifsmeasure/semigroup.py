"""Transfer operators averaged over a continuum of contractions.

Instead of finitely many maps, a family indexed by theta in [0, inf) acts
through the scalar operators R_theta = exp(-rate * theta) I and maps that
shrink as theta grows.  Pairings against the transferred measure become
weighted improper integrals, evaluated by truncating the exponential tail
and integrating adaptively.

Two closed-form fixed points are provided: the single-constant-target
family (every map collapses to one point, the fixed point is the base plus
one atom) and the countable-series construction, where the dual operator
acts only on total masses through powers of a fixed matrix and the fixed
point is a convergent series of atoms.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ._quadrature import adaptive_gauss
from .exceptions import DimensionMismatch
from .hilbert import matrix_exp, operator_norm, scalar_product
from .integral import ContinuousFunction, integrate
from .measure import VectorMeasure, combine

__all__ = ["hc_quadrature", "constant_map_transfer", "exp_decay_fixed_point",
           "transfer_residual", "countable_series_fixed_point",
           "countable_series_residual"]


def _decay_integral(g, rate: float, bound: float, tol: float):
    """integral_0^inf g(theta, e^(-rate theta)) dtheta to within tol.

    ``g`` gets theta and the decay weight, and its value is at most
    ``bound`` times the weight.  The tail past
    Theta = max(1, log(2 bound/(rate tol))/rate) is then at most tol/2;
    the finite part is integrated adaptively with the other half.
    """
    theta_max = max(1.0, np.log(2.0 * bound / (rate * tol)) / rate)
    return adaptive_gauss(lambda theta: g(theta, np.exp(-rate * theta)),
                          0.0, theta_max, tol / 2.0)


def hc_quadrature(f: ContinuousFunction, t: float,
                  tol: float = 1e-10) -> np.ndarray:
    """Dual transfer value H(f)(t) = integral_0^inf e^-theta f(t/(1+theta)) dtheta.

    The unit-rate family R_theta = e^-theta I with maps
    omega_theta(t) = t/(1+theta): the exponential weight is exactly the
    operator norm, and sup||f|| bounds the rest of the integrand.
    """
    return _decay_integral(lambda theta, w: w * f((1.0 / (1.0 + theta)) * t),
                           1.0, max(f.sup_bound, 1e-300), tol)


def constant_map_transfer(rate: float, phi: Callable[[float], float],
                          nu: VectorMeasure, f: ContinuousFunction,
                          tol: float = 1e-10):
    """Pairing of f with the transfer of nu through constant maps.

    With R_theta = exp(-rate * theta) I and every map omega_theta constant
    at phi(theta), the transferred measure acts on f only through nu's
    total mass:

        integral f d(transfer nu)
            = integral_0^inf e^(-rate theta) (f(phi(theta)), nu total) dtheta.

    The rate (> 0) and sup||f|| ||nu total|| bound the tail.
    """
    if not rate > 0:
        raise ValueError("rate must be positive")
    if nu.dim != f.dim:
        raise DimensionMismatch("measure and integrand dimensions differ")
    tot = nu.total()
    tnorm = float(np.linalg.norm(tot))
    if tnorm == 0.0:
        return 0.0
    return _decay_integral(
        lambda theta, w: scalar_product(f(phi(theta)), w * tot),
        rate, max(f.sup_bound, 1e-300) * tnorm, tol)


def exp_decay_fixed_point(rate: float, target: float, base: VectorMeasure,
                          tol: float = 1e-12) -> VectorMeasure:
    """Fixed point of the decaying constant-target transfer plus base.

    With family R_theta = exp(-rate * theta) I, all maps constant at
    ``target``, and the operator nu -> transfer(nu) + base, the fixed point
    is the base plus a single atom at the target:

        mu* = base + dirac(target) * total(base) / (rate - 1),

    because the transfer of any measure collapses to an atom at the target
    carrying total/rate, and repeated transfers sum a geometric series.
    Requires rate > 1 (a NaN rate is refused too).  The result is checked
    by quadrature residual on a small family of polynomial integrands.
    """
    if not rate > 1.0:
        raise ValueError("rate must exceed 1 for the transfer to contract")
    tot = base.total()
    mu = combine(1.0, base, 1.0,
                 VectorMeasure.dirac(target, tot / (rate - 1.0)))
    res = transfer_residual(rate, target, base, mu, tol=tol)
    if res > 1e-9:
        raise ArithmeticError(
            f"closed-form fixed point failed residual check: {res:g}")
    return mu


def transfer_residual(rate: float, target: float, base: VectorMeasure,
                      mu: VectorMeasure, tol: float = 1e-12) -> float:
    """max_k |integral f_k d(transfer(mu) + base) - integral f_k dmu| over
    polynomial test integrands t^p e_j, p <= 3."""
    worst = 0.0
    for p in range(4):
        for j in range(base.dim):
            ej = np.zeros(base.dim)
            ej[j] = 1.0
            f = ContinuousFunction(
                lambda t, _p=p, _e=ej: (t ** _p) * _e, dim=base.dim,
                sup_bound=1.0, lip_bound=float(max(p, 1)))
            lhs = (constant_map_transfer(rate, lambda th: target, mu, f, tol=tol)
                   + integrate(f, base, tol=tol))
            rhs = integrate(f, mu, tol=tol)
            worst = max(worst, abs(lhs - rhs))
    return worst


def _series_depth(p_norm: float, prefactor: float, tol: float) -> int:
    """Smallest K with a certified series tail below tol.

    The tail sum_{i > K} ||P||^i / i! is at most the first term times the
    geometric factor 1/(1 - ||P||/(K+2)); the prefactor carries the fixed
    norms and the residual inflation max(e, e^||P||).
    """
    K = 1
    term = p_norm * p_norm / 2.0  # ||P||^(K+1) / (K+1)!
    while True:
        if p_norm < K + 2:
            geo = 1.0 / (1.0 - p_norm / (K + 2))
            if term * geo * prefactor <= tol:
                return K
        K += 1
        term *= p_norm / (K + 1)
        if K > 400:
            raise ValueError("series depth not reachable; check ||P|| and tol")


def _series_image(P, points, total, base: VectorMeasure) -> VectorMeasure:
    """base + sum_i dirac(points[i-1]) * (-(1/i!) P^i total) over the
    given points, up to the first term of norm below 1e-300."""
    atoms = []
    term = total  # P^i total / i! built incrementally
    for i, t in enumerate(points, start=1):
        term = (P @ term) / i
        if float(np.linalg.norm(term)) < 1e-300:
            break
        atoms.append((float(t), -term))
    return combine(1.0, base, 1.0, VectorMeasure(atoms=atoms, dim=base.dim))


def countable_series_fixed_point(P, points, base: VectorMeasure,
                                 tol: float = 1e-10) -> VectorMeasure:
    """Fixed point of the countable constant-target transfer family.

    The i-th branch sends everything to the point points[i-1] through the
    operator -(1/i!) P^i applied to total masses; adding the base, the
    fixed point has total s = exp(-P) (base total) and atoms

        mu* = base + sum_{i >= 1} dirac(points[i-1]) * (-(1/i!) P^i s),

    truncated at a depth K whose certified tail (including the residual
    inflation of the truncated dual) is below tol, or before the first
    term of norm below 1e-300 if that comes sooner.  Needs at least K
    distinct points; raises ValueError otherwise.
    """
    P = np.asarray(P, dtype=float if not np.iscomplexobj(P) else complex)
    n = base.dim
    if P.shape != (n, n):
        raise DimensionMismatch(
            f"operator shape {P.shape} does not match base dimension {n}")
    p_norm = operator_norm(P)
    exp_neg = matrix_exp(P, -1.0)
    s = exp_neg @ base.total()
    prefactor = (max(np.e, np.exp(p_norm)) * operator_norm(exp_neg)
                 * float(np.linalg.norm(base.total())))
    if prefactor == 0.0:
        return base
    K = _series_depth(p_norm, prefactor, tol)
    pts = [float(t) for t in points]
    if len(set(pts)) != len(pts):
        raise ValueError("atom points must be distinct")
    if len(pts) < K:
        raise ValueError(
            f"need at least {K} points for tolerance {tol:g}, got {len(pts)}")
    return _series_image(P, pts[:K], s, base)


def countable_series_residual(P, points, base: VectorMeasure,
                              mu: VectorMeasure) -> float:
    """Variation norm of (transfer(mu) + base) - mu, with the transfer
    truncated at the available points."""
    image = _series_image(np.asarray(P), points, mu.total(), base)
    return (image - mu).variation_norm()
