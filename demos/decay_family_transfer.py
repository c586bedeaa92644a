"""
Decaying operator families over countably many branches
=======================================================

A transfer built from countably many constant maps, weighted by an
exponentially decaying operator family, still has a finitely describable
fixed point: an absolutely convergent series of atoms on top of the base
measure.  The continuum analogue pairs test functions with the family by
adaptive quadrature over the decay parameter.  Both routes come with
residual checks; the constant-target solver returns the residual of its
own quadrature check.
"""

import numpy as np

from ifsmeasure import (ContinuousFunction, VectorMeasure,
                        countable_series_fixed_point,
                        countable_series_residual, exp_decay_fixed_point,
                        hc_quadrature)

# --- single constant map, scalar decay ------------------------------
# transfer(mu) = e^-rate * (total mu) at the target point, plus the base
base = VectorMeasure(atoms=[(0.5, np.array([0.25, 0.0]))],
                     pieces=[((0.0, 1.0), np.array([0.0, 0.25]))])
mu, res = exp_decay_fixed_point(rate=2.0, target=0.0, base=base, tol=1e-12)
print("decaying constant-target transfer")
print(f"  base total        {base.total()}")
print(f"  fixed point total {mu.total()}")
print(f"  residual          {res:.3e}")

# --- countably many targets, matrix decay ---------------------------
# branch k sends everything to the point 1/(k+1) with weight exp(-k P)/k!
P = np.array([[0.6, 0.2], [0.0, 0.4]])
points = [1.0 / (k + 1) for k in range(60)]
nu = countable_series_fixed_point(P, points, base, tol=1e-10)
print("\ncountable series fixed point")
print(f"  atoms in the representation: {nu.n_atoms}")
print(f"  residual {countable_series_residual(P, points, base, nu):.3e}")

# --- continuum of branches: quadrature over the decay parameter -----
# H(f)(t) = integral_0^inf e^-theta f(omega_theta(t)) dtheta with the
# profile family omega_theta(t) = t/(1 + theta); for f(s) = s x the
# value is t x integral_0^inf e^-theta/(1+theta) dtheta
x = np.array([1.0, -0.5])
f = ContinuousFunction(lambda s: s[:, None] * x, dim=2,
                       sup_bound=float(np.linalg.norm(x)))
harmonic_exp = 0.596347362323194074  # integral_0^inf e^-theta/(1+theta)
for t in (0.25, 1.0):
    got = hc_quadrature(f, t, tol=1e-10)
    want = t * x * harmonic_exp
    print(f"\nH(f)({t}) = {got}")
    print(f"  reference {want}  (error {np.abs(got - want).max():.2e})")
