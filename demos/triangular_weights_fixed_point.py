"""
Fixed point of a two-branch system with triangular weights
==========================================================

Two affine contractions of [0, 1] (the ternary left and right branches)
carry lower-triangular operator weights, and a base measure mixes an atom
at the origin with a uniform density.  The transfer operator is a strict
contraction in the variation norm, so the solver iterates to a certified
tolerance; exact set evaluation then cross-checks closed-form values of
the invariant measure on points and intervals.
"""

import numpy as np

from ifsmeasure import (AffineMap, IFSystem, QuerySet, VectorMeasure,
                        eval_fixed_point, factors, iterate_fixed_point,
                        residual)

# the branches t/3 and (t + 2)/3 tile [0, 1] up to the middle-third gap
maps = [AffineMap(1 / 3, 0.0), AffineMap(1 / 3, 2 / 3)]
ops = [np.array([[0.1, 0.0], [0.2, 0.1]]),
       np.array([[0.1, 0.0], [0.2, -0.1]])]
base = VectorMeasure(atoms=[(0.0, np.array([0.0, 0.25]))],
                     pieces=[((0.0, 1.0), np.array([0.25, 0.0]))])
system = IFSystem(maps, ops, base=base)

# each weight has spectral norm (1 + sqrt 2)/10, so the variation factor
# is (1 + sqrt 2)/5 ~ 0.483 and the iteration contracts geometrically
fac = factors(system)
print("contraction factors")
print(f"  variation  {fac.variation:.15f}")
print(f"  mk         {fac.mk:.15f}")
print(f"  mk_star    {fac.mk_star:.15f}")

result = iterate_fixed_point(system, VectorMeasure.zero(2), tol=1e-10)
mu = result.measure
print(f"\nsolved in {result.iterations} iterations, "
      f"certified error {result.error_bound:.3e}")
print(f"residual of the iterate: {residual(system, mu):.3e}")

# the total mass solves (I - P1/10 - P2/10) m = base total
print("\ntotal mass")
print(f"  iterated    {mu.total()}")
print(f"  closed form [{5 / 16} {3 / 8}]")

# exact evaluation sums the preimage tree of each query set; closed forms
# follow from the self-similarity relations of the fixed point
checks = [
    ("whole interval", QuerySet.closed(0.0, 1.0), np.array([5 / 16, 3 / 8])),
    ("atom at 0     ", QuerySet.point(0.0), np.array([0.0, 5 / 18])),
    ("atom at 1     ", QuerySet.point(1.0), np.array([0.0, 0.0])),
    ("atom at 2/3   ", QuerySet.point(2 / 3), np.array([0.0, -1 / 36])),
]
print("\nexact set evaluation vs closed forms")
for label, query, want in checks:
    got = eval_fixed_point(system, query, tol=1e-12).value
    print(f"  {label}  {got}  (error {np.abs(got - want).max():.2e})")
