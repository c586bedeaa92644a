"""
Mass-preserving blends and the transport metric
===============================================

When the operator weights sum to the identity, every step of the transfer
operator conserves total mass and the variation factor equals one, so the
variation norm cannot certify.  The same system still contracts the
transport (Lipschitz-dual) metric, where distance between equal-mass
measures is the integral of the norm of the cumulative difference, and
the solver, seeing a variation factor of one and operators that sum to
the identity, iterates in that metric.  Explicit witness functions, each certified feasible by
measurement, bound the closed-form norm from below, and the
bounded-Lipschitz norm comes as a two-sided bracket.
"""

import numpy as np

from ifsmeasure import (AffineMap, IFSystem, QuerySet, VectorMeasure,
                        factors, iterate_fixed_point,
                        mk_lower_bound, mk_star_exact, mk_upper_bound,
                        sandwich_check)

maps = [AffineMap(1 / 3, 0.0), AffineMap(1 / 3, 2 / 3)]
alpha = 1 / 3
ops = [alpha * np.eye(2), (1 - alpha) * np.eye(2)]
system = IFSystem(maps, ops)

fac = factors(system)
print(f"variation factor {fac.variation:.3f}, transport factor "
      f"{fac.mk_star:.6f}")

# iterate from a unit atom at the left endpoint; the variation factor is
# one and the operators sum to the identity, so the solver certifies in
# the transport metric
start = VectorMeasure.dirac(0.0, np.array([1.0, 1.0]))
result = iterate_fixed_point(system, start, tol=1e-8, max_iter=400)
mu = result.measure
print(f"\nsolve in the {result.norm} metric: {result.iterations} iterations, "
      f"certified error {result.error_bound:.3e}")
print(f"total mass (conserved): {mu.total()}")

# the invariant measure splits over the two branch cylinders with the
# blend weights alpha and 1 - alpha
left = mu.evaluate(QuerySet.closed(0.0, 1 / 3))
right = mu.evaluate(QuerySet.closed(2 / 3, 1.0))
print(f"left  cylinder mass {left}   (weight {alpha:.6f})")
print(f"right cylinder mass {right}   (weight {1 - alpha:.6f})")

# norm sandwich on a zero-total difference of iterates: the witness
# pairing must land just below the closed form, which in turn is bounded
# by the variation norm; the bounded-Lipschitz norm sits in a bracket
# whose upper end splits off a measure of the same total in closed form
diff = mu - start
star = mk_star_exact(mu, start)  # the distance, from one merge of the two
# the bound divides the witness pairing by the Lipschitz constant measured
# on its node values; on these 3^-17 wide cells rounding puts that
# constant a few 1e-9 above 1, and the witness keeps it as its scale, so
# the constant it reports is 1
lower, witness = mk_lower_bound(diff, ball="l1")
report = sandwich_check(diff)
print(f"\ntransport norm of (fixed point - start): {star:.12f}")
print(f"certified lower bound:                   {lower:.12f}")
print(f"witness Lipschitz constant, as stored:   {witness.lipschitz():.12f}")
print(f"bounded-Lipschitz norm in [{report.bl1_lower:.6f}, "
      f"{report.bl1_upper:.6f}]")
print(f"sandwich verdict: {'consistent' if report.ok else 'violated'} "
      f"(variation = {report.variation:.6f})")

# the fixed point itself has total (1, 1): the constant witness along the
# total and the split bound meet, so its bracket closes at sqrt(2)
bl1_lower, _ = mk_lower_bound(mu, ball="bl1")
print(f"bounded-Lipschitz norm of the fixed point in [{bl1_lower:.15f}, "
      f"{mk_upper_bound(mu):.15f}]")
