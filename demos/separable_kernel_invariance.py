"""
Invariant density of a separable-kernel pair
============================================

Two integral operators with separable polynomial kernels map polynomial
densities to polynomial densities, so the invariance equation
phi = g + (T1 + T2) phi closes over a finite-dimensional moment space and
Gaussian elimination over the rationals solves it exactly.  Back
substitution through exact arithmetic confirms a residual of literal
zero.  A lattice search bounds the kernel suprema, and an equipartition
variation sum converges to the total variation of the interval
representer family.
"""

from fractions import Fraction

from ifsmeasure import (PolynomialFunction, SeparableKernel,
                        kernel_sup_bound, partition_variation_estimate,
                        solve_invariance)

# k1(x, y) = xy/4 and k2(x, y) = x^2 y^2 / 4
f1 = SeparableKernel(terms=(((0, 1), (0, 1)),), scale=Fraction(1, 4))
f2 = SeparableKernel(terms=(((0, 0, 1), (0, 0, 1)),), scale=Fraction(1, 4))

print("kernel suprema over the unit square (lattice search from below)")
print(f"  sup |k1| >= {kernel_sup_bound(f1, grid=64):.9f}   (true 1/4)")
print(f"  sup |k2| >= {kernel_sup_bound(f2, grid=64):.9f}   (true 1/4)")

# default inhomogeneity g(x) = x/2; the elimination is exact, so the
# invariant density has rational coefficients
phi = solve_invariance(f1, f2)
print("\ninvariant density phi(x) = "
      + " + ".join(f"({c}) x^{k}" for k, c in enumerate(phi.coeffs) if c))

g = PolynomialFunction((0, Fraction(1, 2)))
residual = (phi + g.scale(-1) + f1.apply(phi).scale(-1)
            + f2.apply(phi).scale(-1))
print(f"exact residual coefficients: {residual.coeffs}")

# the representer family of equipartition intervals has variation sums
# increasing to 2/3
print("\nequipartition variation sums")
for n in (1, 4, 64, 4096):
    print(f"  n = {n:5d}: {partition_variation_estimate(n):.12f}")
print(f"  limit      {2 / 3:.12f}")
