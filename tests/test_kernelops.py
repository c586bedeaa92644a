"""Tests for separable polynomial kernels and the moment-space solver."""

from fractions import Fraction

import numpy as np
import pytest

from ifsmeasure import (PolynomialFunction, SeparableKernel, kernel_sup_bound,
                        partition_variation_estimate, solve_invariance)


def test_polynomial_exact_arithmetic():
    p = PolynomialFunction((Fraction(1, 3), Fraction(0), Fraction(2)))
    q = PolynomialFunction((0, 1))
    s = p + q
    assert s.coeffs == (Fraction(1, 3), Fraction(1), Fraction(2))
    prod = q.times(q)
    assert prod.coeffs == (Fraction(0), Fraction(0), Fraction(1))
    assert prod.integral01() == Fraction(1, 3)
    assert p(Fraction(1, 2)) == Fraction(1, 3) + Fraction(1, 2)


def test_polynomial_trims_leading_zeros():
    p = PolynomialFunction((1, 2, 0, 0))
    assert p.degree == 1
    z = PolynomialFunction((0, 0))
    assert z.degree == 0 and z(3) == 0


def test_polynomial_accepts_exact_floats():
    p = PolynomialFunction((0.5, 0.25))
    assert p.coeffs == (Fraction(1, 2), Fraction(1, 4))


def test_kernel_evaluate_and_rank():
    k = SeparableKernel(terms=(((0, 1), (0, 1)),), scale=Fraction(1, 4))
    assert k.rank == 1
    assert k.evaluate(0.5, 0.8) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        SeparableKernel(terms=())


def test_kernel_sup_bound_bilinear():
    k = SeparableKernel(terms=(((0, 1), (0, 1)),), scale=Fraction(1, 4))
    b64 = kernel_sup_bound(k, grid=64)
    assert 0.25 - 1e-3 <= b64 <= 0.25
    assert b64 <= kernel_sup_bound(k, grid=128) + 1e-15


def test_kernel_sup_bound_interior_maximum():
    # scale * x(1-x) * y(1-y) peaks at (1/2, 1/2), off the coarse lattice
    k = SeparableKernel(terms=(((0, 1, -1), (0, 1, -1)),), scale=16)
    b = kernel_sup_bound(k, grid=8)
    assert 1.0 - 1e-4 <= b <= 1.0 + 1e-12


def _abs_max_quadratic_on_unit(c):
    # |c0 + c1 t + c2 t^2| attains its max on [0, 1] at an endpoint or at
    # the interior vertex, so the supremum is exact from three candidates
    c0, c1, c2 = (tuple(c) + (0, 0, 0))[:3]
    cands = [0.0, 1.0]
    if c2 != 0:
        t = -c1 / (2.0 * c2)
        if 0.0 < t < 1.0:
            cands.append(t)
    return max(abs(c0 + c1 * t + c2 * t * t) for t in cands)


def test_kernel_sup_bound_brackets_exact_supremum():
    # rank-one kernels factor, so sup |k| = |scale| max|u| max|v| exactly
    rng = np.random.default_rng(0)
    for _ in range(5):
        u = tuple(rng.integers(-3, 4, 3).tolist())
        v = tuple(rng.integers(-3, 4, 3).tolist())
        k = SeparableKernel(terms=((u, v),), scale=1)
        exact = _abs_max_quadratic_on_unit(u) * _abs_max_quadratic_on_unit(v)
        est = kernel_sup_bound(k, grid=32)
        assert est <= exact + 1e-12 * max(1.0, exact)
        assert est >= exact - 1e-3 * max(1.0, exact)


def _scalar_value(F, x, y):
    """F(x, y) by the float Horner rule through the Fraction coefficients."""
    out = 0.0
    for u, v in F.terms:
        out += float(u(x)) * float(v(y))
    return float(F.scale) * out


def _scalar_sup_bound(F, grid):
    """The lattice search one point at a time, strict ``>`` scan in row
    order."""
    def search(x0, x1, y0, y1, k):
        best = (-1.0, x0, y0)
        for x in np.linspace(x0, x1, k + 1):
            for y in np.linspace(y0, y1, k + 1):
                v = abs(_scalar_value(F, float(x), float(y)))
                if v > best[0]:
                    best = (v, float(x), float(y))
        return best

    val, bx, by = search(0.0, 1.0, 0.0, 1.0, grid)
    span = 1.0 / grid
    for _ in range(3):  # the zoom rounds of kernel_sup_bound
        x0, x1 = max(0.0, bx - span), min(1.0, bx + span)
        y0, y1 = max(0.0, by - span), min(1.0, by + span)
        v, x, y = search(x0, x1, y0, y1, grid)
        if v > val:
            val, bx, by = v, x, y
        span /= grid / 2.0
    return val


def _random_kernel(rng):
    def poly():
        return tuple(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
                     for _ in range(int(rng.integers(1, 5))))
    terms = tuple((poly(), poly()) for _ in range(int(rng.integers(1, 4))))
    return SeparableKernel(terms=terms, scale=Fraction(
        int(rng.integers(1, 10)), int(rng.integers(1, 10))))


@pytest.mark.parametrize("grid,count", [(8, 40), (64, 2)])
def test_kernel_sup_bound_matches_scalar_search(grid, count):
    # rank 1-3, degree <= 3, rational coefficients
    rng = np.random.default_rng(grid)
    for k in (_random_kernel(rng) for _ in range(count)):
        assert kernel_sup_bound(k, grid=grid) == _scalar_sup_bound(k, grid)
        xs, ys = np.linspace(0.0, 1.0, 7), np.linspace(0.0, 1.0, 5)
        want = [[_scalar_value(k, float(x), float(y)) for y in ys] for x in xs]
        assert np.array_equal(k.evaluate(xs, ys), want)
        assert k.evaluate(0.3, 0.7) == _scalar_value(k, 0.3, 0.7)


def test_kernel_sup_bound_breaks_ties_in_row_order():
    # F = x - y - 100 w(x) (1 - y), w vanishing on the grid-4 abscissae:
    # |F| ties at 1 on (0, 1) and (1, 0), and only the zoom around (1, 0)
    # meets the bump of w; the first maximum in row order is (0, 1), which
    # keeps the estimate at 1
    w = PolynomialFunction((1,))
    for r in (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1):
        w = w.times(PolynomialFunction((-r, 1)))
    k = SeparableKernel(terms=(((0, 1), (1,)), ((1,), (0, -1)),
                               (w.scale(-100).coeffs, (1, -1))))
    assert kernel_sup_bound(k, grid=4) == _scalar_sup_bound(k, 4) == 1.0


def test_kernel_sup_bound_refuses_oversized_grid():
    k = SeparableKernel(terms=(((0, 1), (0, 1)),), scale=1)
    for grid in (1, 2049):
        with pytest.raises(ValueError):
            kernel_sup_bound(k, grid=grid)


def test_solve_invariance_worked_pair_is_exact():
    f1 = SeparableKernel(terms=(((0, 1), (0, 1)),), scale=Fraction(1, 4))
    f2 = SeparableKernel(terms=(((0, 0, 1), (0, 0, 1)),), scale=Fraction(1, 4))
    phi = solve_invariance(f1, f2)
    assert phi.coeffs == (Fraction(0), Fraction(1824, 3329),
                          Fraction(120, 3329))


def test_solve_invariance_back_substitution():
    f1 = SeparableKernel(terms=(((0, 1), (0, 1)),), scale=Fraction(1, 4))
    f2 = SeparableKernel(terms=(((0, 0, 1), (0, 0, 1)),), scale=Fraction(1, 4))
    phi = solve_invariance(f1, f2)
    g = PolynomialFunction((0, Fraction(1, 2)))
    acc = g
    for kern in (f1, f2):
        for u, v in kern.terms:
            acc = acc + u.scale(kern.scale * v.times(phi).integral01())
    assert acc.coeffs == phi.coeffs  # identity holds exactly in rationals
    xs = np.linspace(0.0, 1.0, 1000)
    worst = max(abs(float(acc(float(x)) - phi(float(x)))) for x in xs)
    assert worst <= 1e-12


def test_solve_invariance_zero_kernels_returns_inhomogeneity():
    z = SeparableKernel(terms=(((0,), (0,)),), scale=1)
    phi = solve_invariance(z, z)
    assert phi.coeffs == (Fraction(0), Fraction(1, 2))


def test_solve_invariance_singular_system_raises():
    # u = v = 1 with scale 1 makes the moment matrix I - M vanish
    k = SeparableKernel(terms=(((1,), (1,)),), scale=1)
    z = SeparableKernel(terms=(((0,), (0,)),), scale=1)
    with pytest.raises(ValueError):
        solve_invariance(k, z)


def test_solve_invariance_rank_cap():
    big = SeparableKernel(terms=tuple(((0, 1), (0, 1)) for _ in range(5)),
                          scale=1)
    with pytest.raises(ValueError):
        solve_invariance(big, big)


def test_partition_estimate_small_cases():
    # n = 1: sqrt(1/3); n = 2: sqrt(1/24 + 1/8) + sqrt(1/24)
    assert partition_variation_estimate(1) == pytest.approx(1 / np.sqrt(3),
                                                            abs=1e-15)
    want2 = np.sqrt(1 / 24 + 1 / 8) + np.sqrt(1 / 24)
    assert partition_variation_estimate(2) == pytest.approx(want2, abs=1e-14)
    with pytest.raises(ValueError):
        partition_variation_estimate(0)


def test_partition_estimate_limit():
    vals = [partition_variation_estimate(2 ** k) for k in range(13)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert all(v <= 2 / 3 + 1e-12 for v in vals)
    assert 2 / 3 - vals[-1] < 1e-3
