"""Tests for separable polynomial kernels and the moment-space solver."""

import random
from fractions import Fraction

import numpy as np
import pytest

from ifsmeasure import (PolynomialFunction, SeparableKernel, kernel_sup_bound,
                        partition_variation_estimate, solve_invariance)
from ifsmeasure.kernelops import _solve_exact


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


def _loop_add(a, b):
    """The coefficient sum by the hand loop that numpy's polyadd replaced."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return tuple(out)


def _loop_times(a, b):
    """The coefficient product by the hand loop that polymul replaced."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _loop_horner(coeffs, x):
    """Horner's loop, as p(x) ran it on scalars before polyval."""
    out = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        out = out * x + c
    return out


def _random_fraction(r):
    kind = r.random()
    if kind < 0.2:
        return Fraction(0)
    if kind < 0.5:
        return Fraction(r.randint(-9, 9), r.randint(1, 9))
    return Fraction(r.randint(-10 ** 40, 10 ** 40), r.randint(1, 10 ** 40))


def _random_polynomial(r):
    """Degree 0-32, some coefficients zero, some trailing zeros to trim,
    now and then the zero polynomial."""
    c = [_random_fraction(r) for _ in range(r.randint(1, 33))]
    if r.random() < 0.2:
        c += [Fraction(0)] * r.randint(1, 3)
    if r.random() < 0.05:
        c = [Fraction(0)] * len(c)
    return PolynomialFunction(tuple(c))


def test_polynomial_sum_and_product_match_the_hand_loops():
    r = random.Random(0)
    degrees = set()
    for _ in range(200):
        p, q = _random_polynomial(r), _random_polynomial(r)
        degrees.update((p.degree, q.degree))
        for got, want in ((p + q, _loop_add(p.coeffs, q.coeffs)),
                          (p.times(q), _loop_times(p.coeffs, q.coeffs))):
            assert got == PolynomialFunction(want)
            assert all(type(c) is Fraction for c in got.coeffs)
    assert {0, 32} <= degrees


def test_polynomial_evaluation_exact_and_float_rules():
    r = random.Random(1)
    xs = np.concatenate([np.linspace(-1.5, 1.5, 7), [-0.0, 0.1, 1 / 3]])
    for _ in range(200):
        p = _random_polynomial(r)
        # Fraction and int points: exact, on the Fraction coefficients
        for x in (_random_fraction(r), Fraction(1, 3), r.randint(-3, 3),
                  10 ** 20, True):
            got = p(x)
            assert type(got) is Fraction and got == _loop_horner(p.coeffs, x)
        # float points: Horner on the float coefficients, bit for bit
        floats = [float(c) for c in p.coeffs]
        for x in (r.uniform(-1.5, 1.5), 0.0, -0.0, 1.0, 1 / 3):
            got = p(x)
            assert type(got) is float
            assert got.hex() == float(_loop_horner(floats, x)).hex()
            if p.degree:  # the Fraction loop rounds the same way
                assert got.hex() == _loop_horner(p.coeffs, x).hex()
        got = p(xs)
        want = np.array([_loop_horner(floats, x) for x in xs.tolist()])
        assert got.shape == xs.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_constant_polynomial_at_a_float_is_a_float():
    p = PolynomialFunction((Fraction(1, 3),))
    assert type(p(0.5)) is float and p(0.5) == 1 / 3
    assert type(p(2)) is Fraction and p(2) == Fraction(1, 3)
    assert np.array_equal(p(np.array([0.0, 1.0])), [1 / 3, 1 / 3])


def test_polynomial_accepts_exact_floats():
    p = PolynomialFunction((0.5, 0.25))
    assert p.coeffs == (Fraction(1, 2), Fraction(1, 4))


def test_float_reads_as_its_short_rational_only_when_that_is_the_float():
    assert PolynomialFunction((0.1, 0.25)).coeffs == (Fraction(1, 10),
                                                      Fraction(1, 4))
    # the short rational within 1e-12 would be 0 and 1: both keep the float
    for x in (1e-13, 1.0000000000001):
        (c,) = PolynomialFunction((x,)).coeffs
        assert c == Fraction(x) and float(c) == x
    k = SeparableKernel(terms=(((1,), (1,)),), scale=1e-13)
    assert k.scale == Fraction(1e-13)


def test_tiny_float_scales_are_not_rounded_to_a_zero_kernel():
    # the solve once returned x/2, the solution for a zero kernel
    f1 = SeparableKernel(terms=(((0, 1), (0, 1)),), scale=1e-13)
    f2 = SeparableKernel(terms=(((0, 0, 1), (0, 0, 1)),), scale=1e-13)
    phi = solve_invariance(f1, f2)
    assert [float(f"{float(c):.15g}") for c in phi.coeffs] == [
        0.0, 0.500000000000017, 1.25000000000007e-14]
    g = PolynomialFunction((0, Fraction(1, 2)))
    assert phi == g + f1.apply(phi) + f2.apply(phi)


def test_kernel_evaluate_and_rank():
    k = SeparableKernel(terms=(((0, 1), (0, 1)),), scale=Fraction(1, 4))
    assert k.rank == 1
    assert k.evaluate(0.5, 0.8) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        SeparableKernel(terms=())


def test_apply_integrates_the_kernel_against_the_density():
    # Gauss-Legendre with 8 nodes is exact for the degree <= 6 integrand
    k = SeparableKernel(terms=(((1, -2), (0, 0, 3)), ((0, 1, 1), (2, -1))),
                        scale=Fraction(3, 7))
    phi = PolynomialFunction((Fraction(1, 2), 0, -1, Fraction(2, 3)))
    t, w = np.polynomial.legendre.leggauss(8)
    ys, ws = (t + 1.0) / 2.0, w / 2.0
    xs = np.linspace(0.0, 1.0, 11)
    want = k.evaluate(xs, ys) @ (ws * phi(ys))
    assert np.allclose(k.apply(phi)(xs), want, rtol=0.0, atol=1e-14)
    assert k.apply(PolynomialFunction((0,))).coeffs == (Fraction(0),)


def test_kernel_degree_is_capped():
    SeparableKernel(terms=(((0,) * 32 + (1,), (1,)),))
    for term in (((0,) * 33 + (1,), (1,)), ((1,), (0,) * 3000 + (1,))):
        with pytest.raises(ValueError, match="exceeds 32"):
            SeparableKernel(terms=(term,))


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


def _loop_solve(A):
    """The list elimination that the object-array Gauss-Jordan replaced."""
    k = len(A)
    for col in range(k):
        piv = next((row for row in range(col, k) if A[row][col] != 0), None)
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


def test_solve_exact_matches_the_list_elimination():
    r = random.Random(2)
    solved = swapped = singular = 0
    for _ in range(300):
        k = r.randint(1, 8)
        A = [[_random_fraction(r) for _ in range(k + 1)] for _ in range(k)]
        if r.random() < 0.2:  # a dependent row
            i, j = r.sample(range(k), 2) if k > 1 else (0, 0)
            A[i] = [x * Fraction(-3, 7) for x in A[j]]
            A[i][k] = _random_fraction(r)
        try:
            want = _loop_solve([row[:] for row in A])
        except ValueError:
            singular += 1
            with pytest.raises(ValueError, match="moment system is singular"):
                _solve_exact([row[:] for row in A])
            continue
        got = _solve_exact([row[:] for row in A])
        assert got == want and all(type(x) is Fraction for x in got)
        solved += 1
        swapped += A[0][0] == 0
    assert solved > 100 and swapped > 10 and singular > 10


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
