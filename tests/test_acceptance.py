"""End-to-end acceptance checks for the headline numbers and properties.

Each test covers one gate, prints exactly one pass/fail line with the
measured figure, and then asserts.  Run with ``pytest -v`` to see one
status line per gate.
"""

import time

import numpy as np

from ifsmeasure import (AffineMap, ContinuousFunction, IFSystem,
                        PolynomialFunction, QuerySet, SeparableKernel,
                        VectorMeasure,
                        apply_markov, combine, countable_series_fixed_point,
                        countable_series_residual, dual_apply,
                        eval_fixed_point, exp_decay_fixed_point, factors,
                        hc_quadrature, integrate,
                        iterate_fixed_point, matrix_exp, mk_lower_bound,
                        mk_star_exact, operator_norm,
                        partition_variation_estimate, sandwich_check,
                        solve_invariance, transfer_residual,
                        vector_polynomial)

SQRT2 = float(np.sqrt(2.0))


def _status(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _triangular_system():
    maps = [AffineMap(1 / 3, 0.0), AffineMap(1 / 3, 2 / 3)]
    ops = [np.array([[0.1, 0.0], [0.2, 0.1]]),
           np.array([[0.1, 0.0], [0.2, -0.1]])]
    base = VectorMeasure(atoms=[(0.0, np.array([0.0, 0.25]))],
                         pieces=[((0.0, 1.0), np.array([0.25, 0.0]))])
    return IFSystem(maps, ops, base=base)


def _random_contractive_system(rng, with_base):
    n_maps = int(rng.integers(1, 4))
    dim = int(rng.integers(1, 4))
    maps, ops = [], []
    for _ in range(n_maps):
        s = float(rng.uniform(0.05, 0.45))
        maps.append(AffineMap(s, float(rng.uniform(0.0, 1.0 - s))))
        r = rng.standard_normal((dim, dim))
        ops.append(0.3 * r / max(np.linalg.norm(r, 2), 1e-9))
    base = None
    if with_base:
        base = VectorMeasure(
            atoms=[(float(rng.uniform()), rng.standard_normal(dim))],
            pieces=[((0.1, 0.8), rng.standard_normal(dim))], dim=dim)
    return IFSystem(maps, ops, base=base, dim=dim)


def _random_measure(rng, dim):
    return VectorMeasure(
        atoms=[(float(t), rng.standard_normal(dim))
               for t in rng.uniform(0, 1, int(rng.integers(1, 5)))],
        pieces=[((0.2, 0.7), rng.standard_normal(dim))], dim=dim)


def test_exact_set_values_of_the_triangular_fixed_point():
    sys = _triangular_system()
    cases = [
        (QuerySet.unit(), np.array([5 / 16, 3 / 8])),
        (QuerySet.point(0.0), np.array([0.0, 5 / 18])),
        (QuerySet.point(1.0), np.array([0.0, 0.0])),
        (QuerySet.point(2 / 3), np.array([0.0, -1 / 36])),
    ]
    t0 = time.perf_counter()
    worst = max(float(np.abs(eval_fixed_point(sys, b, tol=1e-10).value
                             - want).max())
                for b, want in cases)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    assert _status("exact set values", ok,
                   f"worst error {worst:.2e}, {elapsed * 1000:.1f} ms")


def test_iterated_solver_reproduces_the_totals():
    sys = _triangular_system()
    res = iterate_fixed_point(sys, VectorMeasure.zero(2), tol=1e-8)
    err = float(np.abs(res.measure.total() - np.array([5 / 16, 3 / 8])).max())
    ok = err <= 1e-8 and res.iterations <= 60
    assert _status("iterated totals", ok,
                   f"error {err:.2e} in {res.iterations} iterations")


def test_separable_kernel_invariance_coefficients():
    from fractions import Fraction
    f1 = SeparableKernel(terms=(((0, 1), (0, 1)),), scale=Fraction(1, 4))
    f2 = SeparableKernel(terms=(((0, 0, 1), (0, 0, 1)),), scale=Fraction(1, 4))
    phi = solve_invariance(f1, f2)
    coeff_err = max(abs(float(phi.coeffs[1]) - 1824 / 3329),
                    abs(float(phi.coeffs[2]) - 120 / 3329))
    g = PolynomialFunction((0, Fraction(1, 2)))
    acc = g
    for kern in (f1, f2):
        for u, v in kern.terms:
            acc = acc + u.scale(kern.scale * v.times(phi).integral01())
    xs = np.linspace(0.0, 1.0, 1000)
    resid = max(abs(float(acc(float(x)) - phi(float(x)))) for x in xs)
    ok = coeff_err <= 1e-12 and resid <= 1e-12
    assert _status("kernel invariance solve", ok,
                   f"coefficient error {coeff_err:.2e}, residual {resid:.2e}")


def test_operator_norm_closed_forms():
    p1 = np.array([[1.0, 0.0], [2.0, 1.0]])
    p2 = np.array([[1.0, 0.0], [2.0, -1.0]])
    worst = max(abs(operator_norm(p1) - (1 + SQRT2)),
                abs(operator_norm(p2) - (1 + SQRT2)))
    for t in (0.0, 1.0, 3.0):
        worst = max(worst, abs(operator_norm(matrix_exp(-np.eye(2), t))
                               - np.exp(-t)))
    ok = worst <= 1e-12
    assert _status("operator norm closed forms", ok, f"worst error {worst:.2e}")


def test_partition_variation_approaches_two_thirds():
    vals = [partition_variation_estimate(2 ** k) for k in range(13)]
    monotone = all(b >= a for a, b in zip(vals, vals[1:]))
    in_window = 2 / 3 - 1e-3 <= vals[-1] <= 2 / 3
    ok = monotone and in_window
    assert _status("representer variation limit", ok,
                   f"estimate(4096) = {vals[-1]:.10f}, monotone = {monotone}")


def test_blend_iteration_stays_symmetric_and_fills_cylinders(monkeypatch):
    import ifsmeasure.markov as markov
    alpha = 1 / 3
    maps = [AffineMap(1 / 3, 0.0), AffineMap(1 / 3, 2 / 3)]
    ops = [alpha * np.eye(2), (1 - alpha) * np.eye(2)]
    sys = IFSystem(maps, ops)
    asym = []
    real_prune = markov.prune

    def watch(mu, tol):
        # each step's iterate is what prune returns
        m = real_prune(mu, tol)
        worst = 0.0
        if m.n_atoms:
            worst = float(np.abs(m.atom_weights[:, 0]
                                 - m.atom_weights[:, 1]).max())
        if m.n_pieces:
            worst = max(worst, float(np.abs(m.piece_density[:, 0]
                                            - m.piece_density[:, 1]).max()))
        asym.append(worst)
        return m
    monkeypatch.setattr(markov, "prune", watch)

    start = VectorMeasure.dirac(0.0, np.array([1.0, 1.0]))
    res = iterate_fixed_point(sys, start, tol=1e-8, max_iter=400)
    left = res.measure.evaluate(QuerySet.closed(0.0, 1 / 3))
    right = res.measure.evaluate(QuerySet.closed(2 / 3, 1.0))
    cyl_err = max(float(np.abs(left - alpha).max()),
                  float(np.abs(right - (1 - alpha)).max()))
    ok = max(asym) <= 1e-12 and cyl_err <= 1e-6
    assert _status("blend symmetry and cylinders", ok,
                   f"max asymmetry {max(asym):.2e}, cylinder error {cyl_err:.2e}")


def test_change_of_variables_two_hundred_cases():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for case in range(200):
        sys = _random_contractive_system(rng, with_base=bool(case % 2))
        nu = _random_measure(rng, sys.dim)
        deg = int(rng.integers(1, 4))
        f = vector_polynomial(rng.standard_normal((deg + 1, sys.dim)))
        lhs = integrate(f, apply_markov(sys, nu), tol=1e-12)
        rhs = integrate(dual_apply(sys, f), nu, tol=1e-12)
        if sys.base is not None:
            rhs += integrate(f, sys.base, tol=1e-12)
        rel = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
        worst = max(worst, rel)
    ok = worst <= 1e-9
    assert _status("change of variables (200 cases)", ok,
                   f"worst relative error {worst:.2e}")


def test_contraction_factors_bound_the_operator():
    rng = np.random.default_rng(77)
    worst_star, worst_var = -np.inf, -np.inf
    for _ in range(100):
        sys = _random_contractive_system(rng, with_base=False)
        fac = factors(sys)
        nu1 = _random_measure(rng, sys.dim)
        nu2 = _random_measure(rng, sys.dim)
        nu2 = combine(1.0, nu2, 1.0,
                      VectorMeasure.dirac(0.5, nu1.total() - nu2.total()))
        lhs = mk_star_exact(apply_markov(sys, nu1) - apply_markov(sys, nu2))
        rhs = fac.mk_star * mk_star_exact(nu1 - nu2)
        worst_star = max(worst_star, lhs - rhs)
        nu = _random_measure(rng, sys.dim)
        worst_var = max(worst_var,
                        apply_markov(sys, nu).variation_norm()
                        - fac.variation * nu.variation_norm())
    ok = worst_star <= 1e-9 and worst_var <= 1e-12
    assert _status("contraction bounds (100 pairs)", ok,
                   f"mk_star slack {worst_star:.2e}, variation slack {worst_var:.2e}")


def test_transport_norm_estimator_against_exact_formula():
    rng = np.random.default_rng(3030)
    worst_ratio, worst_over = 1.0, -np.inf
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        n_atoms = int(rng.integers(2, 11))
        atoms = [(float(t), rng.standard_normal(dim))
                 for t in rng.uniform(0, 1, n_atoms)]
        mu = VectorMeasure(atoms=atoms, dim=dim)
        mu = combine(1.0, mu, -1.0, VectorMeasure.dirac(0.5, mu.total()))
        star = mk_star_exact(mu)
        if star < 1e-14:
            continue
        val, _ = mk_lower_bound(mu, ball="l1")
        worst_ratio = min(worst_ratio, val / star)
        worst_over = max(worst_over, val - star)
    pair_err = 0.0
    for _ in range(50):
        s, t = rng.uniform(0, 1, 2)
        x = rng.standard_normal(3)
        mu = combine(1.0, VectorMeasure.dirac(float(s), x),
                     -1.0, VectorMeasure.dirac(float(t), x))
        pair_err = max(pair_err, abs(mk_star_exact(mu)
                                     - abs(s - t) * np.linalg.norm(x)))
    ok = worst_ratio >= 0.98 and worst_over <= 1e-9 and pair_err <= 1e-10
    assert _status("transport norm oracle gate", ok,
                   f"worst ratio {worst_ratio:.6f}, overshoot {worst_over:.2e}, "
                   f"pair formula error {pair_err:.2e}")


def test_decay_family_quadrature_and_fixed_points():
    reference = 0.596347362323194074  # integral of exp(-u)/(1+u), u >= 0
    x = np.array([1.0, -0.5])
    f = ContinuousFunction(lambda s: s * x, dim=2,
                           sup_bound=float(np.linalg.norm(x)))
    got = hc_quadrature(f, 1.0, tol=1e-10)
    quad_err = float(np.abs(got - x * reference).max())

    base = VectorMeasure(atoms=[(0.5, np.array([0.25, 0.0]))],
                         pieces=[((0.0, 1.0), np.array([0.0, 0.25]))])
    mu = exp_decay_fixed_point(2.0, 0.0, base)
    closed_res = transfer_residual(2.0, 0.0, base, mu)

    rng = np.random.default_rng(5)
    series_res = 0.0
    pts = [1.0 / (k + 2.0) for k in range(60)]
    for _ in range(5):
        p = rng.standard_normal((3, 3))
        p *= 2.0 / max(operator_norm(p), 1e-9) * rng.uniform(0.2, 1.0)
        b3 = VectorMeasure(atoms=[(0.3, rng.standard_normal(3))],
                           pieces=[((0.0, 1.0), rng.standard_normal(3))])
        m3 = countable_series_fixed_point(p, pts, b3, tol=1e-10)
        series_res = max(series_res, countable_series_residual(p, pts, b3, m3))
    ok = quad_err <= 1e-8 and closed_res <= 1e-10 and series_res <= 2e-10
    assert _status("decay quadrature and fixed points", ok,
                   f"quadrature error {quad_err:.2e}, closed-form residual "
                   f"{closed_res:.2e}, series residual {series_res:.2e}")


def test_norm_sandwich_on_fifty_measures():
    rng = np.random.default_rng(909)
    failures = 0
    worst_gap = 0.0
    for _ in range(50):
        dim = int(rng.integers(1, 4))
        atoms = [(float(t), 0.5 * rng.standard_normal(dim))
                 for t in rng.uniform(0, 1, int(rng.integers(2, 7)))]
        pieces = []
        if rng.uniform() < 0.5:
            pieces = [((0.2, 0.8), rng.standard_normal(dim))]
        mu = VectorMeasure(atoms=atoms, pieces=pieces, dim=dim)
        mu = combine(1.0, mu, -1.0, VectorMeasure.dirac(0.5, mu.total()))
        rep = sandwich_check(mu)
        if not rep.ok:
            failures += 1
        if rep.mk_star > 0:
            worst_gap = max(worst_gap, 1.0 - rep.bl1_lower / rep.mk_star)
    ok = failures == 0
    assert _status("norm sandwich (50 measures)", ok,
                   f"failures {failures}, worst relative gap {worst_gap:.3f}")
