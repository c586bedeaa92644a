"""Tests for the measure-side transfer operator and its two solvers."""

import numpy as np
import pytest

from ifsmeasure import (AffineMap, ContractionFactors, DimensionMismatch,
                        IFSystem, IterationLimit, NotContractive, QuerySet,
                        VectorMeasure, apply_markov, combine, dual_apply,
                        eval_fixed_point, factors, integrate,
                        iterate_fixed_point, mk_star_exact, residual,
                        vector_polynomial)
from ifsmeasure.hilbert import operator_norm

SQRT2 = np.sqrt(2.0)


def triangular_system():
    """Two ternary contractions with lower-triangular 2x2 operators and a
    quarter-Lebesgue / quarter-Dirac base."""
    maps = [AffineMap(1 / 3, 0.0), AffineMap(1 / 3, 2 / 3)]
    ops = [np.array([[0.1, 0.0], [0.2, 0.1]]),
           np.array([[0.1, 0.0], [0.2, -0.1]])]
    base = VectorMeasure(atoms=[(0.0, np.array([0.0, 0.25]))],
                         pieces=[((0.0, 1.0), np.array([0.25, 0.0]))])
    return IFSystem(maps, ops, base=base)


def blend_system(alpha=1 / 3):
    maps = [AffineMap(1 / 3, 0.0), AffineMap(1 / 3, 2 / 3)]
    ops = [alpha * np.eye(2), (1 - alpha) * np.eye(2)]
    return IFSystem(maps, ops)


def _random_system(rng, n_maps=None, dim=None, with_base=False, scale=0.3):
    n_maps = n_maps or int(rng.integers(1, 4))
    dim = dim or int(rng.integers(1, 4))
    maps, ops = [], []
    for _ in range(n_maps):
        s = float(rng.uniform(0.05, 0.45)) * (1 if rng.uniform() < 0.8 else -1)
        lo, hi = (0.0, 1.0 - s) if s >= 0 else (-s, 1.0)
        maps.append(AffineMap(s, float(rng.uniform(lo, hi))))
        r = rng.standard_normal((dim, dim))
        ops.append(scale * r / max(np.linalg.norm(r, 2), 1e-9))
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


def test_system_validation():
    maps = [AffineMap(1 / 3, 0.0)]
    with pytest.raises(ValueError):
        IFSystem(maps, [])  # length mismatch
    with pytest.raises(DimensionMismatch):
        IFSystem(maps, [np.eye(2)],
                 base=VectorMeasure.dirac(0.0, np.array([1.0, 0.0, 0.0])))


def test_factors_triangular_values():
    fac = factors(triangular_system())
    e, d, c = fac.variation, fac.mk, fac.mk_star
    assert abs(e - (1 + SQRT2) / 5) < 1e-12
    assert abs(d - (1 + SQRT2) / 5 * (4 / 3)) < 1e-12
    assert abs(c - (1 + SQRT2) / 15) < 1e-12


def test_factors_blend_and_degenerate():
    fac = factors(blend_system())
    assert abs(fac.variation - 1.0) < 1e-12
    assert abs(fac.mk_star - 1 / 3) < 1e-12
    zero_sys = IFSystem([AffineMap(0.5, 0.0)], [np.zeros((2, 2))])
    assert factors(zero_sys) == ContractionFactors(0.0, 0.0, 0.0)


def test_apply_markov_zero_and_base():
    sys = triangular_system()
    out = apply_markov(sys, VectorMeasure.zero(2))
    assert (out - sys.base).variation_norm() < 1e-15
    nobase = blend_system()
    assert apply_markov(nobase, VectorMeasure.zero(2)).is_zero()


def test_apply_markov_matches_hand_expansion():
    sys = triangular_system()
    rng = np.random.default_rng(0)
    from ifsmeasure import apply_operator, pushforward
    for _ in range(10):
        nu = _random_measure(rng, 2)
        direct = combine(
            1.0, apply_operator(sys.operators[0], pushforward(sys.maps[0], nu)),
            1.0, apply_operator(sys.operators[1], pushforward(sys.maps[1], nu)))
        direct = combine(1.0, direct, 1.0, sys.base)
        assert (apply_markov(sys, nu) - direct).variation_norm() < 1e-12


def test_dual_apply_identity_system():
    sys = IFSystem([AffineMap(0.5, 0.0)], [np.eye(2)])
    f = vector_polynomial([np.array([1.0, 2.0]), np.array([0.5, 0.0])])
    g = dual_apply(sys, f)
    for t in np.linspace(0, 1, 7):
        assert np.allclose(g(t), f(0.5 * t), atol=1e-14)


def test_dual_apply_constant_function_blend():
    sys = blend_system()
    x = np.array([0.7, -0.2])
    f = vector_polynomial([x])
    g = dual_apply(sys, f)
    # operators sum to the identity and constants ignore the maps
    for t in (0.0, 0.3, 1.0):
        assert np.allclose(g(t), x, atol=1e-14)


def test_change_of_variables_small_sweep():
    rng = np.random.default_rng(1)
    for _ in range(30):
        with_base = bool(rng.integers(2))
        sys = _random_system(rng, with_base=with_base)
        nu = _random_measure(rng, sys.dim)
        deg = int(rng.integers(1, 4))
        f = vector_polynomial(rng.standard_normal((deg + 1, sys.dim)))
        lhs = integrate(f, apply_markov(sys, nu), tol=1e-12)
        rhs = integrate(dual_apply(sys, f), nu, tol=1e-12)
        if sys.base is not None:
            rhs += integrate(f, sys.base, tol=1e-12)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


def test_variation_contraction_bound():
    rng = np.random.default_rng(2)
    for _ in range(20):
        sys = _random_system(rng)
        nu = _random_measure(rng, sys.dim)
        e = factors(sys).variation
        assert (apply_markov(sys, nu).variation_norm()
                <= e * nu.variation_norm() + 1e-12)


def test_mass_conserved_when_adjoints_sum_to_identity():
    sys = blend_system()
    rng = np.random.default_rng(3)
    nu = _random_measure(rng, 2)
    assert np.abs(apply_markov(sys, nu).total() - nu.total()).max() < 1e-12


def test_mk_star_contraction_on_equal_mass_pairs():
    rng = np.random.default_rng(4)
    for _ in range(20):
        sys = _random_system(rng, with_base=False)
        c = factors(sys).mk_star
        nu1 = _random_measure(rng, sys.dim)
        nu2 = _random_measure(rng, sys.dim)
        nu2 = combine(1.0, nu2, 1.0,
                      VectorMeasure.dirac(0.5, nu1.total() - nu2.total()))
        lhs = mk_star_exact(apply_markov(sys, nu1) - apply_markov(sys, nu2))
        rhs = c * mk_star_exact(nu1 - nu2)
        assert lhs <= rhs + 1e-9


def test_iterate_reaches_known_totals():
    sys = triangular_system()
    res = iterate_fixed_point(sys, VectorMeasure.zero(2), tol=1e-8)
    assert res.iterations <= 60
    assert res.error_bound <= 1e-8
    assert np.abs(res.measure.total() - np.array([5 / 16, 3 / 8])).max() < 1e-8


def test_iterate_without_base_converges_to_zero():
    # representation size multiplies by n_maps per step, so keep the
    # contraction strong enough that certification lands within ~15 steps
    rng = np.random.default_rng(5)
    sys = _random_system(rng, n_maps=2, dim=2, with_base=False, scale=0.1)
    res = iterate_fixed_point(sys, _random_measure(rng, sys.dim), tol=1e-10)
    assert res.measure.variation_norm() <= 1e-10


def test_iterate_discrete_decay_analogue():
    # single constant map at t0 with R = I/N and a base: the fixed point
    # is base plus an atom at t0 carrying total(base)/(N - 1)
    t0, n_big = 0.25, 4.0
    base = VectorMeasure(atoms=[(0.8, np.array([0.6]))],
                         pieces=[((0.0, 0.5), np.array([1.0]))])
    sys = IFSystem([AffineMap(0.0, t0)], [np.eye(1) / n_big], base=base)
    res = iterate_fixed_point(sys, VectorMeasure.zero(1), tol=1e-10)
    want = combine(1.0, base, 1.0,
                   VectorMeasure.dirac(t0, base.total() / (n_big - 1)))
    assert (res.measure - want).variation_norm() < 1e-9
    assert residual(sys, want) < 1e-12


def overweight_system():
    """Operators 0.6 + 0.6: variation factor 1.2, and they do not sum to
    the identity, so neither metric can certify."""
    return IFSystem([(1 / 3, 0.0), (1 / 3, 2 / 3)],
                    [np.array([[0.6]]), np.array([[0.6]])])


def test_iterate_refuses_non_contractive_variation():
    with pytest.raises(NotContractive, match="variation factor 1.2 >= 1"):
        iterate_fixed_point(overweight_system(), VectorMeasure.zero(1),
                            tol=1e-6)


def test_iterate_iteration_limit():
    sys = triangular_system()
    with pytest.raises(IterationLimit):
        iterate_fixed_point(sys, VectorMeasure.zero(2), tol=1e-12, max_iter=2)


@pytest.mark.parametrize("slope,r,offset,tol", [
    (0.2, 0.5, 0.3, 1e-8), (0.4, 0.8, 0.55, 1e-6), (0.4, 0.7, 0.55, 1e-11),
    (0.45, 0.7, 0.1, 1e-8)])
def test_iterate_refuses_or_certifies_the_one_map_family(slope, r, offset,
                                                        tol):
    # the deep images of [0, 1] are a few ulps wide and carry densities up
    # to 1e9; their rounded widths change the operator, and the iterate
    # settles on the rounded operator's fixed point, up to 3e5 bounds
    # from the exact total 1 / (1 - r)
    sys = IFSystem([AffineMap(slope, offset)], [np.array([[r]])],
                   base=VectorMeasure.lebesgue([1.0]))
    try:
        res = iterate_fixed_point(sys, VectorMeasure.zero(1), tol=tol,
                                  max_iter=400)
    except IterationLimit as exc:
        assert "rounding moves the total" in str(exc)
        return
    assert abs(res.measure.total()[0] - 1.0 / (1.0 - r)) <= res.error_bound


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_iterate_refuses_a_tolerance_it_can_never_meet(tol):
    # one mass-preserving map keeps the iterate a single atom, so neither
    # the prune budget nor the size cap would stop it before max_iter
    sys = IFSystem([AffineMap(0.5, 0.25)], [np.eye(1)])
    with pytest.raises(ValueError, match="tol must be positive"):
        iterate_fixed_point(sys, VectorMeasure.dirac(0.0, np.array([1.0])),
                            tol=tol, max_iter=10_000)


def _record_iterates(monkeypatch):
    """Spy on ``markov.prune``: each step's iterate is what it returns."""
    import ifsmeasure.markov as markov
    seen = []
    real_prune = markov.prune

    def spy(mu, tol):
        seen.append(real_prune(mu, tol))
        return seen[-1]
    monkeypatch.setattr(markov, "prune", spy)
    return seen


def test_iterate_mk_star_mode_blend(monkeypatch):
    sys = blend_system()
    start = VectorMeasure.dirac(0.0, np.array([1.0, 1.0]))
    seen = _record_iterates(monkeypatch)
    res = iterate_fixed_point(sys, start, tol=1e-8, max_iter=400)
    assert len(seen) == res.iterations and seen[-1] is res.measure
    assert res.norm == "mk_star"
    mu = res.measure
    assert np.abs(mu.total() - 1.0).max() < 1e-9
    # cylinder masses reproduce the operator weights
    assert np.abs(mu.evaluate(QuerySet.closed(0.0, 1 / 3)) - 1 / 3).max() < 1e-6
    assert np.abs(mu.evaluate(QuerySet.closed(2 / 3, 1.0)) - 2 / 3).max() < 1e-6


def test_iterate_mk_star_mode_never_prunes(monkeypatch):
    # a 0.9 / 0.1 split of the mass makes atoms of weight 0.1^k, far below
    # what a prune budget of tol * (1 - c) / 4 would drop; every one of
    # them must stay, or the totals drift from the start's
    sys = IFSystem([(1 / 3, 0.0), (1 / 3, 2 / 3)],
                   [np.array([[0.9]]), np.array([[0.1]])])
    seen = _record_iterates(monkeypatch)
    iterate_fixed_point(sys, VectorMeasure.dirac(0.0, np.array([1.0])),
                        tol=1e-6)
    assert len(seen) > 5
    for k, m in enumerate(seen, start=1):
        assert m.n_atoms == 2 ** k
        assert abs(m.total()[0] - 1.0) < 1e-14


def overlap_system():
    """Three overlapping slope-0.4 maps with rotation operators of
    variation factor 0.41 and an atom-plus-density base."""
    c, s = np.cos(1.0), np.sin(1.0)
    rot = np.array([[c, -s], [s, c]])
    base = VectorMeasure(atoms=[(0.0, np.array([0.02, 0.0]))],
                         pieces=[((0.0, 1.0), np.array([0.0, 0.02]))])
    return IFSystem([(0.4, 0.0), (0.4, 0.3), (0.4, 0.6)],
                    [0.41 * share * rot for share in (0.5, 0.3, 0.2)],
                    base=base)


@pytest.mark.parametrize("system, norm, start", [
    (overlap_system, "variation", VectorMeasure.zero(2)),
    (blend_system, "mk_star", VectorMeasure.dirac(0.0, np.array([1.0, 1.0]))),
])
def test_iterate_refuses_before_outgrowing_the_cap(monkeypatch, system, norm,
                                                   start):
    # at tol 1e-10 the overlap iterate triples per step and would pass the
    # cap; the cap is lowered so the refusal comes after a few small steps.
    # Each case runs the loop in the metric it is labelled with.
    assert iterate_fixed_point(system(), start, tol=1e-2).norm == norm
    import ifsmeasure.markov as markov
    cap = 50_000
    monkeypatch.setattr(markov, "_MAX_COMPONENTS", cap)
    built = []
    real_apply = markov.apply_markov

    def spy(sys, nu):
        out = real_apply(sys, nu)
        built.append(out.n_atoms + out.n_pieces)
        return out
    monkeypatch.setattr(markov, "apply_markov", spy)
    with pytest.raises(IterationLimit, match="would hold"):
        iterate_fixed_point(system(), start, tol=1e-10, max_iter=400)
    assert len(built) > 5 and max(built) <= cap


def test_iterate_mk_star_mode_requires_mass_conservation():
    # operators that do not sum to the identity iterate in the variation
    # norm, and are refused there even when their mk_star factor is < 1
    res = iterate_fixed_point(triangular_system(), VectorMeasure.zero(2),
                              tol=1e-8)
    assert res.norm == "variation"
    sys = overweight_system()
    assert factors(sys).mk_star < 1.0
    with pytest.raises(NotContractive, match="do not sum to the identity"):
        iterate_fixed_point(sys, VectorMeasure.dirac(0.0, np.array([1.0])),
                            tol=1e-8)


def test_iterate_prefers_variation_inside_the_mass_tolerance():
    # the operators sum to the identity within 1e-12, yet their variation
    # factor 1 - 5e-13 is below one: the system loses mass and its fixed
    # point is zero.  The loop runs in the variation norm and refuses;
    # mk_star would certify a measure of total about 1.
    sys = IFSystem([(1 / 3, 0.0), (1 / 3, 2 / 3)],
                   [np.array([[0.5 - 5e-13]]), np.array([[0.5]])])
    assert factors(sys).variation < 1.0
    with pytest.raises(IterationLimit, match="not certified in 12 iterations"):
        iterate_fixed_point(sys, VectorMeasure.dirac(0.0, np.array([1.0])),
                            tol=1e-8, max_iter=12)


def test_iterate_mk_star_mode_refusals():
    # 3 - 2 = 1 preserves mass, but (3 + 2) / 3 > 1
    sys = IFSystem([(1 / 3, 0.0), (1 / 3, 2 / 3)],
                   [np.array([[3.0]]), np.array([[-2.0]])])
    with pytest.raises(NotContractive, match="mk_star factor 1.66667 >= 1"):
        iterate_fixed_point(sys, VectorMeasure.zero(1))
    sys = IFSystem([(1 / 3, 0.0), (1 / 3, 2 / 3)],
                   [np.array([[0.5]]), np.array([[0.5]])],
                   base=VectorMeasure.dirac(0.5, np.array([1.0])))
    with pytest.raises(NotContractive, match="zero total mass"):
        iterate_fixed_point(sys, VectorMeasure.zero(1))


def test_iterate_mk_star_tolerates_rounding_residue_of_large_mass():
    # the blend from an atom of mass 1e4 per coordinate: step differences
    # keep a total of about 1e-12 from rounding alone, which an absolute
    # zero-total check refused mid-iteration
    res = iterate_fixed_point(blend_system(),
                              VectorMeasure.dirac(0.0, np.array([1e4, 1e4])),
                              tol=1e-4, max_iter=400)
    assert res.norm == "mk_star" and res.error_bound <= 1e-4
    assert np.abs(res.measure.total() - 1e4).max() < 1e-8


def test_eval_fixed_point_known_values():
    sys = triangular_system()
    cases = [
        (QuerySet.unit(), np.array([5 / 16, 3 / 8])),
        (QuerySet.point(0.0), np.array([0.0, 5 / 18])),
        (QuerySet.point(1.0), np.array([0.0, 0.0])),
        (QuerySet.point(2 / 3), np.array([0.0, -1 / 36])),
    ]
    for b, want in cases:
        got = eval_fixed_point(sys, b, tol=1e-10).value
        assert np.abs(got - want).max() < 1e-10


def test_eval_memo_absorbs_preimage_rounding():
    # the preimage of [0, 1] under 0.2 t + 0.8 divides out to
    # [0, 0.9999999999999998], but the map as pushforward rounds it sends
    # 1 to 1, so the closed end moves back to 1: the preimage is [0, 1]
    # again and the graph closes on one node.  Kept at the quotient, that
    # near-copy loses the atom at 1 and a 25-node "closed" graph returns
    # 1.99999987.
    base = VectorMeasure(atoms=[(1.0, np.array([1.0]))],
                         pieces=[((0.0, 1.0), np.array([0.5]))])
    sys = IFSystem([AffineMap(0.2, 0.8)], [np.array([[0.5]])], base=base)
    res = eval_fixed_point(sys, QuerySet.unit(), tol=1e-10)
    assert res.nodes == 1 and res.closed
    assert abs(res.value[0] - 3.0) <= res.error_bound  # (1 - 0.5)^-1 * 1.5
    # the iterate agrees at the default tol; at 1e-10 its pushforward
    # rounding (see ROADMAP, "Certificates that survive rounding") puts
    # it 1.4e-9 off against a certificate of 7.3e-11
    it = iterate_fixed_point(sys, VectorMeasure.zero(1))
    assert abs(it.measure.total()[0] - 3.0) <= it.error_bound


def test_eval_refuses_non_contractive():
    with pytest.raises(NotContractive):
        eval_fixed_point(blend_system(), QuerySet.unit())


def test_eval_agrees_with_iterate_on_random_sets():
    sys = triangular_system()
    res = iterate_fixed_point(sys, VectorMeasure.zero(2), tol=1e-9)
    rng = np.random.default_rng(6)
    for _ in range(20):
        b = QuerySet.closed(*sorted(rng.uniform(0, 1, 2)))
        direct = eval_fixed_point(sys, b, tol=1e-9).value
        via_iter = res.measure.evaluate(b)
        assert np.abs(direct - via_iter).max() < 2e-9


@pytest.mark.parametrize("slope, offset, closed", [
    (0.31, 0.62, True),    # a gap between the images: closes after 9 nodes
    (0.6, 0.4, False),     # overlapping images: cut by the truncation bound
], ids=["closes", "truncates"])
def test_eval_truncation_on_infinite_transition_graph(slope, offset, closed):
    # the result must match the iterated measure within the two bounds,
    # whether the graph closed or was truncated
    maps = [AffineMap(slope, 0.0), AffineMap(slope, offset)]
    ops = [0.15 * np.eye(1), 0.1 * np.eye(1)]
    base = VectorMeasure.lebesgue(np.array([0.5]))
    sys = IFSystem(maps, ops, base=base)
    b = QuerySet.closed(0.2, 0.45)
    got = eval_fixed_point(sys, b, tol=1e-8)
    assert got.closed is closed
    assert got.error_bound <= 1e-8
    res = iterate_fixed_point(sys, VectorMeasure.zero(1), tol=1e-9)
    err = np.abs(got.value - res.measure.evaluate(b)).max()
    assert err <= got.error_bound + res.error_bound


def test_residual_properties():
    sys = triangular_system()
    rng = np.random.default_rng(7)
    e = factors(sys).variation
    base_norm = sys.base.variation_norm()
    for _ in range(10):
        mu = _random_measure(rng, 2)
        r = residual(sys, mu)
        assert r <= (1 + e) * mu.variation_norm() + base_norm + 1e-10
    res = iterate_fixed_point(sys, VectorMeasure.zero(2), tol=1e-9)
    assert residual(sys, res.measure) < 1e-8


# slopes of the generated maps: 0 (a constant map), negative, and the
# ternary/binary ones whose preimage graphs close
_SLOPES = (0.0, 1 / 3, -1 / 3, 0.25, -0.5, 0.5, 0.4, -0.35)


def _generated_system(rng, field):
    """2-4 maps with slopes in [-1/2, 1/2], operators of variation factor
    in [0.2, 0.6], and a base whose atoms sit at the maps' fixed points and
    at 0 and 1, with a piece between two map-image endpoints.  Returns the
    system and those special points, from which query sets are drawn."""
    k = int(rng.integers(2, 5))
    dim = int(rng.integers(1, 4))
    maps = []
    for _ in range(k):
        s = (float(rng.choice(_SLOPES)) if rng.random() < 0.7
             else float(rng.uniform(-0.5, 0.5)))
        lo, hi = (0.0, 1.0 - s) if s >= 0 else (-s, 1.0)
        grid = [lo, hi] + [o for o in (0.25, 1 / 3, 0.5, 2 / 3, 0.75)
                           if lo <= o <= hi]
        o = (float(rng.choice(grid)) if rng.random() < 0.6
             else float(rng.uniform(lo, hi)))
        maps.append(AffineMap(s, o))

    def coeffs(*shape):
        c = rng.standard_normal(shape)
        return c + 1j * rng.standard_normal(shape) if field == "complex" else c
    e = rng.uniform(0.2, 0.6)
    ops = [e * w * r / np.linalg.norm(r, 2)
           for w, r in zip(rng.dirichlet(np.ones(k)), coeffs(k, dim, dim))]
    fixed = [m.offset / (1 - m.slope) for m in maps]
    ends = sorted({min(max(m(t), 0.0), 1.0) for m in maps for t in (0.0, 1.0)})
    lo, hi = sorted(rng.choice(ends + [0.0, 1.0], 2, replace=False))
    base = VectorMeasure(atoms=[(t, coeffs(dim)) for t in {0.0, 1.0, *fixed}],
                         pieces=[((lo, hi), coeffs(dim))], dim=dim, field=field)
    return (IFSystem(maps, ops, base=base, dim=dim, field=field),
            sorted(set(fixed + ends)))


@pytest.mark.parametrize("field, seed", [("real", 11), ("complex", 12)])
def test_system_norms_are_computed_once_bit_for_bit(field, seed):
    rng = np.random.default_rng(seed)
    for _ in range(16):
        sys, _ = _generated_system(rng, field)
        assert list(sys.norms) == [operator_norm(r) for r in sys.operators]
        # the factors as summed from one SVD per operator on every call
        e = d = c = 0.0
        for m, r in zip(sys.maps, sys.operators):
            nrm = operator_norm(r)
            e += nrm
            d += nrm * (1.0 + m.lipschitz)
            c += nrm * m.lipschitz
        assert factors(sys) == ContractionFactors(e, d, c)


def _memo_key(sys, B):
    """The oracle's memo key: the set itself, or its spans and points
    rounded to the 1e-14 grid where mu* has no atoms (no base atom, no
    constant map), as the solver keys its rows."""
    if sys.base.n_atoms or any(m.slope == 0.0 for m in sys.maps):
        return B
    return (tuple((round(lo, 14), round(hi, 14), lo_incl, hi_incl)
                  for lo, hi, lo_incl, hi_incl in B.spans),
            tuple(round(a, 14) for a in B.atoms))


def _uniform_graph(sys, B, depth_cap, max_nodes=800):
    """Oracle: the breadth-first preimage graph of B, its nodes whole
    sets (``QuerySet``, the empty set among them) memoized by
    ``_memo_key``, cut at one uniform depth, as if every map had the largest norm; cut
    rows of its child array hold len(nodes).  Refuses past max_nodes,
    which keeps a dense reference small."""
    from ifsmeasure.space import _preimage_rows, _span_rows, preimage
    if not isinstance(_memo_key(sys, B), QuerySet):
        # an atomless system: ends as the division puts them, as the
        # solver takes them there
        def preimage(m, C):
            lo, hi, li, ri, keep = _preimage_rows(
                m.slope, m.offset, *_span_rows([C])[:4], nudge=False)
            return QuerySet(zip(lo[keep].tolist(), hi[keep].tolist(),
                                li[keep].tolist(), ri[keep].tolist()))
    nodes = [B]
    keys = {_memo_key(sys, B): 0}
    depth = [0]
    children = [None]
    frontier = [0]
    while frontier:
        nxt_frontier = []
        for j in frontier:
            if depth[j] >= depth_cap:
                continue
            kids = []
            for m in sys.maps:
                C = preimage(m, nodes[j])
                key = _memo_key(sys, C)
                idx = keys.get(key)
                if idx is None:
                    if len(nodes) >= max_nodes:
                        raise IterationLimit(f"oracle graph exceeded "
                                             f"{max_nodes} nodes")
                    idx = len(nodes)
                    keys[key] = idx
                    nodes.append(C)
                    depth.append(depth[j] + 1)
                    children.append(None)
                    nxt_frontier.append(idx)
                kids.append(idx)
            children[j] = kids
        frontier = nxt_frontier
    leaf = [len(nodes)] * len(sys.maps)
    child = np.array([leaf if kids is None else kids for kids in children],
                     dtype=np.intp)
    return nodes, child


def _dense_eval(sys, nodes, child):
    """Reference: a graph's equations assembled as one dense (N n)^2
    system, children at index len(nodes) or -1 acting as zero; returns
    every node's value."""
    N, n = len(nodes), sys.dim
    dtype = np.complex128 if sys.field == "complex" else np.float64
    A = np.eye(N * n, dtype=dtype)
    b = np.zeros(N * n, dtype=dtype)
    for j in range(N):
        b[j * n:(j + 1) * n] = sys.base.evaluate(nodes[j])
        for r, c in zip(sys.operators, child[j]):
            if 0 <= c < N:
                A[j * n:(j + 1) * n, c * n:(c + 1) * n] -= r
    return np.linalg.solve(A, b).reshape(N, n)


def _graph_sets(g):
    """The nodes of a graph built by the solver as one-span sets."""
    return [QuerySet(intervals=[row]) for row in zip(
        g.lo.tolist(), g.hi.tolist(), g.lo_incl.tolist(), g.hi_incl.tolist())]


def _record_graphs(monkeypatch):
    """Record every graph ``_set_graph`` builds, with its root owners."""
    from ifsmeasure import markov
    built = []
    build = markov._set_graph

    def recording(sys, rows, owner, n_roots, budget):
        g = build(sys, rows, owner, n_roots, budget)
        built.append((g, owner, budget))
        return g
    monkeypatch.setattr(markov, "_set_graph", recording)
    return built


def _check_graph(sys, g, owner, results, tol):
    """Each root against a dense solve of the graph the solver built,
    within rounding, and its cut bound against the dense exposures."""
    e = factors(sys).variation
    a = sys.base.variation_norm() / (1 - e)
    x = _dense_eval(sys, _graph_sets(g), g.child)
    want = np.zeros((len(results), sys.dim), dtype=x.dtype)
    np.add.at(want, owner, x[g.root])
    m = np.bincount(owner, minlength=len(results))
    Z = _path_weights(g.child, g.expanded, sys.norms)
    exposure = np.bincount(owner, Z[g.root], minlength=len(results))
    for res, w, k, z, cut in zip(results, want, m, exposure, g.cut):
        assert res.nodes == len(g.lo)
        assert np.abs(res.value - w).max() <= 1e-14 * a * max(k, 1)
        assert res.error_bound <= tol
        # the stop is certified on the graph as built, within tol/2
        assert z <= cut * (1 + 1e-12)
        assert e * a * cut <= tol / 2 * (1 + 1e-12)


def _generated_cases(rng, field, systems=16):
    """Systems from ``_generated_system`` with three query sets each: the
    unit interval, a special point and a flagged interval between two."""
    for _ in range(systems):
        sys, pts = _generated_system(rng, field)
        a, b = sorted(rng.choice(pts + [0.0, 1.0], 2, replace=False))
        for B in (QuerySet.unit(), QuerySet.point(float(rng.choice(pts))),
                  QuerySet(intervals=[(float(a), float(b),
                                       bool(rng.integers(2)),
                                       bool(rng.integers(2)))])):
            yield sys, B


@pytest.mark.parametrize("field, seed", [("real", 11), ("complex", 12)])
def test_eval_matches_dense_solve_on_generated_systems(monkeypatch, field,
                                                      seed):
    # the sweeps solve the graph the solver built, to the last digits
    import ifsmeasure.markov as markov
    monkeypatch.setattr(markov, "_MAX_NODES", 800)
    built = _record_graphs(monkeypatch)
    tol = 1e-6
    closed = truncated = 0
    for sys, B in _generated_cases(np.random.default_rng(seed), field):
        try:
            got = eval_fixed_point(sys, B, tol=tol)
        except IterationLimit:
            continue  # keeps the dense reference small
        g, owner, _ = built[-1]
        _check_graph(sys, g, owner, [got], tol)
        closed += got.closed
        truncated += not got.closed
    assert closed >= 10 and truncated >= 4


def _uniform_cap(sys, B, tol):
    """mu*(B) by the uniform-cap oracle, and the oracle's truncation bound
    a e^(D+1)/(1-e) at depth D, a = ||mu0||/(1-e); None past its node
    cap."""
    e = factors(sys).variation
    a = sys.base.variation_norm() / (1 - e)
    depth_cap = 0
    while a * e ** (depth_cap + 1) / (1 - e) > tol:
        depth_cap += 1
    try:
        nodes, child = _uniform_graph(sys, B, depth_cap)
    except IterationLimit:
        return None
    want = _dense_eval(sys, nodes, child)[0]
    cut_bound = (0.0 if (child < len(nodes)).all()
                 else a * e ** (depth_cap + 1) / (1 - e))
    return want, cut_bound, len(nodes)


@pytest.mark.parametrize("field, seed", [("real", 11), ("complex", 12)])
def test_eval_agrees_with_uniform_cap_solve_on_generated_systems(field,
                                                                 seed):
    # best-first truncation against the uniform depth cut, each within
    # its own bound of mu*(B)
    tol = 1e-6
    compared = smaller = 0
    for sys, B in _generated_cases(np.random.default_rng(seed), field):
        got = eval_fixed_point(sys, B, tol=tol)
        assert got.error_bound <= tol
        oracle = _uniform_cap(sys, B, tol)
        if oracle is None:
            continue
        want, cut_bound, nodes = oracle
        a = sys.base.variation_norm() / (1 - factors(sys).variation)
        assert (np.linalg.norm(got.value - want)
                <= got.error_bound + cut_bound + 1e-14 * a)
        compared += 1
        smaller += got.nodes < nodes
    assert compared >= 40 and smaller >= 4


def _batch_system(rng, field):
    """1-4 maps with slopes 0, negative and up to +-0.45, operators of
    variation factor in [0.2, 0.6], and a base of atoms at 0, 1 and a
    map's fixed point plus a piece; returns the system and points from
    which query sets are drawn."""
    k = int(rng.integers(1, 5))
    dim = int(rng.integers(1, 3))
    maps = []
    for _ in range(k):
        s = float(rng.choice([0.0, -0.45, 0.45, -1 / 3, 0.25,
                              rng.uniform(-0.45, 0.45)]))
        lo, hi = (0.0, 1.0 - s) if s >= 0 else (-s, 1.0)
        maps.append(AffineMap(s, float(rng.choice([lo, hi,
                                                   rng.uniform(lo, hi)]))))

    def coeffs(*shape):
        c = rng.standard_normal(shape)
        return c + 1j * rng.standard_normal(shape) if field == "complex" else c
    e = rng.uniform(0.2, 0.6)
    ops = [e * w * r / np.linalg.norm(r, 2)
           for w, r in zip(rng.dirichlet(np.ones(k)), coeffs(k, dim, dim))]
    fixed = [m.offset / (1 - m.slope) for m in maps]
    ends = sorted({min(max(m(t), 0.0), 1.0) for m in maps for t in (0.0, 1.0)})
    lo, hi = sorted(rng.choice(ends + [0.0, 0.5, 1.0], 2, replace=False))
    base = VectorMeasure(atoms=[(t, coeffs(dim)) for t in {0.0, 1.0, fixed[0]}],
                         pieces=[((lo, hi), coeffs(dim))], dim=dim, field=field)
    return (IFSystem(maps, ops, base=base, dim=dim, field=field),
            sorted(set(fixed + ends + [0.0, 1.0])))


def _batch(rng, pts):
    """Closed and half-open spans, a point, a multi-span set with a
    point, and a duplicate of one of them."""
    def span():
        a, b = sorted(rng.choice(pts + [float(rng.uniform())], 2,
                                 replace=False))
        return (float(a), float(b), bool(rng.integers(2)),
                bool(rng.integers(2)))
    sets = [QuerySet(intervals=[span()]),
            QuerySet(intervals=[span()[:2] + (True, False)]),
            QuerySet.point(float(rng.choice(pts))),
            QuerySet(intervals=[span(), span()],
                     atoms=[float(rng.choice(pts))])]
    return sets + [sets[int(rng.integers(len(sets)))]]


@pytest.mark.parametrize("field, seed", [("real", 21), ("complex", 22)])
def test_eval_many_on_generated_batches(monkeypatch, field, seed):
    # every root of one shared graph within the summed bounds of the
    # per-set uniform-cap oracle, and at a dense solve of the graph built
    import ifsmeasure.markov as markov
    monkeypatch.setattr(markov, "_MAX_NODES", 800)
    built = _record_graphs(monkeypatch)
    rng = np.random.default_rng(seed)
    tol = 1e-6
    batches = compared = multi = 0
    for _ in range(8):
        sys, pts = _batch_system(rng, field)
        sets = _batch(rng, pts)
        try:
            got = markov.eval_many(sys, sets, tol)
        except IterationLimit:
            continue  # keeps the dense reference small
        batches += 1
        g, owner, _ = built[-1]
        _check_graph(sys, g, owner, got, tol)
        assert np.array_equal(got[-1].value,
                              got[sets.index(sets[-1])].value)
        a = sys.base.variation_norm() / (1 - factors(sys).variation)
        for B, res in zip(sets, got):
            oracle = _uniform_cap(sys, B, tol)
            if oracle is None:
                continue
            want, cut_bound, _ = oracle
            assert (np.linalg.norm(res.value - want)
                    <= res.error_bound + cut_bound + 1e-14 * a)
            compared += 1
            multi += len(B.spans) + len(B.atoms) > 1
    # a multi-span set's oracle graph (whole sets, cut uniformly) mostly
    # passes its node cap; the dense solve above checks every one
    assert batches >= 6 and compared >= 30 and multi >= 2


def _histogram(m):
    """m half-open cells [i/m, (i+1)/m) covering [0, 1), then {1}."""
    return [QuerySet(intervals=[(i / m, (i + 1) / m, True, False)])
            for i in range(m)] + [QuerySet.point(1.0)]


def _closed_form_total(sys):
    """mu*([0, 1]) = (I - sum R_i)^-1 mu0([0, 1])."""
    return np.linalg.solve(np.eye(sys.dim) - sum(sys.operators),
                           sys.base.total())


def test_eval_many_histogram_sums_to_the_closed_form():
    from ifsmeasure.markov import eval_many
    sys = overlap_system()
    tol = 1e-10
    cells = eval_many(sys, _histogram(64), tol)
    assert all(c.error_bound <= tol for c in cells)
    assert len({c.nodes for c in cells}) == 1  # one graph for all
    total = sum(c.value for c in cells)
    assert (np.linalg.norm(total - _closed_form_total(sys))
            <= sum(c.error_bound for c in cells) + 1e-15)


def test_eval_many_refuses_a_batch_whose_shared_graph_passes_the_cap(
        monkeypatch, tmp_path):
    # each cell alone fits under the cap; the graph the batch shares does
    # not, and the scenario's eval commands, evaluated together, exit 4
    import json
    import ifsmeasure.markov as markov
    from ifsmeasure.cli import run
    sys = four_map_system()
    sets = _histogram(8)[:-1]
    alone = max(eval_fixed_point(sys, B, tol=1e-8).nodes for B in sets)
    assert markov.eval_many(sys, sets, 1e-8)[0].nodes > alone
    monkeypatch.setattr(markov, "_MAX_NODES", alone)
    doc = {"kind": "ifs", "field": "real", "dimension": 2,
           "maps": [[m.slope, m.offset] for m in sys.maps],
           "operators": [r.tolist() for r in sys.operators],
           "base": {"dimension": 2, "atoms": [[0.0, [0.02, 0.0]]],
                    "pieces": [[0.0, 1.0, [0.0, 0.02]]]},
           "query_sets": {f"c{i}": B.to_dict() for i, B in enumerate(sets)},
           "solver": {"tol": 1e-8},
           "commands": [f"eval c{i}" for i in range(len(sets))]}
    p = tmp_path / "s.json"
    p.write_text(json.dumps(doc))
    code, report = run(str(p))
    assert code == 4 and "set-transition graph exceeded" in report


@pytest.mark.campaign
def test_campaign_histogram_of_1024_cells(bench_module):
    # the seed-1 overlap system of the benchmark at 1,024 cells and tol
    # 1e-10: one shared graph against the per-set loop, cell by cell
    # within the summed bounds, and the cells against the closed form
    import time
    from ifsmeasure.cli import _IFSJob
    from ifsmeasure.markov import eval_many
    sys = _IFSJob(bench_module("workloads").overlap_system(1)).system
    sets, tol = _histogram(1024)[:-1], 1e-10
    t0 = time.perf_counter()
    shared = eval_many(sys, sets, tol)
    t1 = time.perf_counter()
    alone = [eval_fixed_point(sys, B, tol=tol) for B in sets]
    t2 = time.perf_counter()
    print(f"\n1024 cells: eval_many {t1 - t0:.3f} s on {shared[0].nodes} "
          f"nodes, per-set loop {t2 - t1:.3f} s on "
          f"{sum(r.nodes for r in alone)} nodes, {(t2 - t1) / (t1 - t0):.1f}x")
    for a, b in zip(shared, alone):
        assert a.error_bound <= tol and b.error_bound <= tol
        assert np.linalg.norm(a.value - b.value) <= a.error_bound + b.error_bound
    assert (np.linalg.norm(sum(c.value for c in shared) - _closed_form_total(sys))
            <= sum(c.error_bound for c in shared) + 1e-15)


def _path_weights(child, expanded, norms):
    """Oracle: every node's cut exposure, the summed weight of its paths
    to the cut nodes, by a dense solve of (I - T) Z = 1_cut, T carrying
    weight back along the expanded nodes' edges (children -1 or at
    len(child) are the zero row)."""
    N = len(child)
    T = np.zeros((N, N))
    for j in np.flatnonzero(expanded):
        for c, nrm in zip(child[j], norms):
            if 0 <= c < N:
                T[j, c] += nrm
    return np.linalg.solve(np.eye(N) - T, (~expanded).astype(float))


def test_cut_weight_bounds_the_path_weight_of_cut_nodes():
    from ifsmeasure import markov
    rng = np.random.default_rng(13)
    checked = cyclic = 0
    for sys, B in _generated_cases(rng, "real", systems=30):
        norms = sys.norms
        nodes, child = _uniform_graph(sys, B, int(rng.integers(1, 7)))
        N = len(nodes)
        expanded = child[:, 0] < N
        if expanded.all():
            continue
        child = np.where(child < N, child, -1)
        exact = _path_weights(child, expanded, norms)
        slack = 1e-3 * exact[0]
        Z, tail, _ = markov._cut_exposure(child, expanded, norms, slack)
        assert (exact <= Z + tail).all()
        assert (Z <= exact * (1 + 1e-12)).all()
        assert Z[0] + tail <= exact[0] * (1 + 1.001e-3) + 1e-14
        checked += 1
        # a self-loop ([0, 1] and the empty set are their own preimages)
        # makes the paths infinitely many
        cyclic += bool((child == np.arange(N)[:, None]).any())
    assert checked >= 30 and cyclic >= 15


@pytest.mark.parametrize("depth", [1, 4, 9])
def test_cut_exposure_stops_when_the_graph_drains(depth):
    # a layered graph whose longest path to the cut has ``depth`` edges:
    # the sweeps stop after depth + 1 (the last one changes nothing), not
    # after the a-priori count for a slack of 1e-13, which is over 50
    from ifsmeasure import markov
    rng = np.random.default_rng(depth)
    norms = (0.3, 0.2, 0.1)
    layers = [np.arange(4 * d, 4 * d + 4) for d in range(depth + 1)]
    N = 4 * (depth + 1)
    child = np.full((N, 3), -1)
    for d in range(depth):
        child[layers[d]] = rng.choice(np.append(layers[d + 1], -1), (4, 3))
        child[layers[d], 0] = layers[d + 1]  # keeps every layer reachable
    expanded = np.arange(N) < 4 * depth
    Z, tail, sweeps = markov._cut_exposure(child, expanded, norms, 1e-13)
    assert sweeps == depth + 1
    assert markov._sweeps_to(0.6, 1e-13 * 0.4) - 1 > 50
    exact = _path_weights(child, expanded, norms)
    assert np.abs(Z - exact).max() <= 1e-15
    # what rounding adds to the last sweep, (maps + 1) ulps of the largest
    assert tail <= 4 * 2.3e-16 * Z.max() / 0.4


def four_map_system(factor=0.43):
    """Four overlapping slope-0.35 maps, operators of variation factor
    ``factor`` in shares 0.4, 0.3, 0.2, 0.1; its preimage graphs grow
    without closing."""
    c, s = np.cos(1.0), np.sin(1.0)
    rot = np.array([[c, -s], [s, c]])
    base = VectorMeasure(atoms=[(0.0, np.array([0.02, 0.0]))],
                         pieces=[((0.0, 1.0), np.array([0.0, 0.02]))])
    return IFSystem([(0.35, o) for o in (0.0, 0.2, 0.45, 0.65)],
                    [factor * w * rot for w in (0.4, 0.3, 0.2, 0.1)],
                    base=base)


def test_eval_memory_stays_bounded_on_four_overlapping_maps(monkeypatch):
    # factor 0.9 at tol 1e-12 keeps the graph above 12,000 nodes: a dense
    # (N n)^2 float64 system would take 5 GB, and its LU factorization as
    # much again; the sweeps hold O(N maps n).  Tracing starts once the
    # graph is built (its sets are O(N) objects either way), which keeps
    # tracemalloc's overhead off the exploration.
    import tracemalloc
    import ifsmeasure.markov as markov
    budget = 4 * 2 ** 20
    build = markov._set_graph
    cuts = []

    def build_then_trace(sys, rows, owner, n_roots, cut_budget):
        graph = build(sys, rows, owner, n_roots, cut_budget)
        [cut] = graph.cut
        cuts.append((cut, cut_budget))
        tracemalloc.start()
        return graph
    monkeypatch.setattr(markov, "_set_graph", build_then_trace)
    try:
        got = eval_fixed_point(four_map_system(0.9),
                               QuerySet.closed(1 / np.pi, 1 / np.e),
                               tol=1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # memo hits carry weight back into expanded nodes here, so the first
    # certificate fails and exploration goes on until one fits
    [(cut, cut_budget)] = cuts
    assert 0.0 < cut <= cut_budget
    assert got.nodes > 12000 and not got.closed
    assert peak < budget, f"peak {peak / 2 ** 20:.1f} MiB"
    assert got.error_bound <= 1e-12


def test_eval_refuses_past_the_node_cap(monkeypatch, tmp_path):
    import json
    import ifsmeasure.markov as markov
    from ifsmeasure.cli import run
    monkeypatch.setattr(markov, "_MAX_NODES", 50)
    sys = four_map_system()
    with pytest.raises(IterationLimit, match="set-transition graph exceeded"):
        eval_fixed_point(sys, QuerySet.point(1 / np.pi), tol=1e-10)
    doc = {"kind": "ifs", "field": "real", "dimension": 2,
           "maps": [[m.slope, m.offset] for m in sys.maps],
           "operators": [r.tolist() for r in sys.operators],
           "base": {"dimension": 2, "atoms": [[0.0, [0.02, 0.0]]],
                    "pieces": [[0.0, 1.0, [0.0, 0.02]]]},
           "query_sets": {"p": {"atoms": [1 / np.pi]}},
           "solver": {"tol": 1e-10}, "commands": ["eval p"]}
    p = tmp_path / "s.json"
    p.write_text(json.dumps(doc))
    code, report = run(str(p))
    assert code == 4 and "set-transition graph exceeded" in report


def test_eval_explores_to_closure_where_a_cut_cannot_be_certified():
    # variation factor 0.999, and the identity map gives every node a
    # self-loop of weight 0.998: certifying any cut at these tolerances
    # takes more than _MAX_SWEEPS sweeps, so exploration goes on until
    # the graph closes, as the uniform depth cut (about 14,000) did
    sys = IFSystem([AffineMap(1.0, 0.0), AffineMap(0.5, 0.0),
                    AffineMap(0.5, 0.5)],
                   [0.998 * np.eye(1), 5e-4 * np.eye(1), 5e-4 * np.eye(1)],
                   base=VectorMeasure.lebesgue(np.array([1.0])))
    B = QuerySet.closed(0.3, 0.4)
    nodes, child = _uniform_graph(sys, B, 20)
    assert (child < len(nodes)).all()
    want = _dense_eval(sys, nodes, child)
    for tol in (1.0, 0.1):
        got = eval_fixed_point(sys, B, tol=tol)
        # the solver's graph has no node for the empty set
        assert got.closed
        assert got.nodes == sum(not C.is_empty for C in nodes)
        assert abs(got.value[0] - want[0, 0]) <= got.error_bound <= tol


def test_eval_agrees_with_iteration_on_four_overlapping_maps():
    sys = four_map_system()
    tol = 2e-4  # iteration's representation grows fourfold per step
    res = iterate_fixed_point(sys, VectorMeasure.zero(2), tol=tol)
    for B in (QuerySet(intervals=[(0.1, 1 / np.e, False, True)]),
              QuerySet.closed(1 / np.pi, 1 / np.e)):
        got = eval_fixed_point(sys, B, tol=tol)
        assert not got.closed
        assert (np.linalg.norm(got.value - res.measure.evaluate(B))
                <= got.error_bound + res.error_bound)


def test_eval_refuses_what_it_cannot_certify():
    with pytest.raises(ValueError):
        eval_fixed_point(triangular_system(), QuerySet.unit(), tol=0.0)
    # variation factor 0.999: certifying 1e-9 would take ~27,600 sweeps
    slow = IFSystem([AffineMap(1 / 3, 0.0)], [0.999 * np.eye(1)],
                    base=VectorMeasure.dirac(0.0, np.array([1.0])))
    with pytest.raises(IterationLimit, match="sweeps"):
        eval_fixed_point(slow, QuerySet.point(0.0), tol=1e-9)
    # at 0.99 it certifies; the value is 1 / (1 - 0.99)
    fast = IFSystem([AffineMap(1 / 3, 0.0)], [0.99 * np.eye(1)],
                    base=VectorMeasure.dirac(0.0, np.array([1.0])))
    got = eval_fixed_point(fast, QuerySet.point(0.0), tol=1e-9)
    assert got.closed and got.nodes == 1
    assert 0.0 < abs(got.value[0] - 100.0) <= got.error_bound <= 1e-9
