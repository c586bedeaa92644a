"""Tests for the transport norms: exact formula, witness bounds, the
closed-form upper bound and the sandwich checks."""

import math

import numpy as np
import pytest

from ifsmeasure import (LipschitzWitness, VectorMeasure, combine,
                        mk_lower_bound, mk_star_exact, mk_upper_bound,
                        sandwich_check)
from ifsmeasure.mk_norm import (_influence_vectors, _midrange,
                                _segment_norm_integral)


def _dirac_pair(s, t, x):
    return combine(1.0, VectorMeasure.dirac(s, x), -1.0, VectorMeasure.dirac(t, x))


def _random_zero_mass(rng, dim=2, n_atoms=6, pieces=True):
    atoms = [(float(t), rng.standard_normal(dim))
             for t in rng.uniform(0, 1, n_atoms)]
    ps = []
    if pieces:
        ps = [((0.1, 0.55), rng.standard_normal(dim)),
              ((0.6, 0.9), rng.standard_normal(dim))]
    mu = VectorMeasure(atoms=atoms, pieces=ps, dim=dim)
    return combine(1.0, mu, -1.0, VectorMeasure.dirac(0.5, mu.total()))


def test_mk_star_requires_zero_total():
    with pytest.raises(ValueError):
        mk_star_exact(VectorMeasure.dirac(0.3, np.array([1.0])))


def test_zero_total_check_is_relative_to_the_variation():
    # a total at 1e-13 of the variation is rounding residue of a large
    # mass and passes; one at 1e-9 of it refuses at every scale
    def pair_plus(weight, residue):
        return combine(1.0, _dirac_pair(0.2, 0.8, np.array([weight])), 1.0,
                       VectorMeasure.dirac(0.5, np.array([residue])))
    mu = pair_plus(1e4, 2e-9)
    assert abs(mk_star_exact(mu) - 6e3) < 1e-8
    assert mk_lower_bound(mu, ball="l1")[0] <= 6e3 * (1 + 1e-12)
    for weight in (1.0, 1e4):
        mu = pair_plus(weight, 2e-9 * weight)
        with pytest.raises(ValueError, match="zero-total"):
            mk_star_exact(mu)
        with pytest.raises(ValueError, match="zero total"):
            mk_lower_bound(mu, ball="l1")


def test_mk_star_dirac_pair_formula():
    rng = np.random.default_rng(0)
    for _ in range(30):
        s, t = rng.uniform(0, 1, 2)
        x = rng.standard_normal(3)
        got = mk_star_exact(_dirac_pair(s, t, x))
        assert abs(got - abs(s - t) * np.linalg.norm(x)) < 1e-10


def test_mk_star_of_a_panel_1e_300_wide_is_zero_not_nan():
    # |F| <= 1e-300 over a 1e-300 wide panel: every term underflows; the
    # suite turns numpy's 0/0 warning into an error
    mu = VectorMeasure(pieces=[((0.0, 1e-300), np.array([0.0, 0.0, 1.0]))])
    zero_total = mu - VectorMeasure.dirac(0.0, mu.total())
    assert mk_star_exact(zero_total) == 0.0


@pytest.mark.parametrize("scale", [1e-166, 1e160])
def test_mk_star_of_tiny_and_huge_densities(scale):
    # the squares of these entries underflow to 0 or overflow to inf (the
    # suite turns numpy's overflow warning into an error); such panels are
    # evaluated scaled by a power of two.  Density d on [0, 1] minus
    # delta_0 d has F(t) = (t - 1) d, so mk_star is ||d|| / 2
    d = scale * np.array([1.0, 2.0, 3.0])
    mu = VectorMeasure(atoms=[(0.0, -d)], pieces=[((0.0, 1.0), d)])
    assert mk_star_exact(mu) == pytest.approx(np.sqrt(14.0) / 2.0 * scale,
                                              rel=1e-14, abs=0.0)


def test_mk_star_atom_minus_density():
    # mu = delta_0 - lambda: cumulative is 1 - t, integral of |1 - t| is 1/2
    mu = combine(1.0, VectorMeasure.dirac(0.0, np.array([1.0])),
                 -1.0, VectorMeasure.lebesgue(np.array([1.0])))
    assert mk_star_exact(mu) == pytest.approx(0.5, abs=1e-12)


def _random_panel_measure(rng, dim=2):
    """Zero-total measure on a random cut grid: adjacent pieces share
    endpoints, some with bitwise-equal densities (merged on
    canonicalization), and atoms sit on piece endpoints."""
    cuts = np.sort(rng.uniform(0, 1, 7))
    dens = rng.standard_normal(dim)
    pieces = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if rng.uniform() < 0.5:
            dens = rng.standard_normal(dim)
        pieces.append(((lo, hi), dens))
    atoms = [(float(t), rng.standard_normal(dim))
             for t in rng.choice(cuts, 3, replace=False)]
    mu = VectorMeasure(atoms=atoms, pieces=pieces, dim=dim)
    return combine(1.0, mu, -1.0,
                   VectorMeasure.dirac(float(rng.uniform()), mu.total()))


def test_mk_star_matches_brute_force_quadrature():
    # midpoint rule on each smooth panel: the cumulative jumps at atoms,
    # so equispaced quadrature over the whole interval stalls at O(spacing)
    rng = np.random.default_rng(1)
    for make in [_random_zero_mass] * 15 + [_random_panel_measure] * 15:
        mu = make(rng)
        bps = mu.breakpoints()
        brute = 0.0
        for a, b in zip(bps[:-1], bps[1:]):
            s = np.linspace(a, b, 2001)
            mid = 0.5 * (s[:-1] + s[1:])
            fm = mu.cumulative_all(mid)
            brute += np.sum(np.linalg.norm(fm, axis=1)) * (s[1] - s[0])
        assert mk_star_exact(mu) == pytest.approx(brute, abs=5e-6)


def test_panels_density_is_the_slope_of_the_cumulative():
    rng = np.random.default_rng(11)
    for _ in range(20):
        mu = _random_panel_measure(rng, dim=int(rng.integers(1, 4)))
        bps, F, rho = mu.panels()
        assert np.array_equal(bps, mu.breakpoints())
        assert np.array_equal(F, mu.cumulative_all(bps))
        h = np.diff(bps)
        for frac in (0.25, 0.75):
            t = bps[:-1] + frac * h
            want = F[:-1] + (t - bps[:-1])[:, None] * rho
            assert np.abs(mu.cumulative_all(t) - want).max() < 1e-12


def _oracle_norm_integral(f0, rho, h):
    """integral_0^h ||f0 + s rho|| ds by mpmath quadrature at 40 digits,
    split at the vertex where the integrand may have a kink."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        f0 = [mpmath.mpc(complex(x)) for x in f0]
        rho = [mpmath.mpc(complex(x)) for x in rho]
        a = sum(abs(r) ** 2 for r in rho)
        knots = [mpmath.mpf(0), mpmath.mpf(float(h))]
        if a:
            vertex = -sum(mpmath.re(f * mpmath.conj(r))
                          for f, r in zip(f0, rho)) / a
            if 0 < vertex < h:
                knots.insert(1, vertex)
        val = mpmath.quad(lambda s: mpmath.sqrt(
            sum(abs(f + s * r) ** 2 for f, r in zip(f0, rho))), knots)
        return float(val)


@pytest.mark.parametrize("dtype", [float, complex])
def test_segment_norm_integral_against_mpmath(dtype):
    cases = [
        ([0.3, -0.4], [0.0, 0.0], 0.2),          # flat
        ([1.0, 0.3], [-4.0, 1.0], 0.5),          # vertex inside the panel
        ([1.0, 2.0], [3e-9, -1e-9], 0.1),        # vertex far outside, |b| >> a h
        ([-1.0, 0.5], [2e-6, 1e-6], 0.3),        # monotone, negative side
        ([1.0, 2.0], [-2.0, -4.0], 0.75),        # q = 0, vertex inside
        ([1.0, 2.0], [1.0, 2.0 + 1e-12], 0.3),   # q ~ 0, monotone
    ]
    if dtype is complex:
        cases += [
            ([1 + 2j, -0.5j], [-3 + 1j, 2 - 1j], 0.4),
            ([0.2 - 1j, 1.5], [1e-8j, -2e-8 + 1e-8j], 0.6),
            ([1j, 2j], [-2j, -4j], 0.75),
        ]
    f0 = np.array([c[0] for c in cases], dtype=dtype)
    rho = np.array([c[1] for c in cases], dtype=dtype)
    h = np.array([c[2] for c in cases])
    got = _segment_norm_integral(f0, rho, h)
    for j, (a, r, hj) in enumerate(cases):
        assert got[j] == pytest.approx(_oracle_norm_integral(a, r, hj),
                                       rel=1e-13, abs=1e-300), cases[j]


def test_mk_star_scales_linearly():
    rng = np.random.default_rng(2)
    mu = _random_zero_mass(rng)
    assert mk_star_exact(mu * 2.5) == pytest.approx(2.5 * mk_star_exact(mu),
                                                    abs=1e-12)


def test_witness_interpolation_and_constants():
    pts = np.array([0.0, 0.5, 1.0])
    vals = np.array([[0.0], [0.5], [0.25]])
    w = LipschitzWitness(points=pts, values=vals, ball="l1")
    assert w(0.25)[0] == pytest.approx(0.25)
    assert w(0.75)[0] == pytest.approx(0.375)
    assert w.lipschitz() == pytest.approx(1.0)
    assert w.sup_norm() == pytest.approx(0.5)
    assert w.is_feasible()


def test_witness_pairing_matches_direct_sum_for_atoms():
    rng = np.random.default_rng(3)
    pts = np.linspace(0, 1, 101)
    vals = rng.standard_normal((101, 2)) * 0.05
    w = LipschitzWitness(points=pts, values=vals, ball="l1")
    mu = VectorMeasure(atoms=[(float(t), rng.standard_normal(2))
                              for t in rng.uniform(0, 1, 8)])
    direct = sum(float(np.real(np.vdot(wt, w(float(t)))))
                 for t, wt in zip(mu.atom_points, mu.atom_weights))
    assert w.pairing(mu) == pytest.approx(direct, abs=1e-12)


def test_witness_pairing_of_pieces_cut_by_nodes():
    # piece endpoints fall between witness nodes, and pieces overlap
    rng = np.random.default_rng(12)
    pts = np.linspace(0, 1, 101)
    w = LipschitzWitness(points=pts, ball="l1",
                         values=rng.standard_normal((101, 2)) * 0.05)
    mu = VectorMeasure(pieces=[((0.123, 0.456), rng.standard_normal(2)),
                               ((0.3, 0.911), rng.standard_normal(2))])
    direct = 0.0
    for lo, hi, dens in zip(mu.piece_lo, mu.piece_hi, mu.piece_density):
        # the interpolant is linear between cuts: trapezoids are exact
        cuts = np.unique(np.concatenate([[lo, hi], pts[(pts > lo) & (pts < hi)]]))
        f = np.array([w(float(t)) for t in cuts]) @ dens
        direct += float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(cuts)))
    assert w.pairing(mu) == pytest.approx(direct, abs=1e-12)


def test_witness_pairing_of_density_piece():
    # f(t) = t against density 2 on [0, 1]: integral 2t dt = 1
    pts = np.array([0.0, 1.0])
    w = LipschitzWitness(points=pts, values=np.array([[0.0], [1.0]]),
                         ball="l1")
    mu = VectorMeasure.lebesgue(np.array([2.0]))
    assert w.pairing(mu) == pytest.approx(1.0, abs=1e-12)


def test_lower_bound_is_certified_and_tight_for_atoms():
    rng = np.random.default_rng(4)
    for _ in range(25):
        mu = _random_zero_mass(rng, dim=int(rng.integers(1, 4)),
                               n_atoms=int(rng.integers(2, 9)), pieces=False)
        star = mk_star_exact(mu)
        val, w = mk_lower_bound(mu, ball="l1")
        assert val <= star + 1e-9
        assert val >= 0.98 * star
        assert w.is_feasible()
        assert w.pairing(mu) == pytest.approx(val, abs=1e-8)


def test_lower_bound_bl1_never_exceeds_l1():
    rng = np.random.default_rng(5)
    for _ in range(10):
        mu = _random_zero_mass(rng)
        l1, _ = mk_lower_bound(mu, ball="l1")
        bl1, wb = mk_lower_bound(mu, ball="bl1")
        assert bl1 <= l1 + 1e-9
        assert wb.sup_norm() + wb.lipschitz() <= 1.0 + 1e-9


def test_witness_on_cells_of_1e_8_is_feasible_and_pairs_to_the_bound():
    # a dipole at 0 and 0.5 plus 40 dipoles on 1e-8 wide cells: the size
    # measured on the node values exceeds 1 by rounding, and dividing the
    # stored values by it would round them above 1 again
    atoms = [(0.0, np.array([1.0])), (0.5, np.array([-1.0]))]
    for k in range(1, 41):
        atoms += [(0.5 + 2 * k * 1e-8, np.array([1.0])),
                  (0.5 + (2 * k + 1) * 1e-8, np.array([-1.0]))]
    mu = VectorMeasure(atoms=atoms)
    val, w = mk_lower_bound(mu, ball="bl1")
    assert w.scale > 1.0
    assert w.is_feasible()
    assert w.pairing(mu) == val


def test_lower_bound_zero_measure():
    val, _ = mk_lower_bound(VectorMeasure.zero(2), ball="l1")
    assert val == 0.0
    assert mk_upper_bound(VectorMeasure.zero(2)) == 0.0


def test_bracket_closes_on_known_norms():
    # delta_0 - delta_1: sup + Lip <= 1 caps f(0) - f(1) at min(Lip, 2 sup),
    # largest at Lip = 2/3; a lone atom pairs to its weight norm
    for mu, norm in [(_dirac_pair(0.0, 1.0, np.array([1.0])), 2.0 / 3.0),
                     (VectorMeasure.dirac(0.3, np.array([3.0, 4j])), 5.0)]:
        lower, _ = mk_lower_bound(mu, ball="bl1")
        assert lower == pytest.approx(norm, rel=1e-15)
        assert mk_upper_bound(mu) == pytest.approx(norm, rel=1e-15)


def test_upper_bound_of_a_large_mass_measure():
    # mu - total delta_t keeps a rounding residue of its total near 1e-9
    rng = np.random.default_rng(8)
    mu = VectorMeasure(atoms=[(float(t), 1e4 * rng.standard_normal(2))
                              for t in rng.uniform(0, 1, 2000)],
                       pieces=[((0.1, 0.7), np.array([1e4, 1e4]))])
    lower, _ = mk_lower_bound(mu, ball="bl1")
    assert lower <= mk_upper_bound(mu) * (1 + 1e-12)


def _generated_measure(rng, zero_total):
    """1-3 dimensions, real or complex, 1-7 atoms and 0-3 (overlapping)
    pieces; a zero-total one has its total taken off at a random point."""
    dim = int(rng.integers(1, 4))
    cplx = rng.uniform() < 0.5

    def vec():
        v = rng.standard_normal(dim)
        return v + 1j * rng.standard_normal(dim) if cplx else v
    atoms = [(float(t), vec()) for t in rng.uniform(0, 1, rng.integers(1, 8))]
    pieces = [((float(lo), float(hi)), vec()) for lo, hi in
              np.sort(rng.uniform(0, 1, (rng.integers(0, 4), 2)), axis=1)]
    mu = VectorMeasure(atoms=atoms, pieces=pieces, dim=dim)
    if zero_total:
        mu = mu - VectorMeasure.dirac(float(rng.uniform()), mu.total())
    return mu


GENERATED = [_generated_measure(np.random.default_rng(100 + k), k % 2 == 0)
             for k in range(60)]


def test_bracket_on_generated_measures():
    for mu in GENERATED:
        lower, w = mk_lower_bound(mu, ball="bl1")
        upper = mk_upper_bound(mu)
        assert 0.0 < lower <= upper * (1 + 1e-12)
        assert w.is_feasible()
        assert abs(w.pairing(mu)) == pytest.approx(lower, rel=1e-12)
        if np.linalg.norm(mu.total()) <= 1e-12:
            assert upper <= 1.5 * lower
            l1, w1 = mk_lower_bound(mu, ball="l1")
            assert l1 <= mk_star_exact(mu) * (1 + 1e-12)
            assert w1.is_feasible()


def _ascent(mu, grid=64, iters=100):
    """Projected supergradient ascent over the bl1 ball: the estimator the
    closed-form bracket replaced, kept as an independent oracle for
    ``mk_upper_bound``.

    The witness is piecewise linear on (atom points united with an
    equispaced grid).  The ascent runs in the increment domain
    f(node_{j+1}) - f(node_j) = h_j u_j, where the Lipschitz polytope
    factorizes into unit balls ||u_j|| <= 1 (exact per-segment clipping);
    sup||f|| + Lip(f) <= 1 is kept by midrange recentring and radial
    retraction.  Each iterate pairs over its measured ball size, so every
    value is a true lower bound, and the best one wins.
    """
    nodes = np.unique(np.concatenate([np.linspace(0.0, 1.0, grid),
                                      mu.atom_points]))
    G = _influence_vectors(mu, nodes)
    h = np.diff(nodes)
    # d(pairing)/d(u_j) = h_j sum_{k > j} g_k and the constant part moves
    # with f0; directions are normalized per segment
    csum = np.cumsum(G[::-1], axis=0)[::-1]
    grad_u = csum[1:].copy()
    gnorms = np.sqrt(np.sum(np.abs(grad_u) ** 2, axis=1))
    grad_u[gnorms > 0] /= gnorms[gnorms > 0][:, None]
    f0_norm = float(np.linalg.norm(csum[0]))
    grad_f0 = csum[0] / f0_norm if f0_norm > 0 else 0.0 * csum[0]
    u = np.zeros((len(nodes) - 1, mu.dim), dtype=G.dtype)
    f0 = np.zeros(mu.dim, dtype=G.dtype)
    best = 0.0
    for k in range(1, iters + 1):
        step = 0.25 / np.sqrt(k)
        u += step * grad_u
        f0 += step * grad_f0
        norms = np.sqrt(np.sum(np.abs(u) ** 2, axis=1))
        u[norms > 1.0] /= norms[norms > 1.0][:, None]
        F = f0 + np.concatenate([np.zeros((1, mu.dim), dtype=u.dtype),
                                 np.cumsum(u * h[:, None], axis=0)])
        mid = _midrange(F)
        f0, F = f0 - mid, F - mid[None, :]
        w = LipschitzWitness(nodes, F, "bl1")
        r = w.size()
        if r > 1.0:
            u, f0, F = u / r, f0 / r, F / r
        # the pairing of LipschitzWitness(nodes, F), G read once
        size = LipschitzWitness(nodes, F, "bl1").size()
        best = max(best, abs(np.sum(F * np.conj(G))) / max(size, 1.0))
    return best


def test_ascent_never_exceeds_upper_bound():
    beaten = 0
    for mu in GENERATED:
        upper = mk_upper_bound(mu)
        asc = _ascent(mu)
        assert asc <= upper * (1 + 1e-9)
        beaten += asc > mk_lower_bound(mu, ball="bl1")[0]
    # the oracle is no straw man: it beats the witness route on some
    assert beaten > 0


def _lp_bl1_norm(points, weights):
    """Exact bl1 norm of a real scalar atom measure by linear programming
    over f at the (sorted) atoms, the sup bound s and the Lipschitz
    constant L: maximize sum w_i f_i with |f_i| <= s, s + L <= 1 and
    |f_{i+1} - f_i| <= L (t_{i+1} - t_i); interpolating linearly between
    atoms extends any solution into the ball."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    n = len(points)
    rows, rhs = [], []

    def row(f=(), s=0.0, lip=0.0):
        r = np.zeros(n + 2)
        for i, c in f:
            r[i] = c
        r[n], r[n + 1] = s, lip
        rows.append(r)
        rhs.append(0.0)
    for i in range(n):
        row([(i, 1.0)], s=-1.0)
        row([(i, -1.0)], s=-1.0)
    for i, gap in enumerate(np.diff(points)):
        row([(i + 1, 1.0), (i, -1.0)], lip=-gap)
        row([(i + 1, -1.0), (i, 1.0)], lip=-gap)
    row(s=1.0, lip=1.0)
    rhs[-1] = 1.0
    res = linprog(-np.concatenate([weights, [0.0, 0.0]]), A_ub=np.array(rows),
                  b_ub=rhs, bounds=[(None, None)] * n + [(0, None)] * 2)
    assert res.status == 0, res.message
    return -res.fun


def test_bracket_holds_the_linear_programming_norm():
    rng = np.random.default_rng(9)
    for k in range(40):
        atoms = [(float(t), rng.standard_normal(1))
                 for t in rng.uniform(0, 1, rng.integers(2, 7))]
        mu = VectorMeasure(atoms=atoms)
        if k % 2:
            mu = mu - VectorMeasure.dirac(float(rng.uniform()), mu.total())
        exact = _lp_bl1_norm(mu.atom_points, mu.atom_weights[:, 0])
        lower, _ = mk_lower_bound(mu, ball="bl1")
        assert lower <= exact * (1 + 1e-9)
        assert exact <= mk_upper_bound(mu) * (1 + 1e-9)


def test_sandwich_chain_on_random_measures():
    rng = np.random.default_rng(6)
    for _ in range(15):
        mu = _random_zero_mass(rng)
        rep = sandwich_check(mu)
        assert rep.ok, rep
        assert rep.bl1_lower <= rep.bl1_upper <= rep.mk_star
        assert rep.bl1_lower <= rep.variation


def test_sandwich_small_norm_measure():
    # tiny measures: the checks are relative, so they still bite
    mu = _dirac_pair(0.49, 0.51, np.array([0.001, 0.002]))
    rep = sandwich_check(mu)
    assert rep.ok, rep


@pytest.mark.parametrize("exponent", [-997, -531, 0, 531, 997])
def test_norms_take_totals_without_overflow(exponent):
    # the pytest configuration turns numpy's overflow warnings into
    # errors.  A zero-total measure with entries near 2^997 (1e300) keeps
    # a total of rounding residue near 1e284, whose square overflowed in
    # np.linalg.norm.  A power of two scales every value exactly, so
    # each norm scales exactly too.
    scale = math.ldexp(1.0, exponent)
    unit = _random_zero_mass(np.random.default_rng(17))
    mu = VectorMeasure(atoms=zip(unit.atom_points, unit.atom_weights * scale),
                       pieces=[((lo, hi), d * scale) for lo, hi, d in zip(
                           unit.piece_lo, unit.piece_hi, unit.piece_density)])
    assert mk_star_exact(mu) == mk_star_exact(unit) * scale
    assert mk_upper_bound(mu) == mk_upper_bound(unit) * scale
    for ball in ("l1", "bl1"):
        assert mk_lower_bound(mu, ball)[0] == mk_lower_bound(unit, ball)[0] * scale


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1.0, 1e160, 1e300])
def test_upper_bound_balances_without_overflow(scale):
    # the balance m V / (m - T + V) overflowed in the product m V once m
    # and V passed about 1e154, and the bracket came out inf
    mu = VectorMeasure(atoms=[(0.0, [-scale, 0.0])],
                       pieces=[((0.0, 1.0), [scale, 0.0])])
    assert mk_star_exact(mu) == pytest.approx(0.5 * scale, rel=1e-15)
    # m = 0.5 scale, T = 0 and V = 2 scale give m / (1 + m / V)
    assert mk_upper_bound(mu) == pytest.approx(0.4 * scale, rel=1e-15)
    lower, _ = mk_lower_bound(mu, "bl1")
    assert 0.0 < lower <= mk_upper_bound(mu)
