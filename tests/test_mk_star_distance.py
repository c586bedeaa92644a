"""The mk_star distance from one merge, and the exact sum of its terms.

``mk_star_exact(a, b)`` reads the panels of a - b off one merge of the two
canonical measures and never builds the difference.  It must give
``mk_star_exact(combine(1.0, a, -1.0, b))`` to the bit on generated pairs,
real and complex, dims 1 to 3, with atoms and pieces: points both hold,
atoms that cancel exactly, contiguous pieces whose differences are equal
(and merge), one-ulp panels, and coefficients whose squares leave
[2^-400, 2^400].  The one-argument form keeps the old route's bits, which
``_old_mk_star`` spells out.  ``_exact_sum`` must match ``math.fsum`` to
the bit on generated arrays.
"""

import math

import numpy as np
import pytest

from ifsmeasure import DimensionMismatch, VectorMeasure, combine, mk_star_exact
from ifsmeasure.measure import _covering, _linear
from ifsmeasure.mk_norm import _exact_sum, _segment_norm_integral


def _old_panels(mu):
    """The panels as ``breakpoints`` and ``cumulative_all`` give them."""
    bps = mu.breakpoints()
    F = mu.cumulative_all(bps)
    rho = np.zeros((len(bps) - 1, mu.dim), dtype=F.dtype)
    if mu.n_pieces:
        a, rows = _covering(mu.piece_lo, mu.piece_hi, mu.piece_density,
                            bps[:-1])
        rho[a:a + len(rows)] = rows
    return bps, F, rho


def _old_mk_star(mu):
    bps, F, rho = _old_panels(mu)
    return math.fsum(_segment_norm_integral(F[:-1], rho, np.diff(bps)).tolist())


def _generated(rng, grid, n_pieces, n_atoms, dim, complex_, scale):
    """A canonical measure on points of ``grid``: pieces between grid
    points, some contiguous, and atoms at grid points.  Small integer
    coefficients half the time, so that differences cancel or repeat
    exactly."""
    def coeffs(k):
        if rng.random() < 0.5:
            c = rng.integers(-2, 3, (k, dim)).astype(float)
        else:
            c = rng.standard_normal((k, dim))
        if complex_:
            c = c + 1j * rng.integers(-2, 3, (k, dim))
        return c * scale

    cuts = np.sort(rng.choice(grid, 2 * n_pieces, replace=False))
    lo, hi = cuts[0::2], cuts[1::2].copy()
    joined = rng.random(max(n_pieces - 1, 0)) < 0.5
    hi[:-1][joined] = lo[1:][joined]
    pts = rng.choice(grid, n_atoms, replace=False)
    return VectorMeasure(atoms=list(zip(pts, coeffs(n_atoms))),
                         pieces=list(zip(zip(lo, hi), coeffs(n_pieces))),
                         dim=dim, field="complex" if complex_ else "real")


def _balanced(rng, grid, a, b):
    """b plus an atom at a grid point carrying a's total less b's."""
    t = float(rng.choice(grid))
    return combine(1.0, b, 1.0, VectorMeasure(atoms=[(t, a.total() - b.total())],
                                              dim=a.dim))


def _mirrored(rng, a):
    """A measure sharing a's atoms (some with a's weights, which cancel)
    and a's pieces, each density moved by one shift of its size, so that
    contiguous differences are equal where the shifts are exact."""
    keep = rng.random(a.n_atoms) < 0.5
    wts = np.where(keep[:, None], a.atom_weights, 2.0 * a.atom_weights)
    dens = a.piece_density - np.abs(a.piece_density).max(initial=0.0)
    return VectorMeasure(atoms=list(zip(a.atom_points, wts)),
                         pieces=list(zip(zip(a.piece_lo, a.piece_hi), dens)),
                         dim=a.dim, field=a.field)


def _assert_distance(a, b):
    d = combine(1.0, a, -1.0, b)
    want = mk_star_exact(d)
    assert mk_star_exact(a, b).hex() == want.hex()
    assert want.hex() == _old_mk_star(d).hex()
    for got, old in zip(d.panels(), _old_panels(d)):
        assert np.array_equal(got, old)


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_distance_is_the_norm_of_the_difference(dim, complex_):
    rng = np.random.default_rng(100 * dim + complex_)
    shapes = [(0, 3), (3, 0), (4, 5)]  # (pieces, atoms)
    seen = {"shared": 0, "cancelled": 0, "merged": 0}
    # squares of 2^600 and 1e-340 go through the rescaled lanes
    for scale in (1.0, 2.0 ** 300, 1e-170):
        for _ in range(3):
            grid = np.unique(rng.uniform(0.0, 1.0, 20))
            for sa in shapes:
                a = _generated(rng, grid, *sa, dim, complex_, scale)
                for b in [_generated(rng, grid, *sb, dim, complex_, scale)
                          for sb in shapes] + [_mirrored(rng, a)]:
                    b = _balanced(rng, grid, a, b)
                    _assert_distance(a, b)
                    d = combine(1.0, a, -1.0, b)
                    shared = np.intersect1d(a.atom_points, b.atom_points)
                    seen["shared"] += len(shared)
                    seen["cancelled"] += len(np.setdiff1d(shared, d.atom_points))
                    summed = _linear([(1.0, a), (-1.0, b)])[2]
                    seen["merged"] += d.n_pieces < len(summed)
    assert all(seen.values()), seen


def test_one_ulp_panels_and_an_empty_side():
    x = 0.3
    up = np.nextafter(x, 1.0)
    a = VectorMeasure(atoms=[(x, [1.0, 2.0]), (0.7, [0.5, 0.0])],
                      pieces=[((up, np.nextafter(up, 1.0)), [3.0, -1.0])])
    b = VectorMeasure(atoms=[(up, [1.0, 2.0])],
                      pieces=[((0.7, 0.9), [2.5, 0.0])])
    b = _balanced(np.random.default_rng(1), np.array([0.1]), a, b)
    _assert_distance(a, b)
    zero = VectorMeasure.zero(2)
    diff = combine(1.0, a, -1.0, b)
    assert mk_star_exact(diff, zero).hex() == mk_star_exact(diff).hex()
    assert mk_star_exact(zero, diff).hex() == mk_star_exact(diff).hex()
    assert mk_star_exact(a, a) == 0.0


def test_contiguous_equal_differences_merge():
    # the differences on [0.1, 0.2] and [0.2, 0.4] are both (1, -1): the
    # difference measure holds one piece, and the merge must sum that one
    a = VectorMeasure(atoms=[(0.6, [2.0, 0.0])],
                      pieces=[((0.1, 0.2), [3.0, 1.0]), ((0.2, 0.4), [5.0, 2.0])])
    b = VectorMeasure(atoms=[(0.6, [2.0, 0.0]), (0.05, [0.3, -0.3])],
                      pieces=[((0.1, 0.2), [2.0, 2.0]), ((0.2, 0.4), [4.0, 3.0])])
    d = combine(1.0, a, -1.0, b)
    assert d.n_pieces == 1 and d.n_atoms == 1
    _assert_distance(a, b)


def test_a_real_and_a_complex_measure():
    # the difference is complex; the real side's pieces are cast, as
    # combine casts them
    rng = np.random.default_rng(5)
    grid = np.unique(rng.uniform(0.0, 1.0, 16))
    for _ in range(10):
        a = _generated(rng, grid, 3, 4, 2, False, 1.0)
        b = _generated(rng, grid, 2, 3, 2, True, 1.0)
        _assert_distance(a, _balanced(rng, grid, a, b))
        _assert_distance(b, _balanced(rng, grid, b, a))
        _assert_distance(a, _balanced(rng, grid, a, VectorMeasure.dirac(
            0.5, [1j, 0.0])))


def test_nonzero_total_is_refused_with_the_same_message():
    a = VectorMeasure(atoms=[(0.2, [1.0, 0.0])], pieces=[((0.5, 0.8), [1.0, 1.0])])
    b = VectorMeasure(atoms=[(0.4, [0.5, 0.0])])
    with pytest.raises(ValueError) as old:
        mk_star_exact(combine(1.0, a, -1.0, b))
    with pytest.raises(ValueError) as new:
        mk_star_exact(a, b)
    assert str(new.value) == str(old.value)
    with pytest.raises(DimensionMismatch):
        mk_star_exact(a, VectorMeasure.dirac(0.2, [1.0]))


def test_a_difference_that_overflows_is_refused():
    a = VectorMeasure.dirac(0.5, [1e308])
    b = VectorMeasure.dirac(0.5, [-1e308])
    with pytest.raises(ValueError, match="overflows"):
        mk_star_exact(a, b)


def _sum_cases(rng):
    tiny = 2.0 ** -1074
    yield from (np.array([]), np.array([0.0]), np.array([-0.0]),
                np.zeros(7), -np.zeros(3), np.array([2.5]),
                np.array([1.0, 2.0 ** -53, 2.0 ** -53]),
                np.array([1.0, 2.0 ** -53]), np.array([1.0, -2.0 ** -54]),
                np.array([tiny, tiny, -tiny]), np.array([tiny] * 5),
                np.array([2.0 ** 1000, 2.0 ** -1074, -2.0 ** 1000]),
                np.array([1e308, -1e308, 5e-324]))
    for i in range(2400):
        n = int(rng.integers(1, 80))
        sign = rng.choice([-1.0, 1.0], n)
        kind = i % 4
        if kind == 0:  # exponents over the whole range, subnormals included
            x = sign * np.ldexp(rng.uniform(1.0, 2.0, n),
                                rng.integers(-1080, 1000, n))
        elif kind == 1:  # subnormals and the smallest normals
            x = rng.integers(-2 ** 53, 2 ** 53, n) * tiny
        elif kind == 2:  # cancellation down to the last bits
            y = sign * np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(-60, 60, n))
            x = np.concatenate([y, -rng.permutation(y) * (1.0 + 2.0 ** -52
                                                         * rng.integers(0, 3, n))])
        else:  # halfway ties and neighbours around one
            x = np.concatenate([[1.0], rng.choice([2.0 ** -53, -2.0 ** -54,
                                                   2.0 ** -106, 3.0], n)])
        yield x


def test_exact_sum_is_fsum_to_the_bit():
    rng = np.random.default_rng(2024)
    count = 0
    for x in _sum_cases(rng):
        assert _exact_sum(x).hex() == math.fsum(x.tolist()).hex(), x
        count += 1
    assert count >= 2000


def test_exact_sum_overflow_and_non_finite_terms():
    for x in ([1.7e308, 1.7e308], [-1e308, -1e308, -1e308]):
        with pytest.raises(OverflowError):
            math.fsum(x)
        with pytest.raises(OverflowError):
            _exact_sum(np.array(x))
    for x in ([1.0, np.inf], [np.nan, 1.0], [-np.inf, 2.0]):
        assert repr(_exact_sum(np.array(x))) == repr(math.fsum(x))
    with pytest.raises(ValueError):
        _exact_sum(np.array([np.inf, -np.inf]))
    # only a partial sum overflows: fsum refuses, the bins hold the sum
    assert _exact_sum(np.array([1e308, 1e308, -1e308])) == 1e308
