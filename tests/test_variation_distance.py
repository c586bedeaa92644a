"""``VectorMeasure.variation_distance`` against the difference measure.

The distance ||a - b|| is taken in one merge of the two canonical forms,
without building ``a - b``.  It must agree with
``(a - b).variation_norm()`` on generated canonical pairs, real and
complex, whatever the two sides share: endpoints, contiguous or nested
pieces, atoms at equal points or 5e-13 apart, or nothing at all.  Atom
terms go through the same canonicalisation as ``combine``, so measures
of atoms alone agree to the bit; where a large density cancels next to
a small one, the merge is exact and the difference measure's running
sum is not.
"""

import numpy as np
import pytest

from ifsmeasure import DimensionMismatch, VectorMeasure


def _generated(rng, grid, n_pieces, n_atoms, complex_):
    """A canonical dimension-2 measure on points of ``grid``: pieces
    between grid points, some contiguous, and atoms at grid points, some
    moved by 5e-13, beside an atom the other side may have there."""
    def coeffs(k):
        c = rng.standard_normal((k, 2))
        return c + 1j * rng.standard_normal((k, 2)) if complex_ else c

    cuts = np.sort(rng.choice(grid, 2 * n_pieces, replace=False))
    lo, hi = cuts[0::2], cuts[1::2].copy()
    joined = rng.random(max(n_pieces - 1, 0)) < 0.3
    hi[:-1][joined] = lo[1:][joined]
    pts = rng.choice(grid, n_atoms, replace=False)
    pts = pts + 5e-13 * (rng.random(n_atoms) < 0.5)
    return VectorMeasure(atoms=list(zip(pts, coeffs(n_atoms))),
                         pieces=list(zip(zip(lo, hi), coeffs(n_pieces))),
                         dim=2, field="complex" if complex_ else "real")


@pytest.mark.parametrize("complex_", [False, True])
def test_distance_matches_the_difference_measure(complex_):
    rng = np.random.default_rng(43)
    shapes = [(0, 0), (0, 4), (5, 0), (8, 3)]  # (pieces, atoms)
    seen = {"shared": 0, "near": 0}
    for _ in range(15):
        grid = np.unique(rng.uniform(0.0, 1.0, 24))
        for sa in shapes:
            for sb in shapes:
                a = _generated(rng, grid, *sa, complex_)
                b = _generated(rng, grid, *sb, complex_)
                got = a.variation_distance(b)
                want = (a - b).variation_norm()
                assert got == pytest.approx(want, rel=1e-14, abs=0.0)
                # bitwise symmetric: a point sums at most one atom per
                # side, and a segment's difference is one subtraction,
                # which swapping the sides negates exactly
                assert got.hex() == b.variation_distance(a).hex()
                assert a.variation_distance(a) == 0.0
                if not (a.n_pieces or b.n_pieces):
                    assert got == want  # atoms only: the same sums
                seen["shared"] += len(np.intersect1d(
                    np.r_[a.piece_lo, a.piece_hi],
                    np.r_[b.piece_lo, b.piece_hi]))
                gaps = np.abs(np.subtract.outer(a.atom_points, b.atom_points))
                seen["near"] += int(((gaps > 0) & (gaps <= 1e-12)).sum())
    assert seen["shared"] > 0 and seen["near"] > 0


def _pieces(*rows):
    return VectorMeasure(pieces=[((lo, hi), d) for lo, hi, d in rows])


@pytest.mark.parametrize("a, b", [
    # shared endpoints
    ([(0.2, 0.6, [1.0, 2.0])], [(0.2, 0.6, [0.5, -1.0])]),
    # contiguous, across the two sides and within one
    ([(0.2, 0.4, [1.0, 0.0])], [(0.4, 0.7, [0.0, 3.0])]),
    ([(0.1, 0.3, [1.0, 1.0]), (0.3, 0.5, [2.0, 0.0])],
     [(0.3, 0.5, [2.0, 0.0]), (0.5, 0.9, [1.0, 1.0])]),
    # nested
    ([(0.1, 0.9, [1.0, -1.0])], [(0.3, 0.5, [4.0, 0.5])]),
    # disjoint, and partly overlapping
    ([(0.1, 0.2, [1.0, 2.0])], [(0.5, 0.8, [3.0, 1.0])]),
    ([(0.1, 0.6, [1.0, 2.0])], [(0.4, 0.8, [3.0, 1.0])]),
], ids=["shared", "contiguous", "contiguous-runs", "nested", "disjoint",
        "overlapping"])
def test_distance_over_each_endpoint_relation(a, b):
    a, b = _pieces(*a), _pieces(*b)
    want = (a - b).variation_norm()
    assert a.variation_distance(b) == pytest.approx(want, rel=1e-15)
    assert b.variation_distance(a) == a.variation_distance(b)


def test_distance_with_an_empty_side():
    zero = VectorMeasure.zero(2)
    mu = VectorMeasure(atoms=[(0.3, [1.0, -2.0])],
                       pieces=[((0.1, 0.5), [0.5, 0.25])])
    assert zero.variation_distance(zero) == 0.0
    assert mu.variation_distance(zero) == mu.variation_norm()
    assert zero.variation_distance(mu) == mu.variation_norm()


def test_coincident_atoms_sum_as_combine_sums_them():
    a = VectorMeasure(atoms=[(0.25, [1.0, 0.1]), (0.5, [2.0, 0.0])])
    b = VectorMeasure(atoms=[(0.25, [1.0, 0.1 + 2 ** -52]),
                             (0.5, [2.0, 0.0]), (0.5 + 5e-13, [1.0, 0.0])])
    # the pair at 0.5 cancels; the atom 5e-13 above it stays
    assert (a - b).n_atoms == 2
    assert a.variation_distance(b) == (a - b).variation_norm() > 1.0


def test_small_density_next_to_a_cancelling_large_one_is_exact():
    # each segment's two densities are added once, so 1e-3 on [0.5, 1]
    # does not pass through a running sum with 1e12 and -1e12, in the
    # distance or in the difference measure
    a = _pieces((0.0, 0.5, [1e12]), (0.5, 1.0, [1e-3]))
    b = _pieces((0.0, 0.5, [1e12]))
    assert a.variation_distance(b) == 1e-3 * 0.5
    assert (a - b).variation_norm() == 1e-3 * 0.5


def test_distance_refuses_mismatched_or_overflowing_input():
    with pytest.raises(DimensionMismatch):
        VectorMeasure.zero(2).variation_distance(VectorMeasure.zero(3))
    big = _pieces((0.0, 1.0, [1e308]))
    with pytest.raises(ValueError, match="overflows"):
        big.variation_distance(-big)
