"""Canonicalisation resolves only pieces that are out of order or overlap.

``pushforward``, ``apply_operator`` and ``prune`` hand canonicalisation
sorted, disjoint input and so skip the event sweep ``measure._resolve``;
their results must match canonicalising a shuffled copy of the same
arrays, which goes through it.
"""

import sys

import numpy as np
import pytest

from ifsmeasure import (AffineMap, IFSystem, VectorMeasure, apply_operator,
                        iterate_fixed_point, prune, pushforward)
from ifsmeasure import measure


def _canonical(rng, dim, n_pieces=30, n_atoms=10):
    """A canonical measure whose pieces are separated by gaps and whose
    widths span 1e-19 to 1e-2, so that small slopes flatten some of them."""
    widths = 10.0 ** rng.uniform(-19, -2, n_pieces)
    gaps = rng.uniform(1e-3, 1e-2, n_pieces)
    lo = 0.05 + np.cumsum(gaps + widths) - widths
    pieces = [((a, a + w), rng.standard_normal(dim))
              for a, w in zip(lo, widths)]
    atoms = [(t, rng.standard_normal(dim)) for t in rng.uniform(0, 1, n_atoms)]
    return VectorMeasure(atoms=atoms, pieces=pieces)


def _shuffled_canonical(rng, pts, wts, lo, hi, dens, dim):
    pa, pp = rng.permutation(len(pts)), rng.permutation(len(lo))
    return VectorMeasure._from_arrays(pts[pa], wts[pa], lo[pp], hi[pp],
                                      dens[pp], dim)


def _assert_same(got, want):
    assert np.array_equal(got.atom_points, want.atom_points)
    assert np.array_equal(got.piece_lo, want.piece_lo)
    assert np.array_equal(got.piece_hi, want.piece_hi)
    np.testing.assert_allclose(got.atom_weights, want.atom_weights,
                               rtol=1e-14, atol=0)
    np.testing.assert_allclose(got.piece_density, want.piece_density,
                               rtol=1e-14, atol=0)


def _raw_image(m, mu):
    """The image arrays in mu's order: reversed for a negative slope, and
    a piece whose image rounds to a point moved to an atom with its mass."""
    s, o = m.slope, m.offset
    lo, hi = s * mu.piece_lo + o, s * mu.piece_hi + o
    if s < 0:
        lo, hi = hi, lo
    flat = hi <= lo
    mass = mu.piece_density * (mu.piece_hi - mu.piece_lo)[:, None]
    return (np.concatenate([s * mu.atom_points + o, lo[flat]]),
            np.concatenate([mu.atom_weights, mass[flat]]),
            lo[~flat], hi[~flat], mu.piece_density[~flat] / abs(s))


@pytest.mark.parametrize("slope", [0.4, -0.4, -1.0, 0.25, -0.25, 1e-3, -1e-3])
def test_pushforward_matches_canonicalising_a_shuffled_image(slope):
    rng = np.random.default_rng(17)
    flattened = 0
    for _ in range(20):
        mu = _canonical(rng, 2)
        m = AffineMap(slope, 0.5 * (1.0 - slope) if slope > 0 else -slope)
        raw = _raw_image(m, mu)
        flattened += len(raw[0]) - mu.n_atoms
        _assert_same(pushforward(m, mu), _shuffled_canonical(rng, *raw, 2))
    assert flattened > 0  # some pieces became atoms


def test_apply_operator_and_prune_match_canonicalising_a_shuffled_copy():
    rng = np.random.default_rng(23)
    for _ in range(40):
        mu = _canonical(rng, 2)
        r = rng.standard_normal((2, 2))
        raw = (mu.atom_points, mu.atom_weights @ r.T, mu.piece_lo,
               mu.piece_hi, mu.piece_density @ r.T)
        _assert_same(apply_operator(r, mu), _shuffled_canonical(rng, *raw, 2))
        # a budget between two running sums of the sorted contributions
        # drops exactly the k smallest components
        contrib = np.concatenate([
            np.linalg.norm(mu.atom_weights, axis=1),
            np.linalg.norm(mu.piece_density, axis=1)
            * (mu.piece_hi - mu.piece_lo)])
        order = np.argsort(contrib, kind="stable")
        csum = np.cumsum(contrib[order])
        k = int(rng.integers(1, len(csum)))
        keep = np.ones(len(contrib), dtype=bool)
        keep[order[:k]] = False
        ka, kp = keep[:mu.n_atoms], keep[mu.n_atoms:]
        raw = (mu.atom_points[ka], mu.atom_weights[ka], mu.piece_lo[kp],
               mu.piece_hi[kp], mu.piece_density[kp])
        _assert_same(prune(mu, 0.5 * (csum[k - 1] + csum[k])),
                     _shuffled_canonical(rng, *raw, 2))


_TRANSFORMS = {"pushforward", "apply_operator", "prune", "accumulate",
               "combine"}


def test_an_iteration_step_resolves_only_in_accumulate_and_combine(
        monkeypatch):
    callers = []
    resolve = measure._resolve

    def spy(lo, hi, dens):
        frame = sys._getframe(1)
        while frame.f_code.co_name not in _TRANSFORMS:
            frame = frame.f_back
        callers.append(frame.f_code.co_name)
        return resolve(lo, hi, dens)

    rng = np.random.default_rng(5)
    ops = [0.13 * np.linalg.qr(rng.standard_normal((2, 2)))[0]
           for _ in range(3)]
    base = VectorMeasure(atoms=[(0.0, [0.02, 0.0])],
                         pieces=[((0.0, 1.0), [0.0, 0.02])])
    system = IFSystem([(0.4, 0.0), (-0.4, 0.7), (0.4, 0.6)], ops, base=base)
    start = iterate_fixed_point(system, VectorMeasure.zero(2), tol=1e-2).measure
    monkeypatch.setattr(measure, "_resolve", spy)
    iterate_fixed_point(system, start, tol=1e-3)
    assert callers and set(callers) == {"accumulate", "combine"}
