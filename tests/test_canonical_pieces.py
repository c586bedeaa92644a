"""Canonicalisation resolves only pieces that are out of order or overlap.

``pushforward``, ``apply_operator`` and ``prune`` hand canonicalisation
sorted, disjoint input and so skip the event sweep ``measure._resolve``;
their results must match canonicalising a shuffled copy of the same
arrays, which goes through it.

The sweep itself, its row scatter and ``prune``'s partial selection are
checked bit for bit against the ``np.add.at`` sweep and a full stable
sort, and a traced-memory bound guards the sweep's peak.
"""

import sys
import tracemalloc

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


def test_an_iteration_step_resolves_only_in_accumulate(monkeypatch):
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
    assert callers and set(callers) == {"accumulate"}


# -- the event sweep and prune's selection, bit for bit -----------------


def _scatter_sweep(lo, hi, dens):
    """``measure._resolve`` as written with ``np.add.at`` and
    ``np.subtract.at``."""
    events = np.unique(np.concatenate([lo, hi]))
    delta = np.zeros((len(events), dens.shape[1]), dtype=dens.dtype)
    np.add.at(delta, np.searchsorted(events, lo), dens)
    np.subtract.at(delta, np.searchsorted(events, hi), dens)
    seg_d = np.cumsum(delta[:-1], axis=0)
    keep = np.any(seg_d != 0, axis=1)
    return events[:-1][keep], events[1:][keep], seg_d[keep]


def _overlapping_runs(rng, n_runs, dim, complex_):
    """Concatenated sorted, disjoint runs of pieces, as ``accumulate`` and
    ``combine`` hand them over.  Ends come from one coarse grid, so pieces
    of different runs start and end together; densities span twelve
    decades, some components are -0.0 or 0.0, and one run is the negation
    of another, so some segments cancel to zero."""
    grid = np.unique(rng.uniform(0.0, 1.0, 30))

    def density(k):
        d = (rng.standard_normal((k, dim))
             * 10.0 ** rng.uniform(-6, 6, (k, 1)))
        d[rng.random((k, dim)) < 0.2] = -0.0
        d[rng.random((k, dim)) < 0.1] = 0.0
        return d

    runs = []
    for _ in range(n_runs - 1):
        cuts = np.sort(rng.choice(grid, rng.integers(2, 12), replace=False))
        keep = rng.random(len(cuts) - 1) < 0.8  # gaps between some pieces
        keep[0] = True
        d = density(len(cuts) - 1)
        if complex_:
            d = d + 1j * density(len(cuts) - 1)
        runs.append((cuts[:-1][keep], cuts[1:][keep], d[keep]))
    lo, hi, d = runs[rng.integers(len(runs))]
    runs.append((lo, hi, -d))
    return tuple(np.concatenate(a) for a in zip(*runs))


def _assert_bitwise(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("complex_", [False, True])
def test_resolve_is_bitwise_the_scatter_sweep(complex_):
    rng = np.random.default_rng(29)
    dropped = 0
    for n_runs in (2, 3, 4, 7, 12, 20, 33, 50):
        for shuffle in (False, True):
            lo, hi, dens = _overlapping_runs(rng, n_runs, 3, complex_)
            if shuffle:
                p = rng.permutation(len(lo))
                lo, hi, dens = lo[p], hi[p], dens[p]
            want = _scatter_sweep(lo, hi, dens)
            _assert_bitwise(measure._resolve(lo, hi, dens), want)
            segments = len(np.unique(np.concatenate([lo, hi]))) - 1
            dropped += segments - len(want[0])
    assert dropped > 0  # the cancelling run leaves zero segments


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_scatter_rows_is_bitwise_add_at(dtype):
    rng = np.random.default_rng(31)
    n = 50
    parts = [rng.standard_normal((k, 2)) * 10.0 ** rng.uniform(-8, 8, (k, 1))
             for k in (700, 1, 300)]
    if dtype is np.complex128:
        parts = [p + 1j * p[:, ::-1] for p in parts]
    parts[0][::7] = -0.0
    idx = [rng.integers(0, n - 1, len(p)) for p in parts]
    want = np.zeros((n, 2), dtype=dtype)
    for i, p in zip(idx, parts):
        np.add.at(want, i, p)
    got = measure._scatter_rows(n, np.concatenate(idx), parts)
    _assert_bitwise([got], [want])
    np.subtract.at(want, idx[0], parts[0])
    got = measure._scatter_rows(n, np.concatenate(idx + idx[:1]), parts,
                                parts[:1])
    _assert_bitwise([got], [want])


def _prune_by_full_sort(mu, tol):
    """``prune`` as written with a stable argsort of every contribution."""
    contrib = np.concatenate([
        measure._row_norms(mu.atom_weights),
        measure._row_norms(mu.piece_density) * (mu.piece_hi - mu.piece_lo)])
    order = np.argsort(contrib, kind="stable")
    n_drop = int(np.searchsorted(np.cumsum(contrib[order]), tol, side="right"))
    keep = np.ones(len(contrib), dtype=bool)
    keep[order[:n_drop]] = False
    ka, kp = keep[:mu.n_atoms], keep[mu.n_atoms:]
    return VectorMeasure._from_arrays(
        mu.atom_points[ka], mu.atom_weights[ka], mu.piece_lo[kp],
        mu.piece_hi[kp], mu.piece_density[kp], mu.dim)


def _tied_measure(rng, n):
    """n atoms and n pieces whose contributions take six values in
    shuffled order, so that they tie in large groups.  Piece ends are
    multiples of 2^-20, so every width is exactly 2^-20."""
    rows = rng.standard_normal((6, 2)) * [[1e-9], [3e-9], [5e-9],
                                          [2e-3], [4e-3], [6e-3]]
    cuts = np.arange(2 * n + 1) * 2.0 ** -20
    return VectorMeasure._from_arrays(
        np.linspace(0.0, 1.0, n), rows[rng.integers(0, 3, n)],
        cuts[:-1:2], cuts[1::2], rows[rng.integers(3, 6, n)], 2)


def _budgets(mu):
    """Budgets that drop nothing, everything, and the k smallest
    components for k next to every size the selection takes, and
    elsewhere; most cuts split a group of equal contributions."""
    contrib = np.concatenate([
        measure._row_norms(mu.atom_weights),
        measure._row_norms(mu.piece_density) * (mu.piece_hi - mu.piece_lo)])
    srt = np.sort(contrib)
    csum = np.cumsum(srt)
    n = len(srt)
    ks = {1, 2, 3, n // 3, n // 2, n - 1}
    m = measure._PRUNE_START
    while m < n:
        ks |= {m - 1, m, m + 1}
        m *= 4
    ks = sorted(k for k in ks if 0 < k < n)
    assert sum(srt[k - 1] == srt[k] for k in ks) > len(ks) // 2
    return [0.5 * srt[0], 2.0 * csum[-1]] + [float(csum[k - 1]) for k in ks]


@pytest.mark.parametrize("n, start", [(500, None), (500, 8), (150_000, None)])
def test_prune_drops_what_a_full_stable_sort_drops(monkeypatch, n, start):
    # 2n components: fewer than the first selection takes, more than a
    # small start that has to grow, and more than the real start
    if start is not None:
        monkeypatch.setattr(measure, "_PRUNE_START", start)
    if n > 1000:
        assert 2 * n > measure._PRUNE_START
    rng = np.random.default_rng(37)
    mu = _tied_measure(rng, n)
    for tol in _budgets(mu):
        want = _prune_by_full_sort(mu, tol)
        got = prune(mu, tol)
        _assert_bitwise(
            [got.atom_points, got.atom_weights, got.piece_lo, got.piece_hi,
             got.piece_density],
            [want.atom_points, want.atom_weights, want.piece_lo,
             want.piece_hi, want.piece_density])


# peak traced memory of subtracting two overlapping measures, in operand
# sizes: about 2.87 for the event sweep (unique endpoints, searchsorted,
# one bincount per column), 3.65 for the np.add.at sweep and 4.34 when the
# endpoints are ranked by one stable argsort; the bound is 10% above the
# sweep's
_SUBTRACT_PEAK_RATIO = 3.15


def test_subtracting_overlapping_measures_stays_within_its_memory_bound():
    rng = np.random.default_rng(41)

    def generated(n):
        cuts = np.sort(rng.uniform(0.0, 1.0, n + 1))
        return VectorMeasure._from_arrays(
            np.zeros(0), np.zeros((0, 2)), cuts[:-1], cuts[1:],
            rng.standard_normal((n, 2)), 2)

    a, b = generated(200_000), generated(200_000)
    operands = sum(x.nbytes for m in (a, b)
                   for x in (m.piece_lo, m.piece_hi, m.piece_density))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        diff = a - b
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert diff.n_pieces == 400_001
    assert peak / operands <= _SUBTRACT_PEAK_RATIO
