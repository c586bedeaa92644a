"""How canonicalisation sums pieces, checked exactly.

``pushforward`` and ``apply_operator`` hand canonicalisation sorted,
disjoint input, which keeps its densities as given, and ``prune`` keeps
a canonical subset without canonicalising; their results must match
canonicalising a shuffled copy of the same arrays, which is dealt into
runs and summed.  An iteration step never splits raw input into runs:
its images and the terms of ``accumulate`` and ``combine`` go to the run
sum directly.

Every piece sum (constructor input, ``accumulate``, ``combine`` and
``-``) is checked against a plain-Python oracle to the bit and against
the exact rational sum within one rounding per covering piece, and so
are the run sum's two shortcuts (a run that tiles the events, a
one-piece run) and the panel densities that use them.  ``prune``'s
partial selection is checked bit for bit against a full stable sort,
and a traced-memory bound guards the peak of a subtraction.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ifsmeasure import (AffineMap, IFSystem, VectorMeasure, accumulate,
                        apply_operator, combine, iterate_fixed_point, prune,
                        pushforward)
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


def test_an_iteration_step_never_splits_raw_input_into_runs(monkeypatch):
    calls = []
    split = measure._sum_overlapping

    def spy(lo, hi, dens):
        calls.append(len(lo))
        return split(lo, hi, dens)

    rng = np.random.default_rng(5)
    ops = [0.13 * np.linalg.qr(rng.standard_normal((2, 2)))[0]
           for _ in range(3)]
    base = VectorMeasure(atoms=[(0.0, [0.02, 0.0])],
                         pieces=[((0.0, 1.0), [0.0, 0.02])])
    system = IFSystem([(0.4, 0.0), (-0.4, 0.7), (0.4, 0.6)], ops, base=base)
    start = iterate_fixed_point(system, VectorMeasure.zero(2), tol=1e-2).measure
    monkeypatch.setattr(measure, "_sum_overlapping", spy)
    iterate_fixed_point(system, start, tol=1e-3)
    assert calls == []
    # the spy is live: overlapping input to the constructor is split
    VectorMeasure(pieces=[((0.0, 0.5), [1.0, 0.0]), ((0.25, 1.0), [0.0, 1.0])])
    assert calls == [2]


def _blocks(r, per=10):
    """r blocks of ``per`` contiguous pieces, each block's last piece
    reaching past the next block's start: r runs by the cut."""
    cuts = np.arange(r * per + 1) / per
    lo, hi = cuts[:-1], cuts[1:].copy()
    hi[per - 1:-1:per] += 0.5 / per
    return lo, hi


def _nested(s):
    """s pieces, each inside the one before: s runs by the cut."""
    i = np.arange(s)
    return i / 256, 1.0 - i / 256


@pytest.mark.parametrize("pieces, rounds", [
    *[(_blocks(r), (r - 1).bit_length()) for r in (2, 3, 5, 8, 9)],
    (_blocks(1, per=50), 0), (_nested(7), 3), (_nested(64), 6)])
def test_the_deal_sums_its_runs_in_log_rounds(monkeypatch, pieces, rounds):
    # ceil(log2 R) pairwise rounds for R runs, one _sum_runs call each
    calls = []
    sum_runs = measure._sum_runs

    def spy(runs, dtype):
        calls.append(len(runs))
        return sum_runs(runs, dtype)

    lo, hi = pieces
    rng = np.random.default_rng(53)
    p = rng.permutation(len(lo))
    dens = rng.standard_normal((len(lo), 2))
    monkeypatch.setattr(measure, "_sum_runs", spy)
    got = measure._sum_overlapping(lo[p], hi[p], dens[p])
    assert calls == [2] * rounds
    if rounds == 0:  # disjoint pieces out of order: sorted, as given
        _assert_bitwise(got, [lo, hi, dens])


# -- piece sums against an exact oracle ---------------------------------
#
# Every sum of pieces is one or more calls of ``measure._sum_runs``: the
# segments between the distinct endpoints of sorted, disjoint runs, each
# 0 plus the densities covering it, in run order.  The oracle writes that
# out in plain Python floats and complexes, one piece at a time, and
# checks each sum against its exact rational value with ``fractions``.
# Raw constructor input is first dealt into runs by one cut in start
# order and the runs are summed pairwise, round after round.


def _add_runs(runs, dim):
    """Sum of sorted, disjoint runs, one segment and one piece at a time."""
    ends = sorted({e for run in runs for lo, hi, _ in run for e in (lo, hi)})
    out = []
    for x, y in zip(ends, ends[1:]):
        val = (0.0,) * dim
        for run in runs:
            for lo, hi, d in run:
                if lo <= x and y <= hi:
                    val = tuple(v + c for v, c in zip(val, d))
        if any(v != 0 for v in val):
            out.append((x, y, val))
    return out


def _deal(pieces):
    """The pieces by start, a new run wherever a piece starts before the
    piece ahead of it ends."""
    runs = []
    for p in sorted(pieces, key=lambda p: p[0]):
        if runs and p[0] >= runs[-1][-1][1]:
            runs[-1].append(p)
        else:
            runs.append([p])
    return runs


def _pairwise(runs, dim):
    # a run whose sum cancelled stays in place, empty, so pairs stay pairs
    while len(runs) > 1:
        runs = [_add_runs(runs[i:i + 2], dim) for i in range(0, len(runs), 2)]
    return runs[0] if runs else []


def _merged(segments):
    """Contiguous segments of equal density merged, as canonical form does."""
    out = []
    for x, y, d in segments:
        if out and out[-1][1] == x and out[-1][2] == d:
            out[-1] = (out[-1][0], y, out[-1][2])
        else:
            out.append((x, y, d))
    return out


def _exact_parts(z):
    return ((Fraction(z.real), Fraction(z.imag)) if isinstance(z, complex)
            else (Fraction(z),))


def _assert_oracle(mu, segments, originals):
    """mu's pieces are the oracle's segments, merged, to the bit (a zero's
    sign aside), and each segment lies within one rounding per covering
    piece of the exact sum of the pieces that cover it."""
    want = _merged(segments)
    dtype = mu.piece_density.dtype
    assert mu.piece_lo.tolist() == [x for x, _, _ in want]
    assert mu.piece_hi.tolist() == [y for _, y, _ in want]
    dens = np.array([d for _, _, d in want], dtype=dtype).reshape(-1, mu.dim)
    assert (mu.piece_density + 0.0).tobytes() == (dens + 0.0).tobytes()
    for x, y, val in segments:
        cover = [d for lo, hi, d in originals if lo <= x and y <= hi]
        for j, v in enumerate(val):
            parts = zip(*(_exact_parts(d[j]) for d in cover))
            for got, terms in zip(_exact_parts(v), parts):
                slack = (len(cover) - 1) * _ULP * sum(abs(t) for t in terms)
                assert abs(got - sum(terms)) <= slack


_ULP = Fraction(1, 2 ** 53)


def _raw_pieces(rng, dim, complex_):
    """Overlapping, shuffled constructor input: random pieces, a nested
    chain, contiguous pieces (some of equal density), ulp-wide pieces, one
    piece and its negation, and a 1e-3 density overlapping a 1e9 one.
    Densities span twelve decades and some components are -0.0."""
    grid = np.sort(rng.uniform(0.0, 1.0, 16))
    spans = [tuple(np.sort(rng.choice(grid, 2, replace=False)))
             for _ in range(rng.integers(2, 10))]
    k = int(rng.integers(2, 6))
    nest = np.sort(rng.choice(grid, 2 * k, replace=False))
    spans += [(nest[i], nest[-1 - i]) for i in range(k)]
    cuts = np.sort(rng.choice(grid, 5, replace=False))
    spans += list(zip(cuts[:-1], cuts[1:]))
    spans += [(g, np.nextafter(g, 2.0)) for g in rng.choice(grid, 2)]
    d = (rng.standard_normal((len(spans), dim))
         * 10.0 ** rng.uniform(-6, 6, (len(spans), 1)))
    if complex_:
        d = d + 1j * rng.standard_normal((len(spans), dim))
    d[rng.random(d.shape) < 0.1] = -0.0
    c = len(spans) - 3  # the last two contiguous pieces: equal densities
    d[c] = d[c - 1]
    spans.append(spans[0])
    d = np.concatenate([d, -d[:1]])
    spans += [(0.0, 0.75), (0.5, 1.0)]
    d = np.concatenate([d, np.full((2, dim), [[1e9], [1e-3]], dtype=d.dtype)])
    p = rng.permutation(len(spans))
    return [(float(spans[i][0]), float(spans[i][1]), d[i]) for i in p]


def _python(run):
    return [(lo, hi, tuple(d.tolist())) for lo, hi, d in run]


@pytest.mark.parametrize("complex_", [False, True])
def test_piece_sums_match_an_exact_oracle(complex_):
    rng = np.random.default_rng(29)
    dim, built = 2, []
    for _ in range(25):
        raw = _raw_pieces(rng, dim, complex_)
        mu = VectorMeasure(pieces=[((lo, hi), d) for lo, hi, d in raw])
        kept = [p for p in _python(raw) if p[1] > p[0] and any(p[2])]
        segments = _pairwise(_deal(kept), dim)
        _assert_oracle(mu, segments, kept)
        # only the 1e-3 piece reaches 1, past the 1e9 one: no huge minus huge
        assert mu.piece_hi[-1] == 1.0
        assert mu.piece_density[-1].tolist() == [1e-3] * dim
        built.append(mu)
    for i in range(0, len(built) - 3, 4):
        a, b, c, e = built[i:i + 4]
        for got, terms in [(accumulate([a, b, c]), [(1.0, a), (1.0, b), (1.0, c)]),
                           (a + e, [(1.0, a), (1.0, e)]),
                           (a - b, [(1.0, a), (-1.0, b)]),
                           (combine(0.3, c, -2.5, e), [(0.3, c), (-2.5, e)])]:
            runs = [_python(zip(m.piece_lo.tolist(), m.piece_hi.tolist(),
                                x * m.piece_density)) for x, m in terms]
            _assert_oracle(got, _add_runs(runs, dim),
                           [p for run in runs for p in run])


def _assert_bitwise(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


# -- prune's selection, bit for bit --------------------------------------


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
# sizes: about 2.6 for the run sum (the runs' ends sorted in one array,
# one owner lookup and gather per run), 2.87 for the event sweep it
# replaced, 3.65 for an np.add.at sweep and 4.34 when the endpoints are
# ranked by one stable argsort; the bound is 10% above the event sweep's
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


# -- prune keeps a canonical subset as it is ------------------------------


def _arrays(mu):
    return [mu.atom_points, mu.atom_weights, mu.piece_lo, mu.piece_hi,
            mu.piece_density]


def _assert_canonical_subset(got, mu):
    """``got`` is canonical form as ``_from_arrays`` would build it, read
    only, and holds mu's own arrays for a kind it drops nothing of."""
    _assert_bitwise(_arrays(got), _arrays(VectorMeasure._from_arrays(
        *_arrays(got), mu.dim)))
    for kind in (slice(0, 2), slice(2, 5)):
        mine, theirs = _arrays(got)[kind], _arrays(mu)[kind]
        whole = len(mine[0]) == len(theirs[0])
        for g, m in zip(mine, theirs):
            assert not g.flags.writeable
            if len(m):
                assert np.shares_memory(g, m) == whole


def test_prune_leaves_a_gap_between_equal_neighbours():
    d = [1.0, -2.0]
    mu = VectorMeasure(atoms=[(0.1, [3.0, 1.0])],
                       pieces=[((0.2, 0.4), d), ((0.4, 0.5), [1e-12, 0.0]),
                               ((0.5, 0.8), d)])
    got = prune(mu, 1e-12)  # the middle piece carries 1e-13
    assert got.piece_lo.tolist() == [0.2, 0.5]
    assert got.piece_hi.tolist() == [0.4, 0.8]
    _assert_canonical_subset(got, mu)


def test_prune_returns_canonical_form_sharing_what_it_keeps_whole():
    rng = np.random.default_rng(43)
    # atoms lighter than pieces, mixed, and pieces lighter than atoms
    cases = [VectorMeasure(
        atoms=[(t, 1e-9 * rng.standard_normal(2)) for t in rng.uniform(0, 1, 9)],
        pieces=[((0.1 * i, 0.1 * i + 0.05), rng.standard_normal(2))
                for i in range(9)])]
    cases += [_tied_measure(rng, 500)]
    cases += [_canonical(rng, 2) for _ in range(20)]
    kinds = set()
    for mu in cases:
        contrib = np.sort(np.concatenate([
            measure._row_norms(mu.atom_weights),
            measure._row_norms(mu.piece_density) * (mu.piece_hi - mu.piece_lo)]))
        csum = np.cumsum(contrib)
        for k in (1, 2, len(csum) // 2, len(csum) - 1):
            got = prune(mu, 0.5 * (csum[k - 1] + csum[k]))
            kinds.add((got.n_atoms < mu.n_atoms, got.n_pieces < mu.n_pieces))
            _assert_canonical_subset(got, mu)
    # atoms only, pieces only and both were dropped
    assert {(True, False), (False, True), (True, True)} <= kinds


# -- _covering's two shortcuts against the oracle ---------------------------


def _covering_by_loop(lo, hi, dens, left):
    """The density of the piece each point of ``left`` lies in, zero in a
    gap, for the points in the run's span."""
    rows = [next((d for a, b, d in zip(lo, hi, dens) if a <= x < b),
                 np.zeros_like(dens[0]))
            for x in left if lo[0] <= x < hi[-1]]
    return np.array(rows, dtype=dens.dtype).reshape(-1, dens.shape[1])


def _run(cuts, dens, skip=()):
    keep = [i for i in range(len(cuts) - 1) if i not in skip]
    return (cuts[:-1][keep], cuts[1:][keep], dens[keep])


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("case, shortcut", [
    ("tiling", "tiles"), ("one_piece_all", "one_piece"),
    ("one_piece_part", "one_piece"), ("gap", None)])
def test_covering_shortcuts_match_the_exact_oracle(case, shortcut, complex_):
    rng = np.random.default_rng(47)
    dim = 2
    cuts = np.sort(rng.uniform(0.0, 1.0, 9))
    dens = rng.standard_normal((8, dim)) * 10.0 ** rng.uniform(-6, 6, (8, 1))
    if complex_:
        dens = dens + 1j * rng.standard_normal((8, dim))
    other = rng.standard_normal((8, dim))
    # the run under test, then a second run over part of its events
    run = {"tiling": _run(cuts, dens),
           "one_piece_all": _run(cuts[[0, -1]], dens[:1]),
           "one_piece_part": _run(cuts[[2, 5]], dens[:1]),
           "gap": _run(cuts, dens, skip=(3,))}[case]
    second = _run(cuts[::2], other[:4])
    runs = [run, second]
    events = np.unique(np.concatenate([x for r in runs for x in r[:2]]))
    left = events[:-1]
    a, rows = measure._covering(*run, left)
    assert (shortcut is not None) == np.shares_memory(rows, run[2])
    if shortcut == "one_piece":
        assert len(rows) > 1
    want = _covering_by_loop(*run, left)
    assert left[a] == run[0][0]
    _assert_bitwise([np.asarray(rows)], [want])
    # and the sum they take part in, against the exact rational sum
    measures = [VectorMeasure._from_arrays(
        np.zeros(0), np.zeros((0, dim), r[2].dtype), *r, dim) for r in runs]
    python_runs = [_python(zip(r[0].tolist(), r[1].tolist(), r[2]))
                   for r in runs]
    _assert_oracle(accumulate(measures), _add_runs(python_runs, dim),
                   [p for r in python_runs for p in r])


@pytest.mark.parametrize("complex_", [False, True])
def test_covering_through_many_gaps_matches_the_exact_oracle(complex_):
    # a point in a gap takes the zero row appended to the densities: gaps
    # of one missing piece and of several in a row, each holding points
    rng = np.random.default_rng(48)
    gaps = wide = 0
    for _ in range(60):
        n = int(rng.integers(3, 40))
        cuts = np.sort(rng.uniform(0.0, 1.0, n + 1))
        dens = rng.standard_normal((n, 3))
        if complex_:
            dens = dens + 1j * rng.standard_normal((n, 3))
        skip = np.flatnonzero(rng.uniform(size=n) < 0.4)
        skip = skip[(skip > 0) & (skip < n - 1)]
        run = _run(cuts, dens, skip=set(skip.tolist()))
        left = np.unique(np.concatenate([cuts, rng.uniform(0.0, 1.0, 3 * n)]))
        a, rows = measure._covering(*run, left)
        _assert_bitwise([np.asarray(rows)], [_covering_by_loop(*run, left)])
        gaps += len(skip)
        wide += np.any(np.diff(skip) == 1)
    assert gaps > 100 and wide > 10


@pytest.mark.parametrize("atoms, pieces", [
    # one piece across panels that atoms cut: the one-piece shortcut
    ([0.1, 0.3, 0.55, 0.7], [(0.2, 0.9)]),
    # atomless and gapless: the pieces tile the panels they span
    ([], [(0.1, 0.25), (0.25, 0.6), (0.6, 0.9)]),
    # atomless with a gap: the general path
    ([], [(0.1, 0.25), (0.3, 0.6), (0.6, 0.9)]),
])
def test_panel_densities_match_the_pieces_they_lie_in(atoms, pieces):
    rng = np.random.default_rng(61)
    mu = VectorMeasure(atoms=[(t, rng.standard_normal(2)) for t in atoms],
                       pieces=[(p, rng.standard_normal(2)) for p in pieces])
    bps, _, rho = mu.panels()
    want = np.zeros_like(rho)
    for j, x in enumerate(bps[:-1]):
        for a, b, d in zip(mu.piece_lo, mu.piece_hi, mu.piece_density):
            if a <= x < b:
                want[j] = d
    _assert_bitwise([rho], [want])
