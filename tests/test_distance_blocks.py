"""The step distances in fixed-size blocks, against the one-pass routes.

``mk_star_exact(a, b)`` and ``VectorMeasure.variation_distance`` sweep
the merged breakpoints ``_BLOCK`` at a time, carrying the running
cumulative from block to block, and ``_exact_sum`` bins its terms a
slice at a time.  With the block size forced down to one, two or three
values, both distances must still give, to the bit, what one pass over
the whole merge gives: ``_one_pass_panels`` and
``_one_pass_variation_distance`` are those routes, kept here as oracles.
The pairs are generated with atoms only, pieces only and both, in dims 1
to 3, real and complex, with shared and cancelling atoms, contiguous
pieces whose differences merge across a cut, an empty side and the
one-argument form; both refusals must keep their messages.  mk_star
asks ``variation_distance`` (``variation_norm`` in the one-argument form)
for the variation only when the total is above 1e-12, and takes no row
norm otherwise.  Each distance's traced peak, relative to its operands,
is pinned.
"""

import math
import tracemalloc

import numpy as np
import pytest

from ifsmeasure import (VectorMeasure, combine, markov, measure, mk_norm,
                        mk_star_exact)
from ifsmeasure.cli import run
from ifsmeasure.hilbert import _norm, _row_norms
from ifsmeasure.measure import (_canonical_atoms, _linear, _merged_pieces,
                                _rows_differ, _sum_runs, _take)
from ifsmeasure.mk_norm import _segment_norm_integral


def _variation(wts, lo, hi, dens):
    """The variation norm of canonical coefficient arrays."""
    return (float(_row_norms(wts).sum())
            + float((_row_norms(dens) * (hi - lo)).sum()))


def _one_pass_panels(mu, nu):
    """``(bps, F, rho, nonzero weight rows, (lo, hi, dens))`` of mu - nu
    from one stable merge of all keys at once."""
    dtype = np.result_type(mu.atom_weights, nu.atom_weights)
    lo, hi, dens = mu.piece_lo, mu.piece_hi, mu.piece_density.astype(dtype)
    if nu.n_pieces:
        lo, hi, dens = _merged_pieces(*_sum_runs(
            [(lo, hi, dens), (nu.piece_lo, nu.piece_hi, -nu.piece_density)], dtype))
    keys = np.concatenate([mu.atom_points, nu.atom_points, lo, hi, [0.0, 1.0]])
    order = np.argsort(keys, kind="stable")
    keys = keys.take(order)
    run = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    last = np.append(run[1:], len(keys)) - 1
    wts, n = np.zeros((len(keys) + 1, mu.dim), dtype), mu.n_atoms + nu.n_atoms
    wts[:mu.n_atoms] = mu.atom_weights
    np.negative(nu.atom_weights, out=wts[mu.n_atoms:n])
    with np.errstate(over="ignore", invalid="ignore"):
        w = wts.take(order.take(run), axis=0) + wts.take(
            np.where(last > run, order.take(run + 1, mode="clip"), len(keys)), axis=0)
    if not (np.isfinite(w).all() and np.isfinite(dens).all()):
        raise ValueError("a coefficient overflows to a non-finite value")
    bps, w, last = _take(_rows_differ(w, 0) | (order.take(last) >= n),
                         keys.take(run), w, last)
    F = np.cumsum(w, axis=0) + 0.0
    rho = np.zeros((len(bps) - 1, mu.dim), dtype=dtype)
    if len(lo):
        k = np.cumsum((order >= n) & (order < n + len(lo))).take(last) - 1
        mass = np.cumsum(np.concatenate([rho[:1], dens * (hi - lo)[:, None]]), axis=0)
        j = np.maximum(k, 0)
        F += mass.take(j, axis=0) + dens.take(j, axis=0) * np.clip(
            bps - lo.take(j), 0.0, hi.take(j) - lo.take(j))[:, None]
        rho = np.concatenate([dens, rho[:1]]).take(
            np.where((k >= 0) & (bps < hi.take(k)), k, len(lo))[:-1], axis=0)
    return bps, F, rho, _take(_rows_differ(w, 0), w)[0], (lo, hi, dens)


def _one_pass_mk_star(mu, nu):
    bps, F, rho, wts, pieces = _one_pass_panels(mu, nu)
    tot = _norm(F[-1])
    if tot > 1e-12 and tot > 1e-12 * _variation(wts, *pieces):
        raise ValueError(f"defined only for zero-total measures (||total|| = {tot:g})")
    return math.fsum(_segment_norm_integral(F[:-1], rho, np.diff(bps)).tolist())


def _one_pass_variation_distance(a, b):
    pts, wts, lo, hi, dens, _ = _linear([(1.0, a), (-1.0, b)])
    with np.errstate(over="ignore", invalid="ignore"):
        _, wts = _canonical_atoms(pts, wts)
    if not (np.isfinite(wts).all() and np.isfinite(dens).all()):
        raise ValueError("a coefficient overflows to a non-finite value")
    return _variation(wts, lo, hi, dens)


def _outcome(f, *args):
    """``f(*args)`` as hex, or the message of the ValueError it raises."""
    try:
        return f(*args).hex()
    except ValueError as exc:
        return f"ValueError: {exc}"


def _generated(rng, grid, n_pieces, n_atoms, dim, complex_):
    """A canonical measure on points of ``grid``: pieces between grid
    points, contiguous half the time, and atoms at grid points, with
    small integer coefficients half the time so that differences cancel
    or repeat exactly."""
    def coeffs(k):
        if rng.random() < 0.5:
            c = rng.integers(-2, 3, (k, dim)).astype(float)
        else:
            c = rng.standard_normal((k, dim))
        return c + 1j * rng.integers(-2, 3, (k, dim)) if complex_ else c

    cuts = np.sort(rng.choice(grid, 2 * n_pieces, replace=False))
    lo, hi = cuts[0::2], cuts[1::2].copy()
    joined = rng.random(max(n_pieces - 1, 0)) < 0.5
    hi[:-1][joined] = lo[1:][joined]
    pts = rng.choice(grid, n_atoms, replace=False)
    return VectorMeasure(atoms=list(zip(pts, coeffs(n_atoms))),
                         pieces=list(zip(zip(lo, hi), coeffs(n_pieces))),
                         dim=dim, field="complex" if complex_ else "real")


def _partner(rng, grid, a, shape):
    """A generated measure, or a's mirror: a's atoms, some with a's
    weights (they cancel), and a's pieces with each density moved by one
    shift of its size (contiguous differences merge); half the time an
    atom then balances the totals, so that mk_star takes the pair."""
    if rng.random() < 0.3:
        keep = rng.random(a.n_atoms) < 0.5
        wts = np.where(keep[:, None], a.atom_weights, 2.0 * a.atom_weights)
        dens = a.piece_density - np.abs(a.piece_density).max(initial=0.0)
        b = VectorMeasure(atoms=list(zip(a.atom_points, wts)),
                          pieces=list(zip(zip(a.piece_lo, a.piece_hi), dens)),
                          dim=a.dim, field=a.field)
    else:
        b = _generated(rng, grid, *shape, a.dim, a.field == "complex")
    if rng.random() < 0.5:
        b = combine(1.0, b, 1.0, VectorMeasure(
            atoms=[(float(rng.choice(grid)), a.total() - b.total())], dim=a.dim))
    return b


_SHAPES = [(0, 0), (0, 6), (6, 0), (5, 7)]  # (pieces, atoms)


def _pairs(seed, count):
    rng = np.random.default_rng(seed)
    for i in range(count):
        dim, complex_ = 1 + i % 3, bool(i // 3 % 2)
        grid = np.unique(rng.uniform(0.0, 1.0, 30))
        a = _generated(rng, grid, *_SHAPES[i % 4], dim, complex_)
        yield a, _partner(rng, grid, a, _SHAPES[i // 4 % 4])


@pytest.fixture(params=[1, 2, 3])
def small_blocks(request, monkeypatch):
    """Blocks, and ``_exact_sum`` slices, of one to three values."""
    monkeypatch.setattr(measure, "_BLOCK", request.param)
    monkeypatch.setattr(mk_norm, "_BLOCK", request.param)
    return request.param


def test_mk_star_in_blocks_is_the_one_pass_value(small_blocks):
    seen = {"value": 0, "refused": 0, "cancelled": 0, "merged": 0}
    for a, b in _pairs(7 + small_blocks, 120):
        got = _outcome(mk_star_exact, a, b)
        assert got == _outcome(_one_pass_mk_star, a, b), (a, b)
        seen["value" if got.startswith("0x") else "refused"] += 1
        d = combine(1.0, a, -1.0, b)
        shared = np.intersect1d(a.atom_points, b.atom_points)
        seen["cancelled"] += len(np.setdiff1d(shared, d.atom_points))
        seen["merged"] += d.n_pieces < len(_linear([(1.0, a), (-1.0, b)])[2])
    assert all(seen.values()), seen


def test_panels_in_blocks_are_the_one_pass_panels(small_blocks):
    for a, b in _pairs(20 + small_blocks, 60):
        d = combine(1.0, a, -1.0, b)
        bps, F, rho = map(np.concatenate, zip(*measure._panels(a, b)))
        got = (bps, F, rho[:-1]) + d.panels()
        want = (_one_pass_panels(a, b)[:3]
                + _one_pass_panels(d, VectorMeasure.zero(d.dim, d.field))[:3])
        for x, y in zip(got, want):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def test_an_empty_side_and_the_one_argument_form(small_blocks):
    for a, _ in _pairs(30 + small_blocks, 24):
        zero = VectorMeasure.zero(a.dim, a.field)
        want = _outcome(_one_pass_mk_star, a, zero)
        assert _outcome(mk_star_exact, a) == want
        assert _outcome(mk_star_exact, a, zero) == want
        assert _outcome(mk_star_exact, zero, a) == _outcome(_one_pass_mk_star, zero, a)
        assert a.variation_distance(zero) == _one_pass_variation_distance(a, zero)
        assert zero.variation_distance(a) == _one_pass_variation_distance(zero, a)


def test_the_total_refusal_decides_on_the_variation(small_blocks):
    # totals 1e-11 off: refused at variation 1, taken at variation 1e3
    for scale in (1.0, 1e3):
        a = VectorMeasure(atoms=[(0.1, [0.5 * scale]), (0.3, [1e-11])],
                          pieces=[((0.2, 0.6), [scale]), ((0.6, 0.7), [2.0])])
        b = VectorMeasure(atoms=[(0.1, [0.5 * scale]), (0.9, [0.2])],
                          pieces=[((0.4, 0.8), [scale])])
        want = _outcome(_one_pass_mk_star, a, b)
        assert want.startswith("ValueError: defined only") == (scale == 1.0)
        assert _outcome(mk_star_exact, a, b) == want


@pytest.fixture
def variation_calls(monkeypatch):
    """The names of the calls to ``VectorMeasure.variation_distance``,
    ``variation_norm`` and ``mk_norm``'s row norms, in order; each call
    still answers."""
    calls = []
    for owner, name in ((VectorMeasure, "variation_distance"),
                        (VectorMeasure, "variation_norm"),
                        (mk_norm, "_row_norms")):
        def spy(*args, _f=getattr(owner, name), _name=name):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(owner, name, spy)
    return calls


def test_only_a_refused_total_asks_for_the_variation(variation_calls):
    seen = {"value": 0, "refused": 0}
    for a, b in _pairs(60, 120):
        for args, method in (((a, b), "variation_distance"),
                             ((a,), "variation_norm")):
            variation_calls.clear()
            got = _outcome(mk_star_exact, *args)
            want = _outcome(_one_pass_mk_star, a, b if len(args) == 2
                            else VectorMeasure.zero(a.dim, a.field))
            assert got == want
            refused = got.startswith("ValueError: defined only")
            assert variation_calls == ([method] if refused else []), (args, got)
            seen["refused" if refused else "value"] += 1
    assert all(seen.values()), seen


def test_the_blend_steps_ask_for_no_variation(tmp_path, monkeypatch,
                                              variation_calls):
    distances = []

    def kept(a, b):
        distances.append(mk_star_exact(a, b))
        return distances[-1]
    monkeypatch.setattr(markov, "mk_star_exact", kept)
    code, _ = run("cantor_blend", out_dir=str(tmp_path))
    assert code == 0 and len(distances) == 18  # verify's step among them
    assert variation_calls == []


def test_a_difference_that_overflows_is_refused_in_every_block(small_blocks):
    big = VectorMeasure(atoms=[(0.5, [1e308])], pieces=[((0.1, 0.2), [1.0])])
    for a, b in ((big, -1.0 * big), (VectorMeasure(pieces=[((0.0, 1.0), [1e308])]),
                                      VectorMeasure(pieces=[((0.5, 1.0), [-1e308])]))):
        for f, g in ((mk_star_exact, _one_pass_mk_star),
                     (VectorMeasure.variation_distance, _one_pass_variation_distance)):
            assert _outcome(f, a, b) == _outcome(g, a, b)
            assert "overflows" in _outcome(f, a, b)


def test_variation_distance_in_blocks_is_the_one_pass_value(small_blocks):
    cut_inside = 0
    for a, b in _pairs(40 + small_blocks, 120):
        for x, y in ((a, b), (b, a), (a, a)):
            assert x.variation_distance(y).hex() == \
                _one_pass_variation_distance(x, y).hex()
        # a piece of one side that a cut at the other's start splits
        edges = measure._edges(a.piece_lo, b.piece_lo)
        cut_inside += int(np.any((a.piece_lo[:, None] < edges)
                                 & (edges < a.piece_hi[:, None])))
    assert cut_inside


def _traced_peak(f):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = f()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _operands(*ms):
    return sum(x.nbytes for m in ms for x in (m.atom_points, m.atom_weights,
                                              m.piece_lo, m.piece_hi,
                                              m.piece_density))


# traced peak of a step distance over its operands' bytes, as measured
# (0.59 and 0.56; one pass over the whole merge took 3.33 and 2.46) plus 10%
_MK_STAR_PEAK_RATIO = 0.65
_VARIATION_PEAK_RATIO = 0.62


def test_mk_star_distance_stays_within_its_memory_bound():
    # two iterates of a transport step: 2^18 atoms, and every other one
    # of their points holding the mass of it and the next
    rng = np.random.default_rng(47)
    pts = np.sort(rng.uniform(0.0, 1.0, 1 << 18))
    w = rng.standard_normal((1 << 18, 2))
    a, b = (VectorMeasure._from_arrays(p, x, [], [], np.zeros((0, 2)), 2)
            for p, x in ((pts, w), (pts[::2], w.reshape(-1, 2, 2).sum(axis=1))))
    got, peak = _traced_peak(lambda: mk_star_exact(a, b))
    assert got > 0.0
    assert peak / _operands(a, b) <= _MK_STAR_PEAK_RATIO


def test_variation_distance_stays_within_its_memory_bound():
    rng = np.random.default_rng(53)

    def generated(n):
        cuts = np.sort(rng.uniform(0.0, 1.0, n + 1))
        return VectorMeasure._from_arrays(
            rng.uniform(0.0, 1.0, n // 8), rng.standard_normal((n // 8, 2)),
            cuts[:-1], cuts[1:], rng.standard_normal((n, 2)), 2)

    a, b = generated(200_000), generated(200_000)
    got, peak = _traced_peak(lambda: a.variation_distance(b))
    assert got == _one_pass_variation_distance(a, b)
    assert peak / _operands(a, b) <= _VARIATION_PEAK_RATIO
