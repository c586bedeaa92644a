"""Coefficient rows on numpy's fast paths, pinned to the bit.

Row gathers go through ``take`` and short rows are summed column by
column (``hilbert._fold_columns``).  The closed-form panel integral and
the row norms are checked here against the formulas they replaced, kept
as oracles: a reduction along the short axis (``np.sum(..., axis=1)``),
of Re (f0, rho) written out in real products as ``hilbert._pairings``
forms it, and, for the norms, a copy of |a| first.  The zero-total check of
``mk_star_exact`` now reads F(1), which ``panels()`` computes, in place
of ``mu.total()``: the two agree to the bit for dim >= 2, and for dim 1,
where numpy sums the contiguous atom column pairwise, within rounding.
"""

import numpy as np
import pytest

from ifsmeasure import VectorMeasure
from ifsmeasure.hilbert import _row_norms
from ifsmeasure.mk_norm import _segment_norm_integral

_NORM_LO, _NORM_HI = 1e-150, 1e150


def _row_norms_by_copy(a):
    """``_row_norms`` as written with |a| copied first and the rescaled
    rows reduced along the short axis."""
    mag = np.abs(a)
    with np.errstate(over="ignore"):
        sq = mag[:, 0] ** 2
        for j in range(1, a.shape[1]):
            sq += mag[:, j] ** 2
        out = np.sqrt(sq)
    odd = (out < _NORM_LO) | (out > _NORM_HI)
    if odd.any():
        nonzero = mag[:, 0] > 0.0
        for j in range(1, a.shape[1]):
            nonzero |= mag[:, j] > 0.0
        odd &= nonzero
    if odd.any():
        m = mag[odd]
        top = np.max(m, axis=1)
        out[odd] = np.sqrt(np.sum((m / top[:, None]) ** 2, axis=1)) * top
    return out


@np.errstate(over="ignore", invalid="ignore")
def _segment_by_axis_sums(f0, rho, h):
    """``_segment_norm_integral`` as written with its sums taken along the
    short axis and its lanes gathered by fancy and boolean indexing."""
    a = np.sum(np.abs(rho) ** 2, axis=1)
    c = np.sum(np.abs(f0) ** 2, axis=1)
    odd = np.maximum(a, c)
    odd = np.flatnonzero((odd > 2.0 ** 400) | ((odd < 2.0 ** -400) & (
        np.any(f0 != 0, axis=1) | np.any(rho != 0, axis=1))))
    e = np.clip(np.frexp(np.max(np.abs(np.hstack([f0[odd], rho[odd]])),
                                axis=1, initial=0.0))[1], -1000, 1000)
    odd, scale = odd[e != 0], np.ldexp(1.0, -e[e != 0])[:, None]
    rescaled = scale[:, 0] if not len(odd) else _segment_by_axis_sums(
        f0[odd] * scale, rho[odd] * scale, h[odd]) / scale[:, 0]
    out = np.sqrt(c) * h
    j = np.flatnonzero((a != 0.0) & (np.sqrt(a) * h > 1e-12 * np.sqrt(c)))
    a, c, h = a[j], c[j], h[j]
    b = 2.0 * np.sum(f0[j].real * rho[j].real + f0[j].imag * rho[j].imag,
                     axis=1)
    u = b / (2.0 * a)
    v = u + h
    q = np.maximum(c - b * b / (4.0 * a), 0.0)
    sqrt_a = np.sqrt(a)
    gu = u * np.sqrt(a * u * u + q)
    gv = v * np.sqrt(a * v * v + q)
    k = np.zeros_like(u)
    s = q > 1e-300
    k[s] = sqrt_a[s] / np.sqrt(q[s])
    x, y = k * u, k * v
    term, asinh_diff = np.empty_like(u), np.zeros_like(u)
    inside = (u < 0.0) & (0.0 < v)
    i = np.flatnonzero(inside)
    term[i] = 0.5 * (gv[i] - gu[i])
    asinh_diff[i] = np.arcsinh(y[i]) - np.arcsinh(x[i])
    i = np.flatnonzero(~inside)
    den = gu[i] + gv[i]
    den[den == 0.0] = np.inf
    term[i] = (0.5 * h[i] * (u[i] + v[i])
               * (a[i] * (u[i] * u[i] + v[i] * v[i]) + q[i]) / den)
    i = np.flatnonzero(~inside & s)
    asinh_diff[i] = np.arcsinh(
        k[i] * k[i] * h[i] * (u[i] + v[i])
        / (y[i] * np.sqrt(1.0 + x[i] * x[i]) + x[i] * np.sqrt(1.0 + y[i] * y[i])))
    out[j] = term + q / (2.0 * sqrt_a) * asinh_diff
    out[odd] = rescaled
    return out


def _draw(rng, shape, complex_):
    x = rng.standard_normal(shape)
    return x + 1j * rng.standard_normal(shape) if complex_ else x


def _panels(rng, n, dim, complex_):
    """``(f0, rho, h)`` of n panels: in quarters, the vertex of ||F||
    inside the panel, before it, after it, and flat or zero lanes; one
    lane in four scaled by 2^450 and one by 2^-450, so that its squares
    leave [2^-400, 2^400] and it is evaluated again rescaled."""
    h = rng.uniform(1e-3, 1.0, n)
    rho = _draw(rng, (n, dim), complex_) * 10.0 ** rng.uniform(-3, 3, (n, 1))
    # F passes its vertex at s0 (inside the panel for s0 in (0, h)), off
    # the line through 0 by a small part of the density's direction
    s0 = h * rng.choice([0.5, -2.0, 3.0], n) * rng.uniform(0.1, 0.9, n)
    f0 = -s0[:, None] * rho + 1e-3 * _draw(rng, (n, dim), complex_)
    flat = rng.uniform(size=n) < 0.25
    rho[flat] = 0.0
    f0[flat & (rng.uniform(size=n) < 0.2)] = 0.0
    tag = rng.integers(0, 4, n)
    big, tiny = tag == 1, tag == 2
    f0[big] *= 2.0 ** 450
    rho[big] *= 2.0 ** 450
    f0[tiny] *= 2.0 ** -450
    rho[tiny] *= 2.0 ** -450
    return f0, rho, h


def _rows(rng, n, dim, complex_):
    """n rows: ordinary magnitudes, rows near 1e200 and 1e-300, negative
    entries, zero rows and rows holding a NaN."""
    rows = _draw(rng, (n, dim), complex_) * 10.0 ** rng.uniform(
        -8, 8, (n, dim))
    pick = rng.integers(0, 6, n)
    rows[pick == 1] *= 1e200 / 10.0 ** 8
    rows[pick == 2] *= 1e-300 * 10.0 ** 8
    rows[pick == 3] = 0.0
    rows[np.flatnonzero(pick == 4), rng.integers(0, dim)] = np.nan
    return rows


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("dim", range(1, 8))
def test_panel_integral_keeps_the_bits_of_the_axis_sums(dim, complex_):
    rng = np.random.default_rng(100 + dim)
    f0, rho, h = _panels(rng, 4000, dim, complex_)
    got = _segment_norm_integral(f0, rho, h)
    _assert_same_bits(got, _segment_by_axis_sums(f0, rho, h))
    assert np.isfinite(got).all()


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("dim", range(1, 8))
def test_row_norms_keep_the_bits_of_the_magnitude_copy(dim, complex_):
    rng = np.random.default_rng(200 + dim)
    rows = _rows(rng, 5000, dim, complex_)
    with np.errstate(invalid="ignore"):
        got = _row_norms(rows)
    _assert_same_bits(got, _row_norms_by_copy(rows))
    zero = ~np.any(rows != 0, axis=1)
    nan = np.isnan(rows).any(axis=1)
    assert zero.any() and nan.any()
    assert (got[zero] == 0.0).all() and np.isnan(got[nan]).all()


def _random_measure(rng, dim, complex_, n_atoms, n_pieces):
    pts = rng.uniform(0.0, 1.0, n_atoms)
    cuts = np.sort(rng.uniform(0.0, 1.0, 2 * n_pieces))
    dens = _draw(rng, (n_pieces, dim), complex_)
    return VectorMeasure._from_arrays(
        pts, _draw(rng, (n_atoms, dim), complex_) * 10.0 ** rng.uniform(
            -3, 3, (n_atoms, 1)), cuts[0::2], cuts[1::2], dens, dim)


@pytest.mark.parametrize("complex_", [False, True])
def test_cumulative_at_one_is_the_total(complex_):
    rng = np.random.default_rng(5)
    for dim in (2, 3):
        for _ in range(100):
            mu = _random_measure(rng, dim, complex_,
                                 int(rng.integers(0, 300)),
                                 int(rng.integers(0, 40)))
            assert np.array_equal(mu.panels()[1][-1], mu.total())
    # for dim 1, total() sums the contiguous atom column pairwise and F(1)
    # in order: the same up to rounding, but not always to the bit
    differ = 0
    for _ in range(200):
        mu = _random_measure(rng, 1, complex_, int(rng.integers(50, 300)),
                             int(rng.integers(0, 40)))
        f1, total = mu.panels()[1][-1], mu.total()
        scale = np.abs(mu.atom_weights).sum() + np.abs(
            mu.piece_density[:, 0] * (mu.piece_hi - mu.piece_lo)).sum()
        assert np.abs(f1 - total).max() <= 1e-14 * scale
        differ += not np.array_equal(f1, total)
    assert differ > 0


@pytest.mark.campaign
@pytest.mark.parametrize("complex_", [False, True])
def test_campaign_fast_paths_against_their_oracles(complex_):
    # about 10^6 generated rows of each kind, every dimension below eight
    rng = np.random.default_rng(300 + complex_)
    for dim in range(1, 8):
        f0, rho, h = _panels(rng, 70_000, dim, complex_)
        got = _segment_norm_integral(f0, rho, h)
        _assert_same_bits(got, _segment_by_axis_sums(f0, rho, h))
        rows = _rows(rng, 70_000, dim, complex_)
        with np.errstate(invalid="ignore"):
            _assert_same_bits(_row_norms(rows), _row_norms_by_copy(rows))
