"""Property tests: ``VectorMeasure.cumulative_all`` against an event sweep."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from ifsmeasure import VectorMeasure  # noqa: E402

EPS = float(np.finfo(float).eps)
# atoms and piece ends share one grid, so pieces overlap, touch and hold
# atoms at their ends
GRID = (0.0, 0.1, 0.25, 1 / 3, 0.5, 2 / 3, 0.75, 0.9, 1.0)
points = st.one_of(st.sampled_from(GRID),
                   st.floats(0.0, 1.0, allow_nan=False))


def _sweep(mu, ts):
    """F(t) by an event sweep over the piece endpoints: prefix integrals
    at the events plus the active density within each gap."""
    out = np.zeros((len(ts), mu.dim), dtype=mu.atom_weights.dtype)
    if mu.n_atoms:
        prefix = np.concatenate(
            [np.zeros((1, mu.dim), dtype=mu.atom_weights.dtype),
             np.cumsum(mu.atom_weights, axis=0)])
        out += prefix[np.searchsorted(mu.atom_points, ts, side="right")]
    if mu.n_pieces:
        ev = np.unique(np.concatenate([mu.piece_lo, mu.piece_hi]))
        delta = np.zeros((len(ev), mu.dim), dtype=mu.piece_density.dtype)
        np.add.at(delta, np.searchsorted(ev, mu.piece_lo), mu.piece_density)
        np.subtract.at(delta, np.searchsorted(ev, mu.piece_hi),
                       mu.piece_density)
        active = np.cumsum(delta, axis=0)  # density on [ev[j], ev[j+1])
        prefix = np.concatenate(
            [np.zeros((1, mu.dim), dtype=active.dtype),
             np.cumsum(active[:-1] * np.diff(ev)[:, None], axis=0)])
        pos = np.clip(np.searchsorted(ev, ts, side="right") - 1,
                      0, len(ev) - 1)
        frac = np.clip(ts - ev[pos], 0.0, None)
        out += prefix[pos] + active[pos] * frac[:, None]
    return out


@st.composite
def measures_and_points(draw):
    dim = draw(st.integers(1, 3))
    field = draw(st.sampled_from(["real", "complex"]))
    parts = 2 if field == "complex" else 1
    coeff = st.lists(st.floats(-10.0, 10.0), min_size=dim * parts,
                     max_size=dim * parts).map(
        lambda c: np.array(c[:dim]) + (1j * np.array(c[dim:])
                                       if field == "complex" else 0.0))
    atoms = draw(st.lists(st.tuples(points, coeff), max_size=8))
    pieces = draw(st.lists(
        st.tuples(st.tuples(points, points).map(sorted), coeff), max_size=8))
    mu = VectorMeasure(atoms=atoms, pieces=pieces, dim=dim, field=field)
    # every breakpoint, the float just left of each, and free points
    bps = mu.breakpoints()
    ts = np.concatenate([bps, np.nextafter(bps, -np.inf)[1:],
                         draw(st.lists(points, max_size=8))])
    return mu, np.sort(ts)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(measures_and_points())
def test_cumulative_all_matches_event_sweep(case):
    mu, ts = case
    got = mu.cumulative_all(ts)
    assert got.shape == (len(ts), mu.dim)
    assert got.dtype == mu.atom_weights.dtype
    tol = 4.0 * EPS * (1.0 + mu.variation_norm())
    assert np.abs(got - _sweep(mu, ts)).max(initial=0.0) <= tol
    assert np.array_equal(mu.cumulative(ts[-1]), got[-1])
