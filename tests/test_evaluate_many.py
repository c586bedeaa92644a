"""Property tests: ``VectorMeasure.evaluate_many`` against a per-set loop."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from ifsmeasure import QuerySet, VectorMeasure  # noqa: E402

# atoms, piece ends and query endpoints are drawn from one grid, so query
# endpoints and flags land exactly on atoms and on piece boundaries
GRID = (0.0, 0.1, 0.25, 1 / 3, 0.5, 2 / 3, 0.75, 0.9, 1.0)
points = st.one_of(st.sampled_from(GRID),
                   st.floats(0.0, 1.0, allow_nan=False))


def _reference(mu, B):
    """mu(B) one set at a time: masked atom sum plus per-span overlaps."""
    out = np.zeros(mu.dim, dtype=mu.atom_weights.dtype)
    inside = np.array([B.contains(t) for t in mu.atom_points], dtype=bool)
    out += mu.atom_weights[inside].sum(axis=0)
    for s in B.spans:
        ov = np.clip(np.minimum(mu.piece_hi, s.hi)
                     - np.maximum(mu.piece_lo, s.lo), 0.0, None)
        out += (mu.piece_density * ov[:, None]).sum(axis=0)
    return out


@st.composite
def query_sets(draw):
    spans = draw(st.lists(
        st.tuples(points, points, st.booleans(), st.booleans()).map(
            lambda t: (min(t[0], t[1]), max(t[0], t[1]), t[2], t[3])),
        max_size=4))
    return QuerySet(intervals=spans, atoms=draw(st.lists(points, max_size=3)))


@st.composite
def measures_and_sets(draw):
    dim = draw(st.integers(1, 3))
    field = draw(st.sampled_from(["real", "complex"]))
    parts = 2 if field == "complex" else 1
    coeff = st.lists(st.floats(-10.0, 10.0), min_size=dim * parts,
                     max_size=dim * parts).map(
        lambda c: np.array(c[:dim]) + (1j * np.array(c[dim:])
                                       if field == "complex" else 0.0))
    atoms = draw(st.lists(st.tuples(points, coeff), max_size=8))
    pieces = draw(st.lists(
        st.tuples(st.tuples(points, points).map(sorted), coeff), max_size=6))
    mu = VectorMeasure(atoms=atoms, pieces=pieces, dim=dim, field=field)
    sets = draw(st.lists(query_sets(), max_size=6))
    sets += [QuerySet.empty(), QuerySet(atoms=draw(st.lists(points,
                                                            max_size=3)))]
    return mu, sets


@hypothesis.settings(max_examples=50, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(measures_and_sets())
def test_evaluate_many_matches_per_set_reference(case):
    mu, sets = case
    got = mu.evaluate_many(sets)
    assert got.shape == (len(sets), mu.dim)
    assert got.dtype == mu.atom_weights.dtype
    # prefix-sum differences round against the whole measure's size
    scale = 1.0 + mu.variation_norm()
    for B, row in zip(sets, got):
        assert np.abs(row - _reference(mu, B)).max() <= 1e-13 * scale
        assert np.array_equal(mu.evaluate(B), row)
