"""Property tests: the canonical form of ``QuerySet`` on a dyadic grid."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from ifsmeasure import QuerySet  # noqa: E402

# endpoints and points on a dyadic grid, so touching ends, points at span
# ends and degenerate spans are all drawn often; probes at the grid points
# and the midpoints between them see every span end and every open gap
GRID = 16
points = st.integers(0, GRID).map(lambda k: k / GRID)
PROBES = [k / (2 * GRID) for k in range(2 * GRID + 1)]

raw_spans = st.lists(
    st.tuples(points, points, st.booleans(), st.booleans()).map(
        lambda t: (min(t[0], t[1]), max(t[0], t[1]), t[2], t[3])),
    max_size=6)
raw_atoms = st.lists(points, max_size=4)

SETTINGS = hypothesis.settings(max_examples=200, deadline=None,
                               derandomize=True, database=None)


def _raw_contains(spans, atoms, t):
    """Pointwise OR of the raw input; a half-open [a, a) holds nothing."""
    return t in atoms or any(
        (lo < t or (t == lo and li)) and (t < hi or (t == hi and hi_))
        for lo, hi, li, hi_ in spans)


@SETTINGS
@hypothesis.given(raw_spans, raw_atoms)
def test_membership_is_the_pointwise_or_of_the_input(spans, atoms):
    q = QuerySet(spans, atoms)
    want = [_raw_contains(spans, atoms, t) for t in PROBES]
    assert [q.contains(t) for t in PROBES] == want
    assert list(q.membership(PROBES)) == want


@SETTINGS
@hypothesis.given(raw_spans, raw_atoms)
def test_canonical_form_is_sorted_maximal_and_disjoint(spans, atoms):
    q = QuerySet(spans, atoms)
    assert all(s.lo < s.hi for s in q.spans)
    for a, b in zip(q.spans, q.spans[1:]):
        # strictly increasing; a shared end point must belong to neither
        assert a.hi <= b.lo
        assert a.hi < b.lo or not (a.hi_incl or b.lo_incl)
    assert list(q.atoms) == sorted(set(q.atoms))
    assert not any(s.lo <= a <= s.hi for s in q.spans for a in q.atoms)


@SETTINGS
@hypothesis.given(raw_spans, raw_atoms, st.data())
def test_equal_point_sets_give_equal_sets(spans, atoms, data):
    q = QuerySet(spans, atoms)
    same = [QuerySet(data.draw(st.permutations(spans)),
                     data.draw(st.permutations(atoms)))]
    wide = [i for i, s in enumerate(spans) if s[1] - s[0] >= 2 / GRID]
    if wide:
        # split a span at an inner grid point that one side keeps
        i = data.draw(st.sampled_from(wide))
        lo, hi, li, hi_ = spans[i]
        k = data.draw(st.integers(round(lo * GRID) + 1, round(hi * GRID) - 1))
        m, left = k / GRID, data.draw(st.booleans())
        split = [(lo, m, li, left), (m, hi, not left, hi_)]
        same.append(QuerySet(spans[:i] + split + spans[i + 1:], atoms))
    covered = [t for t in PROBES if q.contains(t)]
    if covered:
        t = data.draw(st.sampled_from(covered))
        same.append(QuerySet(spans, atoms + [t]))
    for other in same:
        assert other == q and hash(other) == hash(q)
