"""Tests for query sets and affine self-maps of [0, 1]."""

import warnings

import numpy as np
import pytest

from ifsmeasure import AffineMap, QuerySet, preimage
from ifsmeasure.space import Span


def test_query_set_merges_overlaps():
    q = QuerySet(intervals=[(0.0, 0.5), (0.4, 0.8)])
    assert len(q.spans) == 1
    assert q.spans[0].lo == 0.0 and q.spans[0].hi == 0.8


def test_query_set_merges_touching_when_closed():
    q = QuerySet(intervals=[(0.0, 0.5), (0.5, 1.0)])
    assert len(q.spans) == 1
    # open endpoints meeting at the same point do not merge
    q2 = QuerySet(intervals=[(0.0, 0.5, True, False), (0.5, 1.0, False, True)])
    assert len(q2.spans) == 2
    assert not q2.contains(0.5)
    # an atom at the junction closes the gap
    q3 = QuerySet(intervals=[(0.0, 0.5, True, False), (0.5, 1.0, False, True)],
                  atoms=[0.5])
    assert len(q3.spans) == 1 and not q3.atoms


def test_closed_start_sorts_before_open_start():
    # in plain tuple order the open span at .25 sorts first, and the sweep,
    # which never merges backwards, would leave (0, .25) and [.25, .75) apart
    q = QuerySet(intervals=[(0.0, 0.25, False, False),
                            (0.25, 0.375, False, True),
                            (0.25, 0.75, True, False)])
    assert q.spans == (Span(0.0, 0.75, False, False),) and not q.atoms


def test_query_set_absorbs_interior_atoms():
    q = QuerySet(intervals=[(0.2, 0.8)], atoms=[0.5, 0.2, 0.9])
    assert q.atoms == (0.9,)
    assert q.contains(0.5) and q.contains(0.9)
    assert not q.contains(0.85)


def test_degenerate_interval_becomes_atom():
    q = QuerySet(intervals=[(0.5, 0.5)])
    assert not q.spans and q.atoms == (0.5,)
    # degenerate with an open end is empty
    q2 = QuerySet(intervals=[(0.5, 0.5, True, False)])
    assert q2.is_empty


def test_query_set_rejects_what_lies_outside_the_unit_interval():
    for bad in ([(0.5, 0.25)], [(-0.2, 0.5)], [(0.5, 1.2, True, False)]):
        with pytest.raises(ValueError):
            QuerySet(intervals=bad)
    with pytest.raises(ValueError):
        QuerySet(atoms=[1.5])
    with pytest.raises(ValueError):
        QuerySet(intervals=[(0.1, 0.2, 0.3)])


def test_query_set_equality_and_hash():
    a = QuerySet(intervals=[(0.0, 0.5), (0.5, 1.0)])
    b = QuerySet.unit()
    assert a == b and hash(a) == hash(b)
    c = QuerySet.open(0.0, 1.0)
    assert a != c


def test_query_set_serialization_round_trip():
    q = QuerySet(intervals=[(0.1, 0.4, True, False), (0.6, 0.9)], atoms=[0.5])
    back = QuerySet.from_dict(q.to_dict())
    assert back == q


def test_query_set_from_json_reads_flags_as_booleans():
    q = QuerySet.from_dict({"intervals": [[0.0, 0.5, False, False]],
                            "atoms": [1]})
    assert q == QuerySet(intervals=[(0.0, 0.5, False, False)], atoms=[1.0])
    for bad in ({"intervals": [[0.0, 0.5, "false", "false"]]},
                {"atoms": [True]}, {"intervals": [[False, 0.5]]}):
        with pytest.raises(ValueError, match="spec|got"):
            QuerySet.from_dict(bad)


def _brute_membership(q, ts):
    return np.array([q.contains(float(t)) for t in ts])


def test_membership_matches_contains_at_endpoints():
    q = QuerySet(intervals=[(0.25, 0.5, False, True)], atoms=[0.75])
    ts = np.array([0.25, 0.3, 0.5, 0.75, 0.8])
    assert [q.contains(t) for t in ts] == [False, True, True, True, False]


def test_affine_map_validation_and_call():
    m = AffineMap(1 / 3, 2 / 3)
    assert m(0.0) == 2 / 3 and m(1.0) == 1.0
    assert m.lipschitz == 1 / 3
    with pytest.raises(ValueError):
        AffineMap(1.0, 0.5)  # leaves the unit interval


def test_preimage_positive_slope():
    m = AffineMap(1 / 3, 2 / 3)  # t -> t/3 + 2/3
    q = preimage(m, QuerySet.closed(0.0, 1.0))
    assert q == QuerySet.unit()
    q2 = preimage(m, QuerySet.closed(0.0, 0.5))
    assert q2.is_empty  # map range starts at 2/3
    q3 = preimage(m, QuerySet.point(2 / 3))
    assert q3 == QuerySet.point(0.0)


def test_preimage_negative_slope_swaps_flags():
    m = AffineMap(-0.5, 1.0)  # t -> 1 - t/2, range [1/2, 1]
    q = preimage(m, QuerySet(intervals=[(0.5, 0.75, True, False)]))
    # solves 0.5 <= 1 - t/2 < 0.75  =>  0.5 < t <= 1
    assert len(q.spans) == 1
    s = q.spans[0]
    assert (s.lo, s.hi, s.lo_incl, s.hi_incl) == (0.5, 1.0, False, True)


def test_preimage_zero_slope_is_all_or_nothing():
    m = AffineMap(0.0, 0.3)
    assert preimage(m, QuerySet.closed(0.2, 0.4)) == QuerySet.unit()
    assert preimage(m, QuerySet.closed(0.5, 0.9)).is_empty


def test_preimage_of_a_map_too_flat_to_move_its_offset_is_all_or_nothing():
    # 5e-324 t + 0.5 rounds to 0.5 on all of [0, 1], as pushforward sends
    # it; 5e-324 t moves 0 to the smallest subnormal and still overflows
    # the division, so its far ends are clipped without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = AffineMap(5e-324, 0.5)
        assert preimage(m, QuerySet.closed(0.0, 0.5)) == QuerySet.unit()
        assert preimage(m, QuerySet.closed(0.0, 0.25)).is_empty
        assert preimage(AffineMap(5e-324, 0.0),
                        QuerySet.closed(0.0, 0.5)) == QuerySet.unit()


def test_preimage_membership_agrees_with_composition():
    rng = np.random.default_rng(7)
    grid = np.linspace(0.0, 1.0, 301)
    for _ in range(25):
        s = rng.uniform(-0.5, 0.5)
        o = rng.uniform(0, 0.5) if s >= 0 else rng.uniform(-s, 1.0)
        if not (0 <= o <= 1 and 0 <= s + o <= 1):
            continue
        m = AffineMap(s, o)
        b = QuerySet(intervals=[tuple(sorted(rng.uniform(0, 1, 2)))],
                     atoms=[float(m(rng.uniform()))])
        pre = preimage(m, b)
        direct = np.array([b.contains(float(m(t))) for t in grid])
        assert np.array_equal(_brute_membership(pre, grid), direct)


def test_span_contains_respects_flags():
    s = Span(0.2, 0.4, False, True)
    assert not s.contains(0.2) and s.contains(0.4) and s.contains(0.3)
