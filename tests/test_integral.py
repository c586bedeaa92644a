"""Tests for integration of simple and continuous functions against measures."""

from fractions import Fraction

import numpy as np
import pytest

from ifsmeasure import (ContinuousFunction, IFSystem, PartitionError,
                        QuerySet, RefinementLimit, SimpleFunction,
                        VectorMeasure, dual_apply, integrate,
                        integrate_simple, vector_polynomial)
from ifsmeasure import _quadrature as quadrature
from ifsmeasure._quadrature import adaptive_gauss
from ifsmeasure.hilbert import _pairings, _row_norms


def test_simple_function_requires_a_partition():
    good = SimpleFunction(
        cells=[QuerySet(intervals=[(0.0, 0.5, True, False)]),
               QuerySet.closed(0.5, 1.0)],
        values=[np.array([1.0]), np.array([2.0])])
    good.validate_partition()
    overlapping = SimpleFunction(
        cells=[QuerySet.closed(0.0, 0.6), QuerySet.closed(0.5, 1.0)],
        values=[np.array([1.0]), np.array([2.0])])
    with pytest.raises(PartitionError):
        overlapping.validate_partition()
    gappy = SimpleFunction(
        cells=[QuerySet.closed(0.0, 0.4), QuerySet.closed(0.5, 1.0)],
        values=[np.array([1.0]), np.array([2.0])])
    with pytest.raises(PartitionError):
        gappy.validate_partition()


def test_vector_polynomial_bounds_hold_outside_the_range_of_a_square():
    # 5e200 squared overflows: the bounds are the coefficient norms
    f = vector_polynomial([[0, 0], [3e200, 4e200]])
    assert f.sup_bound == pytest.approx(5e200, rel=1e-15)
    assert f.lip_bound == pytest.approx(5e200, rel=1e-15)


def test_vector_polynomial_bounds_dominate_the_exact_norm():
    # the doubles 3e200 and 4e200 have the norm 4.99999999999999984866e200;
    # rounded to nearest it reads 4.9999999999999995e200, below it, so the
    # bounds are rounded up one step
    row = [3e200, 4e200]
    exact_square = sum(Fraction(x) ** 2 for x in row)
    assert Fraction(float(_row_norms(np.array([row]))[0])) ** 2 < exact_square
    f = vector_polynomial([[0, 0], row])
    assert Fraction(f.sup_bound) ** 2 >= exact_square
    assert Fraction(f.lip_bound) ** 2 >= exact_square


_EIGHTHS = np.linspace(0.0, 1.0, 9)


def _random_cells(rng):
    """[0, 1] cut at random eighths, each cut owned by the span on its
    left, on its right, or by an isolated point; half the time one end
    flag flips, one item drops or a stray span or point joins; the items
    are dealt to one to four cells, some of which stay empty."""
    cuts = sorted(rng.choice(_EIGHTHS[1:-1], int(rng.integers(0, 5)),
                             replace=False))
    ends = [0.0, *cuts, 1.0]
    owner = [1, *rng.integers(0, 3, len(cuts)), 0]  # 0 left, 1 right, 2 point
    items = [[ends[i], ends[i + 1], owner[i] == 1, owner[i + 1] == 0]
             for i in range(len(ends) - 1)]
    items += [[t, t, True, True] for t, o in zip(ends, owner) if o == 2]
    change = int(rng.integers(6))
    if change == 0:
        items[int(rng.integers(len(items)))][2 + int(rng.integers(2))] ^= True
    elif change == 1:
        items.pop(int(rng.integers(len(items))))
    elif change == 2:
        lo, hi = sorted(rng.choice(_EIGHTHS, 2))
        items.append([lo, hi, bool(rng.integers(2)), bool(rng.integers(2))])
    n = int(rng.integers(1, 5))
    deal = rng.integers(0, n, len(items))
    return [QuerySet(intervals=[s for s, k in zip(items, deal) if k == c])
            for c in range(n)]


def test_validate_partition_matches_pointwise_membership():
    # every end lies on an eighth, so membership is constant between
    # sixteenths: the cells partition [0, 1] exactly when each sixteenth
    # lies in exactly one of them
    rng = np.random.default_rng(42)
    grid = np.linspace(0.0, 1.0, 17)
    verdicts = []
    for _ in range(400):
        cells = _random_cells(rng)
        f = SimpleFunction(cells=cells, values=[np.zeros(1)] * len(cells))
        want = all(sum(c.contains(float(t)) for c in cells) == 1
                   for t in grid)
        try:
            f.validate_partition()
            verdicts.append(True)
        except PartitionError:
            verdicts.append(False)
        assert verdicts[-1] == want
    assert 100 <= sum(verdicts) <= 300


def test_validate_partition_names_where_many_cells_fail():
    n = 2000
    cells = [QuerySet(intervals=[(i / n, (i + 1) / n, True, i == n - 1)])
             for i in range(n)]
    SimpleFunction(cells=cells, values=[np.zeros(1)] * n).validate_partition()
    cells[7] = QuerySet.open(7 / n, 8 / n)
    with pytest.raises(PartitionError, match="at 0.0035"):
        SimpleFunction(cells=cells,
                       values=[np.zeros(1)] * n).validate_partition()


def test_integrate_simple_exact_value():
    f = SimpleFunction(
        cells=[QuerySet(intervals=[(0.0, 0.5, True, False)]),
               QuerySet.closed(0.5, 1.0)],
        values=[np.array([1.0, 0.0]), np.array([0.0, 2.0])])
    mu = VectorMeasure(atoms=[(0.5, np.array([1.0, 1.0]))],
                       pieces=[((0.0, 1.0), np.array([1.0, 1.0]))])
    # pairing sums (value, measure-of-cell): cell1 sees only density mass,
    # cell2 sees density plus the atom
    got = integrate_simple(f, mu)
    want = 1.0 * 0.5 + 2.0 * (0.5 + 1.0)
    assert got == pytest.approx(want, abs=1e-14)


def test_integrate_simple_conjugates_the_measure_side():
    f = SimpleFunction(cells=[QuerySet.unit()], values=[np.array([1j])])
    mu = VectorMeasure(atoms=[(0.5, np.array([1j]))], field="complex")
    # (f, w) = f * conj(w)
    assert integrate_simple(f, mu) == pytest.approx(1j * np.conj(1j))


def test_vector_polynomial_bounds_are_certified():
    coeffs = [np.array([1.0, -1.0]), np.array([0.0, 2.0]),
              np.array([3.0, 0.0])]
    f = vector_polynomial(coeffs)
    ts = np.linspace(0, 1, 500)
    vals = np.array([f(t) for t in ts])
    sup = np.linalg.norm(vals, axis=1).max()
    assert sup <= f.sup_bound + 1e-12
    lips = np.linalg.norm(np.diff(vals, axis=0), axis=1) / np.diff(ts)
    assert lips.max() <= f.lip_bound + 1e-9


def test_continuous_function_validates_shape():
    f = ContinuousFunction(lambda t: np.stack([t, t], axis=1), dim=2, sup_bound=2.0)
    assert f(0.5).shape == (2,)
    bad = ContinuousFunction(lambda t: t[:, None], dim=2, sup_bound=1.0)
    with pytest.raises(ValueError):
        bad(0.5)


def test_integrate_atoms_only_is_exact():
    f = vector_polynomial([np.array([0.0, 1.0]), np.array([1.0, 0.0])])
    mu = VectorMeasure(atoms=[(0.25, np.array([2.0, 0.0])),
                              (0.5, np.array([0.0, 4.0]))])
    # sum of (f(t), conj(weight))
    want = (f(0.25) @ np.array([2.0, 0.0])) + (f(0.5) @ np.array([0.0, 4.0]))
    assert integrate(f, mu) == pytest.approx(want, abs=1e-14)


def test_integrate_polynomial_against_density():
    f = vector_polynomial([np.array([0.0]), np.array([0.0]), np.array([3.0])])
    mu = VectorMeasure.lebesgue(np.array([2.0]))
    # integral of 3 t^2 * 2 dt = 2
    assert integrate(f, mu, tol=1e-12) == pytest.approx(2.0, abs=1e-11)


def test_integrate_splits_budget_across_pieces():
    f = vector_polynomial([np.array([1.0]), np.array([1.0])])
    mu = VectorMeasure(pieces=[((0.0, 0.25), np.array([1.0])),
                               ((0.5, 1.0), np.array([-2.0]))])
    want = ((0.25 + 0.25 ** 2 / 2) * 1.0
            + ((1.0 + 0.5) - (0.5 + 0.125)) * -2.0)
    assert integrate(f, mu, tol=1e-12) == pytest.approx(want, abs=1e-11)


def test_integrate_complex_measure():
    f = ContinuousFunction(lambda t: np.exp(1j * t)[:, None], dim=1,
                           sup_bound=1.0)
    mu = VectorMeasure(pieces=[((0.0, 1.0), np.array([1j]))], field="complex")
    want = (np.exp(1j) - 1.0) / 1j * np.conj(1j)
    assert integrate(f, mu, tol=1e-12) == pytest.approx(want, abs=1e-10)


def test_adaptive_gauss_handles_kinks():
    val = adaptive_gauss(lambda t: abs(t - 1 / 3), 0.0, 1.0, 1e-12)
    want = (1 / 3) ** 2 / 2 + (2 / 3) ** 2 / 2
    assert val == pytest.approx(want, abs=1e-11)


def test_adaptive_gauss_panel_budget(monkeypatch):
    # highly oscillatory integrand with an absurd tolerance and a tiny
    # panel budget must refuse rather than return a wrong answer
    import ifsmeasure._quadrature as quadrature
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 4)
    with pytest.raises(RefinementLimit):
        adaptive_gauss(lambda t: np.sin(1000.0 * t), 0.0, 1.0, 1e-14)


def test_adaptive_gauss_rejects_non_finite():
    with np.errstate(divide="ignore"):
        with pytest.raises(ValueError):
            adaptive_gauss(lambda t: 1.0 / (t - 0.5), 0.0, 1.0, 1e-8)


def _sequential_panel(f, a, b):
    """A panel the way a loop over its nodes takes it: one integrand call
    per node, the weighted values added in node order."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    total = None
    for x, w in zip(quadrature._NODES, quadrature._WEIGHTS):
        v = f(np.array([mid + half * x]))[0]
        total = w * v if total is None else total + w * v
    return half * total


def _panel_integrands(dim, field, rng):
    def draw(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if field == "complex" else x
    poly = vector_polynomial(draw(4, dim))
    sys = IFSystem([(0.3, 0.0), (-0.4, 0.9), (0.5, 0.5)],
                   [0.3 * draw(dim, dim) for _ in range(3)], field=field)
    dual = dual_apply(sys, poly)
    dens = draw(dim)
    # the integrand integrate hands to the quadrature for a piece
    return [poly, dual, lambda t: _pairings(dual(t), dens),
            lambda t: np.exp(-3.0 * t) * np.sin(7.0 * t)]


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_panel_is_the_sequential_node_sum_to_the_bit(dim, field):
    rng = np.random.default_rng(10 * dim + (field == "complex"))
    ends = np.sort(rng.random((20, 2)), axis=1)
    for f in _panel_integrands(dim, field, rng):
        for a, b in ends:
            got, want = quadrature._panel(f, a, b), _sequential_panel(f, a, b)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_panel_calls_the_integrand_once_on_its_nodes():
    calls = []

    def f(t):
        calls.append(t.copy())
        return np.stack([t, 2.0 * t], axis=1)
    quadrature._panel(f, 0.25, 0.75)
    assert len(calls) == 1
    assert calls[0].tobytes() == (0.5 + 0.25 * quadrature._NODES).tobytes()


def test_panel_names_the_first_non_finite_node():
    def f(t):
        out = np.stack([t, t], axis=1)
        out[7:, 1] = np.inf
        out[9, 0] = np.nan
        return out
    with pytest.raises(ValueError, match="non-finite value") as exc:
        quadrature._panel(f, 0.0, 1.0)
    nodes = 0.5 + 0.5 * quadrature._NODES
    assert f"t={nodes[7]!r}" in str(exc.value)


def test_continuous_function_takes_points_and_arrays():
    f = vector_polynomial([np.array([1.0, 0.0]), np.array([0.0, 2.0])])
    t = np.linspace(0.0, 1.0, 5)
    rows = f(t)
    assert rows.shape == (5, 2) and f(0.5).shape == (2,)
    assert rows[2].tobytes() == f(t[2]).tobytes()
    with pytest.raises(ValueError):
        ContinuousFunction(lambda t: t, dim=1, sup_bound=1.0)(t)
