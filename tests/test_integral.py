"""Tests for integration of simple and continuous functions against measures."""

import numpy as np
import pytest

from ifsmeasure import (ContinuousFunction, PartitionError, QuerySet,
                        RefinementLimit, SimpleFunction, VectorMeasure,
                        integrate, integrate_simple, vector_polynomial)
from ifsmeasure._quadrature import adaptive_gauss


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
    f = ContinuousFunction(lambda t: np.array([t, t]), dim=2, sup_bound=2.0)
    assert f(0.5).shape == (2,)
    bad = ContinuousFunction(lambda t: np.array([t]), dim=2, sup_bound=1.0)
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
    f = ContinuousFunction(lambda t: np.array([np.exp(1j * t)]), dim=1,
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
