"""Tests for continuously indexed decay families and their fixed points."""

import numpy as np
import pytest

from ifsmeasure import (ContinuousFunction, DimensionMismatch, VectorMeasure,
                        combine, constant_map_transfer,
                        countable_series_fixed_point,
                        countable_series_residual, exp_decay_fixed_point,
                        hc_quadrature, matrix_exp, operator_norm,
                        transfer_residual)

# integral of exp(-theta)/(1+theta) over [0, inf), frozen from a
# high-precision evaluation (exponential-integral identity); re-derived
# below when mpmath is installed
EXP_HARMONIC = 0.596347362323194074


def test_reference_constant_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    val = mp.e * mp.e1(1)
    assert abs(float(val) - EXP_HARMONIC) < 1e-16


def test_hc_quadrature_matches_reference_integral():
    x = np.array([1.0, -0.5])
    f = ContinuousFunction(lambda s: s * x, dim=2,
                           sup_bound=float(np.linalg.norm(x)))
    for t in (0.25, 1.0):
        got = hc_quadrature(f, t, tol=1e-10)
        assert np.abs(got - t * x * EXP_HARMONIC).max() < 1e-8


def test_constant_map_transfer_zero_measure_vanishes():
    f = ContinuousFunction(lambda s: np.array([s, s]), dim=2, sup_bound=2.0)
    out = constant_map_transfer(2.0, lambda th: 0.5, VectorMeasure.zero(2), f)
    assert out == 0.0


def test_constant_map_transfer_constant_target_closed_form():
    # phi = c: the pairing is (f(c), total) times integral e^(-rate theta)
    rng = np.random.default_rng(1)
    nu = VectorMeasure(atoms=[(0.4, rng.standard_normal(2))],
                       pieces=[((0.0, 1.0), rng.standard_normal(2))])
    f = ContinuousFunction(lambda s: np.array([s, s ** 2]), dim=2,
                           sup_bound=2.0)
    for rate, c in ((1.5, 0.3), (0.5, 1.0), (4.0, 0.0)):
        got = constant_map_transfer(rate, lambda th: c, nu, f, tol=1e-11)
        want = np.dot(f(c), nu.total()) / rate
        assert abs(got - want) <= 1e-11


def test_constant_map_transfer_requires_positive_rate():
    f = ContinuousFunction(lambda s: np.array([s]), dim=1, sup_bound=1.0)
    nu = VectorMeasure.dirac(0.5, np.array([1.0]))
    for rate in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="rate must be positive"):
            constant_map_transfer(rate, lambda th: 0.5, nu, f)
    with pytest.raises(DimensionMismatch):
        constant_map_transfer(1.0, lambda th: 0.5,
                              VectorMeasure.dirac(0.5, np.array([1.0, 1.0])), f)


def test_exp_decay_fixed_point_structure():
    base = VectorMeasure(atoms=[(0.5, np.array([0.25, 0.0]))],
                         pieces=[((0.0, 1.0), np.array([0.0, 0.25]))])
    mu = exp_decay_fixed_point(2.0, 0.0, base)
    # base plus one extra atom at the target carrying total/(rate-1)
    extra = combine(1.0, mu, -1.0, base)
    assert extra.n_atoms == 1 and extra.n_pieces == 0
    assert extra.atom_points[0] == 0.0
    assert np.abs(extra.total() - base.total()).max() < 1e-14


def test_exp_decay_fixed_point_residual_small():
    base = VectorMeasure(atoms=[(0.5, np.array([0.25, 0.0]))],
                         pieces=[((0.0, 1.0), np.array([0.0, 0.25]))])
    mu = exp_decay_fixed_point(2.0, 0.0, base)
    assert transfer_residual(2.0, 0.0, base, mu) < 1e-10
    # a perturbed candidate must show a visibly larger residual
    off = combine(1.0, mu, 1.0, VectorMeasure.dirac(0.0, np.array([0.01, 0.0])))
    assert transfer_residual(2.0, 0.0, base, off) > 1e-3


def test_exp_decay_fixed_point_preconditions():
    base = VectorMeasure.dirac(0.5, np.array([1.0]))
    for rate in (1.0, 0.5, float("nan")):
        with pytest.raises(ValueError):
            exp_decay_fixed_point(rate, 0.0, base)
    exp_decay_fixed_point(2.0, 0.0, base)


def test_countable_series_fixed_point_residual():
    rng = np.random.default_rng(2)
    pts = [1.0 / (k + 2.0) for k in range(60)]
    for _ in range(6):
        p = rng.standard_normal((3, 3))
        p *= 2.0 / max(operator_norm(p), 1e-9) * rng.uniform(0.2, 1.0)
        base = VectorMeasure(atoms=[(0.3, rng.standard_normal(3))],
                             pieces=[((0.0, 1.0), rng.standard_normal(3))])
        mu = countable_series_fixed_point(p, pts, base, tol=1e-10)
        assert countable_series_residual(p, pts, base, mu) < 2e-10


def test_countable_series_total_matches_exponential():
    rng = np.random.default_rng(3)
    p = rng.standard_normal((2, 2)) * 0.5
    base = VectorMeasure.dirac(0.9, np.array([1.0, -2.0]))
    pts = [1.0 / (k + 2.0) for k in range(60)]
    mu = countable_series_fixed_point(p, pts, base, tol=1e-12)
    # summing the closed-form atoms telescopes the exponential series:
    # total = base total + (I - exp(-P)) exp(-P)... collapses to exp(-P) b
    want = matrix_exp(p, -1.0) @ base.total()
    assert np.abs(mu.total() - want).max() < 1e-10


def test_countable_series_input_validation():
    p = 0.5 * np.eye(2)
    base = VectorMeasure.dirac(0.5, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        countable_series_fixed_point(p, [0.1, 0.1, 0.2], base)
    with pytest.raises(ValueError):
        countable_series_fixed_point(p, [0.1, 0.2], base, tol=1e-14)
    with pytest.raises(DimensionMismatch):
        countable_series_fixed_point(np.eye(3), [0.1, 0.2, 0.3], base)
