"""Property tests on generated systems and measures: the change-of-variables
identity through ``dual_apply``, ``mk_star_exact`` against the variation
norm, and the dictionary and JSON round trips."""

import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from ifsmeasure import (IFSystem, VectorMeasure, apply_markov,  # noqa: E402
                        dual_apply, integrate, mk_star_exact,
                        vector_polynomial)

SETTINGS = hypothesis.settings(max_examples=60, deadline=None,
                               derandomize=True, database=None)
GRID = (0.0, 0.1, 0.25, 1 / 3, 0.5, 2 / 3, 0.75, 0.9, 1.0)
points = st.one_of(st.sampled_from(GRID),
                   st.floats(0.0, 1.0, allow_nan=False))


def coefficients(dim, field, bound=10.0):
    parts = 2 if field == "complex" else 1
    return st.lists(st.floats(-bound, bound), min_size=dim * parts,
                    max_size=dim * parts).map(
        lambda c: np.array(c[:dim]) + (1j * np.array(c[dim:])
                                       if field == "complex" else 0.0))


@st.composite
def measures(draw, dim=None, field=None):
    dim = dim or draw(st.integers(1, 3))
    field = field or draw(st.sampled_from(["real", "complex"]))
    coeff = coefficients(dim, field)
    atoms = draw(st.lists(st.tuples(points, coeff), max_size=6))
    pieces = draw(st.lists(
        st.tuples(st.tuples(points, points).map(sorted), coeff), max_size=6))
    return VectorMeasure(atoms=atoms, pieces=pieces, dim=dim, field=field)


@st.composite
def affine_maps(draw):
    # slopes include 0 (a constant map) and negative values
    slope = draw(st.one_of(st.sampled_from([0.0, 0.5, -0.5, 1 / 3]),
                           st.floats(-0.6, 0.6)))
    lo, hi = (0.0, 1.0 - slope) if slope >= 0.0 else (-slope, 1.0)
    return slope, draw(st.floats(lo, hi))


@st.composite
def systems_measures_integrands(draw):
    dim = draw(st.integers(1, 2))
    field = draw(st.sampled_from(["real", "complex"]))
    maps = draw(st.lists(affine_maps(), min_size=1, max_size=4))
    ops = [np.array([draw(coefficients(dim, field, 1.0)) for _ in range(dim)])
           for _ in maps]
    base = draw(st.one_of(st.none(), measures(dim, field)))
    sys = IFSystem(maps, ops, base=base, dim=dim, field=field)
    degree = draw(st.integers(0, 3))
    f = vector_polynomial(np.array([draw(coefficients(dim, field, 2.0))
                                    for _ in range(degree + 1)]))
    return sys, draw(measures(dim, field)), f


@SETTINGS
@hypothesis.given(systems_measures_integrands())
def test_change_of_variables_on_generated_systems(case):
    # integral f d(M nu) = integral (dual f) d nu + integral f d mu0
    sys, nu, f = case
    lhs = integrate(f, apply_markov(sys, nu), tol=1e-12)
    rhs = integrate(dual_apply(sys, f), nu, tol=1e-12)
    if sys.base is not None:
        rhs += integrate(f, sys.base, tol=1e-12)
    scale = f.sup_bound * (sum(np.linalg.norm(r, 2) for r in sys.operators)
                           * nu.variation_norm()
                           + (sys.base.variation_norm() if sys.base else 0.0))
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, scale)


@SETTINGS
@hypothesis.given(measures(), points)
def test_mk_star_never_exceeds_the_variation_norm(mu, t):
    # mk_star = integral ||F|| over [0, 1] <= sup ||F|| <= ||mu||_var
    zero_total = mu - VectorMeasure.dirac(t, mu.total())
    assert (mk_star_exact(zero_total)
            <= zero_total.variation_norm() * (1.0 + 1e-12))


@SETTINGS
@hypothesis.given(measures())
def test_dict_and_json_round_trips(mu):
    assert VectorMeasure.from_dict(mu.to_dict()) == mu
    assert VectorMeasure.from_dict(json.loads(json.dumps(mu.to_dict()))) == mu
