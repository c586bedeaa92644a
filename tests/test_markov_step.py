"""The fused Markov step against the composed route, to the bit.

``apply_markov`` sums every map's image arrays, times its operator, and
the base as runs of one ``_summed`` and canonicalises once.  It must give
exactly the measure that ``accumulate`` gives of ``apply_operator(R_i,
pushforward(omega_i, nu))`` and the base: same arrays, same dtypes, same
bits (a zero's sign included), on generated systems that reach every
special case of the image: atoms a rounding apart that land on one
float, pieces flattened to atoms, reversed images, operators that send
coefficients to zero, complex operators and no base.
"""

import numpy as np
import pytest

import ifsmeasure.markov as markov
from ifsmeasure import (AffineMap, IFSystem, VectorMeasure, accumulate,
                        apply_markov, apply_operator, iterate_fixed_point,
                        pushforward)

_ARRAYS = ("atom_points", "atom_weights", "piece_lo", "piece_hi",
           "piece_density")


def _composed(sys, nu):
    terms = [apply_operator(r, pushforward(m, nu))
             for m, r in zip(sys.maps, sys.operators)]
    return accumulate(terms + ([sys.base] if sys.base is not None else []))


def _assert_bitwise_equal(got, want):
    assert got.dim == want.dim
    for name in _ARRAYS:
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), name


def _measure(rng, dim, kernel):
    """Contiguous pieces on [0.05, 0.95] with some left out, widths over
    seventeen decades (small slopes flatten the narrow ones) and
    densities from three rows, neighbours differing, so that a flattened
    piece can leave equal neighbours touching.  Atoms: random points,
    pairs one ulp apart, a point on a piece end, weights with -0.0
    components and weights in the operator kernel ``kernel``."""
    widths = 10.0 ** rng.uniform(-19, -1.5, 14)
    cuts = 0.05 + np.cumsum(np.concatenate([[0.0], widths]))
    cuts = cuts[cuts <= 0.95]
    rows = rng.standard_normal((3, dim))
    idx = [int(rng.integers(0, 3))]
    for _ in range(len(cuts) - 2):
        idx.append(int((idx[-1] + rng.integers(1, 3)) % 3))
    pieces = [((a, b), rows[i]) for a, b, i in zip(cuts[:-1], cuts[1:], idx)
              if rng.random() < 0.85]
    pts = list(rng.uniform(0.0, 1.0, 4))
    pts += [np.nextafter(t, 1.0) for t in pts[:2]]
    pts.append(float(cuts[len(cuts) // 2]))
    wts = rng.standard_normal((len(pts), dim))
    wts[rng.random(wts.shape) < 0.2] = -0.0
    wts[-1] = kernel
    return VectorMeasure(atoms=list(zip(pts, wts)), pieces=pieces, dim=dim)


_MAPS = [
    [(0.3, 0.1), (-0.4, 0.9), (0.25, 0.75)],   # overlapping images
    [(1e-17, 0.0), (1e-17, 0.01), (-1e-17, 0.5)],   # flattened pieces
    [(-1e-17, 1e-17), (-1.0, 1.0), (1e-17, 0.5)],
    [(0.0, 0.2), (0.5, 0.2), (-0.5, 0.7)],      # a constant map
]


@pytest.mark.parametrize("maps", _MAPS)
@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("with_base", [True, False])
def test_fused_step_is_the_composed_route_to_the_bit(maps, field, with_base):
    rng = np.random.default_rng(53)
    dim = 2
    # a singular operator whose kernel holds some atoms, and one that
    # sends everything to zero
    kernel = np.array([1.0, 1.0])
    seen = {"merged": 0, "flattened": 0, "zero_rows": 0}
    for _ in range(12):
        ops = [0.3 * rng.standard_normal((dim, dim)) for _ in maps]
        if field == "complex":
            ops = [r + 0.3j * rng.standard_normal((dim, dim)) for r in ops]
        ops[0] = np.array([[1.0, -1.0], [-2.0, 2.0]]) * 0.2
        if rng.random() < 0.3:
            ops[-1] = np.zeros((dim, dim))
        base = None
        if with_base:
            base = VectorMeasure(atoms=[(0.2, rng.standard_normal(dim))],
                                 pieces=[((0.0, 1.0), rng.standard_normal(dim))])
        sys = IFSystem(maps, ops, base=base, dim=dim, field=field)
        nu = _measure(rng, dim, kernel)
        for m, r in zip(sys.maps, sys.operators):
            image = pushforward(m, nu)
            flat = nu.n_pieces - image.n_pieces
            seen["flattened"] += flat > 0
            seen["merged"] += image.n_atoms < nu.n_atoms + flat
            seen["zero_rows"] += apply_operator(r, image).n_atoms < image.n_atoms
        _assert_bitwise_equal(apply_markov(sys, nu), _composed(sys, nu))
    assert seen["merged"] > 0
    assert seen["zero_rows"] > 0
    if any(abs(s) < 1e-3 for s, _ in maps):
        assert seen["flattened"] > 0


@pytest.mark.parametrize("slope", [0.1, -0.1])
def test_fused_step_multiplies_an_image_merged_to_one_piece(slope):
    # a one-ulp piece between two of equal density flattens, and the
    # image is one piece; a one-row product rounds apart from the same
    # row of a longer one, so the image must merge before the operator
    rng = np.random.default_rng(59)
    for _ in range(40):
        d, a = rng.standard_normal(2) * 10.0 ** rng.uniform(-3, 3), 0.3
        b = np.nextafter(a, 1.0)
        nu = VectorMeasure(pieces=[((0.1, a), d), ((a, b), -d),
                                   ((b, 0.6), d)])
        sys = IFSystem([AffineMap(slope, 0.5)], [rng.standard_normal((2, 2))])
        assert nu.n_pieces == 3
        assert pushforward(sys.maps[0], nu).n_pieces == 1
        _assert_bitwise_equal(apply_markov(sys, nu), _composed(sys, nu))


def test_fused_step_drops_the_atoms_an_operator_zeroes():
    # the image atom at 0.2 is zeroed by the operator; summed with the
    # base atom there it would turn the base's -0.0 into 0.0
    nu = VectorMeasure(atoms=[(0.4, [1.0, 1.0])])
    sys = IFSystem([AffineMap(0.5, 0.0)], [[[0.2, -0.2], [-0.4, 0.4]]],
                   base=VectorMeasure(atoms=[(0.2, [-0.0, 1.0])]))
    got = apply_markov(sys, nu)
    _assert_bitwise_equal(got, _composed(sys, nu))
    assert np.signbit(got.atom_weights[0, 0])


def test_iteration_with_the_composed_step_is_the_same(monkeypatch,
                                                      bench_module):
    doc = bench_module("workloads").overlap_system(1)
    sys = IFSystem(doc["maps"], doc["operators"],
                   base=VectorMeasure.from_dict(doc["base"]), dim=2)
    start = VectorMeasure.zero(2)
    fused = iterate_fixed_point(sys, start, tol=1e-4)
    calls = []

    def composed_step(sys, nu):
        calls.append(nu)
        return _composed(sys, nu)
    monkeypatch.setattr(markov, "apply_markov", composed_step)
    composed = iterate_fixed_point(sys, start, tol=1e-4)
    assert len(calls) == composed.iterations
    _assert_bitwise_equal(fused.measure, composed.measure)
    assert fused.iterations == composed.iterations
    assert fused.error_bound == composed.error_bound
    assert fused.norm == composed.norm
    assert fused.measure.n_pieces > 1000


def test_fused_step_refuses_an_overflow_as_the_composed_route_does():
    # 1e308 over a slope of 0.5 overflows: both routes raise the same error
    nu = VectorMeasure(pieces=[((0.0, 0.5), [1e308])])
    sys = IFSystem([AffineMap(0.5, 0.0)], [np.eye(1)])
    for step in (apply_markov, _composed):
        with pytest.raises(ValueError, match="overflows"):
            step(sys, nu)
