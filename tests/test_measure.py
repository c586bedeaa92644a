"""Tests for the finitely representable vector measure class."""

import json

import numpy as np
import pytest

from ifsmeasure import (AffineMap, FieldMismatch, IFSystem, QuerySet,
                        VectorMeasure, accumulate, apply_operator, combine,
                        operator_norm, prune, pushforward)
from ifsmeasure import measure


def _base_measure():
    """Quarter Lebesgue in the first coordinate, quarter Dirac at 0 in the
    second."""
    return VectorMeasure(atoms=[(0.0, np.array([0.0, 0.25]))],
                         pieces=[((0.0, 1.0), np.array([0.25, 0.0]))])


def test_atoms_at_same_point_merge():
    mu = VectorMeasure(atoms=[(0.5, np.array([1.0])), (0.5, np.array([2.0]))])
    assert mu.n_atoms == 1
    assert mu.evaluate(QuerySet.point(0.5)) == np.array([3.0])


def test_cancelling_atoms_vanish():
    mu = VectorMeasure(atoms=[(0.5, np.array([1.0])), (0.5, np.array([-1.0]))])
    assert mu.is_zero()


def test_overlapping_pieces_split_and_merge():
    mu = VectorMeasure(pieces=[((0.0, 0.6), np.array([1.0])),
                               ((0.4, 1.0), np.array([1.0]))])
    assert mu.evaluate(QuerySet.closed(0.4, 0.6)) == pytest.approx(0.4)
    # densities equal on adjacent segments merge back into one piece
    nu = VectorMeasure(pieces=[((0.0, 0.5), np.array([2.0])),
                               ((0.5, 1.0), np.array([2.0]))])
    assert nu.n_pieces == 1


def test_evaluate_examples():
    d0 = VectorMeasure.dirac(0.0, np.array([1.0, 0.5]))
    assert np.array_equal(d0.evaluate(QuerySet.point(0.0)), [1.0, 0.5])
    assert np.array_equal(d0.evaluate(QuerySet(intervals=[(0, 1, False, True)])),
                          [0.0, 0.0])
    quarter = VectorMeasure.lebesgue(np.array([0.25]))
    assert quarter.evaluate(QuerySet.closed(0.0, 0.5)) == pytest.approx(0.125)
    assert np.allclose(_base_measure().evaluate(QuerySet.unit()), [0.25, 0.25])


def test_evaluate_many_flags_on_atoms_and_piece_runs():
    # atoms on both endpoints of the spans, and a span across three
    # pieces (two partial ends and one whole piece between them)
    mu = VectorMeasure(atoms=[(0.25, np.array([1.0j])), (0.75, np.array([2.0]))],
                       pieces=[((0.0, 0.5), np.array([4.0])),
                               ((0.5, 0.6), np.array([8.0])),
                               ((0.6, 1.0), np.array([16.0j]))])
    sets = [QuerySet(intervals=[(0.25, 0.75, lo, hi)])
            for lo in (True, False) for hi in (True, False)]
    sets += [QuerySet.empty(), QuerySet(atoms=[0.75, 0.3]),
             QuerySet(intervals=[(0.0, 0.25, True, False)], atoms=[0.75])]
    dens = 4.0 * 0.25 + 8.0 * 0.1 + 16.0j * 0.15
    want = [dens + 1j + 2, dens + 1j, dens + 2, dens, 0.0, 2.0, 1.0 + 2.0]
    got = mu.evaluate_many(sets)
    assert got.shape == (len(sets), 1)
    assert np.allclose(got[:, 0], want, rtol=0, atol=1e-15)
    assert mu.evaluate_many([]).shape == (0, 1)


def test_variation_norm_examples():
    v = np.array([3.0, 4.0])
    assert VectorMeasure.dirac(0.3, v).variation_norm() == 5.0
    assert _base_measure().variation_norm() == pytest.approx(0.5)
    two = combine(1.0, VectorMeasure.dirac(0.0, np.array([1.0, 0.0])),
                  -1.0, VectorMeasure.dirac(1.0, np.array([1.0, 0.0])))
    assert two.variation_norm() == pytest.approx(2.0)


def test_total_equals_unit_evaluation():
    rng = np.random.default_rng(2)
    for _ in range(10):
        mu = VectorMeasure(
            atoms=[(t, rng.standard_normal(2)) for t in rng.uniform(0, 1, 3)],
            pieces=[((0.2, 0.7), rng.standard_normal(2))])
        assert np.allclose(mu.total(), mu.evaluate(QuerySet.unit()), atol=1e-14)


def test_pushforward_transports_atoms():
    m = AffineMap(1 / 3, 0.0)
    mu = pushforward(m, VectorMeasure.dirac(1.0, np.array([2.0])))
    assert mu.n_atoms == 1 and mu.atom_points[0] == pytest.approx(1 / 3)


def test_pushforward_rescales_densities():
    m = AffineMap(1 / 3, 0.0)
    mu = pushforward(m, VectorMeasure.lebesgue(np.array([1.0])))
    # mass lands on [0, 1/3] with density 3
    assert mu.evaluate(QuerySet.closed(0.0, 1 / 3)) == pytest.approx(1.0)
    assert mu.evaluate(QuerySet.closed(0.5, 1.0)) == pytest.approx(0.0)
    grid = np.linspace(0, 1, 17)
    for lo, hi in zip(grid, grid[1:]):
        want = max(0.0, min(hi, 1 / 3) - lo) * 3.0
        got = float(mu.evaluate(QuerySet.closed(float(lo), float(hi)))[0])
        assert abs(got - want) < 1e-12


def test_pushforward_constant_map_collapses_to_atom():
    m = AffineMap(0.0, 0.25)
    mu = VectorMeasure(atoms=[(0.9, np.array([1.0]))],
                       pieces=[((0.0, 0.5), np.array([2.0]))])
    out = pushforward(m, mu)
    assert out.n_pieces == 0 and out.n_atoms == 1
    assert np.allclose(out.evaluate(QuerySet.point(0.25)), [2.0])


@pytest.mark.parametrize("slope", [1e-17, -1e-17, 0.0, -0.0])
def test_pushforward_keeps_mass_of_pieces_whose_image_is_a_point(slope):
    # s * lo + o and s * hi + o round to the same float: each piece's mass
    # must land on an atom there, not vanish with the empty image; a
    # constant map takes the same path
    mu = VectorMeasure(atoms=[(0.25, np.array([0.5, 0.0]))],
                       pieces=[((0.0, 1.0), np.array([1.0, -2.0])),
                               ((0.5, 0.75), np.array([2.0, 0.25]))])
    out = pushforward(AffineMap(slope, 0.5), mu)
    assert out.n_pieces == 0 and out.n_atoms == 1
    assert out.atom_points.tolist() == [0.5]
    assert np.array_equal(out.total(), mu.total())


@pytest.mark.parametrize("field", ["point", "lo", "hi", "atom", "density"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_is_rejected(field, bad):
    t, lo, hi, w, d = 0.5, 0.0, 1.0, np.array([1.0]), np.array([1.0])
    t, lo, hi, w, d = (bad if field == "point" else t,
                       bad if field == "lo" else lo,
                       bad if field == "hi" else hi,
                       np.array([bad]) if field == "atom" else w,
                       np.array([bad]) if field == "density" else d)
    with pytest.raises(ValueError, match="non-finite"):
        VectorMeasure(atoms=[(t, w)], pieces=[((lo, hi), d)])


def test_pushforward_preserves_variation_for_injective_maps():
    rng = np.random.default_rng(4)
    for _ in range(10):
        mu = VectorMeasure(
            atoms=[(t, rng.standard_normal(2)) for t in rng.uniform(0, 1, 4)],
            pieces=[((0.1, 0.9), rng.standard_normal(2))])
        m = AffineMap(1 / 3, 2 / 3)
        assert pushforward(m, mu).variation_norm() == pytest.approx(
            mu.variation_norm(), abs=1e-12)


def test_pushforward_duality_is_exact_on_dyadic_points():
    # with dyadic atom locations the ternary maps stay exactly
    # representable, so measure-of-preimage equals pushforward-evaluation
    # with zero rounding
    from ifsmeasure import preimage
    maps = [AffineMap(1 / 3, 0.0), AffineMap(1 / 3, 2 / 3)]
    pts = [0.0, 0.5, 0.25, 1.0, 0.75]
    mu = VectorMeasure(atoms=[(t, np.array([1.0, -2.0])) for t in pts])
    sets = [QuerySet.closed(0.0, 0.5), QuerySet.point(1 / 3),
            QuerySet(intervals=[(0.25, 0.75, False, True)])]
    for m in maps:
        out = pushforward(m, mu)
        for b in sets:
            lhs = out.evaluate(b)
            rhs = mu.evaluate(preimage(m, b))
            assert np.array_equal(lhs, rhs)


def test_apply_operator_commutes_with_evaluate():
    rng = np.random.default_rng(6)
    for _ in range(10):
        r = rng.standard_normal((2, 2))
        mu = VectorMeasure(
            atoms=[(t, rng.standard_normal(2)) for t in rng.uniform(0, 1, 3)],
            pieces=[((0.3, 0.8), rng.standard_normal(2))])
        b = QuerySet.closed(*sorted(rng.uniform(0, 1, 2)))
        lhs = apply_operator(r, mu).evaluate(b)
        rhs = r @ mu.evaluate(b)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_apply_operator_norm_bound():
    rng = np.random.default_rng(8)
    for _ in range(10):
        r = rng.standard_normal((2, 2))
        mu = VectorMeasure(
            atoms=[(t, rng.standard_normal(2)) for t in rng.uniform(0, 1, 3)],
            pieces=[((0.0, 1.0), rng.standard_normal(2))])
        assert (apply_operator(r, mu).variation_norm()
                <= operator_norm(r) * mu.variation_norm() + 1e-12)


def test_combine_is_linear_on_evaluations():
    rng = np.random.default_rng(10)
    mu = VectorMeasure(atoms=[(0.25, np.array([1.0, 0.0]))],
                       pieces=[((0.0, 1.0), np.array([0.0, 1.0]))])
    nu = VectorMeasure(atoms=[(0.75, np.array([0.0, 2.0]))],
                       pieces=[((0.5, 1.0), np.array([1.0, 1.0]))])
    for _ in range(5):
        a, b = rng.standard_normal(2)
        w = combine(a, mu, b, nu)
        q = QuerySet.closed(*sorted(rng.uniform(0, 1, 2)))
        assert np.allclose(w.evaluate(q),
                           a * mu.evaluate(q) + b * nu.evaluate(q), atol=1e-12)


def test_accumulate_matches_repeated_combine():
    rng = np.random.default_rng(12)
    parts = [VectorMeasure(
        atoms=[(t, rng.standard_normal(2)) for t in rng.uniform(0, 1, 2)],
        pieces=[((lo, lo + 0.2), rng.standard_normal(2))
                for lo in rng.uniform(0, 0.8, 2)]) for _ in range(4)]
    total = accumulate(parts)
    step = parts[0]
    for p in parts[1:]:
        step = combine(1.0, step, 1.0, p)
    assert (total - step).variation_norm() < 1e-12
    with pytest.raises(ValueError):
        accumulate([])


def test_small_density_next_to_a_huge_one_keeps_its_mass():
    # sorted, disjoint pieces are kept as given, not rebuilt by a cumsum
    mu = VectorMeasure(pieces=[((0.0, 0.5), [1e9]), ((0.5, 1.0), [1e-3])])
    got = mu.evaluate(QuerySet.closed(0.5, 1.0))[0]
    assert abs(got / 5e-4 - 1.0) <= 1e-12


def test_small_density_after_an_overlap_with_a_huge_one_keeps_its_mass():
    # overlapping pieces are summed per segment over the pieces covering
    # it, not by a running sum, so [0.75, 1] is not huge minus huge
    mu = VectorMeasure(pieces=[((0.0, 0.75), [1e9]), ((0.5, 1.0), [1e-3])])
    assert mu.piece_density[-1, 0] == 1e-3


def test_row_norms_keep_tiny_and_huge_weights():
    tiny = VectorMeasure(atoms=[(0.5, [1e-170])])
    assert tiny.n_atoms == 1 and tiny.total()[0] == 1e-170
    assert tiny.variation_norm() == 1e-170
    huge = VectorMeasure(atoms=[(0.5, [3e200, -4e200])])
    assert huge.variation_norm() == pytest.approx(5e200, rel=1e-15)
    # ordinary rows keep the plain formula's result bit for bit, also
    # next to rows that need rescaling, in every dimension below eight
    rng = np.random.default_rng(3)
    for dim in range(1, 8):
        rows = rng.standard_normal((1000, dim)) * 10.0 ** rng.uniform(
            -8, 8, (1000, dim))
        plain = np.sqrt(np.sum(np.abs(rows) ** 2, axis=1))
        odd = np.zeros((3, dim))
        odd[:, 0] = [1e-170, 0.0, 1e200]
        mixed = np.concatenate([rows, odd])
        assert measure._row_norms(mixed).tobytes() == np.concatenate(
            [plain, [1e-170, 0.0, 1e200]]).tobytes()


def test_arithmetic_operators():
    mu = VectorMeasure.dirac(0.5, np.array([2.0]))
    nu = VectorMeasure.lebesgue(np.array([1.0]))
    s = mu + nu
    assert s.variation_norm() == pytest.approx(3.0)
    assert (s - mu - nu).is_zero()
    assert ((-1.0) * mu + mu).is_zero()
    assert (mu * 2.0).variation_norm() == pytest.approx(4.0)


def test_prune_respects_budget():
    rng = np.random.default_rng(14)
    for _ in range(20):
        mu = VectorMeasure(
            atoms=[(t, 0.1 * rng.standard_normal(2))
                   for t in rng.uniform(0, 1, 12)],
            pieces=[((lo, lo + w), 0.1 * rng.standard_normal(2))
                    for lo, w in zip(rng.uniform(0, 0.7, 6),
                                     rng.uniform(0.01, 0.3, 6))])
        tol = 0.05
        small = prune(mu, tol)
        assert (small - mu).variation_norm() <= tol + 1e-12
        assert small.n_atoms <= mu.n_atoms
        assert prune(mu, 0.0) is mu


def test_apply_operator_refuses_a_product_that_overflows():
    # numpy warned "overflow encountered in matmul", an error under -W error
    mu = VectorMeasure(atoms=[(0.5, [1e300])], pieces=[((0.0, 1.0), [1.0])])
    with pytest.raises(ValueError, match="overflows"):
        apply_operator(np.array([[1e10]]), mu)


@pytest.mark.parametrize("tol", [-1e-300, float("nan")])
def test_prune_refuses_a_negative_or_nan_budget(tol):
    # a NaN budget compared false with every running sum and dropped all
    mu = VectorMeasure(atoms=[(0.5, [1.0])], pieces=[((0.0, 1.0), [2.0])])
    with pytest.raises(ValueError, match="tol must be nonnegative"):
        prune(mu, tol)


def test_cumulative_has_jumps_at_atoms():
    mu = VectorMeasure(atoms=[(0.5, np.array([1.0]))],
                       pieces=[((0.0, 1.0), np.array([2.0]))])
    left = mu.cumulative(np.nextafter(0.5, 0.0))
    right = mu.cumulative(0.5)
    assert right[0] - left[0] == pytest.approx(1.0, abs=1e-12)
    assert mu.cumulative(1.0)[0] == pytest.approx(3.0)
    assert mu.cumulative(0.0)[0] == pytest.approx(0.0)


def test_cumulative_all_matches_pointwise():
    rng = np.random.default_rng(16)
    mu = VectorMeasure(
        atoms=[(t, rng.standard_normal(2)) for t in rng.uniform(0, 1, 5)],
        pieces=[((0.1, 0.4), rng.standard_normal(2)),
                ((0.6, 0.95), rng.standard_normal(2))])
    ts = np.sort(rng.uniform(0, 1, 50))
    block = mu.cumulative_all(ts)
    for i, t in enumerate(ts):
        assert np.allclose(block[i], mu.cumulative(float(t)), atol=1e-13)


def test_breakpoints_cover_all_features():
    mu = VectorMeasure(atoms=[(0.5, np.array([1.0]))],
                       pieces=[((0.2, 0.8), np.array([1.0]))])
    bp = mu.breakpoints()
    for t in (0.0, 0.2, 0.5, 0.8, 1.0):
        assert np.any(np.isclose(bp, t))


def test_serialization_round_trip_real_and_complex():
    mu = VectorMeasure(atoms=[(0.3, np.array([1.5, -2.0]))],
                       pieces=[((0.0, 0.6), np.array([0.5, 1.0]))])
    assert VectorMeasure.from_dict(json.loads(json.dumps(mu.to_dict()))) == mu
    z = VectorMeasure(atoms=[(0.3, np.array([1 + 2j, 0.0]))],
                      pieces=[((0.0, 0.6), np.array([0.5j, 1.0]))],
                      field="complex")
    back = VectorMeasure.from_dict(json.loads(json.dumps(z.to_dict())))
    assert back == z and back.field == "complex"


def test_complex_weights_need_complex_field():
    with pytest.raises(FieldMismatch):
        VectorMeasure(atoms=[(0.5, np.array([1j]))], field="real")


@pytest.mark.parametrize("field", [None, "real", "complex"])
def test_measure_and_system_share_one_field_rule(field):
    # real input is real unless the field says complex; complex input is
    # complex unless the field says real, which refuses a nonzero
    # imaginary part and keeps the real part of a zero one
    want = np.complex128 if field == "complex" else np.float64
    real_mu = VectorMeasure(atoms=[(0.5, [1.0])], pieces=[((0.0, 1.0), [2])],
                            field=field)
    assert real_mu.atom_weights.dtype == real_mu.piece_density.dtype == want
    flat = VectorMeasure(atoms=[(0.5, np.array([1 + 0j]))], field=field)
    assert flat.atom_weights.dtype == (
        np.float64 if field == "real" else np.complex128)
    system = IFSystem([(0.5, 0.0)], [[[0.5]]], base=real_mu, field=field)
    assert system.operators[0].dtype == want
    assert system.field == (field or "real")
    if field == "real":
        with pytest.raises(FieldMismatch,
                           match="^complex coefficients in a real measure$"):
            VectorMeasure(pieces=[((0.0, 1.0), [1j])], field=field)
        with pytest.raises(FieldMismatch,
                           match="^complex operator in a real system$"):
            IFSystem([(0.5, 0.0)], [[[0.5j]]], field=field)
        with pytest.raises(FieldMismatch,
                           match="^complex base measure in a real system$"):
            IFSystem([(0.5, 0.0)], [[[0.5]]], field=field,
                     base=VectorMeasure.dirac(0.5, [1j]))
        return
    mu = VectorMeasure(pieces=[((0.0, 1.0), [1j])], field=field)
    assert mu.field == "complex" and mu.piece_density.dtype == np.complex128
    for ops, base in (([[[0.5j]]], None),
                      ([[[0.5]]], VectorMeasure.dirac(0.5, [1j]))):
        system = IFSystem([(0.5, 0.0)], ops, base=base, field=field)
        assert system.field == "complex"
        assert system.operators[0].dtype == np.complex128


def test_nearby_atoms_stay_apart():
    # only equal points merge: atoms 5e-13 apart stay two, and a set
    # between them holds exactly one
    t = 0.5 + 5e-13
    mu = VectorMeasure(atoms=[(0.5, np.array([1.0])), (t, np.array([2.0]))])
    assert mu.n_atoms == 2
    assert mu.evaluate(QuerySet.point(0.5))[0] == 1.0
    assert mu.evaluate(QuerySet.closed(0.0, 0.5 + 2e-13))[0] == 1.0
    assert mu.evaluate(QuerySet.open(0.5, t))[0] == 0.0
    assert mu.evaluate(QuerySet(intervals=[(0.5, t, False, True)]))[0] == 2.0


def test_zero_measure_properties():
    z = VectorMeasure.zero(3)
    assert z.is_zero() and z.variation_norm() == 0.0
    assert np.array_equal(z.total(), np.zeros(3))
    assert z.dim == 3


def test_unique_is_np_unique_to_the_bit():
    # signed zeros included: both keep whichever zero the sort puts first
    rng = np.random.default_rng(4)
    for n in (0, 1, 2, 5, 16, 17, 100, 10_000):
        a = rng.integers(0, max(1, n // 3), n) / max(1, n // 3)
        a[rng.random(n) < 0.3] *= -1.0
        a[rng.random(n) < 0.2] = -0.0
        got = measure._unique(a.copy())
        assert got.tobytes() == np.unique(a).tobytes()
    a = np.array([0.5, 0.25, 0.5])
    assert measure._unique(a).tolist() == [0.25, 0.5]
    assert a.tolist() == [0.25, 0.5, 0.5]  # sorted in place
