"""Tests for the scenario runner and CSV export."""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import ifsmeasure
from ifsmeasure import VectorMeasure
from ifsmeasure import cli
from ifsmeasure.cli import export_cumulative, main, run


def test_bundled_triangular_scenario(tmp_path):
    code, report = run("cantor_triangular", out_dir=str(tmp_path))
    assert code == 0
    assert "0.3125, 0.375" in report
    assert "0.482842712474619" in report
    assert (tmp_path / "cantor_triangular_cumulative.csv").exists()


def test_bundled_kernel_scenario():
    code, report = run("separable_kernel")
    assert code == 0
    assert "1824/3329" in report and "120/3329" in report
    assert "exact_residual_zero=true" in report


def test_bundled_decay_scenario():
    code, report = run("decay_transfer")
    assert code == 0
    assert "residual=" in report


def test_bundled_blend_scenario(tmp_path):
    code, report = run("cantor_blend", out_dir=str(tmp_path))
    assert code == 0
    assert "residual_mk_star=" in report


def test_report_is_deterministic(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = run("cantor_triangular", out_dir=str(tmp_path / "a"), fmt="json")
    b = run("cantor_triangular", out_dir=str(tmp_path / "b"), fmt="json")
    ja = json.loads(a[1])
    jb = json.loads(b[1])
    # the reports differ only in the export path
    for ra, rb in zip(ja["results"], jb["results"]):
        ra.pop("path", None)
        rb.pop("path", None)
    assert ja == jb
    c = run("separable_kernel", fmt="text")
    d = run("separable_kernel", fmt="text")
    assert c == d


def test_missing_scenario_is_a_parse_error(tmp_path):
    code, report = run(str(tmp_path / "nope.json"))
    assert code == 2 and "error" in report


def test_malformed_json_is_a_parse_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _ = run(str(p))
    assert code == 2


def test_unknown_command_is_a_validation_error(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps({
        "kind": "kernel",
        "kernels": [{"scale": 1, "terms": [[[0, 1], [0, 1]]]},
                    {"scale": 1, "terms": [[[0, 1], [0, 1]]]}],
        "commands": ["frobnicate"],
    }))
    code, _ = run(str(p))
    assert code == 2


def test_empty_command_list_succeeds(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps({
        "kind": "kernel",
        "kernels": [{"scale": 1, "terms": [[[0, 1], [0, 1]]]},
                    {"scale": 1, "terms": [[[0, 1], [0, 1]]]}],
        "commands": [],
    }))
    code, report = run(str(p))
    assert code == 0
    assert report.strip() == "scenario: s"


def test_precondition_failure_exits_3(tmp_path):
    doc = {
        "kind": "ifs", "dimension": 1,
        "maps": [[0.3333333333333333, 0.0], [0.3333333333333333, 0.6666666666666666]],
        "operators": [[[0.6]], [[0.6]]],
        "commands": ["solve"],
    }
    p = tmp_path / "s.json"
    p.write_text(json.dumps(doc))
    code, report = run(str(p))
    assert code == 3 and "precondition" in report


def _run_doc(tmp_path, doc, fmt="text"):
    p = tmp_path / "s.json"
    p.write_text(json.dumps(doc))
    return run(str(p), fmt=fmt)


def test_non_finite_measure_is_a_validation_error(tmp_path):
    doc = {
        "kind": "ifs", "dimension": 1,
        "maps": [[0.5, 0.0], [0.5, 0.5]],
        "operators": [[[0.4]], [[0.4]]],
        "base": {"dimension": 1, "atoms": [[float("nan"), [1.0]]]},
        "commands": ["solve"],
    }
    code, report = _run_doc(tmp_path, doc)
    assert code == 2 and "non-finite" in report


def test_solve_and_eval_agree_when_a_map_collapses_pieces(tmp_path):
    # slope 1e-17: every piece's image rounds to the point 0.5
    doc = {
        "kind": "ifs", "dimension": 1,
        "maps": [[1e-17, 0.5]],
        "operators": [[[0.5]]],
        "base": {"dimension": 1, "pieces": [[0.0, 1.0, [1.0]]]},
        "query_sets": {"unit": {"intervals": [[0.0, 1.0]]}},
        "solver": {"tol": 1e-10},
        "commands": ["solve", "eval unit", "verify"],
    }
    code, report = _run_doc(tmp_path, doc, fmt="json")
    assert code == 0
    solve, ev, verify = json.loads(report)["results"]
    assert solve["total"] == pytest.approx([2.0], abs=1e-9)
    gap = abs(solve["total"][0] - ev["value"][0])
    assert gap <= solve["error_bound"] + ev["error_bound"]
    assert verify["solver_vs_eval"] <= solve["error_bound"] + ev["error_bound"]


def test_iteration_budget_failure_exits_4(tmp_path):
    # the bundled scenario with an absurd iteration cap
    from importlib import resources
    raw = resources.files("ifsmeasure").joinpath(
        "scenarios/cantor_triangular.json").read_text()
    doc = json.loads(raw)
    doc["solver"]["max_iter"] = 1
    doc["commands"] = ["solve"]
    p = tmp_path / "s.json"
    p.write_text(json.dumps(doc))
    code, report = run(str(p))
    assert code == 4 and "tolerance" in report


def test_rounding_refusal_exits_4(tmp_path):
    # deep images of one map 0.2 t + 0.3 are a few ulps wide; the iterate
    # certified 2.00000019 with bound 6.6e-9, the exact total being 2
    doc = {"kind": "ifs", "field": "real", "dimension": 1,
           "maps": [[0.2, 0.3]], "operators": [[[0.5]]],
           "base": {"dimension": 1, "pieces": [[0.0, 1.0, [1.0]]]},
           "solver": {"tol": 1e-8}, "commands": ["solve"]}
    p = tmp_path / "s.json"
    p.write_text(json.dumps(doc))
    code, report = run(str(p))
    assert code == 4 and "rounding moves the total" in report


def test_tol_override_reaches_solver(tmp_path):
    from importlib import resources
    raw = resources.files("ifsmeasure").joinpath(
        "scenarios/cantor_triangular.json").read_text()
    doc = json.loads(raw)
    doc["commands"] = ["solve"]
    p = tmp_path / "s.json"
    p.write_text(json.dumps(doc))
    code_a, rep_a = run(str(p), tol=1e-4)
    code_b, rep_b = run(str(p), tol=1e-8)
    assert code_a == code_b == 0
    iters_a = int(rep_a.split("iterations=")[1].split()[0])
    iters_b = int(rep_b.split("iterations=")[1].split()[0])
    assert iters_a < iters_b


def test_main_entry_point(tmp_path, capsys):
    assert main(["run", "separable_kernel"]) == 0
    out = capsys.readouterr().out
    assert "scenario: separable_kernel" in out
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_json_format_parses(tmp_path):
    code, report = run("decay_transfer", fmt="json")
    assert code == 0
    doc = json.loads(report)
    assert doc["scenario"] == "decay_transfer"
    assert any("residual" in r for r in doc["results"])


def test_export_cumulative_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    mu = VectorMeasure(
        atoms=[(float(t), rng.standard_normal(2)) for t in (0.25, 0.5)],
        pieces=[((0.1, 0.7), rng.standard_normal(2))])
    path = tmp_path / "curve.csv"
    rows = export_cumulative(mu, 101, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,F1,F2"
    assert len(lines) == rows + 1
    for line in lines[1:]:
        t, *vals = [float(v) for v in line.split(",")]
        want = mu.cumulative(t)
        assert np.abs(np.array(vals) - want).max() < 1e-12


def test_export_cumulative_shows_jumps(tmp_path):
    mu = VectorMeasure.dirac(0.5, np.array([1.0]))
    path = tmp_path / "jump.csv"
    export_cumulative(mu, 5, path)
    rows = [line.split(",") for line in path.read_text().strip().splitlines()[1:]]
    ts = np.array([float(r[0]) for r in rows])
    vs = np.array([float(r[1]) for r in rows])
    i = int(np.searchsorted(ts, 0.5))
    assert ts[i] == 0.5 and vs[i] == 1.0
    assert ts[i - 1] < 0.5 and vs[i - 1] == 0.0


def test_export_cumulative_requires_two_samples(tmp_path):
    with pytest.raises(ValueError):
        export_cumulative(VectorMeasure.zero(1), 1, tmp_path / "x.csv")


def _reference_csv(mu, grid):
    """The export format row by row: %.17g floats, re/im interleaved."""
    values = mu.cumulative_all(grid)
    if mu.field == "complex":
        head = [f"F{k + 1}_{p}" for k in range(mu.dim) for p in ("re", "im")]
    else:
        head = [f"F{k + 1}" for k in range(mu.dim)]
    lines = ["t," + ",".join(head)]
    for t, row in zip(grid, values):
        if mu.field == "complex":
            cells = [f"{x:.17g}" for c in row for x in (c.real, c.imag)]
        else:
            cells = [f"{c:.17g}" for c in row]
        lines.append(f"{t:.17g}," + ",".join(cells))
    return ("\n".join(lines) + "\n").encode()


def test_export_cumulative_complex_bytes(tmp_path, monkeypatch):
    # cumulative_all never yields -0.0 (its sums start at +0.0), so zero
    # parts are made negative here to pin how the writer formats them
    real_cumulative = VectorMeasure.cumulative_all

    def signed_zeros(self, ts):
        out = real_cumulative(self, ts)
        return np.where(out == 0, complex(-0.0, -0.0), out)
    monkeypatch.setattr(VectorMeasure, "cumulative_all", signed_zeros)
    mu = VectorMeasure(atoms=[(0.0, np.array([1.0, 0.0])),
                              (0.5, np.array([-1.0, 0.25 + 3.0j]))],
                       pieces=[((0.25, 0.75), np.array([0.5j, -2.0]))])
    path = tmp_path / "c.csv"
    rows = export_cumulative(mu, 5, path)
    data = path.read_bytes()
    assert data.startswith(b"t,F1_re,F1_im,F2_re,F2_im\n")
    assert b",-0," in data and b",-0\n" in data
    grid = np.array([float(line.split(b",")[0])
                     for line in data.splitlines()[1:]])
    assert len(grid) == rows
    assert data == _reference_csv(mu, grid)


def test_export_cumulative_real_bytes_across_chunks(tmp_path):
    rng = np.random.default_rng(5)
    mu = VectorMeasure(atoms=[(float(t), rng.standard_normal(2))
                              for t in rng.uniform(0, 1, 6000)],
                       pieces=[((0.2, 0.6), rng.standard_normal(2))])
    path = tmp_path / "r.csv"
    rows = export_cumulative(mu, 201, path)
    assert rows > 10000  # more rows than one write chunk
    data = path.read_bytes()
    grid = np.array([float(line.split(b",")[0])
                     for line in data.splitlines()[1:]])
    assert data == _reference_csv(mu, grid)


@pytest.mark.parametrize("name", ["cantor_blend", "cantor_triangular"])
def test_bundled_exports_are_the_percent_bytes(tmp_path, monkeypatch, name):
    measures = []

    def keep_measure(mu, samples, path):
        measures.append(mu)
        return export_cumulative(mu, samples, path)
    monkeypatch.setattr(cli, "export_cumulative", keep_measure)
    code, _ = run(name, out_dir=str(tmp_path))
    assert code == 0 and len(measures) == 1
    data = (tmp_path / f"{name}_cumulative.csv").read_bytes()
    grid = np.array([float(line.split(b",")[0])
                     for line in data.splitlines()[1:]])
    assert data == _reference_csv(measures[0], grid)


def _blend_doc():
    path = Path(ifsmeasure.__file__).parent / "scenarios" / "cantor_blend.json"
    doc = json.loads(path.read_text())
    doc["commands"] = ["solve", "norm mk"]
    return doc


def test_norm_mk_brackets_the_blend_fixed_point(tmp_path):
    # total (1, 1): the constant witness and the split bound meet at sqrt 2
    doc = _blend_doc()
    code, text = _run_doc(tmp_path, doc)
    assert code == 0
    line = text.splitlines()[-1]
    assert line.startswith("norm mk: ") and "tag" not in line
    fields = dict(kv.split("=") for kv in line.split()[2:])
    code, report = _run_doc(tmp_path, doc, fmt="json")
    assert code == 0
    result = json.loads(report)["results"][1]
    assert set(result) == {"command", "norm", "lower", "upper"}
    assert float(fields["lower"]) == result["lower"]
    assert float(fields["upper"]) == result["upper"]
    lower, upper = result["lower"], result["upper"]
    assert abs(lower - np.sqrt(2.0)) <= 1e-12
    assert abs(upper - np.sqrt(2.0)) <= 1e-12
    assert abs(upper - lower) <= 1e-12


def test_retired_estimator_keys_are_ignored(tmp_path):
    doc = {
        "kind": "ifs", "dimension": 1,
        "maps": [[0.5, 0.0], [0.5, 0.5]],
        "operators": [[[0.4]], [[0.4]]],
        "base": {"dimension": 1, "pieces": [[0.0, 1.0, [1.0]]]},
        "solver": {"grid": 50, "iters": 10},
        "commands": ["solve", "norm mk"],
    }
    code, report = _run_doc(tmp_path, doc, fmt="json")
    assert code == 0
    result = json.loads(report)["results"][1]
    assert 0.0 < result["lower"] <= result["upper"]


def test_solver_norm_key_is_ignored(tmp_path):
    # the system decides the metric: a mass-preserving blend asked for
    # the variation norm still solves and verifies in mk_star
    doc = _blend_doc()
    doc["solver"]["norm"] = "variation"
    doc["commands"] = ["solve", "verify"]
    code, report = _run_doc(tmp_path, doc, fmt="json")
    assert code == 0
    solve, verify = json.loads(report)["results"]
    assert solve["norm"] == "mk_star"
    assert set(verify) == {"command", "residual_mk_star"}


_IFS = {"kind": "ifs", "dimension": 1, "maps": [[0.5, 0.0], [0.5, 0.5]],
        "operators": [[[0.4]], [[0.4]]], "commands": ["solve"]}
_KERNEL = {"kind": "kernel",
           "kernels": [{"scale": 1, "terms": [[[0, 1], [0, 1]]]},
                       {"scale": 1, "terms": [[[0, 1], [0, 1]]]}]}
_SEMIGROUP = {"kind": "semigroup", "rate": 1.0, "target": 0.5,
              "base": {"dimension": 1, "pieces": [[0.0, 1.0, [1.0]]]},
              "commands": ["solve"]}


@pytest.mark.parametrize("doc", [
    [1, 2],
    {**_IFS, "solver": [1]},
    {**_IFS, "query_sets": [1]},
    {**_IFS, "query_sets": {"a": [0.0, 1.0]}},
    {**_IFS, "base": [1]},
    {**_IFS, "maps": [[0.5], [0.5, 0.5]]},
    {**_IFS, "solver": {"tol": "abc"}},
    {**_IFS, "solver": {"max_iter": "x"}},
    {**_IFS, "solver": {"samples": None}},
    {**_SEMIGROUP, "solver": {"tol": "x"}},
    {**_KERNEL, "kernels": [[1], [2]]},
    {**_KERNEL, "commands": ["supbound x"]},
    {**_KERNEL, "commands": ["partition x"]},
    {**_IFS, "field": "foo"},
    {**_SEMIGROUP, "field": "foo"},
    {**_SEMIGROUP, "rate": float("nan")},
    {**_SEMIGROUP, "rate": float("inf")},
    {**_SEMIGROUP, "target": float("nan")},
    {**_SEMIGROUP, "target": 1.5},
    {**_SEMIGROUP, "target": -float("inf")},
    {**_SEMIGROUP, "solver": {"tol": float("nan")}},
    {**_SEMIGROUP, "solver": {"tol": 0}},
    {**_SEMIGROUP, "solver": {"tol": -1}},
    {**_SEMIGROUP, "solver": {"tol": float("inf")}},
    {**_IFS, "solver": {"tol": -1}},
    {**_IFS, "solver": {"tol": float("nan")}},
    {**_IFS, "solver": {"max_iter": -3}},
    {**_IFS, "solver": {"max_iter": 1.5}},
], ids=["array", "solver-list", "query-sets-list", "query-set-list",
        "measure-list", "one-number-map", "tol-abc", "max-iter-x",
        "samples-null", "semigroup-tol-x", "kernel-list", "supbound-x",
        "partition-x", "field-foo", "semigroup-field-foo",
        "semigroup-rate-nan", "semigroup-rate-inf", "semigroup-target-nan",
        "semigroup-target-1.5", "semigroup-target-minus-inf",
        "semigroup-tol-nan", "semigroup-tol-0", "semigroup-tol-minus-1",
        "semigroup-tol-inf", "ifs-tol-minus-1", "ifs-tol-nan",
        "max-iter-minus-3", "max-iter-1.5"])
def test_malformed_value_is_a_parse_error(tmp_path, doc):
    code, report = _run_doc(tmp_path, doc)
    assert code == 2 and "invalid scenario" in report


def test_base_that_overflows_when_resolved_is_a_validation_error(tmp_path):
    # each density is finite; their sum on the overlap is not
    base = {"dimension": 1, "pieces": [[0.0, 1.0, [1e308]], [0.0, 1.0, [1e308]]]}
    code, report = _run_doc(tmp_path, {**_IFS, "base": base})
    assert code == 2 and "non-finite" in report


def test_infinite_count_is_a_parse_error(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps({**_IFS, "solver": {"max_iter": 1.0}})
                 .replace("1.0}", "1e400}"))
    code, report = run(str(p))
    assert code == 2 and "infinity" in report


def test_density_overflow_in_pushforward_is_a_precondition_error(tmp_path):
    # the density doubles each step; the suite turns numpy's overflow
    # warning into an error, so the division must not warn
    doc = {"kind": "ifs", "dimension": 1, "maps": [[0.5, 0.0]],
           "operators": [[[0.9999999]]],
           "base": {"dimension": 1, "pieces": [[0.0, 1.0, [1.0]]]},
           "solver": {"tol": 1e-8, "max_iter": 1e9}, "commands": ["solve"]}
    code, report = _run_doc(tmp_path, doc)
    assert code == 3 and "overflows to a non-finite value" in report


def test_zero_iteration_budget_exits_4(tmp_path):
    code, report = _run_doc(tmp_path, {**_IFS, "solver": {"max_iter": 0}})
    assert code == 4 and "0 iterations" in report


def test_kernel_degree_is_capped_at_the_parse_boundary(tmp_path):
    # a degree-3000 term once took about a minute to solve and verify
    doc = {**_KERNEL, "kernels": [{"terms": [[[0] * 3000 + [1], [0, 1]]]},
                                  _KERNEL["kernels"][1]],
           "commands": ["solve", "verify"]}
    start = time.perf_counter()
    code, report = _run_doc(tmp_path, doc)
    assert code == 2 and "degree 3000 exceeds 32" in report
    assert time.perf_counter() - start < 5.0


def test_partition_size_is_capped_before_allocating(tmp_path):
    code, report = _run_doc(
        tmp_path, {**_KERNEL, "commands": ["partition 1000000000000"]})
    assert code == 3 and "between 1 and 1048576" in report


def test_export_samples_are_capped_before_allocating(tmp_path):
    doc = {**_IFS, "solver": {"samples": 10 ** 12}, "commands": ["export"]}
    code, report = _run_doc(tmp_path, doc)
    assert code == 2 and "between 2 and 1048576" in report


@pytest.mark.parametrize("entry", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("commands", [["solve"], []],
                         ids=["solve", "no-commands"])
def test_non_finite_operator_is_a_validation_error(tmp_path, entry, commands):
    doc = {**_IFS, "operators": [[[0.4]], [[entry]]], "commands": commands}
    code, report = _run_doc(tmp_path, doc)
    assert code == 2 and "non-finite" in report


def test_semigroup_rate_below_one_is_a_precondition(tmp_path):
    code, report = _run_doc(tmp_path, {**_SEMIGROUP, "rate": 0.5})
    assert code == 3 and "rate must exceed 1" in report


@pytest.mark.parametrize("spec", ["cantor_triangular", "decay_transfer"])
@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_tol_override_is_checked_at_the_parse_boundary(spec, tol):
    code, report = run(spec, tol=tol)
    assert code == 2 and "tol must be finite and positive" in report


@pytest.mark.parametrize("rate", [1e6, 1e12])
def test_semigroup_fast_decay_meets_its_bound(tmp_path, rate):
    # the decay integral once ended at theta = 1 whatever the rate, so a
    # decay this fast was integrated as zero
    doc = {**_SEMIGROUP, "rate": rate, "commands": ["solve", "verify"]}
    code, report = _run_doc(tmp_path, doc, fmt="json")
    assert code == 0
    _, verify = json.loads(report)["results"]
    assert verify["residual"] <= verify["error_bound"]


@pytest.mark.parametrize("tol", [3e-9, 1e-6, 1e300])
def test_semigroup_residual_within_a_loose_tol_exits_0(tol):
    # a fixed 1e-9 residual check once failed these correct closed forms
    code, report = run("decay_transfer", tol=tol, fmt="json")
    assert code == 0
    _, verify = json.loads(report)["results"]
    assert verify["error_bound"] == tol
    assert 0.0 < verify["residual"] <= tol


def test_semigroup_residual_above_tol_exits_4(tmp_path):
    # once reported residual 1.11022302462516e-15 beside error_bound 1e-15
    doc = {**_SEMIGROUP, "rate": 2.0, "solver": {"tol": 1e-15},
           "commands": ["solve", "verify"]}
    code, report = _run_doc(tmp_path, doc)
    assert code == 4 and "failed residual check: 1.11022e-15 > 1e-15" in report


@pytest.mark.parametrize("doc", [
    {**_SEMIGROUP, "rate": 1.0000001},
    {**_SEMIGROUP, "rate": 2.0, "solver": {"tol": 1e-16}},
    {**_SEMIGROUP, "rate": 2.0, "solver": {"tol": 1e-20}},
    {**_SEMIGROUP, "rate": 2.0, "solver": {"tol": 1e-300}},
], ids=["rate-near-1", "tol-1e-16", "tol-1e-20", "tol-1e-300"])
def test_semigroup_tolerance_out_of_reach_exits_4(tmp_path, doc):
    # refused at once: the tolerance is below the quadrature's rounding
    # (near rate 1 the fixed point's mass is about 1e7)
    code, report = _run_doc(tmp_path, {**doc, "commands": ["solve"]})
    assert code == 4 and "tolerance not reached" in report


@pytest.mark.parametrize("m", [[0.5, 0.5 + 5e-13], [0.5, -5e-13],
                               [-0.5, 1.0 + 5e-13]],
                         ids=["above-1", "below-0", "reversed-above-1"])
def test_map_leaving_the_unit_interval_by_rounding_slack_is_refused(tmp_path,
                                                                    m):
    # once accepted within 1e-12; solve then exited 3 while eval succeeded
    doc = {**_IFS, "maps": [m, [0.5, 0.5]],
           "base": {"dimension": 1, "pieces": [[0.0, 1.0, [1.0]]]}}
    code, report = _run_doc(tmp_path, doc)
    assert code == 2 and "does not send [0, 1] into itself" in report


def _triangular_doc(base, commands):
    path = (Path(ifsmeasure.__file__).parent / "scenarios"
            / "cantor_triangular.json")
    doc = json.loads(path.read_text())
    doc.update(base={"dimension": 2, **base}, commands=commands)
    return doc


def test_complex_report_in_text_and_json(tmp_path):
    # complex weights print as [re, im] pairs, nested per component
    doc = _triangular_doc({"atoms": [[0.0, [[0, 0], [0.25, 0.1]]]],
                           "pieces": [[0.0, 1.0, [[0.25, -0.2], [0, 0]]]]},
                          ["solve", "eval origin"])
    doc["field"] = "complex"
    code, text = _run_doc(tmp_path, doc)
    assert code == 0
    total = ("total=[[0.312499999948775, -0.249999999959013], "
             "[0.374999999897599, 8.19202899959848e-11]]")
    assert total in text.splitlines()[1]
    assert ("value=[[0, 0], [0.277777777777778, 0.111111111111111]]"
            in text.splitlines()[2])
    code, report = _run_doc(tmp_path, doc, fmt="json")
    assert code == 0
    solve, origin = json.loads(report)["results"]
    assert solve["total"] == [[0.312499999948775, -0.249999999959013],
                              [0.374999999897599, 8.19202899959848e-11]]
    assert origin["value"] == [[0.0, 0.0],
                               [0.277777777777778, 0.111111111111111]]


# atom (0.25, 0) at 0 against density (-0.25, 0): a base of zero total
_ZERO_TOTAL = {"atoms": [[0.0, [0.25, 0.0]]], "pieces": [[0.0, 1.0, [-0.25, 0.0]]]}


@pytest.mark.parametrize("doc, expect", [
    (dict(_blend_doc(), commands=["norm mk_star"]), "||total|| = 1.41421"),
    (_triangular_doc(_ZERO_TOTAL, ["norm mk_star"]), "||total|| = 5.94371e-10"),
], ids=["blend", "zero-total-base"])
def test_norm_mk_star_refuses_an_iterate_of_nonzero_total(tmp_path, doc,
                                                          expect):
    # at the bundled tol the iterate of a zero-total base keeps a total of
    # order tol, above the 1e-12 that mk_star admits
    code, report = _run_doc(tmp_path, doc)
    assert code == 3 and "defined only for zero-total measures" in report
    assert expect in report


def test_norm_mk_star_of_a_zero_total_fixed_point(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps(_triangular_doc(_ZERO_TOTAL, ["norm mk_star"])))
    code, report = run(str(p), tol=1e-11)
    assert code == 0
    assert report.splitlines()[-1] == (
        "norm mk_star: norm=mk_star value=0.136443140177951")
