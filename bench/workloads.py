"""Workload inputs and output checks for the benchmark.

Every workload is a list of scenario specs handed to ``ifsmeasure.cli.run``:
bundled scenario names, or scenario files generated here from the seed.
The checks run after timing.  Each returns the worst *error ratio*: the
largest disagreement between a reported value and an independent
reference, divided by the sum of their declared bounds.  A correct run
keeps every ratio at or below one.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

SMALL_SCENARIOS = ("cantor_triangular", "decay_transfer", "separable_kernel")

# Relative tolerance for reported floats that carry no error bound of
# their own: loose enough for summation-order drift, tight enough that a
# moved tenth digit fails.
REL_TOL = 1e-9
# A reported error bound is computed from the difference of two nearly
# equal iterates, so its low digits move with summation order (about 1e-8
# relative for cantor_blend); it must not move by more than this.
BOUND_REL_TOL = 1e-6
# Declared rounding bound of a closed form evaluated in float64.
CLOSED_FORM_TOL = 1e-14

# The generated overlap system.  Three maps of slope 0.4 whose images
# overlap; each operator is a scaled random rotation or reflection with a
# fixed norm share, so the variation factor (0.41), the depth cap of set
# evaluation and the prune budget of iteration are the same for every
# seed, and so are the iterate size and the graph size.  The seed moves
# every reported value.  (Gaussian operators rescaled to the same factor
# gave iterates from 44k to 1.2M components, or hit the 2M cap.)
OVERLAP_MAPS = [[0.4, 0.0], [0.4, 0.3], [0.4, 0.6]]
OVERLAP_FACTOR = 0.41
OVERLAP_SHARES = (0.5, 0.3, 0.2)
OVERLAP_BASE_NORM = 0.02  # norm of the atom at 0 and of the density, each
ITERATE_TOL = 1e-6
HISTOGRAM_TOL = 1e-10
HISTOGRAM_CELLS = 16


def _orthogonal(rng) -> np.ndarray:
    th = rng.uniform(0.0, 2.0 * np.pi)
    q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    return q if rng.random() < 0.5 else q @ np.diag([1.0, -1.0])


def overlap_system(seed: int) -> dict:
    """The overlap scenario body (maps, operators, base) drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    ops = [share * _orthogonal(rng) for share in OVERLAP_SHARES]
    scale = OVERLAP_FACTOR / sum(np.linalg.norm(op, 2) for op in ops)
    atom = OVERLAP_BASE_NORM * _orthogonal(rng)[0]
    density = OVERLAP_BASE_NORM * _orthogonal(rng)[0]
    return {
        "kind": "ifs",
        "field": "real",
        "dimension": 2,
        "maps": OVERLAP_MAPS,
        "operators": [(scale * op).tolist() for op in ops],
        "base": {"dimension": 2,
                 "atoms": [[0.0, atom.tolist()]],
                 "pieces": [[0.0, 1.0, density.tolist()]]},
    }


def overlap_iterate(seed: int) -> dict:
    doc = overlap_system(seed)
    doc.update(name="overlap_iterate",
               solver={"tol": ITERATE_TOL, "norm": "variation"},
               commands=["factors", "solve", "norm variation"])
    return doc


def overlap_histogram(seed: int) -> dict:
    doc = overlap_system(seed)
    m = HISTOGRAM_CELLS
    doc.update(
        name="overlap_histogram",
        query_sets={f"cell_{i:02d}": {"intervals": [[i / m, (i + 1) / m,
                                                     True, False]]}
                    for i in range(m)},
        solver={"tol": HISTOGRAM_TOL},
        commands=[f"eval cell_{i:02d}" for i in range(m)])
    return doc


def bundled_doc(root: Path, name: str) -> dict:
    return json.loads((root / "src" / "ifsmeasure" / "scenarios"
                       / f"{name}.json").read_text())


def fixed_point_total(doc: dict) -> np.ndarray:
    """Closed form mu*([0, 1]) = (I - sum R_i)^-1 mu0([0, 1])."""
    ops = np.array(doc["operators"], dtype=float)
    base = doc["base"]
    mass = sum(np.array(w, dtype=float) for _, w in base["atoms"])
    mass = mass + sum((hi - lo) * np.array(d, dtype=float)
                      for lo, hi, d in base["pieces"])
    return np.linalg.solve(np.eye(len(mass)) - ops.sum(axis=0), mass)


def _ratio(diff, bound) -> float:
    diff = float(np.max(np.abs(np.asarray(diff, dtype=float))))
    if bound <= 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / bound


class CheckFailed(Exception):
    """A report has the wrong shape or an exact value differs."""


def _results(report: dict) -> dict:
    return {r["command"]: r for r in report["results"]}


# Values that are differences of nearly equal quantities.  They are
# checked against the certificate they must satisfy, not against the
# stored digits, which move with summation order.
_RESIDUALS = {"residual_variation", "residual_mk_star", "solver_vs_eval",
              "residual", "grid_residual"}


def compare_reference(report: dict, ref: dict) -> float:
    """Worst error ratio of a report against the stored seed report.

    Strings, integers and booleans must match exactly (except the export
    path); floats in a result that carries an ``error_bound`` must agree
    within the two reports' summed bounds, error bounds within
    BOUND_REL_TOL and other floats within REL_TOL.
    """
    got, want = report["results"], ref["results"]
    if [r["command"] for r in got] != [r["command"] for r in want]:
        raise CheckFailed("commands differ from the reference report")
    worst = 0.0
    for g, w in zip(got, want):
        if set(g) != set(w):
            raise CheckFailed(f"{w['command']}: keys differ from the reference")
        for key, wv in w.items():
            if key in ("path", "command") or key in _RESIDUALS:
                continue
            gv = g[key]
            numeric = isinstance(wv, float) or (
                isinstance(wv, list) and wv and not isinstance(wv[0], str))
            if not numeric:
                if gv != wv:
                    raise CheckFailed(f"{w['command']}: {key}={gv!r}, "
                                      f"reference {wv!r}")
                continue
            gv, wv = np.asarray(gv, dtype=float), np.asarray(wv, dtype=float)
            if gv.shape != wv.shape:
                raise CheckFailed(f"{w['command']}: {key} changed shape")
            if "error_bound" in w and key != "error_bound":
                bound = float(g["error_bound"]) + float(w["error_bound"])
                worst = max(worst, _ratio(gv - wv, bound))
            else:
                rel = BOUND_REL_TOL if key == "error_bound" else REL_TOL
                worst = max(worst, _ratio(gv - wv, rel * float(np.max(np.abs(wv)))))
    return worst


def check_certificates(report: dict, doc: dict) -> float:
    """Independent checks of one bundled ifs/semigroup/kernel report."""
    res = _results(report)
    worst = 0.0
    solve = res.get("solve", {})
    eb = solve.get("error_bound")
    fac = res.get("factors")
    verify = res.get("verify", {})
    if doc["kind"] == "ifs" and eb is not None:
        # ||M mu - mu|| <= (1 + factor) ||mu - mu*|| in the certified norm
        factor = fac["variation"] if solve["norm"] == "variation" else fac["mk_star"]
        for key in ("residual_variation", "residual_mk_star"):
            if key in verify:
                worst = max(worst, _ratio(verify[key], (1.0 + factor) * eb))
        if "solver_vs_eval" in verify:
            tol = float(doc.get("solver", {}).get("tol", 1e-8))
            worst = max(worst, _ratio(verify["solver_vs_eval"], eb + tol))
        if doc.get("base") is not None and solve["norm"] == "variation":
            ref = fixed_point_total(doc)
            worst = max(worst, _ratio(np.array(solve["total"]) - ref,
                                      eb + CLOSED_FORM_TOL))
            if "eval unit" in res:
                worst = max(worst, _ratio(
                    np.array(res["eval unit"]["value"]) - ref,
                    res["eval unit"]["error_bound"] + CLOSED_FORM_TOL))
    if doc["kind"] == "semigroup" and "verify" in res:
        worst = max(worst, _ratio(verify["residual"], verify["error_bound"]))
    if doc["kind"] == "kernel" and "verify" in res:
        if verify["exact_residual_zero"] is not True:
            raise CheckFailed("kernel invariance residual is not exactly zero")
        worst = max(worst, _ratio(verify["grid_residual"], CLOSED_FORM_TOL))
    return worst


def check_blend_export(report: dict, doc: dict, csv_path: Path) -> float:
    """The exported cumulative against the exact self-similar fixed point.

    For maps t/3 and t/3 + 2/3 with scalar weights p1 I and p2 I, started
    from an atom at 0 with mass T, iterate k is T times the level-k
    cylinder measure and the fixed point's cumulative F* integrates to
    T * p1 over [0, 1].  The exported cumulative is exact between rows, so
    its integral is a Riemann sum; ||integral (F_k - F*)|| is a lower bound
    of the transport distance to the fixed point, which the reported
    ``error_bound`` certifies from above.
    """
    ops = [np.array(op, dtype=float) for op in doc["operators"]]
    weights = [op[0, 0] for op in ops]
    if doc["maps"] != [[1 / 3, 0.0], [1 / 3, 2 / 3]] or any(
            not np.array_equal(op, w * np.eye(len(op))) for op, w in zip(ops, weights)):
        raise CheckFailed("blend reference needs the bundled ternary system")
    start = doc["solver"]["start"]
    if start["pieces"] or len(start["atoms"]) != 1 or start["atoms"][0][0] != 0.0:
        raise CheckFailed("blend reference needs a single start atom at 0")
    mass = np.array(start["atoms"][0][1], dtype=float)
    res = _results(report)
    rows = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    if len(rows) != res["export"]["rows"]:
        raise CheckFailed("export row count differs from the report")
    t = rows[:, 0]
    if t[0] != 0.0 or t[-1] != 1.0 or np.any(np.diff(t) <= 0.0):
        raise CheckFailed("export grid is not increasing over [0, 1]")
    dt = np.diff(t)
    integral = np.array([math.fsum(rows[:-1, c] * dt)
                         for c in range(1, rows.shape[1])])
    distance = float(np.linalg.norm(integral - mass * weights[0]))
    return _ratio(distance, res["solve"]["error_bound"] + CLOSED_FORM_TOL)


def check_overlap_iterate(report: dict, doc: dict) -> float:
    res = _results(report)
    ops = np.array(doc["operators"], dtype=float)
    norms = np.array([np.linalg.norm(op, 2) for op in ops])
    lips = np.array([abs(m[0]) for m in doc["maps"]])
    expect = {"variation": norms.sum(), "mk": (norms * (1.0 + lips)).sum(),
              "mk_star": (norms * lips).sum()}
    worst = max(_ratio(res["factors"][k] - v, REL_TOL * v)
                for k, v in expect.items())
    solve = res["solve"]
    if solve["error_bound"] > ITERATE_TOL:
        raise CheckFailed("solve did not reach its tolerance")
    return max(worst, _ratio(np.array(solve["total"]) - fixed_point_total(doc),
                             solve["error_bound"] + CLOSED_FORM_TOL))


def check_overlap_histogram(report: dict, doc: dict) -> float:
    values = [r["value"] for r in report["results"]]
    bounds = [r["error_bound"] for r in report["results"]]
    if len(values) != HISTOGRAM_CELLS:
        raise CheckFailed("histogram has the wrong number of cells")
    diff = np.sum(values, axis=0) - fixed_point_total(doc)
    return _ratio(diff, sum(bounds) + CLOSED_FORM_TOL)


def report_components(report: dict) -> int | None:
    """Atoms plus pieces of the solved iterate, when the report has one."""
    solve = _results(report).get("solve")
    if solve is None or "pieces" not in solve:
        return None
    return solve["atoms"] + solve["pieces"]


def check_call(doc: dict, report: dict, out_dir: Path, references: dict) -> float:
    """Worst error ratio of one successful ``cli.run`` report."""
    name = doc["name"]
    if name == "overlap_iterate":
        return check_overlap_iterate(report, doc)
    if name == "overlap_histogram":
        return check_overlap_histogram(report, doc)
    worst = max(compare_reference(report, references[name]),
                check_certificates(report, doc))
    if name == "cantor_blend":
        worst = max(worst, check_blend_export(
            report, doc, out_dir / f"{name}_cumulative.csv"))
    return worst
