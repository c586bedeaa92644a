"""Scenario runner: JSON descriptions in, deterministic reports out.

A scenario file declares one job (an iterated-map system, a separable-kernel
invariance problem, or a decaying constant-target transfer) plus a list of
commands.  An iterated-map system is solved in the metric it decides
(``iterate_fixed_point``), which ``solve`` reports as ``norm``.  Reports
are reproducible byte for byte on one host: fixed command order, fixed
formatting (15 significant digits), no randomness.  Another CPU or numpy
build may round a vectorised sum differently and move low digits.

Exit codes: 0 success, 2 scenario parse/validation error (a malformed
document, value or command argument), 3 solver precondition violated, 4
tolerance not reached within budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from .exceptions import IterationLimit, RefinementLimit
from .kernelops import (DEFAULT_INHOMOGENEITY, SeparableKernel,
                        kernel_sup_bound, partition_variation_estimate,
                        solve_invariance)
# eval_fixed_point is unused here; bench/tracing.py wraps it at this binding
from .markov import (IFSystem, apply_markov, eval_fixed_point, eval_many,
                     factors, iterate_fixed_point, residual)
from .measure import VectorMeasure
from .mk_norm import mk_lower_bound, mk_star_exact, mk_upper_bound
# transfer_residual is unused here; bench/tracing.py wraps it at this binding
from .semigroup import exp_decay_fixed_point, transfer_residual
from .space import QuerySet

__all__ = ["main", "run", "export_cumulative"]


def _num(x):
    return float(f"{float(x):.15g}")


def _vec(v):
    if np.iscomplexobj(v):
        return [[_num(c.real), _num(c.imag)] for c in v]
    return [_num(c) for c in v]


# rows formatted at a time: the formatter's arrays for three columns
# (under 1 MB) stay in cache, and larger chunks ran slower
_EXPORT_CHUNK_ROWS = 1024
# cap on the equispaced export samples, checked before allocating
_MAX_SAMPLES = 1 << 20


class ScenarioError(ValueError):
    """Scenario file malformed or inconsistent."""


def _object(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise ScenarioError(f"{what} must be an object")
    return doc


def _count(args, default: int) -> int:
    """The integer argument of a command, ``default`` when there is none."""
    if not args:
        return default
    try:
        return int(args[0])
    except ValueError:
        raise ScenarioError(f"expected an integer, got {args[0]!r}") from None


def export_cumulative(mu: VectorMeasure, samples: int, path) -> int:
    """Write the cumulative function to CSV; returns the row count.

    Rows cover equispaced sample points plus every breakpoint; atoms also
    get the float immediately to their left, so jumps are visible as two
    adjacent rows.  Each value is written as the bytes ``"%.17g" % v``
    gives, so it re-evaluates through ``cumulative`` exactly.  Raises
    ScenarioError unless 2 <= samples <= 2^20.
    """
    if not 2 <= samples <= _MAX_SAMPLES:
        raise ScenarioError(f"samples must be between 2 and {_MAX_SAMPLES}")
    ts = [np.linspace(0.0, 1.0, samples), mu.breakpoints()]
    if mu.n_atoms:
        left = np.nextafter(mu.atom_points, -np.inf)
        ts.append(left[left >= 0.0])
    grid = np.unique(np.concatenate(ts))
    values = mu.cumulative_all(grid)
    if mu.field == "complex":
        cols = [f"F{k + 1}_{part}" for k in range(mu.dim) for part in ("re", "im")]
        values = np.stack([values.real, values.imag], axis=2).reshape(len(grid), -1)
    else:
        cols = [f"F{k + 1}" for k in range(mu.dim)]
    table = np.column_stack([grid, values])
    # imported on first use: scenarios without an export never load it
    from ._floatcsv import csv_bytes
    with open(path, "wb") as fh:
        fh.write(("t," + ",".join(cols) + "\n").encode())
        # format and write a chunk at a time: the text of every row
        # would hold the whole file in memory
        for i in range(0, len(table), _EXPORT_CHUNK_ROWS):
            fh.write(csv_bytes(table[i:i + _EXPORT_CHUNK_ROWS]))
    return len(grid)


def _field(doc) -> str:
    field = doc.get("field", "real")
    if field not in ("real", "complex"):
        raise ScenarioError(f"field must be 'real' or 'complex', got {field!r}")
    return field


def _tol(solver: dict, default: float) -> float:
    """The solver's ``tol``: a finite positive float."""
    tol = float(solver.get("tol", default))
    if not 0.0 < tol < np.inf:
        raise ScenarioError(f"tol must be finite and positive, got {tol!r}")
    return tol


def _parse_measure(doc, field) -> VectorMeasure:
    return VectorMeasure.from_dict({"field": field, **_object(doc, "measure")})


class _IFSJob:
    def __init__(self, doc):
        field = _field(doc)
        dim = doc.get("dimension")
        if dim is None:
            raise ScenarioError("ifs scenario needs a dimension")
        base = doc.get("base")
        base_m = _parse_measure(base, field) if base is not None else None
        self.system = IFSystem(doc["maps"], doc["operators"], base=base_m,
                               dim=dim, field=field)
        self.query_sets = {
            name: QuerySet.from_dict(_object(q, "query set"))
            for name, q in _object(doc.get("query_sets", {}),
                                   "query_sets").items()}
        solver = _object(doc.get("solver", {}), "solver")
        self.tol = _tol(solver, 1e-8)
        max_iter = solver.get("max_iter", 200)
        self.max_iter = int(max_iter)
        if self.max_iter < 0 or self.max_iter != float(max_iter):
            raise ScenarioError(
                f"max_iter must be a non-negative integer, got {max_iter!r}")
        self.samples = int(solver.get("samples", 201))
        # the sets the eval commands name, evaluated together on first use
        self.eval_names = [parts[1] for parts in map(str.split, map(
            str, doc.get("commands", []))) if parts[:1] == ["eval"]]
        self.evals = {}
        start = solver.get("start")
        self.start = (_parse_measure(start, field) if start is not None
                      else VectorMeasure.zero(dim, field))

    @cached_property
    def solution(self):
        return iterate_fixed_point(self.system, self.start, tol=self.tol,
                                   max_iter=self.max_iter)

    def evaluate(self, names):
        """``eval_many`` results by name: every set the eval commands name
        and ``names`` that is not cached yet, in one call."""
        todo = [n for n in dict.fromkeys([*names, *self.eval_names])
                if n in self.query_sets and n not in self.evals]
        if todo:
            self.evals.update(zip(todo, eval_many(
                self.system, [self.query_sets[n] for n in todo], self.tol)))
        return [self.evals[n] for n in names]

    def command(self, cmd, args, out_dir, name):
        if cmd == "factors":
            fac = factors(self.system)
            return {"variation": _num(fac.variation), "mk": _num(fac.mk),
                    "mk_star": _num(fac.mk_star)}
        if cmd == "solve":
            res = self.solution
            return {"iterations": res.iterations,
                    "error_bound": _num(res.error_bound),
                    "norm": res.norm,
                    "total": _vec(res.measure.total()),
                    "atoms": res.measure.n_atoms,
                    "pieces": res.measure.n_pieces}
        if cmd == "eval":
            if len(args) != 1 or args[0] not in self.query_sets:
                raise ScenarioError(f"eval needs a declared query set, got {args}")
            v = self.evaluate(args)[0].value
            # tol, not the achieved bound: the report format is pinned
            return {"set": args[0], "value": _vec(v),
                    "error_bound": _num(self.tol)}
        if cmd == "norm":
            if len(args) != 1 or args[0] not in ("variation", "mk", "mk_star"):
                raise ScenarioError(f"norm needs variation|mk|mk_star, got {args}")
            mu = self.solution.measure
            if args[0] == "variation":
                return {"norm": "variation", "value": _num(mu.variation_norm())}
            if args[0] == "mk":
                lower, _ = mk_lower_bound(mu, ball="bl1")
                return {"norm": "mk", "lower": _num(lower),
                        "upper": _num(mk_upper_bound(mu))}
            return {"norm": "mk_star", "value": _num(mk_star_exact(mu))}
        if cmd == "verify":
            # the residual in the metric the solve certified
            sol = self.solution
            mu = sol.measure
            out = {}
            if sol.norm == "variation":
                out["residual_variation"] = _num(residual(self.system, mu))
                names = sorted(self.query_sets)
                worst = 0.0
                for q, res in zip(mu.evaluate_many(
                        [self.query_sets[n] for n in names]),
                        self.evaluate(names)):
                    worst = max(worst, float(np.abs(q - res.value).max()))
                if self.query_sets:
                    out["solver_vs_eval"] = _num(worst)
            else:
                diff = apply_markov(self.system, mu) - mu
                out["residual_mk_star"] = _num(mk_star_exact(diff))
            return out
        if cmd == "export":
            mu = self.solution.measure
            path = Path(out_dir) / f"{name}_cumulative.csv"
            rows = export_cumulative(mu, self.samples, path)
            return {"path": str(path), "rows": rows, "samples": self.samples}
        raise ScenarioError(f"unknown ifs command {cmd!r}")


class _KernelJob:
    def __init__(self, doc):
        kernels = []
        for kd in doc["kernels"]:
            terms = tuple((tuple(u), tuple(v)) for u, v in kd["terms"])
            kernels.append(SeparableKernel(terms=terms, scale=kd.get("scale", 1)))
        if len(kernels) != 2:
            raise ScenarioError("kernel scenario needs exactly two kernels")
        self.kernels = kernels

    @cached_property
    def phi(self):
        return solve_invariance(self.kernels[0], self.kernels[1])

    def command(self, cmd, args, out_dir, name):
        if cmd == "supbound":
            grid = _count(args, 64)
            return {"grid": grid,
                    "values": [_num(kernel_sup_bound(k, grid))
                               for k in self.kernels]}
        if cmd == "solve":
            phi = self.phi
            return {"coefficients": [str(c) for c in phi.coeffs],
                    "coefficients_float": [_num(c) for c in phi.coeffs]}
        if cmd == "verify":
            phi = self.phi
            # exact back-substitution: residual polynomial of the invariance
            res_poly = sum((k.apply(phi) for k in self.kernels),
                           DEFAULT_INHOMOGENEITY + phi.scale(-1))
            exact_zero = all(c == 0 for c in res_poly.coeffs)
            grid_res = float(np.abs(res_poly(np.linspace(0.0, 1.0, 1000))).max())
            return {"exact_residual_zero": exact_zero,
                    "grid_residual": _num(grid_res)}
        if cmd == "partition":
            n = _count(args, 4096)
            return {"n": n, "value": _num(partition_variation_estimate(n))}
        raise ScenarioError(f"unknown kernel command {cmd!r}")


class _SemigroupJob:
    def __init__(self, doc):
        field = _field(doc)
        self.rate = float(doc["rate"])
        if not np.isfinite(self.rate):
            raise ScenarioError(f"rate must be finite, got {self.rate!r}")
        self.target = float(doc["target"])
        if not 0.0 <= self.target <= 1.0:
            raise ScenarioError(f"target outside [0, 1]: {self.target!r}")
        self.base = _parse_measure(doc["base"], field)
        self.tol = _tol(_object(doc.get("solver", {}), "solver"), 1e-12)

    @cached_property
    def solution(self):
        return exp_decay_fixed_point(self.rate, self.target, self.base,
                                     tol=self.tol)

    def command(self, cmd, args, out_dir, name):
        if cmd == "solve":
            mu, _ = self.solution
            return {"total": _vec(mu.total()),
                    "atoms": mu.n_atoms, "pieces": mu.n_pieces,
                    "target_weight": _vec(
                        mu.evaluate(QuerySet.point(self.target)))}
        if cmd == "verify":
            _, res = self.solution
            return {"residual": _num(res), "error_bound": _num(self.tol)}
        raise ScenarioError(f"unknown semigroup command {cmd!r}")


_JOBS = {"ifs": _IFSJob, "kernel": _KernelJob, "semigroup": _SemigroupJob}


def _load_scenario(spec: str) -> tuple[dict, str]:
    """Resolve a path or the name of a bundled scenario."""
    p = Path(spec)
    if p.exists():
        return json.loads(p.read_text()), p.stem
    if "/" not in spec and not spec.endswith(".json"):
        ref = resources.files("ifsmeasure").joinpath(f"scenarios/{spec}.json")
        if ref.is_file():
            return json.loads(ref.read_text()), spec
    raise FileNotFoundError(f"scenario {spec!r} not found")


def run(spec: str, out_dir: str = ".", tol: float | None = None,
        fmt: str = "text") -> tuple[int, str]:
    """Execute a scenario; returns (exit_code, report).  Any KeyError,
    TypeError or ValueError raised while loading the scenario and building
    its job exits 2: that is the one parse boundary."""
    try:
        doc, name = _load_scenario(spec)
        kind = _object(doc, "scenario").get("kind")
        if kind not in _JOBS:
            raise ScenarioError(f"unknown scenario kind {kind!r}")
        if tol is not None:
            doc = {**doc, "solver": {**doc.get("solver", {}), "tol": tol}}
        commands = doc.get("commands", [])
        if not isinstance(commands, list):
            raise ScenarioError("commands must be a list")
        job = _JOBS[kind](doc)
    except FileNotFoundError as exc:
        return 2, f"error: {exc}"
    except KeyError as exc:
        return 2, f"error: invalid scenario: missing key {exc}"
    except (TypeError, ValueError, OverflowError) as exc:
        return 2, f"error: invalid scenario: {exc}"
    name = doc.get("name", name)
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    results = []
    try:
        for line in commands:
            parts = str(line).split()
            if not parts:
                raise ScenarioError("empty command")
            results.append((line, job.command(parts[0], parts[1:], out_dir,
                                              name)))
    except ScenarioError as exc:
        return 2, f"error: invalid scenario: {exc}"
    except (IterationLimit, RefinementLimit) as exc:
        return 4, _render(name, results, fmt,
                          error=f"tolerance not reached: {exc}")
    except ValueError as exc:  # NotContractive among them
        return 3, _render(name, results, fmt, error=f"precondition: {exc}")
    return 0, _render(name, results, fmt)


def _text(val) -> str:
    """One report value as text: lists as [a, b] of their items."""
    if isinstance(val, list):
        return "[" + ", ".join(_text(x) for x in val) + "]"
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, float):
        return f"{val:.15g}"
    return str(val)


def _render(name, results, fmt, error=None) -> str:
    if fmt == "json":
        doc = {"scenario": name,
               "results": [{"command": c, **r} for c, r in results]}
        if error:
            doc["error"] = error
        return json.dumps(doc, indent=2, sort_keys=True)
    lines = [f"scenario: {name}"]
    for cmdline, r in results:
        lines.append(f"{cmdline}: " + " ".join(
            f"{key}={_text(val)}" for key, val in r.items()))
    if error:
        lines.append(error)
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ifsmeasure",
        description="Invariant vector measures of iterated function systems")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a scenario file")
    runp.add_argument("scenario",
                      help="path to a scenario JSON, or a bundled scenario name")
    runp.add_argument("--out", default=".", help="output directory for exports")
    runp.add_argument("--tol", type=float, default=None,
                      help="override the solver tolerance")
    runp.add_argument("--format", choices=("text", "json"), default="text")
    ns = parser.parse_args(argv)
    code, report = run(ns.scenario, out_dir=ns.out, tol=ns.tol, fmt=ns.format)
    stream = sys.stdout if code == 0 else sys.stderr
    print(report, file=stream)
    return code


if __name__ == "__main__":
    sys.exit(main())
