"""Scenario runner: JSON descriptions in, deterministic reports out.

A scenario file declares one job (an iterated-map system, a separable-kernel
invariance problem, or a decaying constant-target transfer) plus a list of
commands.  An iterated-map system is solved in the metric it decides
(``iterate_fixed_point``), which ``solve`` reports as ``norm``.  Reports
are reproducible byte for byte on one host: fixed command order, fixed
formatting (15 significant digits), no randomness.  Another CPU or numpy
build may round a vectorised sum differently and move low digits.

Exit codes: 0 success, 2 scenario parse/validation error (a malformed
document, value or command argument, or an output path that cannot be
written), 3 solver precondition violated, 4 tolerance not reached within
budget.
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
from .kernelops import (DEFAULT_INHOMOGENEITY, SeparableKernel, _MAX_CELLS,
                        _MAX_GRID, kernel_sup_bound,
                        partition_variation_estimate, solve_invariance)
# apply_markov and eval_fixed_point are unused here; bench/tracing.py
# wraps them at these bindings
from .markov import (IFSystem, apply_markov, eval_fixed_point, eval_many,
                     factors, iterate_fixed_point, residual)
from .measure import VectorMeasure, _unique
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
# cap on a semigroup base's coordinates: verify integrates four test
# functions per coordinate
_MAX_SEMIGROUP_DIM = 256


class ScenarioError(ValueError):
    """Scenario file malformed or inconsistent."""


def _object(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise ScenarioError(f"{what} must be an object")
    return doc


def _count(value, lo: int, hi, what: str) -> int:
    """``value`` as an integer in ``lo..hi`` (``hi`` None: no cap): an
    integer, a float equal to one (``1e9``) or, for a command word, the
    text of one.  A boolean, a fraction, a non-finite float, any other
    value and one out of range are a ScenarioError that names it."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(
            f"{what} must be an integer, got {value!r} ({exc})") from None
    if isinstance(value, bool) or (isinstance(value, float) and n != value):
        raise ScenarioError(f"{what} must be an integer, got {value!r}")
    if n < lo or (hi is not None and n > hi):
        limits = f"at least {lo}" if hi is None else f"between {lo} and {hi}"
        raise ScenarioError(f"{what} must be {limits}, got {n}")
    return n


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
    grid = _unique(np.concatenate(ts))
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
        dim = _count(doc["dimension"], 1, None, "dimension")
        solver = _object(doc.get("solver", {}), "solver")
        # every width is checked before any measure is built: a measure is
        # as wide as its document declares, the system as its operators
        for r in doc["operators"]:
            if np.shape(r) != (dim, dim):
                raise ScenarioError(f"operator of shape {np.shape(r)} in a "
                                    f"dimension-{dim} system")
        given = {"base": doc.get("base"), "start": solver.get("start")}
        for what, m in given.items():
            if m is None:
                continue
            m_field = _object(m, what).get("field", field)
            m_dim = m["dimension"]
            if m_dim != dim or (m_field, field) == ("complex", "real"):
                raise ScenarioError(
                    f"{what} is a {m_field} dimension-{m_dim!r} measure in a "
                    f"{field} dimension-{dim} system")
        # an absent base or start is the zero measure
        base, self.start = (VectorMeasure.zero(dim, field) if m is None
                            else _parse_measure(m, field)
                            for m in given.values())
        self.system = IFSystem(doc["maps"], doc["operators"], base=base,
                               dim=dim, field=field)
        self.query_sets = {
            name: QuerySet.from_dict(_object(q, "query set"))
            for name, q in _object(doc.get("query_sets", {}),
                                   "query_sets").items()}
        self.tol = _tol(solver, 1e-8)
        self.max_iter = _count(solver.get("max_iter", 200), 0, None,
                               "max_iter")
        self.samples = _count(solver.get("samples", 201), 2, _MAX_SAMPLES,
                              "samples")

    @cached_property
    def solution(self):
        return iterate_fixed_point(self.system, self.start, tol=self.tol,
                                   max_iter=self.max_iter)

    @cached_property
    def evals(self):
        """``eval_many`` results by name for every declared query set, in
        declaration order: one call, on one graph, the first time a
        command reads a value."""
        return dict(zip(self.query_sets, eval_many(
            self.system, list(self.query_sets.values()), self.tol)))

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
                    "total": _vec(res.total),
                    "atoms": res.measure.n_atoms,
                    "pieces": res.measure.n_pieces}
        if cmd == "eval":
            if len(args) != 1 or args[0] not in self.query_sets:
                raise ScenarioError(f"eval needs a declared query set, got {args}")
            v = self.evals[args[0]].value
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
            # the residual in the metric the solve certified; set
            # evaluation needs a variation contraction
            sol = self.solution
            mu = sol.measure
            out = {f"residual_{sol.norm}": _num(residual(self.system, mu))}
            if sol.norm == "variation" and self.query_sets:
                got = mu.evaluate_many(list(self.query_sets.values()))
                want = [res.value for res in self.evals.values()]
                out["solver_vs_eval"] = _num(np.abs(got - want).max())
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
            grid = _count(args[0] if args else 64, 2, _MAX_GRID, "supbound")
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
            n = _count(args[0] if args else 4096, 1, _MAX_CELLS, "partition")
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
        base = _object(doc["base"], "base")
        dim = _count(base["dimension"], 0, _MAX_SEMIGROUP_DIM, "base dimension")
        if "dimension" in doc and _count(doc["dimension"], 0, None,
                                         "dimension") != dim:
            raise ScenarioError(f"dimension {doc['dimension']!r} differs from "
                                f"the base dimension {dim}")
        self.base = _parse_measure(base, field)
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
        name = doc.get("name", name)
        if not isinstance(name, str) or any(c in name for c in "/\0"):
            raise ScenarioError(f"name must be a file name, got {name!r}")
        if tol is not None:
            doc = {**doc, "solver": {**doc.get("solver", {}), "tol": tol}}
        commands = doc.get("commands", [])
        if not isinstance(commands, list):
            raise ScenarioError("commands must be a list")
        job = _JOBS[kind](doc)
    except OSError as exc:  # FileNotFoundError among them
        return 2, f"error: {exc}"
    except KeyError as exc:
        return 2, f"error: invalid scenario: missing key {exc}"
    except (TypeError, ValueError, OverflowError) as exc:
        return 2, f"error: invalid scenario: {exc}"
    results = []
    try:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        for line in commands:
            parts = str(line).split()
            if not parts:
                raise ScenarioError("empty command")
            results.append((line, job.command(parts[0], parts[1:], out_dir,
                                              name)))
    except ScenarioError as exc:
        return 2, f"error: invalid scenario: {exc}"
    except OSError as exc:  # --out or an export file
        return 2, f"error: cannot write to --out {out_dir!r}: {exc}"
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
