"""Spans around calls into ifsmeasure, installed from outside the package.

``Tracer.install`` replaces each public function at the module bindings
its callers look it up through (``markov.preimage``, ``cli.mk_star_exact``,
...) with a wrapper that records a span: name, start, end and the span
that was open when it was called.  Spans stay in memory; ``layer_metrics``
turns one run's spans into the per-layer metrics.  Untraced runs never
import this module, and ``restore`` puts every original binding back.
"""

from __future__ import annotations

import os
import time

# (module, attribute, span name, what to record from the call)
# A function is wrapped at every binding a caller in the package uses, so
# each call is seen exactly once.
_TARGETS = [
    ("cli", "run", "cli.run", None),
    ("cli", "export_cumulative", "cli.export", "export"),
    ("cli", "mk_star_exact", "mk_norm.mk_star", "panels"),
    ("markov", "mk_star_exact", "mk_norm.mk_star", "panels"),
    ("mk_norm", "mk_star_exact", "mk_norm.mk_star", "panels"),
    ("cli", "iterate_fixed_point", "markov.iterate", "iterate"),
    ("cli", "eval_fixed_point", "markov.eval", None),
    ("cli", "apply_markov", "markov.apply_markov", "components"),
    ("markov", "apply_markov", "markov.apply_markov", "components"),
    ("cli", "residual", "markov.residual", None),
    ("cli", "factors", "markov.factors", None),
    ("markov", "factors", "markov.factors", None),
    ("markov", "preimage", "space.preimage", None),
    ("markov", "pushforward", "measure.pushforward", "components"),
    ("markov", "apply_operator", "measure.apply_operator", "components"),
    ("markov", "accumulate", "measure.accumulate", "components"),
    ("markov", "prune", "measure.prune", "prune"),
    ("measure", "combine", "measure.combine", "components"),
    ("semigroup", "combine", "measure.combine", "components"),
    ("measure.VectorMeasure", "variation_norm", "measure.variation_norm", None),
    ("measure.VectorMeasure", "evaluate", "measure.evaluate", None),
    ("integral", "adaptive_gauss", "quadrature.adaptive_gauss", "integrand"),
    ("semigroup", "adaptive_gauss", "quadrature.adaptive_gauss", "integrand"),
    ("semigroup", "integrate", "integral.integrate", None),
    ("cli", "transfer_residual", "semigroup.transfer_residual", None),
    ("semigroup", "transfer_residual", "semigroup.transfer_residual", None),
    ("cli", "kernel_sup_bound", "kernelops.sup_bound", None),
    ("cli", "solve_invariance", "kernelops.solve", None),
]


def _size(mu) -> int:
    return mu.n_atoms + mu.n_pieces


def _record(kind, args, result) -> dict | None:
    if kind == "components":
        return {"components": _size(result)}
    if kind == "prune":
        return {"given": _size(args[0]), "components": _size(result)}
    if kind == "iterate":
        return {"iterations": result.iterations,
                "components": _size(result.measure)}
    if kind == "panels":
        return {"panels": len(args[0].breakpoints()) - 1}
    if kind == "export":
        return {"rows": result, "bytes": os.path.getsize(args[2])}
    return None


class Tracer:
    """Records spans as ``[name, start, end, parent, counts]`` lists."""

    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self._saved: list = []

    def _wrap(self, name, fn, kind):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            if kind == "integrand":
                counts = span[4] = {"evals": 0}
                f = args[0]

                def counted(t):
                    counts["evals"] += 1
                    return f(t)
                args = (counted,) + args[1:]
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if kind not in (None, "integrand"):
                span[4] = _record(kind, args, result)
            return result
        return traced

    def install(self, package) -> None:
        for where, attr, name, kind in _TARGETS:
            owner = package
            for part in where.split("."):
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, kind))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _ancestors(spans, i):
    p = spans[i][3]
    while p >= 0:
        yield p
        p = spans[p][3]


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one traced run.

    ``*_s`` is inclusive time summed over the outermost spans of that name;
    ``markov.eval_self_s`` is eval time not covered by its child spans
    (preimages and base evaluations), which leaves keying, assembly and
    the dense solve.
    """
    names = [s[0] for s in spans]
    child_time = [0.0] * len(spans)
    outermost, under_eval = [], []
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
        up = [names[p] for p in _ancestors(spans, i)]
        outermost.append(name not in up)
        under_eval.append("markov.eval" in up)

    def total(name):
        return sum(s[2] - s[1] for i, s in enumerate(spans)
                   if s[0] == name and outermost[i])

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    def count(name, key):
        return sum((s[4] or {}).get(key, 0) for s in spans if s[0] == name)

    evals = [i for i, n in enumerate(names) if n == "markov.eval"]
    nodes = sum(1 for i, n in enumerate(names)
                if n == "measure.evaluate" and under_eval[i])
    pre_calls = sum(1 for i, n in enumerate(names)
                    if n == "space.preimage" and under_eval[i])
    created = nodes - len(evals)  # every node but the query set is a preimage
    given = count("measure.prune", "given")
    kept = sum(s[4]["components"] for s in spans if s[0] == "measure.prune")
    peak = max((s[4]["components"] for s in spans
                if s[4] and "components" in s[4]), default=0)
    return {
        "cli.run_s": total("cli.run"),
        "mk_norm.mk_star_s": total("mk_norm.mk_star"),
        "mk_norm.mk_star_calls": calls("mk_norm.mk_star"),
        "mk_norm.mk_star_panels": count("mk_norm.mk_star", "panels"),
        "cli.export_s": total("cli.export"),
        "cli.export_rows": count("cli.export", "rows"),
        "cli.export_bytes": count("cli.export", "bytes"),
        "measure.pushforward_s": total("measure.pushforward"),
        "measure.apply_operator_s": total("measure.apply_operator"),
        "measure.accumulate_s": total("measure.accumulate"),
        "measure.combine_s": total("measure.combine"),
        "measure.prune_s": total("measure.prune"),
        "measure.variation_norm_s": total("measure.variation_norm"),
        "measure.components_peak": peak,
        "measure.prune_kept_ratio": kept / given if given else 0.0,
        "markov.iterate_s": total("markov.iterate"),
        "markov.iterations": count("markov.iterate", "iterations"),
        "markov.apply_markov_s": total("markov.apply_markov"),
        "markov.apply_markov_calls": calls("markov.apply_markov"),
        "markov.residual_s": total("markov.residual"),
        "markov.eval_s": total("markov.eval"),
        "markov.eval_calls": len(evals),
        "markov.graph_nodes": nodes,
        "markov.eval_self_s": sum(spans[i][2] - spans[i][1] - child_time[i]
                                  for i in evals),
        "markov.graph_hit_ratio": (pre_calls - created) / pre_calls if pre_calls else 0.0,
        "space.preimage_s": total("space.preimage"),
        "space.preimage_calls": calls("space.preimage"),
        "quadrature.adaptive_gauss_s": total("quadrature.adaptive_gauss"),
        "quadrature.adaptive_gauss_calls": calls("quadrature.adaptive_gauss"),
        "quadrature.integrand_evals": count("quadrature.adaptive_gauss", "evals"),
        "integral.integrate_s": total("integral.integrate"),
        "semigroup.transfer_residual_s": total("semigroup.transfer_residual"),
        "kernelops.sup_bound_s": total("kernelops.sup_bound"),
        "kernelops.solve_s": total("kernelops.solve"),
    }
