"""Benchmark of ifsmeasure through its entry point, ``ifsmeasure.cli.run``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload, one table

Run from the root of a source checkout; the package is imported from
``src/``.  One client in a closed loop: each workload run is a fresh
interpreter (``child.py``) with its own output directory, started only
after the previous one has ended, until ``--seconds`` have been spent.
BLAS and OpenMP are pinned to one thread, and each workload run to one
CPU, whose speed ``hostspeed.Probe`` samples while the run lasts.  Set-up
(import plus scenario load with the command list emptied) is timed in
fresh interpreters: SETUP_REPEATS before the loop and one after each
workload run, so that the set-up samples span the window as the workload
runs do.  Output checks run after the loop.

With ``--trace 0`` the result carries the end-to-end metrics: ``setup_s``
(median set-up time), ``wall_s`` (median over workload runs of the run's
wall time, summed over its ``cli.run`` calls) and ``peak_rss_mb`` (median
peak resident set of the workload process).  Both times are normalised to
the reference host speed of ``hostspeed``; the raw ones are printed as
``setup_raw_s`` and ``wall_raw_s``.  With ``--trace 1`` untraced and
traced runs alternate and the result carries the per-layer metrics of
the traced ones.  Lines before the last describe the machine and every
metric by name and unit; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import hostspeed
import tracing
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
SETUP_REPEATS = 5
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 150

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = ("blend_transport", "overlap_iterate", "overlap_histogram",
             "small_scenarios")

# Every end-to-end metric, printed.  The result line carries those that
# BENCHMARK.json gates; the others are printed only: raw times and
# latencies move with the load other tenants put on the host (up to twice
# as long, for minutes), fail_ratio is zero on a correct run, and err_ratio
# moves with the seed by construction.
UNITS = {"setup_s": "s", "setup_raw_s": "s", "wall_s": "s", "wall_raw_s": "s",
         "probe_ms": "ms", "peak_rss_mb": "MB", "op_p50_ms": "ms",
         "op_p90_ms": "ms", "fail_ratio": "ratio", "err_ratio": "ratio"}


def _prepare(name: str, seed: int, work: Path):
    """Scenario docs by spec, and a function giving the specs of run i."""
    if name in ("overlap_iterate", "overlap_histogram"):
        doc = getattr(wl, name)(seed)
        path = work / f"{name}.json"
        path.write_text(json.dumps(doc))
        return {str(path): doc}, lambda i: [str(path)]
    if name == "blend_transport":
        return {"cantor_blend": wl.bundled_doc(ROOT, "cantor_blend")}, \
            lambda i: ["cantor_blend"]
    if name == "small_scenarios":
        docs = {s: wl.bundled_doc(ROOT, s) for s in wl.SMALL_SCENARIOS}
        rng = random.Random(seed)
        return docs, lambda i: rng.sample(wl.SMALL_SCENARIOS,
                                          len(wl.SMALL_SCENARIOS))
    raise ValueError(f"unknown workload {name!r}")


def _child(work: Path, tag: str, specs: list, trace: bool,
           probe: str = "during") -> tuple[dict, Path]:
    out = work / tag
    out.mkdir()
    job = {"specs": specs, "out_dir": str(out), "trace": trace,
           "probe": probe, "result": str(out / "result.json")}
    (out / "job.json").write_text(json.dumps(job))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"),
                           str(out / "job.json")],
                          cwd=out, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return {"calls": [{"spec": s, "code": None} for s in specs]}, out
    return json.loads((out / "result.json").read_text()), out


def _machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": BLAS_THREADS}


def _p90(samples: list) -> float | None:
    """The 90th percentile, if at least ten samples lie beyond it."""
    if len(samples) < 2:
        return None
    p90 = statistics.quantiles(samples, n=10)[-1]
    return p90 if sum(s > p90 for s in samples) >= 10 else None


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        docs, specs_of = _prepare(name, seed, work)
        references = json.loads((BENCH / "reference.json").read_text())
        setup_specs = []
        for spec, doc in docs.items():
            path = work / f"setup_{doc['name']}.json"
            path.write_text(json.dumps(dict(doc, commands=[])))
            setup_specs.append(str(path))
        setup = []

        def time_setup():
            res, _ = _child(work, f"setup{len(setup)}", setup_specs, False,
                            probe="after")
            if any(c["code"] != 0 for c in res["calls"]):
                raise SystemExit(f"{name}: set-up failed")
            setup.append(res)

        for _ in range(SETUP_REPEATS):
            time_setup()
        runs, durations = [], []
        start = time.perf_counter()
        while True:
            traced = trace and len(runs) % 2 == 1
            t0 = time.perf_counter()
            res, out = _child(work, f"run{len(runs)}", specs_of(len(runs)), traced)
            time_setup()
            durations.append(time.perf_counter() - t0)
            runs.append((res, out, traced))
            elapsed = time.perf_counter() - start
            if (elapsed + statistics.median(durations) / 2 >= seconds
                    and len(runs) >= (2 if trace else 1)):
                break

        attempted = failed = 0
        err_ratio = 0.0
        components = set()
        for res, out, _ in runs:
            for call in res["calls"]:
                attempted += 1
                try:
                    if call["code"] != 0:
                        raise wl.CheckFailed(f"{call['spec']}: exit code "
                                             f"{call['code']}")
                    report = json.loads(call["report"])
                    err_ratio = max(err_ratio, wl.check_call(
                        docs[call["spec"]], report, out, references))
                    size = wl.report_components(report)
                    if size is not None:
                        components.add(size)
                except Exception:  # any failed check fails this operation
                    failed += 1
                    traceback.print_exc()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def wall(r):
        return sum(c["seconds"] for c in r["calls"])

    def normalised(r):
        return wall(r) * hostspeed.REFERENCE_S / r["probe_s"]

    def setup_normalised(r):
        return r["elapsed_s"] * hostspeed.REFERENCE_S / r["probe_s"]

    plain = [r for r, _, t in runs if not t and "elapsed_s" in r]
    ops = [c["seconds"] for r in plain for c in r["calls"]]
    walls = [wall(r) for r in plain]
    summary = {
        "workload": name, "seed": seed, "runs": len(plain), "ops": len(ops),
        "setup_s": statistics.median(map(setup_normalised, setup)),
        "setup_raw_s": statistics.median(r["elapsed_s"] for r in setup),
        "wall_s": statistics.median(map(normalised, plain)) if plain else None,
        "wall_raw_s": statistics.median(walls) if walls else None,
        "probe_ms": 1000.0 * statistics.median(r["probe_s"] for r in plain)
        if plain else None,
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024.0 for r in plain)
        if plain else None,
        "op_p50_ms": 1000.0 * statistics.median(ops) if ops else None,
        "op_p90_ms": None if _p90(ops) is None else 1000.0 * _p90(ops),
        "fail_ratio": failed / attempted,
        "err_ratio": err_ratio,
        "attempted": attempted, "failed": failed,
        "components": sorted(components),
        "wall_samples": walls,
        "norm_samples": [normalised(r) for r in plain],
    }
    if trace:
        layers = [tracing.layer_metrics(r["spans"]) for r, _, t in runs
                  if t and "spans" in r]
        per_layer = {k: statistics.median(m[k] for m in layers)
                     for k in layers[0]} if layers else {}
        traced = [normalised(r) for r, _, t in runs if t and "spans" in r]
        if traced and plain:
            per_layer["trace.overhead_s"] = (statistics.median(traced)
                                             - summary["wall_s"])
        summary["per_layer"] = per_layer
    return summary


def _print_summary(s: dict) -> None:
    print(f"# {s['workload']} seed={s['seed']}: {s['runs']} untraced runs, "
          f"{s['ops']} cli.run calls; fail_ratio={s['failed']}/{s['attempted']}"
          f" cli.run calls; iterate size (atoms+pieces): {s['components']}")
    print("  wall samples (s): " + " ".join(f"{w:.4g}" for w in s["wall_samples"]))
    print("  normalised (s):   " + " ".join(f"{w:.4g}" for w in s["norm_samples"]))
    for key, unit in UNITS.items():
        value = s[key]
        shown = "n/a (fewer than ten samples beyond it)" if value is None \
            else f"{value:.6g} {unit}"
        print(f"  {key:<12} {shown}")
    for key, value in s.get("per_layer", {}).items():
        print(f"  {key:<32} {value:.6g}")


def _result(s: dict, metrics: list, prefix: str) -> dict:
    """The metrics BENCHMARK.json names, from one workload's summary."""
    values = s.get("per_layer", s)
    return {prefix + m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
            for m in metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills the running child and the
    # work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "ifsmeasure" / "__init__.py").is_file():
        print(f"error: no ifsmeasure sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if ns.trace else spec["end_to_end"]
    names = WORKLOADS if ns.workload == "all" else (ns.workload,)
    print("# machine: " + json.dumps(_machine()))
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        s = measure(name, ns.seed, ns.seconds, bool(ns.trace))
        _print_summary(s)
        correct &= s["failed"] == 0 and s["err_ratio"] <= 1.0
        attempted += s["attempted"]
        failed += s["failed"]
        prefix = f"{name}." if ns.workload == "all" else ""
        metrics.update(_result(s, wanted, prefix))
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
