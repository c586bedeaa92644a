"""The bundled scenarios still give the benchmark's reference answers.

Each bundled scenario runs through ``cli.run`` and its JSON report is
scored by ``bench/workloads.check_call`` against ``bench/reference.json``:
every value must agree with the stored one within the summed bounds and
satisfy its independent certificate checks, so the worst error ratio stays
at or below one.  The generated overlap workloads (seed 1) are scored the
same way, against the closed-form total of their fixed point.
"""

import json
from pathlib import Path

import pytest

from ifsmeasure.cli import run

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


@pytest.mark.parametrize("name", ["cantor_blend", "cantor_triangular",
                                  "decay_transfer", "separable_kernel"])
def test_bundled_report_matches_the_reference(tmp_path, bench_module, name):
    wl = bench_module("workloads")
    references = json.loads((BENCH / "reference.json").read_text())
    code, report = run(name, out_dir=str(tmp_path), fmt="json")
    assert code == 0, report
    ratio = wl.check_call(wl.bundled_doc(ROOT, name), json.loads(report),
                          tmp_path, references)
    assert ratio <= 1.0


@pytest.mark.parametrize("name", ["overlap_iterate", "overlap_histogram"])
def test_generated_workload_meets_its_checks(tmp_path, bench_module, name):
    wl = bench_module("workloads")
    doc = getattr(wl, name)(1)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    code, report = run(str(path), out_dir=str(tmp_path), fmt="json")
    assert code == 0, report
    assert wl.check_call(doc, json.loads(report), tmp_path, {}) <= 1.0
