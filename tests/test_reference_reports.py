"""The bundled scenarios still give the benchmark's reference answers.

Each bundled scenario runs through ``cli.run`` and its JSON report is
scored by ``bench/workloads.check_call`` against ``bench/reference.json``:
every value must agree with the stored one within the summed bounds and
satisfy its independent certificate checks, so the worst error ratio stays
at or below one.
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
