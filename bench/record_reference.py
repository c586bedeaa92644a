"""Store the reports of the bundled scenarios as the benchmark's reference.

    python3 bench/record_reference.py

Run from the root of a source checkout.  The output checks compare every
bundled report against ``bench/reference.json``; re-record it only when a
change to the reported values is intended and explained.
"""

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from ifsmeasure import cli  # noqa: E402

SCENARIOS = ("cantor_blend", "cantor_triangular", "decay_transfer",
             "separable_kernel")


def main() -> int:
    (BENCH / "_work").mkdir(exist_ok=True)
    reports = {}
    with tempfile.TemporaryDirectory(dir=BENCH / "_work") as out:
        for name in SCENARIOS:
            code, report = cli.run(name, out_dir=out, fmt="json")
            if code != 0:
                print(report, file=sys.stderr)
                return 1
            reports[name] = json.loads(report)
            for r in reports[name]["results"]:
                if "path" in r:
                    r["path"] = Path(r["path"]).name
    (BENCH / "reference.json").write_text(
        json.dumps(reports, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
