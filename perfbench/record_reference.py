"""Record the reference output digests the benchmark checks runs against.

    python3 perfbench/record_reference.py

Run from the repository root at a commit whose outputs are trusted.  It
runs quarter_car, msd_pair and every chain16 variant in-process once,
refuses a chain16 variant whose signals are not finite and bounded, and
rewrites ``perfbench/reference.json``.
"""
from __future__ import annotations

import csv
import json
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402

BOUND = 1e3


def _bounded(path: Path) -> bool:
    with open(path, newline="") as f:
        rows = csv.reader(f)
        next(rows)
        return all(math.isfinite(float(x)) and abs(float(x)) < BOUND
                   for row in rows for x in row)


def main() -> int:
    ref = {"chain16": {}}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for name in ("quarter_car", "msd_pair"):
            ref[name] = wl.Workload(wl.load_config(ROOT, name), out).run().digests
        for variant in range(wl.CHAIN16_VARIANTS):
            result = wl.Workload(wl.chain16_config(variant), out).run()
            if not _bounded(out / "signals.csv"):
                print(f"chain16 variant {variant} leaves |x| < {BOUND}", file=sys.stderr)
                return 1
            ref["chain16"][str(variant)] = result.digests
            print(f"chain16 variant {variant}: {result.steps} steps")
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
