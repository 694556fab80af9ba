"""Recompute bench/reference.json: the step-0.02 oracle values of criterion 5.

The region_search workload holds its ascent to within 5e-3 of these values.
Rerun after any change that moves the oracle's values:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from rdeq import optimize  # noqa: E402

STEP = 0.02
CAPS = (2, 2, 2)


def main() -> int:
    values = {}
    for name, cons in workloads.criterion5_constraints().items():
        res = optimize.brute_force_oracle(workloads.load_source(name), workloads.HAMMING2, CAPS,
                                          STEP, cons, workers=2)
        values[name] = [fp.point.delta for fp in res.points]
        print(name, values[name], file=sys.stderr)
    doc = {"step": STEP, "caps": list(CAPS), "values": values}
    workloads.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
