"""Set-up probe: import the program, build one workload's inputs, and exit.

``run.py`` times this script in a fresh interpreter several times per run
and reports the median wall time as ``setup_s``: everything a user pays
before the first discovery request can be served.  The probe prints the
import and input-building times it measured itself as one JSON line.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/setup_probe.py --workload fig5_ida --seed 1
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    import repro  # noqa: F401  (the import is what is being timed)

    imported = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    workload = workloads.build(args.workload, args.seed)
    if workload.uses_store:
        import repro.store  # noqa: F401
    built = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "inputs_s": built - imported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
