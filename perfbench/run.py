"""Benchmark command for mlslsh. Run it from the root of a checkout:

    python3 perfbench/run.py --workload cp-10k --seed 1 --seconds 20 --trace 0

It imports the library from the checkout's `src/` and nowhere else, and exits
with code 2 without a result when those sources are missing. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "mlslsh" / "__init__.py").is_file():
        print(f"perfbench: no mlslsh sources under {src}; run from a checkout", file=sys.stderr)
        return 2
    # one client process; BLAS gets one thread so the loop does not compete
    # with itself, and never more than nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import harness

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-reference",
        action="store_true",
        help="write this run's index sizes and bucket counts to reference.json",
    )
    return harness.main(parser.parse_args(argv), ROOT)


if __name__ == "__main__":
    sys.exit(main())
