"""Benchmark entry point; run from the root of a gwasgls checkout.

    python3 perfbench/run.py --workload ooc-trsm --seed 1 --seconds 20 --trace 0

Prints a report, then as its last line one JSON object with the keys
correct, attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "gwasgls" / "cli.py").is_file():
        print(f"no gwasgls sources under {SRC}; run from a gwasgls checkout",
              file=sys.stderr)
        return 2
    # This process checks results between solves; one BLAS thread keeps its
    # idle OpenBLAS workers from competing with the next measured solve.
    # Must be set before numpy is first imported.
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                      MKL_NUM_THREADS="1")
    sys.path.insert(0, str(SRC))
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    result, lines = harness.measure(harness.WORKLOADS[args.workload], args.seed,
                                    args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
