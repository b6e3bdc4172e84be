"""ebmlab benchmark entry point.

    python3 benchmarks/run.py --workload train-cd --seed 0 --seconds 10 --trace 0

Run from the root of a checkout. Pins BLAS to one thread before numpy is
imported, then hands over to ``harness``. The last line of standard output
is the JSON result; see ``benchmarks/README.md``.
"""

import os
import sys

BLAS_THREADS = "1"


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    os.chdir(root)
    if not os.path.isfile(os.path.join("src", "ebmlab", "__init__.py")):
        print("benchmark: ebmlab sources (src/ebmlab) not found under " + root,
              file=sys.stderr)
        return 2
    sys.path[:0] = [here, os.path.join(root, "src")]
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
