"""One fresh-process set-up: import fracdiff and run the warm-up solve.

Prints ``time.perf_counter()`` when the first timed operation could start.
The parent reads the same monotonic clock before it spawns this process, so
the difference is interpreter start + import + warm-up.  Usage:

    python3 bench/setup_probe.py <path of the checkout's src directory>
"""

import sys
import time


def warm_up():
    """Import fracdiff and pay its lazy imports with one tiny Picard solve
    (which reaches scipy.signal through convolve_K) and one CLI parse."""
    import numpy as np

    from fracdiff import cli  # imports every layer
    from fracdiff.fracops import TimeGrid
    from fracdiff.semilinear import SemilinearProblem, SemilinearTerm, picard_solve
    from fracdiff.spectral import EllipticOperator, eigendecompose

    basis = eigendecompose(EllipticOperator(3.0), 5, 5)
    prob = SemilinearProblem(basis, 0.5, np.ones(5), SemilinearTerm.enzyme())
    picard_solve(prob, TimeGrid.uniform(1.0, 4), shift=2.0)
    cli.build_parser()


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    warm_up()
    print(repr(time.perf_counter()), flush=True)
