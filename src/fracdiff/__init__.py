"""fracdiff: Mittag-Leffler spectral solvers for time-fractional diffusion.

Modules
-------
mlf          two-parameter Mittag-Leffler function E_{alpha,beta}
fracops      discrete fractional integral/derivative operators (RL, L1)
spectral     1-D elliptic eigendecomposition (Neumann/Robin)
linsolve     linear mild-solution solvers, the shared Volterra fixed-point engine
semilinear   Picard contraction, monotone iteration, comparison, barriers
systems      reaction systems: multi-order linear systems, semilinear pairs
expressions  small expression grammar for scenario files
harness      scenario ingestion, property checks, reports
cli          `fracdiff` command-line entry point
"""

__version__ = "0.1.0"

from . import (  # noqa: F401
    expressions,
    fracops,
    harness,
    linsolve,
    mlf,
    semilinear,
    spectral,
    systems,
)
