"""Finite-difference potential theory for semilinear problems Lu = phi(x, u).

Discrete harmonic extensions and Green potentials on box grids, the
monotone fixed-point solution operator, domain-exhaustion limits on
half-plane truncations, and thinness-at-infinity certificates.
"""

from .geometry import (
    Grid,
    Exhaustion,
    build_box_grid,
    build_halfplane_truncation,
    build_exhaustion,
    restrict,
)
from .expr import Expr, parse
from .operator import EllipticCoefficients, DiscreteOperator, assemble, apply, check_superharmonic
from .potential import (
    GreenOperator,
    factorize,
    condition_factor,
    harmonic_extension,
    green_potential,
    interval_green,
    halfplane_green,
    poisson_extension,
)
from .solver import (
    Nonlinearity,
    SolveReport,
    NonConvergence,
    apply_T,
    solve_U,
    check_comparison,
    check_monotone_in_data,
)
from .exhaustion import (
    ExhaustionRun,
    run_exhaustion,
    harmonic_majorant,
    correspondence_roundtrip,
)
from .thinness import (
    ThinnessCertificate,
    verify_certificate,
    mask_predicate,
    criterion_integral,
    necessary_direction_probe,
)
from .config import ConfigError, RunConfig, load_config
from .verification import SUITES, run_suites

__version__ = "0.1.0"
