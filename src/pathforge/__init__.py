"""Dyck and alternating Motzkin paths: altitude statistics, reversible
doubling constructions, exact Catalan/Narayana identity verification,
halfline-walk translation, and Monte Carlo random-matrix moment checks.

Modules
-------
numeric
    Catalan/Narayana numbers and exact integer polynomials in gamma.
paths
    Path parsing, validation, enumeration, and altitude statistics.
fold
    Exact path statistics summed over all paths of a size, by a
    transfer-matrix DP.
bijections
    The four reversible constructions and their inverses.
identities
    Exact verification of the five identities.
walks
    Closed halfline walks and the path correspondence.
moments
    Wigner/Wishart Monte Carlo moment estimates.
cli
    The ``pathforge`` command-line tool.
"""

from .fold import (
    AltMotzkinFold,
    BACKEND_NAME,
    DyckFold,
    HAVE_COMPILED,
    fold_alt_motzkin,
    fold_dyck,
)
from .numeric import GAMMA, GammaPoly, ONE, ZERO, catalan, narayana, narayana_poly
from .paths import (
    AltitudeStats,
    Path,
    PathKind,
    check_level_parity,
    enumerate_alt_motzkin,
    enumerate_dyck,
    expectation_vectors,
    parse,
    stats,
)
from .bijections import (
    FiveTuple,
    MidPath,
    construct,
    five_tuples,
    image_paths,
    invert,
    middle_altitude,
)
from .identities import (
    IdentityReport,
    SweepResult,
    sweep,
    verify_thm1,
    verify_thm2,
    verify_thm3,
    verify_thm4,
    verify_thm5,
)
from .walks import (
    Walk,
    WalkIdentitySummary,
    WalkStatistics,
    alt_motzkin_to_walk,
    dyck_to_walk,
    walk_identity_summary,
    walk_statistics,
    walk_to_alt_motzkin,
    walk_to_dyck,
)
from .moments import MomentEstimate, trace_power, wigner_moment, wishart_moment

__version__ = "0.1.0"
