"""Dyck and alternating Motzkin paths: altitude statistics, reversible
doubling constructions, exact Catalan/Narayana identity verification,
halfline-walk translation, and Monte Carlo random-matrix moment checks.

``import pathforge`` loads no submodule.  Each public name below, and each
submodule but ``moments`` and ``cli``, is an attribute of the package that
imports its module on first use (PEP 562), so a caller pays only for the
modules it touches: ``pathforge.sweep`` loads the fold, ``pathforge.Path``
does not.

Modules
-------
numeric
    Catalan/Narayana numbers and exact integer polynomials in gamma.
paths
    Path parsing, the step law of each kind, validation, enumeration,
    and altitude statistics.
fold
    Exact path statistics summed over all paths of a size, by a
    transfer-matrix DP over the step law: per kind, the rows of two events
    and their pair totals.  One pass yields every size up to a bound.
bijections
    The four reversible constructions and their inverses.
identities
    Exact verification of the five identities.
walks
    Closed halfline walks and the path correspondence.
moments
    Wigner/Wishart Monte Carlo moment estimates.  The only module that
    needs numpy, so the package does not export it: its names
    (``MomentEstimate``, ``wigner_moment``, ``wishart_moment``) are
    imported from ``pathforge.moments``.
cli
    The ``pathforge`` command-line tool.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        ["GAMMA", "GammaPoly", "catalan", "narayana", "narayana_poly"], "numeric"),
    **dict.fromkeys(
        ["AltitudeStats", "Path", "PathKind", "enumerate_alt_motzkin", "enumerate_dyck", "parse",
         "stats"], "paths"),
    **dict.fromkeys(["Fold", "fold_upto"], "fold"),
    **dict.fromkeys(
        ["FiveTuple", "MidPath", "construct", "invert", "middle_altitude"], "bijections"),
    **dict.fromkeys(["IdentityReport", "SweepResult", "sweep", "verify"], "identities"),
    **dict.fromkeys(["Walk", "path_to_walk", "walk_to_path"], "walks"),
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _SUBMODULES:
        # importing a submodule binds it on the package, so this runs once
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
