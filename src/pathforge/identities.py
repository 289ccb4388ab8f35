"""Exact verification of five Catalan/Narayana identities.

Every sum over paths comes from the transfer-matrix DP in ``fold``, which
the tests cross-check against enumeration of every path for small k.
A fold carries two per-altitude rows and the pair total of each, and
each ``verify_thmN`` derives its identity's sides from them.  Each takes
the folds a caller already has, indexed by size; without them it runs
one DP pass to its own k.  ``sweep`` folds each path kind that its
identities read once for all of them, every size up to k_max from a few
DP passes, never one pass per identity or per size, and
``SweepResult.passes`` decides which of its reports gate the verdict.

The first three compare squared expectation norms of altitude vectors with
Catalan/Narayana ratios; they hold for every k and the verifier checks
exact rational or polynomial equality.  For the last two, two competing
conventions exist for the size of the right-hand summation, so the
verifier computes both variants and reports which matches; the defaults
frozen here (Dyck paths one size down for identity 4, equal sizes for
identity 5) are the ones under which the identities actually hold, pinned
by the worked k=3 values 16 = 16 and 3g + 3g^2.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .fold import Fold, fold_upto
from .numeric import GAMMA, GammaPoly, catalan, narayana_poly
from .paths import PathKind

Value = Union[Fraction, GammaPoly]

IDENTITIES = ("thm1", "thm2", "thm3", "thm4", "thm5")

# rhs summation-size conventions matching the worked examples
DEFAULT_RHS_INDEX = {"thm4": "k-1", "thm5": "k"}


@dataclass(frozen=True)
class IdentityReport:
    """One verified equality: exact left and right values plus verdict."""

    identity: str
    k: int
    lhs: Value
    rhs: Value
    rhs_index: str | None = None

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs

    @property
    def is_default_convention(self) -> bool:
        return self.rhs_index is None or self.rhs_index == DEFAULT_RHS_INDEX[self.identity]


def verify_thm1(k: int, folds: Sequence[Fold] | None = None) -> IdentityReport:
    """Squared norm of the expected rise vector of Dyck paths equals
    C_{2k}/C_k^2 - 1.  ``folds[k]``, when given, is the size-k fold."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    c = catalan(k)
    if folds is None:
        folds = tuple(fold_upto(PathKind.DYCK, k))
    f = folds[k]
    lhs = Fraction(sum(s * s for s in f.rises), c * c)
    rhs = Fraction(catalan(2 * k), c * c) - 1
    return IdentityReport("thm1", k, lhs, rhs)


def verify_thm2(k: int, folds: Sequence[Fold] | None = None) -> IdentityReport:
    """Squared norm of the expected vertex vector of Dyck paths equals
    C_{2k+1}/C_k^2.  ``folds[k]``, when given, is the size-k fold."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    c = catalan(k)
    if folds is None:
        folds = tuple(fold_upto(PathKind.DYCK, k))
    f = folds[k]
    lhs = Fraction(sum(s * s for s in f.others), c * c)
    rhs = Fraction(catalan(2 * k + 1), c * c)
    return IdentityReport("thm2", k, lhs, rhs)


def verify_thm3(k: int, folds: Sequence[Fold] | None = None) -> IdentityReport:
    """Rise-weighted analogue for alternating Motzkin paths, compared as
    numerators cleared of the N_k(gamma)^2 denominator:
    sum_i S_R[i]^2 + gamma * sum_i S_L[i]^2 = N_{2k} - N_k^2.
    ``folds[k]``, when given, is the size-k fold."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if folds is None:
        folds = tuple(fold_upto(PathKind.ALT_MOTZKIN, k))
    f = folds[k]
    lhs = sum(p * p for p in f.rises) + GAMMA * sum(p * p for p in f.others)
    rhs = narayana_poly(2 * k) - narayana_poly(k) * narayana_poly(k)
    return IdentityReport("thm3", k, lhs, rhs)


def verify_thm4(
    k: int, rhs_index: str = "k-1", folds: Sequence[Fold] | None = None
) -> IdentityReport:
    """Dyck identity with no known bijective proof: the total of
    R_i/2 * (2i+3-R_i) over paths of length 2k against the total of
    C(V_i+1, 2) over paths one size down (rhs_index "k-1", the convention
    matching the worked example) or the same size ("k").  ``folds[j]``,
    when given, is the size-j fold for j = k-1 and k; by default one DP
    pass to k computes both."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if rhs_index not in ("k", "k-1"):
        raise ValueError(f"rhs_index must be 'k' or 'k-1', got {rhs_index!r}")
    if folds is None:
        folds = tuple(fold_upto(PathKind.DYCK, k))
    f = folds[k]
    # R(2i+3-R)/2 = (i+1)R - C(R, 2), and C(V+1, 2) = V + C(V, 2)
    lhs = Fraction(sum((i + 1) * r for i, r in enumerate(f.rises)) - f.rise_pairs)
    g = folds[k if rhs_index == "k" else k - 1]
    # the "k" variant sums below altitude k: that drops V_k but no pair,
    # as a path of size k has at most one vertex at k
    rhs = Fraction(sum(g.others[:k]) + g.other_pairs)
    return IdentityReport("thm4", k, lhs, rhs, rhs_index=rhs_index)


def verify_thm5(
    k: int, rhs_index: str = "k", folds: Sequence[Fold] | None = None
) -> IdentityReport:
    """Rise-weighted alternating Motzkin identity with no known bijective
    proof: sum of gamma^r * (sum (i+1)R_i + gamma * sum i*L_i) against
    sum of gamma^r * (sum C(R_i,2) + gamma * sum C(L_i,2)), with the right
    side over the same size ("k", matching the worked example) or one size
    down ("k-1").  ``folds[j]``, when given, is the size-j fold for
    j = k-1 and k; by default one DP pass to k computes both."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if rhs_index not in ("k", "k-1"):
        raise ValueError(f"rhs_index must be 'k' or 'k-1', got {rhs_index!r}")
    if folds is None:
        folds = tuple(fold_upto(PathKind.ALT_MOTZKIN, k))
    f = folds[k]
    lhs = (sum((i + 1) * r for i, r in enumerate(f.rises))
           + GAMMA * sum(i * x for i, x in enumerate(f.others)))
    g = folds[k if rhs_index == "k" else k - 1]
    rhs = g.rise_pairs + GAMMA * g.other_pairs
    return IdentityReport("thm5", k, lhs, rhs, rhs_index=rhs_index)


@dataclass(frozen=True)
class SweepResult:
    """Reports for a range of sizes, with a truncation flag when a time
    budget ran out before the sweep finished."""

    reports: tuple[IdentityReport, ...]
    truncated: bool = False

    def passes(self, rhs_index: str | None = None) -> bool:
        """Every report that gates the verdict is an equality: each report
        with one right-hand side, and of identities 4 and 5 the variant
        rhs_index selects (None: the default convention)."""
        return all(
            r.equal
            for r in self.reports
            if r.rhs_index is None
            or r.rhs_index == (rhs_index or DEFAULT_RHS_INDEX[r.identity])
        )


def _staged_folds(kind: PathKind, k_max: int):
    """Yield every fold of the kind from the DP passes to ceil(k_max / 2**j)
    for j = ceil(log2 k_max) .. 0, sizes repeating from one pass to the next.

    A pass to K costs O(K^3) and each pass goes about twice as far as the
    one before it, so together they cost about 8/7 of the last one.  The
    time between two folds grows with the sizes already reached, not with
    k_max, so a time budget checked between folds binds even when k_max is
    huge.
    """
    for j in reversed(range((k_max - 1).bit_length() + 1)):
        yield from fold_upto(kind, -(-k_max >> j))


# identity -> the fold kind it reads, its first k, and one call of its
# verifier per right-hand variant, in report order.  The verifiers are
# looked up when called, so a wrapper put on this module's verify_thmN
# sees every call a sweep makes.
_SWEEP = {
    "thm1": (PathKind.DYCK, 1, (lambda k, f: verify_thm1(k, f),)),
    "thm2": (PathKind.DYCK, 1, (lambda k, f: verify_thm2(k, f),)),
    "thm3": (PathKind.ALT_MOTZKIN, 1, (lambda k, f: verify_thm3(k, f),)),
    "thm4": (PathKind.DYCK, 2, (lambda k, f: verify_thm4(k, "k-1", f),
                                lambda k, f: verify_thm4(k, "k", f))),
    "thm5": (PathKind.ALT_MOTZKIN, 2, (lambda k, f: verify_thm5(k, "k", f),
                                       lambda k, f: verify_thm5(k, "k-1", f))),
}


def sweep(
    identities: Sequence[str] = IDENTITIES,
    k_max: int = 6,
    time_budget: float | None = None,
) -> SweepResult:
    """Verify the named identities for every size up to k_max.

    Identities 4 and 5 are verified in both right-hand-side variants so
    the mismatching one stays visible.  A fold kind is computed only if
    one of the identities reads it, by the staged passes of
    ``_staged_folds``, and every identity of that kind reads the same
    folds.  A time budget (seconds) truncates the sweep between units of
    work and between folds; the reports are then a prefix of the full
    sweep's.
    """
    for name in identities:
        if name not in IDENTITIES:
            raise ValueError(f"unknown identity {name!r}")
    start = time.perf_counter()

    def out_of_time() -> bool:
        return time_budget is not None and time.perf_counter() - start > time_budget

    passes = {kind: _staged_folds(kind, k_max) for kind in PathKind}
    folds: dict[PathKind, list] = {kind: [] for kind in PathKind}
    reports: list[IdentityReport] = []
    for name in identities:
        kind, k_min, variants = _SWEEP[name]
        have = folds[kind]
        for k in range(k_min, k_max + 1):
            while len(have) <= k and not out_of_time():
                f = next(passes[kind])
                if f.k == len(have):
                    have.append(f)
            if out_of_time():
                return SweepResult(tuple(reports), truncated=True)
            reports.extend(verify(k, have) for verify in variants)
    return SweepResult(tuple(reports))
