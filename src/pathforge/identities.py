"""Exact verification of five Catalan/Narayana identities.

Every sum over paths comes from the transfer-matrix DP in ``fold``, which
the tests cross-check against enumeration of every path for small k.

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

from .fold import fold_alt_motzkin, fold_dyck
from .numeric import GAMMA, GammaPoly, catalan, narayana_poly

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
    def difference(self) -> Value:
        return self.lhs - self.rhs

    @property
    def value_kind(self) -> str:
        return "polynomial" if isinstance(self.lhs, GammaPoly) else "rational"

    @property
    def is_default_convention(self) -> bool:
        return self.rhs_index is None or self.rhs_index == DEFAULT_RHS_INDEX[self.identity]


def verify_thm1(k: int) -> IdentityReport:
    """Squared norm of the expected rise vector of Dyck paths equals
    C_{2k}/C_k^2 - 1."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    c = catalan(k)
    f = fold_dyck(k)
    lhs = Fraction(sum(s * s for s in f.rise_sums), c * c)
    rhs = Fraction(catalan(2 * k), c * c) - 1
    return IdentityReport("thm1", k, lhs, rhs)


def verify_thm2(k: int) -> IdentityReport:
    """Squared norm of the expected vertex vector of Dyck paths equals
    C_{2k+1}/C_k^2."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    c = catalan(k)
    f = fold_dyck(k)
    lhs = Fraction(sum(s * s for s in f.vertex_sums), c * c)
    rhs = Fraction(catalan(2 * k + 1), c * c)
    return IdentityReport("thm2", k, lhs, rhs)


def verify_thm3(k: int) -> IdentityReport:
    """Rise-weighted analogue for alternating Motzkin paths, compared as
    numerators cleared of the N_k(gamma)^2 denominator:
    sum_i S_R[i]^2 + gamma * sum_i S_L[i]^2 = N_{2k} - N_k^2."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    f = fold_alt_motzkin(k)
    lhs = GammaPoly()
    for row in f.rise_sums:
        p = GammaPoly(row)
        lhs = lhs + p * p
    level_part = GammaPoly()
    for row in f.level_sums:
        p = GammaPoly(row)
        level_part = level_part + p * p
    lhs = lhs + GAMMA * level_part
    rhs = narayana_poly(2 * k) - narayana_poly(k) * narayana_poly(k)
    return IdentityReport("thm3", k, lhs, rhs)


def verify_thm4(k: int, rhs_index: str = "k-1") -> IdentityReport:
    """Dyck identity with no known bijective proof: the total of
    R_i/2 * (2i+3-R_i) over paths of length 2k against the total of
    C(V_i+1, 2) over paths one size down (rhs_index "k-1", the convention
    matching the worked example) or the same size ("k")."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if rhs_index not in ("k", "k-1"):
        raise ValueError(f"rhs_index must be 'k' or 'k-1', got {rhs_index!r}")
    f = fold_dyck(k)
    lhs = Fraction(sum(f.rise_open_sums), 2)
    j = k if rhs_index == "k" else k - 1
    g = fold_dyck(j)
    rhs = Fraction(sum(g.vertex_pair_sums[i] for i in range(min(k, j + 1))))
    return IdentityReport("thm4", k, lhs, rhs, rhs_index=rhs_index)


def verify_thm5(k: int, rhs_index: str = "k") -> IdentityReport:
    """Rise-weighted alternating Motzkin identity with no known bijective
    proof: sum of gamma^r * (sum (i+1)R_i + gamma * sum i*L_i) against
    sum of gamma^r * (sum C(R_i,2) + gamma * sum C(L_i,2)), with the right
    side over the same size ("k", matching the worked example) or one size
    down ("k-1")."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if rhs_index not in ("k", "k-1"):
        raise ValueError(f"rhs_index must be 'k' or 'k-1', got {rhs_index!r}")
    f = fold_alt_motzkin(k)
    lhs = GammaPoly(f.weighted_rise_sums) + GAMMA * GammaPoly(f.weighted_level_sums)
    g = f if rhs_index == "k" else fold_alt_motzkin(k - 1)
    rhs = GammaPoly(g.rise_pair_sums) + GAMMA * GammaPoly(g.level_pair_sums)
    return IdentityReport("thm5", k, lhs, rhs, rhs_index=rhs_index)


@dataclass(frozen=True)
class SweepResult:
    """Reports for a range of sizes, with a truncation flag when a time
    budget ran out before the sweep finished."""

    reports: tuple[IdentityReport, ...]
    truncated: bool = False

    @property
    def all_expected_equal(self) -> bool:
        """Every report under the default conventions is an equality."""
        return all(r.equal for r in self.reports if r.is_default_convention)


def sweep(
    identities: Sequence[str] = IDENTITIES,
    k_max: int = 6,
    time_budget: float | None = None,
) -> SweepResult:
    """Verify the named identities for every size up to k_max.

    Identities 4 and 5 are verified in both right-hand-side variants so
    the mismatching one stays visible.  A time budget (seconds) truncates
    the sweep between units of work.
    """
    for name in identities:
        if name not in IDENTITIES:
            raise ValueError(f"unknown identity {name!r}")
    start = time.perf_counter()
    reports: list[IdentityReport] = []
    for name in identities:
        k_min = 2 if name in ("thm4", "thm5") else 1
        for k in range(k_min, k_max + 1):
            if time_budget is not None and time.perf_counter() - start > time_budget:
                return SweepResult(tuple(reports), truncated=True)
            if name == "thm1":
                reports.append(verify_thm1(k))
            elif name == "thm2":
                reports.append(verify_thm2(k))
            elif name == "thm3":
                reports.append(verify_thm3(k))
            elif name == "thm4":
                reports.append(verify_thm4(k, "k-1"))
                reports.append(verify_thm4(k, "k"))
            else:
                reports.append(verify_thm5(k, "k"))
                reports.append(verify_thm5(k, "k-1"))
    return SweepResult(tuple(reports))
