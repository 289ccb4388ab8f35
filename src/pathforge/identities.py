"""Exact verification of five Catalan/Narayana identities.

Each identity is one row of ``_ROWS``: the path kind whose folds it
reads, its first size, its right-hand variants and the algebra that
gives its two sides from the folds.  Every sum over paths comes from the
transfer-matrix DP in ``fold``, which the tests cross-check against
enumeration of every path for small k.  ``verify`` checks one identity
at one size from one DP pass to its k.  ``sweep`` folds each path kind
that its identities read once for all of them, every size up to k_max
from a few DP passes, never one pass per identity or per size, and
``SweepResult.passes`` gives its verdict from the default-convention
reports.  Both read the sides through ``_report``.

The first three compare squared expectation norms of altitude vectors with
Catalan/Narayana ratios; they hold for every k and the verifier checks
exact rational or polynomial equality.  For the last two, two competing
conventions exist for the size of the right-hand summation, so the
verifier computes both variants and reports which matches; the defaults
frozen here (Dyck paths one size down for identity 4, equal sizes for
identity 5) are the ones under which the identities actually hold, pinned
by the worked k=3 values 16 = 16 and 3g + 3g^2.  Both are derived:
first- and last-passage decompositions at each event give every row and
pair total as a generating function.  With C the Catalan series and
y = xC^2, the Dyck rows are R_i = C y^(i+1) and V_i = C^2 y^i; read in
pairs of steps, an alternating Motzkin path is a Motzkin path, and with
N = x(1+N)(1+gN) the Narayana series and q = gN^2 its rows are
R_i = gN^2(1+N) q^i and L_i = N(1+N) q^i.  Both sides of identity 4 sum
to x/(1 - 4x), so both are 4^(k-1).  Both sides of identity 5 sum to
g x N / Delta, Delta = (1 - x(1+g))^2 - 4 g x^2, so both are
sum_{j=2..k} g N_{j-1}(g) c_{k-j}, c_n the x^n coefficient of 1/Delta.
The tests check the Dyck pieces, the alternating Motzkin rows and both
sides against the DP.  The derivation is algebraic: the combinatorial
proof the paper asks for is still open.  Found in pathforge, not taken
from the paper: through the letter map phi of ``bijections``, alternating
Motzkin paths are the Dyck paths of the same size, R_j and L_j summing the
rises D_h from h = 2j+1 and 2j, gamma counting rises on even steps.  So
identity 3 is identity 1 refined by gamma, and identity 5 is (5')
sum_h ceil(h/2) D_h = sum_h C(D_h, 2), over Dyck paths, refined by gamma;
given (5'), identity 4 is (4') sum_h (floor(h/2) + 1) D_h = 4^(k-1).
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence, Union

from .fold import Fold, fold_upto
from .numeric import GAMMA, GammaPoly, _check_size, catalan, narayana_poly
from .paths import PathKind

Value = Union[int, Fraction, GammaPoly]


class _Identity(NamedTuple):
    """One identity: the path kind it folds, its first k, its right-hand
    variants, default first (None: one right side), and ``sides(f, g, k)
    -> (lhs, rhs)`` from the size-k fold f and the fold g the variant
    selects (size k - 1 for "k-1", else f)."""

    kind: PathKind
    k_min: int
    variants: tuple[str | None, ...]
    sides: Callable[[Fold, Fold, int], tuple[Value, Value]]


# the default variants of identities 4 and 5 match the worked examples
_ROWS = {
    "thm1": _Identity(PathKind.DYCK, 1, (None,), lambda f, g, k: (
        Fraction(sum(s * s for s in f.rises), (c2 := catalan(k) ** 2)),
        Fraction(catalan(2 * k), c2) - 1)),
    "thm2": _Identity(PathKind.DYCK, 1, (None,), lambda f, g, k: (
        Fraction(sum(s * s for s in f.others), (c2 := catalan(k) ** 2)),
        Fraction(catalan(2 * k + 1), c2))),
    "thm3": _Identity(PathKind.ALT_MOTZKIN, 1, (None,), lambda f, g, k: (
        sum(p * p for p in f.rises) + GAMMA * sum(p * p for p in f.others),
        narayana_poly(2 * k) - narayana_poly(k) * narayana_poly(k))),
    "thm4": _Identity(PathKind.DYCK, 2, ("k-1", "k"), lambda f, g, k: (
        # R(2i+3-R)/2 = (i+1)R - C(R, 2), and C(V+1, 2) = V + C(V, 2)
        sum((i + 1) * r for i, r in enumerate(f.rises)) - f.rise_pairs,
        # the "k" variant sums below altitude k: that drops V_k but no pair,
        # as a path of size k has at most one vertex at k
        sum(g.others[:k]) + g.other_pairs)),
    "thm5": _Identity(PathKind.ALT_MOTZKIN, 2, ("k", "k-1"), lambda f, g, k: (
        sum((i + 1) * r for i, r in enumerate(f.rises))
        + GAMMA * sum(i * x for i, x in enumerate(f.others)),
        g.rise_pairs + GAMMA * g.other_pairs)),
}

IDENTITIES = tuple(_ROWS)


class IdentityReport(NamedTuple):
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
        return self.rhs_index == _ROWS[self.identity].variants[0]


def _row(name: str) -> _Identity:
    """The row of a named identity; an unknown name is a ValueError."""
    if name not in _ROWS:
        raise ValueError(f"unknown identity {name!r}")
    return _ROWS[name]


def _report(name: str, row: _Identity, k: int, rhs_index: str | None,
            folds: Sequence[Fold]) -> IdentityReport:
    """The named identity at size k in one right-hand variant, from the
    row's folds indexed by size (folds[j] of size j, up to k)."""
    g = k - 1 if rhs_index == "k-1" else k
    lhs, rhs = row.sides(folds[k], folds[g], k)
    return IdentityReport(name, k, lhs, rhs, rhs_index=rhs_index)


def verify(name: str, k: int, rhs_index: str | None = None) -> IdentityReport:
    """Verify the named identity at size k exactly, from one DP pass to k;
    a k that is not an int (a bool included) or is below the row's first
    size is a ValueError.

    ``rhs_index`` picks a right-hand variant of thm4 or thm5; None picks
    the row's default, which the report records.

    thm1: the squared norm of the expected rise vector of Dyck paths
      equals C_{2k}/C_k^2 - 1.
    thm2: the squared norm of the expected vertex vector of Dyck paths
      equals C_{2k+1}/C_k^2.
    thm3: the rise-weighted analogue for alternating Motzkin paths,
      compared as numerators cleared of the N_k(gamma)^2 denominator:
      sum_i S_R[i]^2 + gamma * sum_i S_L[i]^2 = N_{2k} - N_k^2.
    thm4: a Dyck identity with no known bijective proof: the total of
      R_i/2 * (2i+3-R_i) over paths of length 2k against the total of
      C(V_i+1, 2) over paths one size down ("k-1", the default, matching
      the worked example) or the same size ("k").
    thm5: a rise-weighted alternating Motzkin identity with no known
      bijective proof: the sum of gamma^r * (sum (i+1)R_i + gamma *
      sum i*L_i) against the sum of gamma^r * (sum C(R_i,2) + gamma *
      sum C(L_i,2)), the right side over the same size ("k", the
      default, matching the worked example) or one size down ("k-1").
    """
    row = _row(name)
    if rhs_index is None:
        rhs_index = row.variants[0]
    _check_size(k, row.k_min)
    if rhs_index not in row.variants:
        raise ValueError(f"rhs_index must be one of {row.variants}, got {rhs_index!r}")
    return _report(name, row, k, rhs_index, tuple(fold_upto(row.kind, k)))


class SweepResult(NamedTuple):
    """Reports for a range of sizes, with a truncation flag when a time
    budget ran out before the sweep finished."""

    reports: tuple[IdentityReport, ...]
    truncated: bool = False

    def passes(self) -> bool:
        """Every report in its row's default convention is an equality;
        the other variant of identities 4 and 5 fails at every size
        checked, so it informs and never gates."""
        return all(r.equal for r in self.reports if r.is_default_convention)


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


def sweep(identities: Sequence[str], k_max: int, time_budget: float | None = None) -> SweepResult:
    """Verify the named identities for every size up to k_max, an int
    (not a bool) and not negative, else a ValueError.

    Identities 4 and 5 are verified in both right-hand-side variants so
    the mismatching one stays visible; ``SweepResult.passes`` reads the
    default alone.  A fold kind is computed only if one of the
    identities reads it, by the staged passes of ``_staged_folds``, and
    every identity of that kind reads the same folds.  A time budget
    (seconds) truncates the sweep between units of work and between
    folds; the reports are then a prefix of the full sweep's.
    """
    rows = [_row(name) for name in identities]
    _check_size(k_max)
    start = time.perf_counter()

    def out_of_time() -> bool:
        return time_budget is not None and time.perf_counter() - start > time_budget

    passes = {kind: _staged_folds(kind, k_max) for kind in PathKind}
    folds: dict[PathKind, list] = {kind: [] for kind in PathKind}
    reports: list[IdentityReport] = []
    for name, row in zip(identities, rows):
        have = folds[row.kind]
        for k in range(row.k_min, k_max + 1):
            while len(have) <= k and not out_of_time():
                f = next(passes[row.kind])
                if f.k == len(have):
                    have.append(f)
            if out_of_time():
                return SweepResult(tuple(reports), truncated=True)
            reports.extend(_report(name, row, k, v, have) for v in row.variants)
    return SweepResult(tuple(reports))
