"""Exact integer combinatorics: Catalan and Narayana numbers, and dense
integer polynomials in the rise weight gamma.

Everything here is exact. Counts are Python ints (arbitrary precision),
ratios are ``fractions.Fraction``, and weighted counts are ``GammaPoly``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]


def catalan(k: int) -> int:
    """k-th Catalan number, binom(2k, k) / (k + 1)."""
    if k < 0:
        raise ValueError(f"catalan: k must be nonnegative, got {k}")
    return math.comb(2 * k, k) // (k + 1)


def narayana(k: int, r: int) -> int:
    """Narayana number, binom(k, r) * binom(k-1, r) / (r + 1).

    Counts alternating Motzkin paths of length 2k with exactly r rises;
    defined for k >= 1 and 0 <= r <= k - 1.
    """
    if k < 1:
        raise ValueError(f"narayana: k must be positive, got {k}")
    if not 0 <= r <= k - 1:
        raise ValueError(f"narayana: r must be in [0, {k - 1}], got {r}")
    return math.comb(k, r) * math.comb(k - 1, r) // (r + 1)


def narayana_poly(k: int) -> "GammaPoly":
    """Generating polynomial of the Narayana numbers N_{k,0..k-1}.

    Evaluates to catalan(k) at gamma = 1.
    """
    return GammaPoly(narayana(k, r) for r in range(k))


class GammaPoly:
    """Dense polynomial in gamma with exact integer coefficients.

    Coefficients are stored lowest power first with no trailing zeros, so
    equal polynomials compare equal structurally.  Instances are immutable
    and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("GammaPoly is immutable")

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = GammaPoly((other,))
        if not isinstance(other, GammaPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    @staticmethod
    def _coerce(other) -> "GammaPoly | None":
        if isinstance(other, GammaPoly):
            return other
        if isinstance(other, int):
            return GammaPoly((other,))
        return None

    def __add__(self, other) -> "GammaPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        a, b = self.coeffs, q.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return GammaPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "GammaPoly":
        return GammaPoly(-c for c in self.coeffs)

    def __sub__(self, other) -> "GammaPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other) -> "GammaPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other) -> "GammaPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        a, b = self.coeffs, q.coeffs
        if not a or not b:
            return GammaPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return GammaPoly(out)

    __rmul__ = __mul__

    def evaluate(self, x: Scalar) -> Scalar:
        """Evaluate at an exact point (int or Fraction) by Horner's rule."""
        acc: Scalar = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def to_json(self) -> list[str]:
        """Wire form: array of decimal coefficient strings, lowest power first."""
        return [str(c) for c in self.coeffs]

    def __repr__(self) -> str:
        return f"GammaPoly({list(self.coeffs)!r})"


GAMMA = GammaPoly((0, 1))
