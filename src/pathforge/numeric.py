"""Exact integer combinatorics: Catalan and Narayana numbers, and dense
integer polynomials in the rise weight gamma.

Everything here is exact. Counts are Python ints (arbitrary precision),
ratios are ``fractions.Fraction``, and weighted counts are ``GammaPoly``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Union

if TYPE_CHECKING:  # a name for the annotations: enumerate and stats load no fractions
    from fractions import Fraction

Scalar = Union[int, "Fraction"]


def _parse_int(text: str) -> int:
    """The int an ASCII -?[0-9]+ spells, the one integer grammar of the
    command line and of a walk; int() would also take a +, an underscore,
    spaces and non-ASCII digits.  Anything else is a ValueError that names
    the text and the rule."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not an integer written as ASCII -?[0-9]+")
    return int(text)


def _check_size(value, low: int = 0, name: str = "k") -> None:
    """The one size rule, for every entry that takes a size, count or seed:
    refuse a value that is not an int (a bool included) or is below low."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < low:
        bound = {0: "nonnegative", 1: "positive"}.get(low, f"at least {low}")
        raise ValueError(f"{name} must be {bound}, got {value}")


def catalan(k: int) -> int:
    """k-th Catalan number, binom(2k, k) / (k + 1)."""
    _check_size(k)
    return math.comb(2 * k, k) // (k + 1)


def narayana(k: int, r: int) -> int:
    """Narayana number, binom(k, r) * binom(k-1, r) / (r + 1).

    Counts alternating Motzkin paths of length 2k with exactly r rises;
    defined for k >= 1 and 0 <= r <= k - 1.
    """
    _check_size(k, 1)
    _check_size(r, 0, "r")
    if r > k - 1:
        raise ValueError(f"narayana: r must be in [0, {k - 1}], got {r}")
    return math.comb(k, r) * math.comb(k - 1, r) // (r + 1)


def narayana_poly(k: int) -> "GammaPoly":
    """Generating polynomial of the Narayana numbers N_{k,0..k-1}.

    Evaluates to catalan(k) at gamma = 1, so it is 1 at k = 0: the empty path.
    """
    _check_size(k)
    return GammaPoly(narayana(k, r) for r in range(k)) if k else GammaPoly((1,))


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

    def __delattr__(self, name):
        raise AttributeError("GammaPoly is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__: __setattr__ refuses their default
        return GammaPoly, (self.coeffs,)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self.coeffs == q.coeffs

    def __hash__(self):
        # a constant equals its int (the zero polynomial equals 0), so it
        # hashes as that int
        cs = self.coeffs
        return hash(sum(cs)) if len(cs) < 2 else hash(cs)

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
