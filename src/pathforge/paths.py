"""Path objects, parsing, exhaustive enumeration, and altitude statistics.

A path is a sequence of rise/fall/level steps that starts and ends at
altitude zero and never dips below it.  Steps are the plain ints
``RISE, LEVEL, FALL = 1, 0, -1``, each its altitude change; this module
owns that encoding, and every other module reads steps through it.  Step
positions are 1-based where parity matters: alternating Motzkin paths
allow rises only on even steps and falls only on odd steps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterator, Union

from .fold import fold_alt_motzkin, fold_dyck
from .numeric import GammaPoly, catalan

RISE, LEVEL, FALL = 1, 0, -1

_CHARS = "DLU"  # indexed by step + 1
_CHAR_TO_STEP = {"U": RISE, "D": FALL, "L": LEVEL}


def altitudes(steps) -> tuple[int, ...]:
    """Altitude at each of the len(steps)+1 vertices: the prefix sums."""
    return tuple(accumulate(steps, initial=0))


class PathKind(enum.Enum):
    DYCK = "dyck"
    ALT_MOTZKIN = "altmotzkin"


@dataclass(frozen=True)
class Path:
    """A validated Dyck or alternating Motzkin path.

    Validation happens on every construction: each step is one of the ints
    1, 0, -1, altitude stays nonnegative, the path closes at zero, Dyck
    paths contain no level steps, and alternating Motzkin paths obey the
    even-rise/odd-fall rule.
    """

    steps: tuple[int, ...]
    kind: PathKind

    def __post_init__(self):
        steps = tuple(self.steps)
        object.__setattr__(self, "steps", steps)
        n = len(steps)
        if n % 2 != 0:
            raise ValueError(f"path length must be even, got {n}")
        dyck = self.kind is PathKind.DYCK
        motzkin = self.kind is PathKind.ALT_MOTZKIN
        alt = 0
        for pos, s in enumerate(steps, start=1):
            if type(s) is not int or not -1 <= s <= 1:
                raise ValueError(f"step {pos} is {s!r}, not one of 1, 0, -1")
            if dyck and s == LEVEL:
                raise ValueError(f"level step at position {pos} in a Dyck path")
            if motzkin:
                if s == RISE and pos % 2 != 0:
                    raise ValueError(f"rise on odd step {pos}")
                if s == FALL and pos % 2 != 1:
                    raise ValueError(f"fall on even step {pos}")
            alt += s
            if alt < 0:
                raise ValueError(f"altitude drops below zero after step {pos}")
        if alt != 0:
            raise ValueError(f"path ends at altitude {alt}, expected 0")

    @property
    def k(self) -> int:
        return len(self.steps) // 2

    def __len__(self) -> int:
        return len(self.steps)

    def altitudes(self) -> tuple[int, ...]:
        """Altitude at each of the len+1 vertices."""
        return altitudes(self.steps)

    def altitude_at(self, vertex: int) -> int:
        return altitudes(self.steps)[vertex]

    def render(self) -> str:
        return "".join(_CHARS[s + 1] for s in self.steps)

    def __str__(self) -> str:
        return self.render()

    def mirrored(self) -> "Path":
        """Left-right reversal: reverse the steps and swap rises with falls."""
        return Path(tuple(-s for s in reversed(self.steps)), self.kind)

    def rise_count(self) -> int:
        return self.steps.count(RISE)

    def rises_from(self, altitude: int) -> tuple[int, ...]:
        """1-based positions of rises that start at the given altitude."""
        alts = altitudes(self.steps)
        return tuple(
            pos
            for pos, s in enumerate(self.steps, start=1)
            if s == RISE and alts[pos - 1] == altitude
        )

    def falls_to(self, altitude: int) -> tuple[int, ...]:
        """1-based positions of falls that land at the given altitude."""
        alts = altitudes(self.steps)
        return tuple(
            pos
            for pos, s in enumerate(self.steps, start=1)
            if s == FALL and alts[pos] == altitude
        )

    def levels_at(self, altitude: int, even_steps: bool | None = None) -> tuple[int, ...]:
        """1-based positions of level steps at the given altitude, optionally
        filtered to even or odd positions."""
        alts = altitudes(self.steps)
        out = []
        for pos, s in enumerate(self.steps, start=1):
            if s != LEVEL or alts[pos - 1] != altitude:
                continue
            if even_steps is None or (pos % 2 == 0) == even_steps:
                out.append(pos)
        return tuple(out)

    def vertices_at(self, altitude: int) -> tuple[int, ...]:
        """Vertex indices (0..len) at the given altitude."""
        return tuple(v for v, a in enumerate(altitudes(self.steps)) if a == altitude)


def parse(text: str, kind: PathKind | str) -> Path:
    """Parse a path string over the alphabet U/D/L; round-trips with render."""
    kind = PathKind(kind)
    steps = []
    for pos, char in enumerate(text.strip(), start=1):
        step = _CHAR_TO_STEP.get(char)
        if step is None:
            raise ValueError(f"invalid character {char!r} at position {pos}")
        steps.append(step)
    return Path(tuple(steps), kind)


def _odds_in(a: int, b: int) -> int:
    # number of odd integers in [a, b]
    return (b + 1) // 2 - a // 2 if b >= a else 0


def dyck_steps(k: int) -> Iterator[tuple[int, ...]]:
    """Yield every Dyck step sequence of length 2k, in lexicographic order
    with rise < fall."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    n = 2 * k
    steps = []

    def rec(pos: int, alt: int):
        if pos == n:
            yield tuple(steps)
            return
        rem = n - pos
        if alt + 1 <= rem - 1:
            steps.append(RISE)
            yield from rec(pos + 1, alt + 1)
            steps.pop()
        if alt > 0:
            steps.append(FALL)
            yield from rec(pos + 1, alt - 1)
            steps.pop()

    return rec(0, 0)


def alt_motzkin_steps(k: int) -> Iterator[tuple[int, ...]]:
    """Yield every alternating Motzkin step sequence of length 2k, in
    lexicographic order with level < rise and level < fall."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    n = 2 * k
    steps = []

    def rec(pos: int, alt: int):
        if pos == n:
            yield tuple(steps)
            return
        s = pos + 1
        odds_after = _odds_in(s + 1, n)
        if alt <= odds_after:
            steps.append(LEVEL)
            yield from rec(pos + 1, alt)
            steps.pop()
        if s % 2 == 0:
            if alt + 1 <= odds_after:
                steps.append(RISE)
                yield from rec(pos + 1, alt + 1)
                steps.pop()
        elif alt > 0:
            steps.append(FALL)
            yield from rec(pos + 1, alt - 1)
            steps.pop()

    return rec(0, 0)


def enumerate_dyck(k: int) -> Iterator[Path]:
    """Yield every Dyck path of length 2k once, in lexicographic order of
    the rendered string with U < D."""
    for raw in dyck_steps(k):
        yield Path(raw, PathKind.DYCK)


def enumerate_alt_motzkin(k: int) -> Iterator[Path]:
    """Yield every alternating Motzkin path of length 2k once, in
    lexicographic order of the rendered string with L < U and L < D."""
    for raw in alt_motzkin_steps(k):
        yield Path(raw, PathKind.ALT_MOTZKIN)


@dataclass(frozen=True)
class AltitudeStats:
    """The three altitude statistics of a path.

    rises_by_altitude[i] counts rises from altitude i to i+1 (length k);
    vertices_by_altitude[i] counts vertices at altitude i (length k+1);
    even_levels_by_altitude[i] counts level steps at altitude i on even
    steps (length k, alternating Motzkin only, else None); rise_count is
    the total number of rises.
    """

    rises_by_altitude: tuple[int, ...]
    vertices_by_altitude: tuple[int, ...]
    even_levels_by_altitude: tuple[int, ...] | None
    rise_count: int


def stats(path: Path) -> AltitudeStats:
    """Compute the rise, vertex, and even-level altitude vectors of a path."""
    k = path.k
    rises = [0] * k
    verts = [0] * (k + 1)
    levels = [0] * k
    alt = 0
    verts[0] = 1
    for pos, s in enumerate(path.steps, start=1):
        if s == RISE:
            rises[alt] += 1
        elif s == LEVEL and pos % 2 == 0:
            levels[alt] += 1
        alt += s
        verts[alt] += 1
    return AltitudeStats(
        rises_by_altitude=tuple(rises),
        vertices_by_altitude=tuple(verts),
        even_levels_by_altitude=tuple(levels) if path.kind is PathKind.ALT_MOTZKIN else None,
        rise_count=sum(rises),
    )


@dataclass(frozen=True)
class LevelParityReport:
    """Per-altitude level-step counts of an alternating Motzkin path.

    counts[i] is (total level steps at altitude i, those on even steps);
    the total must be even with exactly half on even steps at every
    altitude, so a nonempty violations tuple signals a bug.
    """

    counts: tuple[tuple[int, int], ...]
    violations: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_level_parity(path: Path) -> LevelParityReport:
    """Check that level steps pair up evenly at every altitude."""
    if path.kind is not PathKind.ALT_MOTZKIN:
        raise ValueError("level parity applies to alternating Motzkin paths")
    k = path.k
    total = [0] * k
    even = [0] * k
    alt = 0
    for pos, s in enumerate(path.steps, start=1):
        if s == LEVEL:
            total[alt] += 1
            if pos % 2 == 0:
                even[alt] += 1
        alt += s
    violations = tuple(
        i for i in range(k) if total[i] % 2 != 0 or 2 * even[i] != total[i]
    )
    return LevelParityReport(tuple(zip(total, even)), violations)


@dataclass(frozen=True)
class ExpectationVectors:
    """Exact expected altitude vectors as numerators over a common
    denominator: ints over catalan(k) for uniform Dyck paths, GammaPoly
    over the Narayana polynomial for rise-weighted alternating Motzkin
    paths."""

    kind: PathKind
    k: int
    rise_numerators: tuple[Union[int, GammaPoly], ...]
    vertex_numerators: tuple[Union[int, GammaPoly], ...]
    level_numerators: tuple[Union[int, GammaPoly], ...] | None
    denominator: Union[int, GammaPoly]

    def rise_expectations(self) -> tuple[Fraction, ...]:
        if self.kind is not PathKind.DYCK:
            raise ValueError("exact Fractions only for the uniform Dyck weighting")
        return tuple(Fraction(x, self.denominator) for x in self.rise_numerators)

    def vertex_expectations(self) -> tuple[Fraction, ...]:
        if self.kind is not PathKind.DYCK:
            raise ValueError("exact Fractions only for the uniform Dyck weighting")
        return tuple(Fraction(x, self.denominator) for x in self.vertex_numerators)


def expectation_vectors(
    k: int, kind: PathKind | str, weighting: str | None = None
) -> ExpectationVectors:
    """Expected rise/vertex(/level) vectors at size k.

    Dyck paths are weighted uniformly; alternating Motzkin paths carry
    weight gamma**rises, so the numerators are polynomials in gamma over
    the Narayana polynomial denominator.  ``weighting`` ("uniform" or
    "gamma") is implied by the kind and only checked for consistency.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    kind = PathKind(kind)
    implied = "uniform" if kind is PathKind.DYCK else "gamma"
    if weighting is not None and weighting != implied:
        raise ValueError(f"{kind.value} paths use the {implied} weighting, got {weighting!r}")
    if kind is PathKind.DYCK:
        f = fold_dyck(k)
        return ExpectationVectors(
            kind, k, f.rise_sums, f.vertex_sums, None, catalan(k)
        )
    f = fold_alt_motzkin(k)
    return ExpectationVectors(
        kind,
        k,
        tuple(GammaPoly(row) for row in f.rise_sums),
        tuple(GammaPoly(row) for row in f.vertex_sums),
        tuple(GammaPoly(row) for row in f.level_sums),
        GammaPoly(f.counts_by_rises),
    )
