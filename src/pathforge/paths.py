"""Path objects, parsing, the step law, enumeration, and altitude statistics.

A path is a sequence of rise/fall/level steps that starts and ends at
altitude zero and never dips below it.  Steps are the plain ints
``RISE, LEVEL, FALL = 1, 0, -1``, each its altitude change; this module
owns that encoding, and every other module reads steps through it.

It also owns the step law of each kind, which steps may come at each
1-based position: a Dyck path rises or falls at every step; an alternating
Motzkin path may level anywhere but rises only on even steps and falls
only on odd steps.  ``Path`` validation, the enumerator and the exact
fold in ``fold`` all read the law through ``steps_at`` and ``fall_room``.

The one enumerator lists rendered strings: it walks the prefixes of a
path depth first and joins each to every precomputed tail that closes it,
so a listing (``pathforge enumerate``) writes strings without building
``Path`` objects.  ``enumerate_dyck``/``enumerate_alt_motzkin`` parse the
same strings into validated paths, in the same order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator

RISE, LEVEL, FALL = 1, 0, -1

_CHARS = "DLU"  # indexed by step + 1
_CHAR_TO_STEP = {"U": RISE, "D": FALL, "L": LEVEL}
_NAMES = {RISE: "rise", LEVEL: "level step", FALL: "fall"}


def altitudes(steps) -> tuple[int, ...]:
    """Altitude at each of the len(steps)+1 vertices: the prefix sums."""
    return tuple(accumulate(steps, initial=0))


class PathKind(enum.Enum):
    DYCK = "dyck"
    ALT_MOTZKIN = "altmotzkin"


# kind -> the steps allowed at a 1-based position, indexed by position % 2,
# in the order enumeration tries them
_LAW = {
    PathKind.DYCK: ((RISE, FALL), (RISE, FALL)),
    PathKind.ALT_MOTZKIN: ((LEVEL, RISE), (LEVEL, FALL)),
}


def steps_at(kind: PathKind, pos: int) -> tuple[int, ...]:
    """The steps a path of this kind may take at 1-based position pos."""
    return _LAW[kind][pos % 2]


def fall_room(kind: PathKind, n: int) -> list[int]:
    """room[s], for s = 0..n: how many of the steps s+1..n of a path of
    length n may be falls, the most altitude it can still shed after
    step s."""
    room = [0] * (n + 1)
    for s in range(n - 1, -1, -1):
        room[s] = room[s + 1] + (FALL in steps_at(kind, s + 1))
    return room


@dataclass(frozen=True)
class Path:
    """A validated Dyck or alternating Motzkin path.

    Validation happens on every construction: kind is a PathKind member,
    each step is one of the ints 1, 0, -1 that the kind's step law allows
    at its position, altitude stays nonnegative, and the path closes at
    zero.
    """

    steps: tuple[int, ...]
    kind: PathKind

    def __post_init__(self):
        steps = tuple(self.steps)
        object.__setattr__(self, "steps", steps)
        n = len(steps)
        if n % 2 != 0:
            raise ValueError(f"path length must be even, got {n}")
        if not isinstance(self.kind, PathKind):
            raise ValueError(f"kind must be a PathKind, got {self.kind!r}")
        law = _LAW[self.kind]
        alt = 0
        for pos, s in enumerate(steps, start=1):
            if type(s) is not int or not -1 <= s <= 1:
                raise ValueError(f"step {pos} is {s!r}, not one of 1, 0, -1")
            if s not in law[pos % 2]:
                parity = "odd" if pos % 2 else "even"
                raise ValueError(
                    f"{_NAMES[s]} on {parity} step {pos}, which {self.kind.value} paths forbid"
                )
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


# the most steps a precomputed tail closes: the tail table holds at most
# 2**_TAIL_STEPS strings whatever k is
_TAIL_STEPS = 12


def _listing(kind: PathKind, k: int) -> Iterator[str]:
    """Yield every path of length 2k that the kind's law allows, rendered,
    in lexicographic order of the law's order at each position.

    The last d = min(ceil(k/2), _TAIL_STEPS) steps come from a table, built
    first, of every way to close from each altitude down to 0.  The first
    2k - d steps are walked depth first on an explicit stack, and each
    prefix is joined to every tail at its altitude, so a path costs one
    string concatenation.  Raises at the call, not at the first item, on a
    negative k."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    n = 2 * k
    d = min((k + 1) // 2, _TAIL_STEPS)
    p = n - d
    # tails[a]: the strings for steps pos+1..n from altitude a down to 0,
    # built from pos = n back to pos = p
    tails = [[""]]
    for pos in range(n, p, -1):
        tails = [
            [_CHARS[s + 1] + t for s in steps_at(kind, pos) if 0 <= a + s < len(tails)
             for t in tails[a + s]]
            for a in range(len(tails) + 1)
        ]
    room = fall_room(kind, n)
    # each pos's steps, last first, so that the stack pops them in law order
    pushes = [[(s, _CHARS[s + 1]) for s in reversed(steps_at(kind, pos))]
              for pos in range(p + 1)]

    def joined():
        stack = [(0, 0, "")]
        while stack:
            pos, alt, prefix = stack.pop()
            if pos == p:
                yield from map(prefix.__add__, tails[alt])
                continue
            pos += 1
            for s, char in pushes[pos]:
                # a step is kept while the path can still close by step n
                if 0 <= alt + s <= room[pos]:
                    stack.append((pos, alt + s, prefix + char))

    return joined()


def enumerate_dyck(k: int) -> Iterator[Path]:
    """Yield every Dyck path of length 2k once, in lexicographic order of
    the rendered string with U < D."""
    return (parse(text, PathKind.DYCK) for text in _listing(PathKind.DYCK, k))


def enumerate_alt_motzkin(k: int) -> Iterator[Path]:
    """Yield every alternating Motzkin path of length 2k once, in
    lexicographic order of the rendered string with L < U and L < D."""
    return (parse(text, PathKind.ALT_MOTZKIN) for text in _listing(PathKind.ALT_MOTZKIN, k))


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
