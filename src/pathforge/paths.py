"""Path objects, parsing, the step law, enumeration, and altitude statistics.

A path is a sequence of rise/fall/level steps that starts and ends at
altitude zero and never dips below it.  Steps are the plain ints
``RISE, LEVEL, FALL = 1, 0, -1``, each its altitude change; this module
owns that encoding, and every other module reads steps through it.

It also owns the step law of each kind, which steps may come at each
1-based position: a Dyck path rises or falls at every step; an alternating
Motzkin path may level anywhere but rises only on even steps and falls
only on odd steps.  ``Path`` validation reads the law's table ``_LAW``
directly, two positions a turn; the enumerator and the exact fold in
``fold`` read it through ``steps_at`` and ``fall_room``.

The one enumerator lists rendered strings: it walks the prefixes of a
path depth first and joins each to every precomputed tail that closes it,
so a listing (``pathforge enumerate``) writes strings without building
``Path`` objects.  ``enumerate_dyck``/``enumerate_alt_motzkin`` parse the
same strings into validated paths, in the same order.  A kind is a
``PathKind`` member: ``Path`` refuses anything else through
``_check_kind``, for ``parse`` and for every caller.
"""

from __future__ import annotations

import enum
from itertools import accumulate
from typing import Iterator, NamedTuple

from .numeric import _check_size

RISE, LEVEL, FALL = 1, 0, -1

_CHARS = "LUD"  # indexed by step: 0, 1, -1
_CHAR_TO_STEP = {"U": RISE, "D": FALL, "L": LEVEL}
_NAMES = {RISE: "rise", LEVEL: "level step", FALL: "fall"}


def altitudes(steps) -> tuple[int, ...]:
    """Altitude at each of the len(steps)+1 vertices: the prefix sums."""
    return tuple(accumulate(steps, initial=0))


class PathKind(enum.Enum):
    DYCK = "dyck"
    ALT_MOTZKIN = "altmotzkin"

    # members are singletons, so identity hashing (in C) serves the _LAW
    # lookups of every Path; Enum's own hashes the name in Python
    __hash__ = object.__hash__


# kind -> the steps allowed at a 1-based position, indexed by position % 2,
# in the order enumeration tries them
_LAW = {
    PathKind.DYCK: ((RISE, FALL), (RISE, FALL)),
    PathKind.ALT_MOTZKIN: ((LEVEL, RISE), (LEVEL, FALL)),
}


def _check_kind(kind) -> None:
    """Refuse a kind that is not a PathKind member, before the law is read."""
    if not isinstance(kind, PathKind):
        raise ValueError(f"kind must be a PathKind, got {kind!r}")


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


def _refuse_step(kind: PathKind, pos: int, s) -> None:
    """Raise for step ``s`` at 1-based ``pos``, which the kind's law or the
    step type refuses."""
    if type(s) is not int or not -1 <= s <= 1:
        raise ValueError(f"step {pos} is {s!r}, not one of 1, 0, -1")
    parity = "odd" if pos % 2 else "even"
    raise ValueError(f"{_NAMES[s]} on {parity} step {pos}, which {kind.value} paths forbid")


class Path:
    """A validated Dyck or alternating Motzkin path.

    Validation happens on every construction: kind is a PathKind member,
    each step is one of the ints 1, 0, -1 that the kind's step law allows
    at its position, altitude stays nonnegative, and the path closes at
    zero.  Instances are immutable and hashable.
    """

    __slots__ = ("steps", "kind")

    steps: tuple[int, ...]
    kind: PathKind

    def __init__(self, steps, kind: PathKind):
        steps = tuple(steps)
        n = len(steps)
        if n % 2 != 0:
            raise ValueError(f"path length must be even, got {n}")
        _check_kind(kind)
        even, odd = _LAW[kind]
        alt = 0
        # two steps a turn, odd then even: each step's law and type, then
        # the altitude after it
        for pos in range(1, n, 2):
            s = steps[pos - 1]
            # True and 1.0 pass the law's test (they equal 1), not the type's
            if s not in odd or type(s) is not int:
                _refuse_step(kind, pos, s)
            alt += s
            if alt < 0:
                raise ValueError(f"altitude drops below zero after step {pos}")
            s = steps[pos]
            if s not in even or type(s) is not int:
                _refuse_step(kind, pos + 1, s)
            alt += s
            if alt < 0:
                raise ValueError(f"altitude drops below zero after step {pos + 1}")
        if alt != 0:
            raise ValueError(f"path ends at altitude {alt}, expected 0")
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "kind", kind)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which validates
        return Path, (self.steps, self.kind)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.steps, self.kind) == (other.steps, other.kind)

    def __hash__(self):
        return hash((self.steps, self.kind))

    def __repr__(self) -> str:
        return f"Path(steps={self.steps!r}, kind={self.kind!r})"

    @property
    def k(self) -> int:
        return len(self.steps) // 2

    def __len__(self) -> int:
        return len(self.steps)

    def render(self) -> str:
        return "".join(map(_CHARS.__getitem__, self.steps))

    def __str__(self) -> str:
        return self.render()

    def rise_count(self) -> int:
        return self.steps.count(RISE)


def parse(text: str, kind: PathKind) -> Path:
    """Parse a path string over the alphabet U/D/L as written; round-trips
    with render."""
    steps = tuple(map(_CHAR_TO_STEP.get, text))
    if None in steps:
        pos = steps.index(None)
        raise ValueError(f"invalid character {text[pos]!r} at position {pos + 1}")
    return Path(steps, kind)


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
    k that is no size."""
    _check_size(k)
    n = 2 * k
    d = min((k + 1) // 2, _TAIL_STEPS)
    p = n - d
    # tails[a]: the strings for steps pos+1..n from altitude a down to 0,
    # built from pos = n back to pos = p
    tails = [[""]]
    for pos in range(n, p, -1):
        tails = [
            [_CHARS[s] + t for s in steps_at(kind, pos) if 0 <= a + s < len(tails)
             for t in tails[a + s]]
            for a in range(len(tails) + 1)
        ]
    room = fall_room(kind, n)
    # each pos's steps, last first, so that the stack pops them in law order
    pushes = [[(s, _CHARS[s]) for s in reversed(steps_at(kind, pos))]
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


class AltitudeStats(NamedTuple):
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
    """Compute the rise, vertex, and even-level altitude vectors of a path
    in one walk of its steps."""
    k = path.k
    rises, verts, even = [0] * k, [0] * (k + 1), [0] * k
    alt = 0
    verts[0] = 1
    for pos, s in enumerate(path.steps, start=1):
        if s == RISE:
            rises[alt] += 1
        elif s == LEVEL and pos % 2 == 0:
            even[alt] += 1
        alt += s
        verts[alt] += 1
    return AltitudeStats(tuple(rises), tuple(verts),
                         tuple(even) if path.kind is PathKind.ALT_MOTZKIN else None, sum(rises))
