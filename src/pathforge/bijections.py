"""Four reversible path surgeries that double a pair of marked paths into a
single path of twice the length, classified by its middle altitude.

Construction A glues two marked Dyck paths of length 2k into a Dyck path of
length 4k with positive even middle altitude; B uses vertex marks and lands
on all Dyck paths of length 4k+2; C and D are the alternating Motzkin
versions, steering to even and odd middle altitudes respectively.

The four are variants of one bijection, written once as ``_left`` and its
inverse ``_left_inv``.  The left-half surgery opens into rises the closing
falls of a chain of i rises left of the mark.  A marked rise (A, C) opens
its own closing fall too; any other mark becomes a new rise: D's marked
level step, or a level step that B inserts after its marked vertex.  The
path kind decides how a fall opens: a Dyck fall flips, and an alternating
Motzkin fall trades places with its nearest level step to the right,
which becomes the rise; closing is the exact inverse.  One table row per
construction names its kind and its marks.  The right path is mirrored
(steps reversed, rises and falls swapped), put through the same surgery
and mirrored back.  ``five_tuples`` and ``image_paths``
enumerate the domain and the characterized image of each construction;
the tests use them to check every construction exhaustively at small k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .paths import (
    FALL,
    LEVEL,
    RISE,
    Path,
    PathKind,
    altitudes,
    enumerate_alt_motzkin,
    enumerate_dyck,
    parse,
)


# the fields of a five-tuple's JSON form
_FIELDS = frozenset(("construction", "p1", "p2", "i", "mark1", "mark2"))


@dataclass(frozen=True)
class FiveTuple:
    """Input of a construction: two paths, a common altitude, and one mark
    in each path.

    Marks are 1-based step positions, except construction B where they are
    vertex indices 0..2k.  Which steps qualify depends on the construction:
    A and C mark a rise from altitude i in p1 and a fall to altitude i in
    p2; B marks vertices at altitude i; D marks level steps at altitude i,
    on an even step in p1 and an odd step in p2.
    """

    construction: str
    p1: Path
    p2: Path
    i: int
    mark1: int
    mark2: int

    def to_json_dict(self) -> dict:
        return {
            "construction": self.construction,
            "p1": self.p1.render(),
            "p2": self.p2.render(),
            "i": self.i,
            "mark1": self.mark1,
            "mark2": self.mark2,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FiveTuple":
        """Build a tuple from its JSON form, rejecting malformed input with
        ValueError: exactly the six fields of ``to_json_dict``, paths
        strings and i/mark1/mark2 ints (not bools), with no coercion."""
        if not isinstance(data, dict):
            raise ValueError(f"five-tuple must be a JSON object, got {type(data).__name__}")
        if data.keys() != _FIELDS:
            problems = [f"{name!r} is missing" for name in sorted(_FIELDS - data.keys())]
            problems += [f"{name!r} is unknown" for name in data if name not in _FIELDS]
            raise ValueError("five-tuple field " + ", ".join(problems))
        construction = data["construction"]
        if not isinstance(construction, str) or construction not in _CONSTRUCTIONS:
            raise ValueError(f"unknown construction {construction!r}")
        kind = _CONSTRUCTIONS[construction].kind
        for name in ("p1", "p2"):
            if not isinstance(data[name], str):
                raise ValueError(f"{name} must be a path string, got {data[name]!r}")
        for name in ("i", "mark1", "mark2"):
            if type(data[name]) is not int:
                raise ValueError(f"{name} must be an integer, got {data[name]!r}")
        return cls(
            construction,
            parse(data["p1"], kind),
            parse(data["p2"], kind),
            data["i"],
            data["mark1"],
            data["mark2"],
        )


@dataclass(frozen=True)
class MidPath:
    """A doubled path together with its middle altitude (the altitude at
    the vertex between the two halves)."""

    path: Path
    middle_altitude: int


def middle_altitude(path: Path) -> int:
    return path.altitude_at(len(path) // 2)


# ---------------------------------------------------------------------------
# step helpers (steps are Path.steps tuples, positions 1-based)

def _mirror(steps):
    return tuple(-s for s in reversed(steps))


def _matching_fall(steps, alts, rise_pos) -> int:
    """First position after a rise where the path returns to the rise's
    starting altitude (its closing fall)."""
    start = alts[rise_pos - 1]
    for q in range(rise_pos + 1, len(steps) + 1):
        if alts[q] == start:
            if steps[q - 1] != FALL:
                raise RuntimeError(f"closing step at {q} is not a fall")
            return q
    raise RuntimeError(f"no closing fall for rise at step {rise_pos}")


def _matching_rise(steps, alts, fall_pos) -> int:
    """The rise whose closing fall is ``fall_pos``."""
    landing = alts[fall_pos]
    for v in range(fall_pos - 1, -1, -1):
        if alts[v] == landing:
            if steps[v] != RISE:
                raise RuntimeError(f"matching step at {v + 1} is not a rise")
            return v + 1
    raise RuntimeError(f"no matching rise for fall at step {fall_pos}")


def _chain_rises(steps, alts, top_altitude, before_pos) -> list[int]:
    """Scan left of ``before_pos`` for the nearest rise ending at
    top_altitude, then left of it for the nearest rise ending one lower,
    and so on down to altitude 1."""
    chain = []
    q = before_pos - 1
    for a in range(top_altitude, 0, -1):
        while q > 0 and not (steps[q - 1] == RISE and alts[q] == a):
            q -= 1
        if q == 0:
            raise RuntimeError(f"no rise to altitude {a} left of step {before_pos}")
        chain.append(q)
        q -= 1
    return chain


def _rightmost_rise_from(steps, alts, altitude) -> int:
    for q in range(len(steps), 0, -1):
        if steps[q - 1] == RISE and alts[q - 1] == altitude:
            return q
    raise ValueError(f"no rise from altitude {altitude}")


def _level_partner_right(steps, alts, fall_pos) -> int:
    """Nearest level step at the fall's landing altitude strictly right of
    it; the level-parity lemma puts it on an even step."""
    landing = alts[fall_pos]
    for q in range(fall_pos + 1, len(steps) + 1):
        if steps[q - 1] == LEVEL and alts[q - 1] == landing:
            if q % 2 != 0:
                raise RuntimeError(f"level partner at step {q} is not on an even step")
            return q
    raise RuntimeError(f"no level partner right of fall at step {fall_pos}")


def _level_partner_left(steps, alts, rise_pos) -> int:
    """Nearest level step at the rise's starting altitude strictly left of
    it; on an odd step by the parity lemma."""
    altitude = alts[rise_pos - 1]
    for q in range(rise_pos - 1, 0, -1):
        if steps[q - 1] == LEVEL and alts[q - 1] == altitude:
            if q % 2 != 1:
                raise RuntimeError(f"level partner at step {q} is not on an odd step")
            return q
    raise RuntimeError(f"no level partner left of rise at step {rise_pos}")


# ---------------------------------------------------------------------------
# the four variants

@dataclass(frozen=True)
class _Construction:
    """What sets a construction apart: the kind of its paths, which decides
    how a fall opens, and its marks: "rise" (a rise from i in p1 and a fall
    to i in p2), "vertex" (vertices at i) or "level" (levels at i on an even
    step in p1 and an odd step in p2); ``wording`` names them in errors."""

    kind: PathKind
    marks: str
    wording: tuple[str, str]

    @property
    def middle_offset(self) -> int:
        """The middle altitude is 2i plus this: 2 for a marked rise, 1 for a
        new one."""
        return 2 if self.marks == "rise" else 1

    def candidates(self, path: Path, i: int, side: int) -> tuple[int, ...]:
        """Positions in ``path`` that may carry mark ``side`` (1 or 2)."""
        if self.marks == "vertex":
            return path.vertices_at(i)
        if self.marks == "level":
            return path.levels_at(i, even_steps=side == 1)
        return path.rises_from(i) if side == 1 else path.falls_to(i)

    def mirror_mark(self, n: int, mark: int) -> int:
        """Where a mark of a path of length n lands when the path is
        mirrored: a vertex at n - mark, a step at n + 1 - mark."""
        return n - mark if self.marks == "vertex" else n + 1 - mark

    def middle_index(self, mid: int) -> int | None:
        """The i of a doubled path with middle altitude ``mid``, or None
        when mid follows no law of this construction."""
        i, rest = divmod(mid - self.middle_offset, 2)
        return i if rest == 0 and i >= 0 else None


_CONSTRUCTIONS = {
    "A": _Construction(PathKind.DYCK, "rise", ("a rise from altitude {i}", "a fall to altitude {i}")),
    "B": _Construction(PathKind.DYCK, "vertex", ("at altitude {i}", "at altitude {i}")),
    "C": _Construction(PathKind.ALT_MOTZKIN, "rise", ("a rise from altitude {i}", "a fall to altitude {i}")),
    "D": _Construction(PathKind.ALT_MOTZKIN, "level",
                       ("an even-step level at altitude {i}", "an odd-step level at altitude {i}")),
}


def _require(cond, message):
    if not cond:
        raise ValueError(message)


def _construction(name: str) -> _Construction:
    _require(name in _CONSTRUCTIONS, f"unknown construction {name!r}")
    return _CONSTRUCTIONS[name]


# ---------------------------------------------------------------------------
# the one left-half surgery

def _open(kind, out, steps, alts, fall):
    """Turn a closing fall into a rise in ``out``.  A Dyck fall flips; an
    alternating Motzkin fall trades places with its nearest level step to
    the right, which becomes the rise, so rises stay on even steps."""
    if kind is PathKind.DYCK:
        out[fall - 1] = RISE
    else:
        out[fall - 1] = LEVEL
        out[_level_partner_right(steps, alts, fall) - 1] = RISE


def _close(kind, out, steps, alts, rise) -> int:
    """Undo ``_open`` on the rise it made; returns where the fall is now."""
    if kind is PathKind.DYCK:
        out[rise - 1] = FALL
        return rise
    fall = _level_partner_left(steps, alts, rise)
    out[rise - 1] = LEVEL
    out[fall - 1] = FALL
    return fall


def _left(c: _Construction, steps, i, mark):
    """Open the closing falls of the chain of i rises left of the mark.  A
    marked rise (A, C) opens its own closing fall too and the half ends at
    2i+2; otherwise the mark becomes a new rise and the half ends at 2i+1:
    D's marked level step, or for B a level step inserted after the
    marked vertex."""
    if c.marks == "vertex":
        steps, mark = steps[:mark] + (LEVEL,) + steps[mark:], mark + 1
    alts = altitudes(steps)
    chain = _chain_rises(steps, alts, i, mark)
    out = list(steps)
    if c.marks == "rise":
        chain.append(mark)
    else:
        out[mark - 1] = RISE
    for rise in chain:
        fall = _matching_fall(steps, alts, rise)
        if fall <= mark:
            raise RuntimeError("closing fall left of the mark")
        _open(c.kind, out, steps, alts, fall)
    return tuple(out)


def _left_inv(c: _Construction, steps, i):
    """Inverse of ``_left``: close the rightmost rises from altitudes i+1 up,
    then recover the mark (the rise that closes at the first of them, or
    the new rise from altitude i, made level again or deleted for B)."""
    alts = altitudes(steps)
    new = None if c.marks == "rise" else _rightmost_rise_from(steps, alts, i)
    top = 2 * i + c.middle_offset
    opened = [_rightmost_rise_from(steps, alts, a) for a in range(i + 1, top)]
    if new is not None and any(q < new for q in opened):
        raise RuntimeError("opened rise left of the new rise")
    out = list(steps)
    falls = [_close(c.kind, out, steps, alts, q) for q in opened]
    if new is None:
        p = tuple(out)
        return p, _matching_rise(p, altitudes(p), falls[0])
    out[new - 1] = LEVEL
    if c.marks == "vertex":
        del out[new - 1]
        return tuple(out), new - 1
    return tuple(out), new


def construct(t: FiveTuple) -> MidPath:
    """Apply the construction named by the five-tuple: run the left-half
    surgery on p1 and, mirrored, on p2, and concatenate.  The result has
    middle altitude 2i+2 (A, C) or 2i+1 (B, D)."""
    c = _construction(t.construction)
    _require(t.p1.kind is c.kind and t.p2.kind is c.kind,
             f"construction {t.construction} needs {c.kind.value} paths")
    _require(t.p1.k == t.p2.k, "p1 and p2 must have the same length")
    _require(t.p1.k >= 1, "paths must be nonempty")
    for side, path, mark in ((1, t.p1, t.mark1), (2, t.p2, t.mark2)):
        _require(
            mark in c.candidates(path, t.i, side),
            f"mark{side}={mark} is not {c.wording[side - 1].format(i=t.i)} in p{side}",
        )
    n = len(t.p1)
    s1 = _left(c, t.p1.steps, t.i, t.mark1)
    s2 = _mirror(_left(c, _mirror(t.p2.steps), t.i, c.mirror_mark(n, t.mark2)))
    path = Path(s1 + s2, c.kind)
    return MidPath(path, middle_altitude(path))


def invert(construction: str, path: Path) -> FiveTuple:
    """Recover the unique five-tuple that the named construction maps to
    ``path``."""
    c = _construction(construction)
    _require(path.kind is c.kind, f"construction {construction} inverts {c.kind.value} paths")
    extra = 2 if c.marks == "vertex" else 0  # B inserts one step in each half
    _require(
        len(path) % 4 == extra and len(path) > extra,
        f"path length must be 4k{'+2' if extra else ''} with k >= 1, got {len(path)}",
    )
    mid = middle_altitude(path)
    i = c.middle_index(mid)
    law = "positive and even" if c.marks == "rise" else "odd"
    _require(i is not None, f"middle altitude {mid} is not in the image of construction "
                            f"{construction}: it must be {law}")
    half = len(path) // 2
    s1, mark1 = _left_inv(c, path.steps[:half], i)
    s2, mark2 = _left_inv(c, _mirror(path.steps[half:]), i)
    return FiveTuple(
        construction,
        Path(s1, c.kind),
        Path(_mirror(s2), c.kind),
        i,
        mark1,
        c.mirror_mark(len(s2), mark2),
    )


# ---------------------------------------------------------------------------
# domain and image enumeration (exhaustive; the tests' oracle)

def five_tuples(construction: str, k: int) -> Iterator[FiveTuple]:
    """Yield every valid five-tuple for the construction at size k."""
    c = _construction(construction)
    pool = list(_paths(c, k))
    for p1 in pool:
        for p2 in pool:
            for i in range(k + 1):  # only B has marks at altitude k
                for m1 in c.candidates(p1, i, 1):
                    for m2 in c.candidates(p2, i, 2):
                        yield FiveTuple(construction, p1, p2, i, m1, m2)


def image_paths(construction: str, k: int) -> Iterator[Path]:
    """Yield the characterized image of the construction at size k: doubled
    paths whose middle altitude follows the construction's law."""
    c = _construction(construction)
    for p in _paths(c, 2 * k + 1 if c.marks == "vertex" else 2 * k):
        if c.middle_index(middle_altitude(p)) is not None:
            yield p


def _paths(c: _Construction, k: int) -> Iterator[Path]:
    """Every path of size k of the kind the construction takes."""
    return (enumerate_dyck if c.kind is PathKind.DYCK else enumerate_alt_motzkin)(k)
