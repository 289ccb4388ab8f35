"""Four reversible path surgeries that double a pair of marked paths into a
single path of twice the length, classified by its middle altitude.

Construction A glues two marked Dyck paths of length 2k into a Dyck path of
length 4k with positive even middle altitude; B uses vertex marks and lands
on all Dyck paths of length 4k+2; C and D are the alternating Motzkin
versions, steering to even and odd middle altitudes respectively.

The four are variants of one bijection, written once: ``construct`` and
``invert`` read a table with one row per construction (the left-half
surgery, its inverse, and what a mark must be).  The right path is handled
by mirroring (reverse the steps and swap rises with falls), applying the
left-half surgery, and mirroring back.  ``five_tuples`` and ``image_paths``
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

_KIND_FOR = {
    "A": PathKind.DYCK,
    "B": PathKind.DYCK,
    "C": PathKind.ALT_MOTZKIN,
    "D": PathKind.ALT_MOTZKIN,
}


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
        ValueError: paths must be strings and i/mark1/mark2 ints (not
        bools), with no coercion."""
        if not isinstance(data, dict):
            raise ValueError(f"five-tuple must be a JSON object, got {type(data).__name__}")
        construction = data["construction"]
        if not isinstance(construction, str) or construction not in _KIND_FOR:
            raise ValueError(f"unknown construction {construction!r}")
        kind = _KIND_FOR[construction]
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


def _first_rise_left(steps, alts, before_pos, end_altitude) -> int:
    """Nearest rise strictly left of ``before_pos`` ending at ``end_altitude``."""
    for q in range(before_pos - 1, 0, -1):
        if steps[q - 1] == RISE and alts[q] == end_altitude:
            return q
    raise RuntimeError(f"no rise to altitude {end_altitude} left of step {before_pos}")


def _chain_rises(steps, alts, top_altitude, before_pos) -> list[int]:
    """Scan left marking the first rise ending at top_altitude, then the
    first rise ending one lower left of it, and so on down to altitude 1."""
    marks = []
    cur = before_pos
    for a in range(top_altitude, 0, -1):
        cur = _first_rise_left(steps, alts, cur, a)
        marks.append(cur)
    return marks


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


def _level_partner_left(steps, alts, rise_pos, altitude) -> int:
    """Nearest level step at ``altitude`` strictly left of a rise; on an
    odd step by the parity lemma."""
    for q in range(rise_pos - 1, 0, -1):
        if steps[q - 1] == LEVEL and alts[q - 1] == altitude:
            if q % 2 != 1:
                raise RuntimeError(f"level partner at step {q} is not on an odd step")
            return q
    raise RuntimeError(f"no level partner left of rise at step {rise_pos}")


# ---------------------------------------------------------------------------
# left-half surgeries

def _a_left(steps, i, x1):
    """A: flip to rises the closing falls of the marked rise x1 and of the
    chain of rises left of it; the half ends at altitude 2i+2."""
    alts = altitudes(steps)
    marks = [x1] + _chain_rises(steps, alts, i, x1)
    out = list(steps)
    for m in marks:
        out[_matching_fall(steps, alts, m) - 1] = RISE
    return tuple(out)


def _a_left_inv(steps, i):
    alts = altitudes(steps)
    flips = [_rightmost_rise_from(steps, alts, a) for a in range(i + 1, 2 * i + 2)]
    out = list(steps)
    for q in flips:
        out[q - 1] = FALL
    p1 = tuple(out)
    x1 = _matching_rise(p1, altitudes(p1), flips[0])
    return p1, x1


def _b_left(steps, i, v1):
    """B: insert a rise after the marked vertex v1, flipping the closing
    falls of the chain of i rises left of it; the half ends at 2i+1."""
    alts = altitudes(steps)
    marks = _chain_rises(steps, alts, i, v1 + 1)
    closings = {_matching_fall(steps, alts, m) for m in marks}
    if any(c <= v1 for c in closings):
        raise RuntimeError("closing fall left of the marked vertex")
    out = list(steps[:v1]) + [RISE]
    for pos in range(v1 + 1, len(steps) + 1):
        out.append(RISE if pos in closings else steps[pos - 1])
    return tuple(out)


def _b_left_inv(steps, i):
    alts = altitudes(steps)
    delete_pos = _rightmost_rise_from(steps, alts, i)
    flips = [_rightmost_rise_from(steps, alts, a) for a in range(i + 1, 2 * i + 1)]
    if any(q < delete_pos for q in flips):
        raise RuntimeError("flipped rise left of the inserted rise")
    out = list(steps)
    for q in flips:
        out[q - 1] = FALL
    del out[delete_pos - 1]
    return tuple(out), delete_pos - 1


def _c_left(steps, i, x1):
    """C, the alternating Motzkin A: each closing fall trades places with
    its nearest level step to the right before flipping, which keeps rises
    on even steps and the rise count unchanged."""
    alts = altitudes(steps)
    marks = [x1] + _chain_rises(steps, alts, i, x1)
    out = list(steps)
    for m in marks:
        fall = _matching_fall(steps, alts, m)
        partner = _level_partner_right(steps, alts, fall)
        out[fall - 1] = LEVEL
        out[partner - 1] = RISE
    return tuple(out)


def _c_left_inv(steps, i):
    alts = altitudes(steps)
    fall_of_x1 = None
    out = list(steps)
    for a in range(i + 1, 2 * i + 2):
        rise = _rightmost_rise_from(steps, alts, a)
        partner = _level_partner_left(steps, alts, rise, a)
        out[rise - 1] = LEVEL
        out[partner - 1] = FALL
        if a == i + 1:
            fall_of_x1 = partner
    p1 = tuple(out)
    x1 = _matching_rise(p1, altitudes(p1), fall_of_x1)
    return p1, x1


def _d_left(steps, i, y1):
    """D: the marked even-step level y1 becomes a rise, and the C-style
    fall/level switches run for the chain of i rises left of it; the half
    ends at 2i+1 with one rise more."""
    alts = altitudes(steps)
    marks = _chain_rises(steps, alts, i, y1)
    out = list(steps)
    out[y1 - 1] = RISE
    for m in marks:
        fall = _matching_fall(steps, alts, m)
        if fall <= y1:
            raise RuntimeError("closing fall left of the marked level step")
        partner = _level_partner_right(steps, alts, fall)
        out[fall - 1] = LEVEL
        out[partner - 1] = RISE
    return tuple(out)


def _d_left_inv(steps, i):
    alts = altitudes(steps)
    y1 = _rightmost_rise_from(steps, alts, i)
    out = list(steps)
    out[y1 - 1] = LEVEL
    for a in range(i + 1, 2 * i + 1):
        rise = _rightmost_rise_from(steps, alts, a)
        partner = _level_partner_left(steps, alts, rise, a)
        out[rise - 1] = LEVEL
        out[partner - 1] = FALL
    return tuple(out), y1


# ---------------------------------------------------------------------------
# the four variants

# construction: (left-half surgery, its inverse, what mark1 and mark2 must be)
_VARIANTS = {
    "A": (_a_left, _a_left_inv, ("a rise from altitude {i}", "a fall to altitude {i}")),
    "B": (_b_left, _b_left_inv, ("at altitude {i}", "at altitude {i}")),
    "C": (_c_left, _c_left_inv, ("a rise from altitude {i}", "a fall to altitude {i}")),
    "D": (_d_left, _d_left_inv, ("an even-step level at altitude {i}", "an odd-step level at altitude {i}")),
}


def _require(cond, message):
    if not cond:
        raise ValueError(message)


def _variant(construction: str):
    _require(construction in _VARIANTS, f"unknown construction {construction!r}")
    return _VARIANTS[construction]


def _marks(construction: str, path: Path, i: int, side: int) -> tuple[int, ...]:
    """Positions in ``path`` that may carry mark ``side`` (1 or 2) at altitude
    i: rises from i (p1) and falls to i (p2) for A and C, vertices at i for
    B, levels at i on even (p1) and odd (p2) steps for D."""
    if construction == "B":
        return path.vertices_at(i)
    if construction == "D":
        return path.levels_at(i, even_steps=side == 1)
    return path.rises_from(i) if side == 1 else path.falls_to(i)


def _mirror_mark(construction: str, n: int, mark: int) -> int:
    """Where a mark of a path of length n lands when the path is mirrored:
    vertex marks (B) at n - mark, step marks at n + 1 - mark."""
    return n - mark if construction == "B" else n + 1 - mark


def _middle_index(construction: str, mid: int) -> int | None:
    """The i of a doubled path with middle altitude ``mid``: mid = 2i+2
    (positive and even) for A and C, 2i+1 (odd) for B and D; None when mid
    follows neither law."""
    i, rest = divmod(mid - (2 if construction in "AC" else 1), 2)
    return i if rest == 0 and i >= 0 else None


def construct(t: FiveTuple) -> MidPath:
    """Apply the construction named by the five-tuple: run the left-half
    surgery on p1 and, mirrored, on p2, and concatenate.  The result has
    middle altitude 2i+2 (A, C) or 2i+1 (B, D)."""
    c = t.construction
    left, _, wording = _variant(c)
    kind = _KIND_FOR[c]
    _require(t.p1.kind is kind and t.p2.kind is kind, f"construction {c} needs {kind.value} paths")
    _require(t.p1.k == t.p2.k, "p1 and p2 must have the same length")
    _require(t.p1.k >= 1, "paths must be nonempty")
    for side, path, mark in ((1, t.p1, t.mark1), (2, t.p2, t.mark2)):
        _require(
            mark in _marks(c, path, t.i, side),
            f"mark{side}={mark} is not {wording[side - 1].format(i=t.i)} in p{side}",
        )
    n = len(t.p1)
    s1 = left(t.p1.steps, t.i, t.mark1)
    s2 = _mirror(left(_mirror(t.p2.steps), t.i, _mirror_mark(c, n, t.mark2)))
    path = Path(s1 + s2, kind)
    return MidPath(path, middle_altitude(path))


def invert(construction: str, path: Path) -> FiveTuple:
    """Recover the unique five-tuple that the named construction maps to
    ``path``."""
    _, left_inv, _ = _variant(construction)
    kind = _KIND_FOR[construction]
    _require(path.kind is kind, f"construction {construction} inverts {kind.value} paths")
    extra = 2 if construction == "B" else 0  # B inserts one rise in each half
    _require(
        len(path) % 4 == extra and len(path) > extra,
        f"path length must be 4k{'+2' if extra else ''} with k >= 1, got {len(path)}",
    )
    mid = middle_altitude(path)
    i = _middle_index(construction, mid)
    law = "positive and even" if construction in "AC" else "odd"
    _require(i is not None, f"middle altitude {mid} is not in the image of construction "
                            f"{construction}: it must be {law}")
    half = len(path) // 2
    s1, mark1 = left_inv(path.steps[:half], i)
    s2, mark2 = left_inv(_mirror(path.steps[half:]), i)
    return FiveTuple(
        construction,
        Path(s1, kind),
        Path(_mirror(s2), kind),
        i,
        mark1,
        _mirror_mark(construction, len(s2), mark2),
    )


# ---------------------------------------------------------------------------
# domain and image enumeration (exhaustive; the tests' oracle)

def five_tuples(construction: str, k: int) -> Iterator[FiveTuple]:
    """Yield every valid five-tuple for the construction at size k."""
    pool = list(_paths(construction, k))
    for p1 in pool:
        for p2 in pool:
            for i in range(k + 1):  # only B has marks at altitude k
                for m1 in _marks(construction, p1, i, 1):
                    for m2 in _marks(construction, p2, i, 2):
                        yield FiveTuple(construction, p1, p2, i, m1, m2)


def image_paths(construction: str, k: int) -> Iterator[Path]:
    """Yield the characterized image of the construction at size k: doubled
    paths whose middle altitude follows the construction's law."""
    for p in _paths(construction, 2 * k + 1 if construction == "B" else 2 * k):
        if _middle_index(construction, middle_altitude(p)) is not None:
            yield p


def _paths(construction: str, k: int) -> Iterator[Path]:
    """Every path of size k of the kind the construction takes."""
    _variant(construction)
    return (enumerate_dyck if _KIND_FOR[construction] is PathKind.DYCK else enumerate_alt_motzkin)(k)
