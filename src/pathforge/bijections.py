"""Four reversible path surgeries that double a pair of marked paths into a
single path of twice the length, classified by its middle altitude.

Construction A glues two marked Dyck paths of length 2k into a Dyck path of
length 4k with positive even middle altitude; B uses vertex marks and lands
on all Dyck paths of length 4k+2; C and D are the alternating Motzkin
versions, steering to even and odd middle altitudes respectively.  Each
construction has an exact inverse, implemented here and verified
exhaustively in the tests.

Internally each surgery edits only the left path; the right path is handled
by mirroring (reverse the steps and swap rises with falls), applying the
left-path surgery, and mirroring back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .paths import Path, PathKind, Step, parse

RISE, FALL, LEVEL = 1, -1, 0

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
# raw-step helpers (steps are tuples of +1/-1/0, positions 1-based)

def _alts(steps) -> list[int]:
    alts = [0]
    for s in steps:
        alts.append(alts[-1] + s)
    return alts


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
    alts = _alts(steps)
    marks = [x1] + _chain_rises(steps, alts, i, x1)
    out = list(steps)
    for m in marks:
        out[_matching_fall(steps, alts, m) - 1] = RISE
    return tuple(out)


def _a_left_inv(steps, i):
    alts = _alts(steps)
    flips = [_rightmost_rise_from(steps, alts, a) for a in range(i + 1, 2 * i + 2)]
    out = list(steps)
    for q in flips:
        out[q - 1] = FALL
    p1 = tuple(out)
    x1 = _matching_rise(p1, _alts(p1), flips[0])
    return p1, x1


def _b_left(steps, i, v1):
    alts = _alts(steps)
    marks = _chain_rises(steps, alts, i, v1 + 1)
    closings = {_matching_fall(steps, alts, m) for m in marks}
    if any(c <= v1 for c in closings):
        raise RuntimeError("closing fall left of the marked vertex")
    out = list(steps[:v1]) + [RISE]
    for pos in range(v1 + 1, len(steps) + 1):
        out.append(RISE if pos in closings else steps[pos - 1])
    return tuple(out)


def _b_left_inv(steps, i):
    alts = _alts(steps)
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
    alts = _alts(steps)
    marks = [x1] + _chain_rises(steps, alts, i, x1)
    out = list(steps)
    for m in marks:
        fall = _matching_fall(steps, alts, m)
        partner = _level_partner_right(steps, alts, fall)
        out[fall - 1] = LEVEL
        out[partner - 1] = RISE
    return tuple(out)


def _c_left_inv(steps, i):
    alts = _alts(steps)
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
    x1 = _matching_rise(p1, _alts(p1), fall_of_x1)
    return p1, x1


def _d_left(steps, i, y1):
    alts = _alts(steps)
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
    alts = _alts(steps)
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
# mark validation

def _require(cond, message):
    if not cond:
        raise ValueError(message)


def _check_pair(t: FiveTuple, construction: str):
    _require(t.construction == construction, f"five-tuple is not for construction {construction}")
    kind = _KIND_FOR[construction]
    _require(t.p1.kind is kind and t.p2.kind is kind, f"construction {construction} needs {kind.value} paths")
    _require(t.p1.k == t.p2.k, "p1 and p2 must have the same length")
    _require(t.p1.k >= 1, "paths must be nonempty")


def _check_rise_fall_marks(t: FiveTuple):
    k = t.p1.k
    _require(0 <= t.i <= k - 1, f"i must be in [0, {k - 1}], got {t.i}")
    _require(t.mark1 in t.p1.rises_from(t.i), f"mark1={t.mark1} is not a rise from altitude {t.i} in p1")
    _require(t.mark2 in t.p2.falls_to(t.i), f"mark2={t.mark2} is not a fall to altitude {t.i} in p2")


# ---------------------------------------------------------------------------
# the four constructions

def construct_a(t: FiveTuple) -> MidPath:
    """Glue two marked Dyck paths of length 2k into one of length 4k with
    middle altitude 2i+2: flip the chain's closing falls in p1, mirror the
    treatment of p2, and concatenate."""
    _check_pair(t, "A")
    _check_rise_fall_marks(t)
    s1 = tuple(int(s) for s in t.p1.steps)
    s2 = tuple(int(s) for s in t.p2.steps)
    n = len(s1)
    left = _a_left(s1, t.i, t.mark1)
    right = _mirror(_a_left(_mirror(s2), t.i, n + 1 - t.mark2))
    path = Path(left + right, PathKind.DYCK)
    return MidPath(path, middle_altitude(path))


def invert_a(path: Path) -> FiveTuple:
    """Recover the unique five-tuple mapping to a Dyck path of length 4k
    with positive middle altitude."""
    _require(path.kind is PathKind.DYCK, "construction A inverts Dyck paths")
    _require(len(path) % 4 == 0 and len(path) > 0, f"path length must be 4k, got {len(path)}")
    n = len(path) // 2
    mid = middle_altitude(path)
    _require(mid > 0, "middle altitude 0 is not in the image of construction A")
    i = mid // 2 - 1
    steps = tuple(int(s) for s in path.steps)
    p1_steps, x1 = _a_left_inv(steps[:n], i)
    m2_steps, xm = _a_left_inv(_mirror(steps[n:]), i)
    p2_steps, x2 = _mirror(m2_steps), n + 1 - xm
    return FiveTuple(
        "A", Path(p1_steps, PathKind.DYCK), Path(p2_steps, PathKind.DYCK), i, x1, x2
    )


def construct_b(t: FiveTuple) -> MidPath:
    """Glue two vertex-marked Dyck paths of length 2k into one of length
    4k+2 with middle altitude 2i+1: insert a rise after the marked vertex
    of p1 (flipping i closing falls when i > 0), mirror on p2, concatenate."""
    _check_pair(t, "B")
    k = t.p1.k
    _require(0 <= t.i <= k, f"i must be in [0, {k}], got {t.i}")
    n = 2 * k
    _require(0 <= t.mark1 <= n and 0 <= t.mark2 <= n, "vertex marks must be in [0, 2k]")
    _require(t.p1.altitude_at(t.mark1) == t.i, f"vertex mark1={t.mark1} is not at altitude {t.i} in p1")
    _require(t.p2.altitude_at(t.mark2) == t.i, f"vertex mark2={t.mark2} is not at altitude {t.i} in p2")
    s1 = tuple(int(s) for s in t.p1.steps)
    s2 = tuple(int(s) for s in t.p2.steps)
    left = _b_left(s1, t.i, t.mark1)
    right = _mirror(_b_left(_mirror(s2), t.i, n - t.mark2))
    path = Path(left + right, PathKind.DYCK)
    return MidPath(path, path.altitude_at(n + 1))


def invert_b(path: Path) -> FiveTuple:
    """Recover the unique five-tuple for any Dyck path of length 4k+2."""
    _require(path.kind is PathKind.DYCK, "construction B inverts Dyck paths")
    _require(len(path) % 4 == 2 and len(path) >= 6, f"path length must be 4k+2 with k >= 1, got {len(path)}")
    half = len(path) // 2
    n = half - 1
    mid = path.altitude_at(half)
    i = (mid - 1) // 2
    steps = tuple(int(s) for s in path.steps)
    p1_steps, v1 = _b_left_inv(steps[:half], i)
    m2_steps, vm = _b_left_inv(_mirror(steps[half:]), i)
    p2_steps, v2 = _mirror(m2_steps), n - vm
    return FiveTuple(
        "B", Path(p1_steps, PathKind.DYCK), Path(p2_steps, PathKind.DYCK), i, v1, v2
    )


def construct_c(t: FiveTuple) -> MidPath:
    """Alternating Motzkin version of A: middle altitude 2i+2 and rise
    count r1+r2.  Closing falls trade places with their nearest level
    steps to the right before flipping, which keeps rises on even steps."""
    _check_pair(t, "C")
    _check_rise_fall_marks(t)
    s1 = tuple(int(s) for s in t.p1.steps)
    s2 = tuple(int(s) for s in t.p2.steps)
    n = len(s1)
    left = _c_left(s1, t.i, t.mark1)
    right = _mirror(_c_left(_mirror(s2), t.i, n + 1 - t.mark2))
    path = Path(left + right, PathKind.ALT_MOTZKIN)
    return MidPath(path, middle_altitude(path))


def invert_c(path: Path) -> FiveTuple:
    """Recover the five-tuple for an alternating Motzkin path of length 4k
    with positive even middle altitude."""
    _require(path.kind is PathKind.ALT_MOTZKIN, "construction C inverts alternating Motzkin paths")
    _require(len(path) % 4 == 0 and len(path) > 0, f"path length must be 4k, got {len(path)}")
    n = len(path) // 2
    mid = middle_altitude(path)
    _require(mid > 0 and mid % 2 == 0, f"middle altitude must be positive and even, got {mid}")
    i = mid // 2 - 1
    steps = tuple(int(s) for s in path.steps)
    p1_steps, x1 = _c_left_inv(steps[:n], i)
    m2_steps, xm = _c_left_inv(_mirror(steps[n:]), i)
    p2_steps, x2 = _mirror(m2_steps), n + 1 - xm
    return FiveTuple(
        "C",
        Path(p1_steps, PathKind.ALT_MOTZKIN),
        Path(p2_steps, PathKind.ALT_MOTZKIN),
        i,
        x1,
        x2,
    )


def construct_d(t: FiveTuple) -> MidPath:
    """Alternating Motzkin surgery with level-step marks: replaces the
    marked even-step level in p1 with a rise (and the odd-step level in p2
    with a fall), running the C-style fall/level switches below altitude i.
    Middle altitude 2i+1, rise count r1+r2+1."""
    _check_pair(t, "D")
    k = t.p1.k
    _require(0 <= t.i <= k - 1, f"i must be in [0, {k - 1}], got {t.i}")
    _require(
        t.mark1 in t.p1.levels_at(t.i, even_steps=True),
        f"mark1={t.mark1} is not an even-step level at altitude {t.i} in p1",
    )
    _require(
        t.mark2 in t.p2.levels_at(t.i, even_steps=False),
        f"mark2={t.mark2} is not an odd-step level at altitude {t.i} in p2",
    )
    s1 = tuple(int(s) for s in t.p1.steps)
    s2 = tuple(int(s) for s in t.p2.steps)
    n = len(s1)
    left = _d_left(s1, t.i, t.mark1)
    right = _mirror(_d_left(_mirror(s2), t.i, n + 1 - t.mark2))
    path = Path(left + right, PathKind.ALT_MOTZKIN)
    return MidPath(path, middle_altitude(path))


def invert_d(path: Path) -> FiveTuple:
    """Recover the five-tuple for an alternating Motzkin path of length 4k
    with odd middle altitude."""
    _require(path.kind is PathKind.ALT_MOTZKIN, "construction D inverts alternating Motzkin paths")
    _require(len(path) % 4 == 0 and len(path) > 0, f"path length must be 4k, got {len(path)}")
    n = len(path) // 2
    mid = middle_altitude(path)
    _require(mid % 2 == 1, f"middle altitude must be odd, got {mid}")
    i = (mid - 1) // 2
    steps = tuple(int(s) for s in path.steps)
    p1_steps, y1 = _d_left_inv(steps[:n], i)
    m2_steps, ym = _d_left_inv(_mirror(steps[n:]), i)
    p2_steps, y2 = _mirror(m2_steps), n + 1 - ym
    return FiveTuple(
        "D",
        Path(p1_steps, PathKind.ALT_MOTZKIN),
        Path(p2_steps, PathKind.ALT_MOTZKIN),
        i,
        y1,
        y2,
    )


_CONSTRUCT = {"A": construct_a, "B": construct_b, "C": construct_c, "D": construct_d}
_INVERT = {"A": invert_a, "B": invert_b, "C": invert_c, "D": invert_d}


def construct(t: FiveTuple) -> MidPath:
    """Apply the construction named by the five-tuple."""
    if t.construction not in _CONSTRUCT:
        raise ValueError(f"unknown construction {t.construction!r}")
    return _CONSTRUCT[t.construction](t)


def invert(construction: str, path: Path) -> FiveTuple:
    """Apply the inverse of the named construction."""
    if construction not in _INVERT:
        raise ValueError(f"unknown construction {construction!r}")
    return _INVERT[construction](path)


# ---------------------------------------------------------------------------
# domain and image enumeration (exhaustive; used by tests and the CLI)

def five_tuples(construction: str, k: int) -> Iterator[FiveTuple]:
    """Yield every valid five-tuple for the construction at size k."""
    from .paths import enumerate_alt_motzkin, enumerate_dyck

    if construction not in _KIND_FOR:
        raise ValueError(f"unknown construction {construction!r}")
    kind = _KIND_FOR[construction]
    pool = list(enumerate_dyck(k) if kind is PathKind.DYCK else enumerate_alt_motzkin(k))
    if construction in ("A", "C"):
        for p1 in pool:
            for p2 in pool:
                for i in range(k):
                    for m1 in p1.rises_from(i):
                        for m2 in p2.falls_to(i):
                            yield FiveTuple(construction, p1, p2, i, m1, m2)
    elif construction == "B":
        for p1 in pool:
            for p2 in pool:
                for i in range(k + 1):
                    for m1 in p1.vertices_at(i):
                        for m2 in p2.vertices_at(i):
                            yield FiveTuple("B", p1, p2, i, m1, m2)
    else:
        for p1 in pool:
            for p2 in pool:
                for i in range(k):
                    for m1 in p1.levels_at(i, even_steps=True):
                        for m2 in p2.levels_at(i, even_steps=False):
                            yield FiveTuple("D", p1, p2, i, m1, m2)


def image_paths(construction: str, k: int) -> Iterator[Path]:
    """Yield the characterized image of the construction at size k: doubled
    paths filtered by the middle-altitude law."""
    from .paths import enumerate_alt_motzkin, enumerate_dyck

    if construction == "A":
        for p in enumerate_dyck(2 * k):
            if middle_altitude(p) > 0:
                yield p
    elif construction == "B":
        yield from enumerate_dyck(2 * k + 1)
    elif construction == "C":
        for p in enumerate_alt_motzkin(2 * k):
            mid = middle_altitude(p)
            if mid > 0 and mid % 2 == 0:
                yield p
    elif construction == "D":
        for p in enumerate_alt_motzkin(2 * k):
            if middle_altitude(p) % 2 == 1:
                yield p
    else:
        raise ValueError(f"unknown construction {construction!r}")
