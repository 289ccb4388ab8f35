"""Four reversible path surgeries that double a pair of marked paths into a
single path of twice the length, classified by its middle altitude.

Construction A glues two marked Dyck paths of length 2k into a Dyck path of
length 4k with positive even middle altitude; B uses vertex marks and lands
on all Dyck paths of length 4k+2; C and D are the alternating Motzkin
versions, steering to even and odd middle altitudes respectively.

The four are variants of one bijection, written as one scan of a running
minimum, ``_turn_lows``, that reads a half of a path in place in the
direction of the range it is given and turns each step by which the
altitude reaches a new lowest value: read rightwards, such falls become
rises; read leftwards, such rises become falls.  C and D scan their own
steps at the scale s = 2 of the letter map φ, a bijection onto the Dyck
paths of the same size that reads a level step as a rise on an odd step
and a fall on an even one, and an altitude h after step q as 2h + q mod 2;
a turn of φ's letters moves a Motzkin step by one.  ``construct`` reads p1
rightwards from its mark, turning the closing falls of the rises that
enclose the mark and, for a marked rise (A, C), the mark's own.  It reads
p2 leftwards from its mark: the same surgery seen from the path's end, so
the right half needs no mirrored copy.  Any other mark becomes a new rise
in p1 and a new fall in p2: D's marked level step, which φ reads as a fall
in p1 and a rise in p2, or a level step that B inserts after its marked
vertex.  ``invert`` reads outwards from the middle vertex, leftwards and
then rightwards, turning each new low above the marks, and stops on them,
at altitude s·i + s − 1.  Each half is read once, so both take time linear
in the path length.  One table row per construction names its kind and
its marks, and its method ``_law`` states the law of each mark in its
kind's terms: the step it must be, the altitude before it and the parity
of its position; ``admits`` checks a given mark by it.
"""

from __future__ import annotations

from typing import NamedTuple

from .paths import FALL, LEVEL, RISE, Path, PathKind, altitudes, parse


class FiveTuple(NamedTuple):
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
        return {**self._asdict(), "p1": self.p1.render(), "p2": self.p2.render()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "FiveTuple":
        """Build a tuple from its JSON form, rejecting malformed input with
        ValueError: exactly the six fields of ``to_json_dict``, paths
        strings and i/mark1/mark2 ints (not bools), with no coercion.  A
        path that does not parse is refused under its field's name."""
        if not isinstance(data, dict):
            raise ValueError(f"five-tuple must be a JSON object, got {type(data).__name__}")
        if data.keys() != _FIELDS:
            problems = [f"{name!r} is missing" for name in sorted(_FIELDS - data.keys())]
            problems += [f"{name!r} is unknown" for name in data if name not in _FIELDS]
            raise ValueError("five-tuple field " + ", ".join(problems))
        construction = data["construction"]
        kind = _construction(construction).kind
        for name in ("p1", "p2"):
            if not isinstance(data[name], str):
                raise ValueError(f"{name} must be a path string, got {data[name]!r}")
        for name in ("i", "mark1", "mark2"):
            if type(data[name]) is not int:
                raise ValueError(f"{name} must be an integer, got {data[name]!r}")
        name = "p1"  # the field being parsed, named in a refusal
        try:
            p1 = parse(data["p1"], kind)
            name = "p2"
            p2 = parse(data["p2"], kind)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from exc
        return cls(construction, p1, p2, data["i"], data["mark1"], data["mark2"])


# the fields of a five-tuple's JSON form
_FIELDS = frozenset(FiveTuple._fields)


class MidPath(NamedTuple):
    """A doubled path together with its middle altitude (the altitude at
    the vertex between the two halves)."""

    path: Path
    middle_altitude: int


def middle_altitude(path: Path) -> int:
    return sum(path.steps[:len(path.steps) // 2])


# ---------------------------------------------------------------------------
# the four variants

class _Construction(NamedTuple):
    """What sets a construction apart: the kind of its paths, read at φ's
    scale for C and D, and its marks, "rise", "vertex" or "level", whose
    law ``_law`` states; ``wording`` names them in errors."""

    kind: PathKind
    marks: str
    wording: tuple[str, str]

    def _law(self, i: int, side: int) -> tuple[int | None, int, int | None]:
        """The law of mark ``side`` (1 or 2) at altitude i: the step the mark
        must be (None for a vertex mark), the altitude before it, and the
        parity of its position (None for any): a rise from i or a fall from
        i+1 (A, C), a vertex at i (B), or a level at i on an even step for
        p1 and an odd step for p2 (D)."""
        if self.marks == "vertex":
            return None, i, None
        if self.marks == "level":
            return LEVEL, i, side - 1
        return (RISE, i, None) if side == 1 else (FALL, i + 1, None)

    def admits(self, path: Path, i: int, side: int, mark: int) -> bool:
        """Whether ``path`` may carry mark ``side`` at ``mark``, decided
        from the step at it and the altitude before it (for a vertex, the
        altitude at it), so a check costs one sum over the steps before the
        mark.  A mark that is no int (a bool is one) is refused."""
        step, start, parity = self._law(i, side)
        steps = path.steps
        first = 0 if step is None else 1  # vertices count from 0, steps from 1
        # the type first: an ordering test raises TypeError on None or "1",
        # and range membership, which compares by equality, takes 1.0
        return (isinstance(mark, int) and first <= mark <= len(steps)
                and (parity is None or mark % 2 == parity)
                and (step is None or steps[mark - 1] == step)
                and sum(steps[:mark - first]) == start)

    def middle_index(self, mid: int) -> int | None:
        """The i of a doubled path with middle altitude ``mid``, or None
        when mid follows no law of this construction: mid is 2i+2 for a
        marked rise and 2i+1 for a new one."""
        i, rest = divmod(mid - (2 if self.marks == "rise" else 1), 2)
        return i if rest == 0 and i >= 0 else None


_CONSTRUCTIONS = {
    "A": _Construction(PathKind.DYCK, "rise", ("a rise from altitude {i}", "a fall to altitude {i}")),
    "B": _Construction(PathKind.DYCK, "vertex", ("at altitude {i}", "at altitude {i}")),
    "C": _Construction(PathKind.ALT_MOTZKIN, "rise", ("a rise from altitude {i}", "a fall to altitude {i}")),
    "D": _Construction(PathKind.ALT_MOTZKIN, "level",
                       ("an even-step level at altitude {i}", "an odd-step level at altitude {i}")),
}


def _construction(name: str) -> _Construction:
    if not isinstance(name, str) or name not in _CONSTRUCTIONS:
        raise ValueError(f"unknown construction {name!r}")
    return _CONSTRUCTIONS[name]


def _construction_of(path: Path) -> str:
    """The construction whose image ``path`` can lie in: A or C at an even middle, B or D at an odd."""
    return ("AB" if path.kind is PathKind.DYCK else "CD")[middle_altitude(path) % 2]


# ---------------------------------------------------------------------------
# the one surgery: a running-minimum scan

# φ as a scale s: the altitude h after step q reads as s·h + (s−1)·(q mod 2),
# so a Dyck path is its own image.  Only an odd fall or an even level step
# reaches a new low rightwards, and only an even rise or an odd level step
# leftwards, so each alternating Motzkin turn by ±2/s = ±1 is lawful
_SCALE = {PathKind.DYCK: 1, PathKind.ALT_MOTZKIN: 2}


def _turn_lows(out, alts, s, positions, low, stop):
    """Read the altitudes ``alts`` of the steps ``out`` at ``positions``,
    at scale s, from altitude ``low`` and turn each step by which the
    altitude reaches a new low, until one reaches altitude ``stop``: its
    position is returned, and it is not turned.  Rightwards the scan reads
    the altitude after each step and adds 2/s to it; leftwards it reads the
    altitude before each step and subtracts 2/s."""
    turn, before = (2 // s, 0) if positions.step > 0 else (-2 // s, 1)
    odd = s - 1  # 0 or 1, so v & odd is (s−1)·(v mod 2) for a vertex v
    for q in positions:
        a = s * alts[q - before] + ((q - before) & odd)
        if a < low:
            low = a
            if low == stop:
                return q
            out[q - 1] += turn
    return None


def construct(t: FiveTuple) -> MidPath:
    """The doubled path of the five-tuple.  The scan turns the steps after
    p1's mark that reach a new low into rises and, leftwards, the steps
    before p2's mark from which one is reached into falls, by one step of
    φ's letters for C and D; a mark of B or D becomes a rise in p1 and a
    fall in p2.  The result has middle altitude 2i+2 (A, C) or 2i+1 (B, D)."""
    c = _construction(t.construction)
    for name, path in (("p1", t.p1), ("p2", t.p2)):
        if not isinstance(path, Path):
            raise ValueError(f"{name} must be a Path, got {path!r}")
        if path.kind is not c.kind:
            raise ValueError(f"construction {t.construction} needs {c.kind.value} paths")
    n = len(t.p1.steps)
    if len(t.p2.steps) != n:
        raise ValueError("p1 and p2 must have the same length")
    if n == 0:
        raise ValueError("paths must be nonempty")
    if not isinstance(t.i, int):
        raise ValueError(f"i must be an integer, got {t.i!r}")
    for side, path, mark in ((1, t.p1, t.mark1), (2, t.p2, t.mark2)):
        if not c.admits(path, t.i, side, mark):
            raise ValueError(f"mark{side}={mark} is not {c.wording[side - 1].format(i=t.i)} "
                             f"in p{side}")
    s1, s2, m1, m2 = t.p1.steps, t.p2.steps, t.mark1, t.mark2
    if c.marks == "vertex":  # B marks a level step inserted after each marked vertex
        s1, s2, m1, m2 = s1[:m1] + (LEVEL,) + s1[m1:], s2[:m2] + (LEVEL,) + s2[m2:], m1 + 1, m2 + 1
    half = len(s1)
    m2 += half
    s = _SCALE[c.kind]
    out = list(s1 + s2)
    # p1 closes at 0, so these are the altitudes of each half on its own;
    # C's and D's scans start from even vertices, at s·h
    alts = altitudes(out)
    if c.marks != "rise":
        out[m1 - 1], out[m2 - 1] = RISE, FALL
    # no altitude is -1, so both scans run to the end of their half
    _turn_lows(out, alts, s, range(m1 + 1, half + 1), s * alts[m1], -1)
    _turn_lows(out, alts, s, range(m2 - 1, half, -1), s * alts[m2 - 1], -1)
    path = Path(out, c.kind)
    return MidPath(path, middle_altitude(path))


def invert(construction: str, path: Path) -> FiveTuple:
    """Recover the unique five-tuple that the named construction maps to
    ``path``.  Read outwards from the middle vertex at scale s, the step at
    which each half first reaches each altitude below the middle is its
    rise from that altitude (left) or fall to it (right).  The scan turns
    those above the marks back and stops at the marks: kept (A, C), made
    level (D) or deleted (B, whose marks are the vertices before them)."""
    c = _construction(construction)
    if not isinstance(path, Path):
        raise ValueError(f"path must be a Path, got {path!r}")
    if path.kind is not c.kind:
        raise ValueError(f"construction {construction} inverts {c.kind.value} paths")
    extra = 2 if c.marks == "vertex" else 0  # B inserts one step in each half
    steps = path.steps
    n = len(steps)
    if n % 4 != extra or n <= extra:
        raise ValueError(f"path length must be 4k{'+2' if extra else ''} with k >= 1, got {n}")
    half = n // 2
    s = _SCALE[c.kind]
    out = list(steps)
    alts = altitudes(steps)
    mid = alts[half]
    i = c.middle_index(mid)
    if i is None:
        law = "positive and even" if c.marks == "rise" else "odd"
        raise ValueError(f"middle altitude {mid} is not in the image of construction "
                         f"{construction}: it must be {law}")
    stop = s * i + s - 1  # i for A and B, 2i+1 for C and D
    # half is even for C and D, so the middle vertex reads as s·mid
    m1 = _turn_lows(out, alts, s, range(half, 0, -1), s * mid, stop)
    m2 = _turn_lows(out, alts, s, range(half + 1, n + 1), s * mid, stop)
    if c.marks == "level":
        out[m1 - 1] = out[m2 - 1] = LEVEL
    elif c.marks == "vertex":  # B's marks are the vertices before the steps it deletes
        del out[m2 - 1], out[m1 - 1]
        half, m1, m2 = half - 1, m1 - 1, m2 - 2
    return FiveTuple(construction, Path(out[:half], c.kind), Path(out[half:], c.kind),
                     i, m1, m2 - half)
