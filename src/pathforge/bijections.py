"""Four reversible path surgeries that double a pair of marked paths into a
single path of twice the length, classified by its middle altitude.

Construction A glues two marked Dyck paths of length 2k into a Dyck path of
length 4k with positive even middle altitude; B uses vertex marks and lands
on all Dyck paths of length 4k+2; C and D are the alternating Motzkin
versions, steering to even and odd middle altitudes respectively.

The four are variants of one bijection, written as one scan of a running
minimum, ``_turn_lows``, that reads a half in place in the direction of
the range it is given and turns each step by which the altitude reaches a
new lowest value: read rightwards, such falls become rises; read
leftwards, such rises become falls.  ``construct`` reads p1 rightwards
from its mark, turning the closing falls of the chain of i rises that
enclose the mark and, for a marked rise (A, C), the mark's own.  It reads
p2 leftwards from its mark: the same surgery seen from the path's end, so
the right half needs no mirrored copy.  Any other mark becomes a new rise
in p1 and a new fall in p2: D's marked level step, or a level step that B
inserts after its marked vertex.  ``invert`` reads outwards from the
middle vertex, leftwards and then rightwards, turning at each new low
above i; both reads stop at altitude i, on the marks.  The path kind
decides how a step turns: a Dyck step flips, and an alternating Motzkin
step trades places with its nearest level step further on, which takes
the turned step; turning the other way is the exact inverse.  Each half
is read once, so ``construct`` and ``invert`` take time linear in the
path length.  One table row per construction names its kind and its
marks, and one method of the row states the law of each mark: the step
it must be, the altitude before it and the parity of its position.  One
check of a given mark reads that law, and the positions that may carry a
mark are those it accepts.
``five_tuples`` and ``image_paths`` enumerate the domain and the
characterized image of each construction; the tests use them to check
every construction exhaustively at small k.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .numeric import _check_size
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
# step helpers (steps are Path.steps tuples, positions 1-based)

def _level_from(steps, alts, altitude, positions) -> int:
    """The first of ``positions`` (1-based, in the order given) that holds a
    level step from ``altitude``.  The level-parity lemma puts it on an even
    step right of a fall and on an odd step left of a rise; validation of
    the finished ``Path`` checks that."""
    for q in positions:
        if steps[q - 1] == LEVEL and alts[q - 1] == altitude:
            return q
    raise RuntimeError(f"no level step from altitude {altitude} in steps {positions}")


# ---------------------------------------------------------------------------
# the four variants

class _Construction(NamedTuple):
    """What sets a construction apart: the kind of its paths, which decides
    how a step turns, and its marks, "rise", "vertex" or "level", whose law
    ``_law`` states; ``wording`` names them in errors."""

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

    def candidates(self, path: Path, i: int, side: int) -> tuple[int, ...]:
        """The positions in ``path`` that ``admits`` accepts for mark
        ``side`` at altitude i, in order."""
        return tuple(q for q in range(len(path.steps) + 1) if self.admits(path, i, side, q))

    def admits(self, path: Path, i: int, side: int, mark: int) -> bool:
        """Whether ``path`` may carry mark ``side`` at ``mark``, decided
        from the step at it and the altitude before it (for a vertex, the
        altitude at it), so a check costs one sum over the steps before the
        mark."""
        step, start, parity = self._law(i, side)
        steps = path.steps
        first = 0 if step is None else 1  # vertices count from 0, steps from 1
        # range membership compares by equality, so a mark equal to no
        # position (None, "1") is refused here where an ordering test would
        # raise TypeError
        return (mark in range(first, len(steps) + 1)
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

def _turn_lows(kind, out, steps, alts, positions, low, stop):
    """Read ``positions`` from altitude ``low`` in their direction and turn
    each step by which the altitude reaches a new low, until one reaches
    altitude ``stop``: its position is returned, and it is not turned.
    Rightwards the scan reads the altitude after each step and turns a
    fall into a rise; leftwards it reads the altitude before each step and
    turns a rise into a fall.  A Dyck step flips; an alternating Motzkin
    step becomes level, and its nearest level partner further on in that
    direction, up to the path's end or start, takes the turned step, so
    rises stay on even steps and falls on odd ones.  Each partner lies
    before the next new low, so the partner searches cover disjoint ranges
    and the scan is linear."""
    ahead = positions.step
    turned, before = (RISE, 0) if ahead > 0 else (FALL, 1)
    for q in positions:
        if alts[q - before] < low:
            low = alts[q - before]
            if low == stop:
                return q
            if kind is PathKind.DYCK:
                out[q - 1] = turned
            else:
                out[q - 1] = LEVEL
                end = len(steps) + 1 if ahead > 0 else 0
                out[_level_from(steps, alts, low, range(q + ahead, end, ahead)) - 1] = turned
    return None


def construct(t: FiveTuple) -> MidPath:
    """Apply the construction named by the five-tuple and concatenate the
    halves.  The scan turns the steps after p1's mark that reach a new low
    into rises and, read leftwards, the steps before p2's mark from which
    one is reached into falls; a mark of B or D becomes a rise in p1 and a
    fall in p2.  The result has middle altitude 2i+2 (A, C) or 2i+1 (B, D)."""
    c = _construction(t.construction)
    if t.p1.kind is not c.kind or t.p2.kind is not c.kind:
        raise ValueError(f"construction {t.construction} needs {c.kind.value} paths")
    n = len(t.p1.steps)
    if len(t.p2.steps) != n:
        raise ValueError("p1 and p2 must have the same length")
    if n == 0:
        raise ValueError("paths must be nonempty")
    for side, path, mark in ((1, t.p1, t.mark1), (2, t.p2, t.mark2)):
        if not c.admits(path, t.i, side, mark):
            raise ValueError(f"mark{side}={mark} is not {c.wording[side - 1].format(i=t.i)} "
                             f"in p{side}")
    s1, s2, m1, m2 = t.p1.steps, t.p2.steps, t.mark1, t.mark2
    if c.marks == "vertex":  # B marks a level step inserted after each marked vertex
        s1, s2, m1, m2 = s1[:m1] + (LEVEL,) + s1[m1:], s2[:m2] + (LEVEL,) + s2[m2:], m1 + 1, m2 + 1
    half = len(s1)
    m2 += half
    # p1 closes at 0, so these are the altitudes of each half on its own
    steps = s1 + s2
    alts = altitudes(steps)
    out = list(steps)
    if c.marks != "rise":
        out[m1 - 1], out[m2 - 1] = RISE, FALL
    # no altitude is -1, so both scans run to the end of their half
    _turn_lows(c.kind, out, steps, alts, range(m1 + 1, half + 1), alts[m1], -1)
    _turn_lows(c.kind, out, steps, alts, range(m2 - 1, half, -1), alts[m2 - 1], -1)
    path = Path(out, c.kind)
    return MidPath(path, middle_altitude(path))


def invert(construction: str, path: Path) -> FiveTuple:
    """Recover the unique five-tuple that the named construction maps to
    ``path``.  Read outwards from the middle vertex, the step at which each
    half first reaches each altitude below the middle is its rise from that
    altitude (left) or fall to it (right).  The scan turns those above i
    into falls on the left and rises on the right, and stops at the ones
    at i, the marks: kept (A, C), made level again (D) or deleted (B,
    whose marks are the vertices before them).  Each level partner lies
    before the next one found, so the surgery changes no step beyond the
    marks."""
    c = _construction(construction)
    if path.kind is not c.kind:
        raise ValueError(f"construction {construction} inverts {c.kind.value} paths")
    extra = 2 if c.marks == "vertex" else 0  # B inserts one step in each half
    steps = path.steps
    n = len(steps)
    if n % 4 != extra or n <= extra:
        raise ValueError(f"path length must be 4k{'+2' if extra else ''} with k >= 1, got {n}")
    half = n // 2
    alts = altitudes(steps)
    mid = alts[half]
    i = c.middle_index(mid)
    if i is None:
        law = "positive and even" if c.marks == "rise" else "odd"
        raise ValueError(f"middle altitude {mid} is not in the image of construction "
                         f"{construction}: it must be {law}")
    out = list(steps)
    m1 = _turn_lows(c.kind, out, steps, alts, range(half, 0, -1), mid, i)
    m2 = _turn_lows(c.kind, out, steps, alts, range(half + 1, n + 1), mid, i)
    if c.marks == "level":
        out[m1 - 1] = out[m2 - 1] = LEVEL
    elif c.marks == "vertex":  # B's marks are the vertices before the steps it deletes
        del out[m2 - 1], out[m1 - 1]
        half, m1, m2 = half - 1, m1 - 1, m2 - 2
    return FiveTuple(construction, Path(out[:half], c.kind), Path(out[half:], c.kind),
                     i, m1, m2 - half)


# ---------------------------------------------------------------------------
# domain and image enumeration (exhaustive; the tests' oracle)

def five_tuples(construction: str, k: int) -> Iterator[FiveTuple]:
    """Yield every valid five-tuple for the construction at size k, its paths found at the call."""
    c = _construction(construction)
    pool = list(_paths(c, k))
    # each path's marks on both sides at each altitude, found once
    marks = [[(c.candidates(p, i, 1), c.candidates(p, i, 2)) for i in range(k + 1)] for p in pool]
    return (FiveTuple(construction, p1, p2, i, m1, m2)
            for p1, marks1 in zip(pool, marks) for p2, marks2 in zip(pool, marks)
            for i in range(k + 1)  # only B has marks at altitude k
            for m1 in marks1[i][0] for m2 in marks2[i][1])


def image_paths(construction: str, k: int) -> Iterator[Path]:
    """Yield the characterized image of the construction at size k: doubled
    paths whose middle altitude follows the construction's law."""
    c = _construction(construction)
    _check_size(k)
    return (p for p in _paths(c, 2 * k + 1 if c.marks == "vertex" else 2 * k)
            if c.middle_index(middle_altitude(p)) is not None)


def _paths(c: _Construction, k: int) -> Iterator[Path]:
    """Every path of size k of the kind the construction takes."""
    return (enumerate_dyck if c.kind is PathKind.DYCK else enumerate_alt_motzkin)(k)
