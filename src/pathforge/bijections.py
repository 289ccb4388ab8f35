"""Four reversible path surgeries that double a pair of marked paths into a
single path of twice the length, classified by its middle altitude.

Construction A glues two marked Dyck paths of length 2k into a Dyck path of
length 4k with positive even middle altitude; B uses vertex marks and lands
on all Dyck paths of length 4k+2; C and D are the alternating Motzkin
versions, steering to even and odd middle altitudes respectively.

The four are variants of one bijection, written once as ``_left`` and its
inverse ``_left_inv``, each one scan of a running minimum.  The left-half
surgery opens into rises the falls after the mark that reach a new lowest
altitude: the closing falls of the chain of i rises that enclose the mark
and, for a marked rise (A, C), the mark's own.  Any other mark becomes a
new rise: D's marked level step, or a level step that B inserts after its
marked vertex.  The inverse closes the rises at which the half, read
leftwards from its end, first reaches each altitude above i, and the
same scan stops at the rise from i, the mark.  The path kind decides
how a fall opens: a Dyck fall flips, and an alternating Motzkin fall
trades places with its nearest level step to the right, which becomes
the rise; closing is the exact inverse.  Both directions read each half
once, so ``construct`` and ``invert`` take time linear in the path
length.  One table row per construction names its kind and its marks,
and one method of the row states the law of each mark: the step it must
be, the altitude before it and the parity of its position.  One check
of a given mark reads that law, and the positions that may carry a mark
are those it accepts.  The right path is mirrored (steps reversed, rises
and falls swapped), put through the same surgery and mirrored back.
``five_tuples`` and ``image_paths`` enumerate the domain and the
characterized image of each construction; the tests use them to check
every construction exhaustively at small k.
"""

from __future__ import annotations

from operator import neg
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
        strings and i/mark1/mark2 ints (not bools), with no coercion."""
        if not isinstance(data, dict):
            raise ValueError(f"five-tuple must be a JSON object, got {type(data).__name__}")
        if data.keys() != _FIELDS:
            problems = [f"{name!r} is missing" for name in sorted(_FIELDS - data.keys())]
            problems += [f"{name!r} is unknown" for name in data if name not in _FIELDS]
            raise ValueError("five-tuple field " + ", ".join(problems))
        construction = data["construction"]
        kind = _construction(construction).kind
        for name in ("p1", "p2"):
            text = data[name]
            if not isinstance(text, str):
                raise ValueError(f"{name} must be a path string, got {text!r}")
            if text != text.strip():
                raise ValueError(f"{name} must be a path string without surrounding "
                                 f"whitespace, got {text!r}")
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

def _mirror(steps):
    return tuple(map(neg, reversed(steps)))


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
    how a fall opens, and its marks, "rise", "vertex" or "level", whose law
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

    def mirror_mark(self, n: int, mark: int) -> int:
        """Where a mark of a path of length n lands when the path is
        mirrored: a vertex at n - mark, a step at n + 1 - mark."""
        return n - mark if self.marks == "vertex" else n + 1 - mark

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
# the one left-half surgery

def _open(kind, out, steps, alts, fall):
    """Turn a closing fall into a rise in ``out``.  A Dyck fall flips; an
    alternating Motzkin fall trades places with its nearest level step to
    the right, which becomes the rise, so rises stay on even steps."""
    if kind is PathKind.DYCK:
        out[fall - 1] = RISE
    else:
        out[fall - 1] = LEVEL
        out[_level_from(steps, alts, alts[fall], range(fall + 1, len(steps) + 1)) - 1] = RISE


def _close(kind, out, steps, alts, rise):
    """Undo ``_open`` on the rise it made."""
    if kind is PathKind.DYCK:
        out[rise - 1] = FALL
    else:
        out[rise - 1] = LEVEL
        out[_level_from(steps, alts, alts[rise - 1], range(rise - 1, 0, -1)) - 1] = FALL


def _left(c: _Construction, steps, mark):
    """Open the falls after the mark that reach a new lowest altitude: the
    closing falls of the chain of i rises that enclose the mark and, for a
    marked rise (A, C), the mark's own fall, so that the half ends at 2i+2.
    Any other mark becomes a new rise and the half ends at 2i+1: D's marked
    level step, or for B a level step inserted after the marked vertex.
    Each level partner that ``_open`` finds lies before the next new low,
    so the scans for them cover disjoint ranges and the surgery is linear."""
    if c.marks == "vertex":
        steps, mark = steps[:mark] + (LEVEL,) + steps[mark:], mark + 1
    alts = altitudes(steps)
    out = list(steps)
    if c.marks != "rise":
        out[mark - 1] = RISE
    low = alts[mark]
    for q in range(mark + 1, len(steps) + 1):
        if alts[q] < low:
            low = alts[q]
            _open(c.kind, out, steps, alts, q)
    return tuple(out)


def _left_inv(c: _Construction, steps, i):
    """Inverse of ``_left``: read from the end leftwards, the step at which
    the half first reaches each altitude a is its rightmost rise from a.
    Close those from one below the half's last altitude down to i+1; the
    one from i, where the scan stops, is the mark: kept as a rise (A, C),
    made level again (D) or deleted (B, whose mark is the vertex before
    it).  Each level partner that ``_close`` finds lies after the next
    rise found, so closing changes no step left of it, the mark included,
    and the surgery is linear."""
    alts = altitudes(steps)
    out = list(steps)
    low = alts[-1]
    for q in range(len(steps), 0, -1):
        if alts[q - 1] < low:
            low = alts[q - 1]
            if low == i:
                break
            _close(c.kind, out, steps, alts, q)
    if c.marks == "vertex":
        del out[q - 1]
        q -= 1
    elif c.marks == "level":
        out[q - 1] = LEVEL
    return tuple(out), q


def construct(t: FiveTuple) -> MidPath:
    """Apply the construction named by the five-tuple: run the left-half
    surgery on p1 and, mirrored, on p2, and concatenate.  The result has
    middle altitude 2i+2 (A, C) or 2i+1 (B, D)."""
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
    s1 = _left(c, t.p1.steps, t.mark1)
    s2 = _mirror(_left(c, _mirror(t.p2.steps), c.mirror_mark(n, t.mark2)))
    path = Path(s1 + s2, c.kind)
    return MidPath(path, middle_altitude(path))


def invert(construction: str, path: Path) -> FiveTuple:
    """Recover the unique five-tuple that the named construction maps to
    ``path``."""
    c = _construction(construction)
    if path.kind is not c.kind:
        raise ValueError(f"construction {construction} inverts {c.kind.value} paths")
    extra = 2 if c.marks == "vertex" else 0  # B inserts one step in each half
    n = len(path.steps)
    if n % 4 != extra or n <= extra:
        raise ValueError(f"path length must be 4k{'+2' if extra else ''} with k >= 1, got {n}")
    mid = middle_altitude(path)
    i = c.middle_index(mid)
    if i is None:
        law = "positive and even" if c.marks == "rise" else "odd"
        raise ValueError(f"middle altitude {mid} is not in the image of construction "
                         f"{construction}: it must be {law}")
    half = n // 2
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
