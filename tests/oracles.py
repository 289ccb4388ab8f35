"""The small-k oracles of the tests: every five-tuple of a construction,
every path of its characterized image, and the marks and level steps of
one path per altitude, each listed from the altitudes of the paths as the
docstrings of ``bijections.FiveTuple`` and ``paths`` state the laws."""

from collections import defaultdict

from pathforge.bijections import FiveTuple, middle_altitude
from pathforge.paths import FALL, LEVEL, RISE, altitudes, enumerate_alt_motzkin, enumerate_dyck


def paths(construction, k):
    """Every path of size k of the kind the construction takes."""
    return (enumerate_dyck if construction in "AB" else enumerate_alt_motzkin)(k)


def marks(construction, steps):
    """Per altitude i, the positions that may carry mark 1 and mark 2 of
    construction A or C (a rise from i, a fall to i), B (a vertex at i,
    both) or D (a level step at i, even for mark 1 and odd for mark 2),
    read from the altitudes, in order."""
    alts = altitudes(steps)
    first, second = defaultdict(list), defaultdict(list)
    if construction == "B":
        for q, a in enumerate(alts):
            first[a].append(q)
        return first, first
    for q, step in enumerate(steps, 1):
        if construction == "D":
            if step == LEVEL:
                (second if q % 2 else first)[alts[q]].append(q)
        elif step == RISE:
            first[alts[q - 1]].append(q)
        elif step == FALL:
            second[alts[q]].append(q)
    return first, second


def five_tuples(construction, k):
    """Every five-tuple of the construction at size k: p1, then p2 in
    listing order, then i, mark1 and mark2 upwards."""
    pool = [(p, marks(construction, p.steps)) for p in paths(construction, k)]
    return (FiveTuple(construction, p1, p2, i, m1, m2)
            for p1, (marks1, _) in pool for p2, (_, marks2) in pool
            for i in range(k + 1)  # only B has marks at altitude k
            for m1 in marks1[i] for m2 in marks2[i])


def in_image(construction, path):
    """Whether the path's middle altitude follows the construction's law:
    positive and even (A, C) or odd (B, D)."""
    mid = middle_altitude(path)
    return mid > 0 and mid % 2 == (construction in "BD")


def image_paths(construction, k):
    """The characterized image of the construction at size k, in listing
    order: the doubled paths, of size 2k+1 for B and 2k otherwise, whose
    middle altitude follows its law."""
    return (p for p in paths(construction, 2 * k + (construction == "B"))
            if in_image(construction, p))


def levels(path):
    """Per altitude, the level steps from it on even steps and on odd
    steps, as two tuples of length k."""
    even, odd = [0] * path.k, [0] * path.k
    for q, (step, alt) in enumerate(zip(path.steps, altitudes(path.steps)), 1):
        if step == LEVEL:
            (odd if q % 2 else even)[alt] += 1
    return tuple(even), tuple(odd)
