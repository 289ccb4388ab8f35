"""The four constructions: worked examples, exhaustive round trips, image
characterizations, and the weight bookkeeping behind the identities."""

import contextlib
import copy
import hashlib
import json
import pickle
import random
import time
from collections import Counter, defaultdict
from itertools import accumulate, combinations

import pytest

from pathforge import bijections as bj
from pathforge.numeric import GAMMA, GammaPoly, catalan, narayana_poly
from pathforge.paths import (
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

# runtime permits k=5 for the Dyck constructions (a few seconds each)
ROUND_TRIP_KS = {"A": (1, 2, 3, 4, 5), "B": (1, 2, 3, 4, 5), "C": (1, 2, 3, 4), "D": (1, 2, 3, 4)}


def t5(construction, p1, p2, i, m1, m2):
    kind = PathKind.DYCK if construction in "AB" else PathKind.ALT_MOTZKIN
    return bj.FiveTuple(construction, parse(p1, kind), parse(p2, kind), i, m1, m2)


def test_construct_a_worked_example():
    out = bj.construct(t5("A", "UDUD", "UUDD", 0, 1, 4))
    assert out.path.render() == "UUUDDUDD"
    assert out.middle_altitude == 2


def test_invert_a_worked_example():
    t = bj.invert("A", parse("UUUDDUDD", PathKind.DYCK))
    assert t == t5("A", "UDUD", "UUDD", 0, 1, 4)


def test_construct_a_k1_only_input():
    out = bj.construct(t5("A", "UD", "UD", 0, 1, 2))
    assert out.path.render() == "UUDD"
    assert out.middle_altitude == 2


def test_a_input_count_k2():
    assert sum(1 for _ in bj.five_tuples("A", 2)) == 10 == catalan(4) - catalan(2) ** 2


def test_invert_a_rejects_zero_middle():
    with pytest.raises(ValueError, match="middle altitude 0"):
        bj.invert("A", parse("UUDDUUDD", PathKind.DYCK))


def test_construct_b_worked_example():
    out = bj.construct(t5("B", "UD", "UD", 0, 0, 0))
    assert out.path.render() == "UUDDUD"
    assert out.middle_altitude == 1


def test_b_input_count_k1():
    assert sum(1 for _ in bj.five_tuples("B", 1)) == 5 == catalan(3)


def test_b_admits_top_altitude_vertex():
    # i may reach k: the staircase pair maps to the unique path through 2k+1
    out = bj.construct(t5("B", "UUDD", "UUDD", 2, 2, 2))
    assert out.middle_altitude == 5
    assert out.path.k == 2 * 2 + 1


def test_construct_c_worked_example():
    out = bj.construct(t5("C", "LUDL", "LUDL", 0, 2, 3))
    assert out.path.render() == "LULUDLDL"
    assert out.middle_altitude == 2
    assert out.path.rise_count() == 2


def test_c_has_no_inputs_at_k1():
    assert list(bj.five_tuples("C", 1)) == []
    assert list(bj.image_paths("C", 1)) == []


def test_construct_d_worked_example():
    out = bj.construct(t5("D", "LL", "LL", 0, 2, 1))
    assert out.path.render() == "LUDL"
    assert out.middle_altitude == 1
    assert out.path.rise_count() == 1


def test_d_weight_identity_k1():
    # gamma^{r1+r2+1} summed over D-inputs equals N_2 - N_1^2
    tuples = list(bj.five_tuples("D", 1))
    assert len(tuples) == 1
    weight = GammaPoly()
    for t in tuples:
        r = t.p1.rise_count() + t.p2.rise_count() + 1
        weight = weight + GammaPoly([0] * r + [1])
    assert weight == GAMMA == narayana_poly(2) - narayana_poly(1) * narayana_poly(1)


@pytest.mark.parametrize(
    "construction,p,fragment",
    [
        ("A", "UDUD", "not a rise"),
        ("C", "LLLL", "not a rise"),
    ],
)
def test_construct_rejects_bad_marks(construction, p, fragment):
    kind = PathKind.DYCK if construction == "A" else PathKind.ALT_MOTZKIN
    t = bj.FiveTuple(construction, parse(p, kind), parse(p, kind), 0, 2 if construction == "A" else 1, 2)
    with pytest.raises(ValueError, match=fragment):
        bj.construct(t)


def test_construct_b_rejects_bad_vertex():
    with pytest.raises(ValueError, match="not at altitude"):
        bj.construct(t5("B", "UUDD", "UUDD", 1, 0, 1))


def test_construct_d_rejects_parity_violations():
    with pytest.raises(ValueError, match="even-step level"):
        bj.construct(t5("D", "LL", "LL", 0, 1, 1))
    with pytest.raises(ValueError, match="odd-step level"):
        bj.construct(t5("D", "LL", "LL", 0, 2, 2))


def test_invert_c_rejects_odd_or_zero_middle():
    with pytest.raises(ValueError, match="positive and even"):
        bj.invert("C", parse("LUDLLUDL", PathKind.ALT_MOTZKIN))  # middle altitude 0
    with pytest.raises(ValueError, match="positive and even"):
        bj.invert("C", parse("LUDL", PathKind.ALT_MOTZKIN))  # middle altitude 1


def test_invert_d_rejects_even_middle():
    with pytest.raises(ValueError, match="must be odd"):
        bj.invert("D", parse("LLLL", PathKind.ALT_MOTZKIN))


def _may_mark(c, path, i, side, q):
    """Whether position q of path may carry mark side at altitude i, as the
    FiveTuple docstring states the law, read from the altitudes: a vertex
    at i (B), a rise from i or a fall to i (A, C), or a level at i on an
    even step in p1 and an odd step in p2 (D)."""
    alts, steps = altitudes(path.steps), path.steps
    if c.marks == "vertex":
        return alts[q] == i
    if q == 0:
        return False
    if c.marks == "level":
        return steps[q - 1] == LEVEL and alts[q - 1] == i and q % 2 == side - 1
    if side == 1:
        return steps[q - 1] == RISE and alts[q - 1] == i
    return steps[q - 1] == FALL and alts[q] == i


@pytest.mark.parametrize("construction", "ABCD")
def test_admits_is_the_candidates_scan(construction):
    """The one-mark check that construct runs decides every mark, in range
    or not, int or bool, as membership in a scan of all positions written
    from the law as documented, and candidates lists that scan in order."""
    c = bj._CONSTRUCTIONS[construction]
    paths = enumerate_dyck if c.kind is PathKind.DYCK else enumerate_alt_motzkin
    for k in range(5):
        for path in paths(k):
            n = len(path)
            for side in (1, 2):
                for i in range(k + 1):
                    found = tuple(q for q in range(n + 1) if _may_mark(c, path, i, side, q))
                    assert c.candidates(path, i, side) == found, (path, side, i)
                    for mark in (*range(-1, n + 2), True, False, None, "1"):
                        assert c.admits(path, i, side, mark) is (mark in found), (path, side, i, mark)


# every refusal of construct and invert, word for word
_REFUSALS = [
    (lambda: bj.construct(bj.FiveTuple("Z", parse("UD", PathKind.DYCK), parse("UD", PathKind.DYCK), 0, 1, 2)),
     "unknown construction 'Z'"),
    (lambda: bj.invert("Z", parse("UUDD", PathKind.DYCK)), "unknown construction 'Z'"),
    (lambda: bj.invert(["A"], parse("UUDD", PathKind.DYCK)), "unknown construction ['A']"),
    (lambda: bj.construct(bj.FiveTuple("A", parse("UD", PathKind.DYCK), parse("LL", PathKind.ALT_MOTZKIN), 0, 1, 2)),
     "construction A needs dyck paths"),
    (lambda: bj.construct(bj.FiveTuple("D", parse("UD", PathKind.DYCK), parse("LL", PathKind.ALT_MOTZKIN), 0, 2, 1)),
     "construction D needs altmotzkin paths"),
    (lambda: bj.invert("C", parse("UUUDDUDD", PathKind.DYCK)), "construction C inverts altmotzkin paths"),
    (lambda: bj.invert("B", parse("LUDL", PathKind.ALT_MOTZKIN)), "construction B inverts dyck paths"),
    (lambda: bj.construct(t5("A", "UD", "UUDD", 0, 1, 4)), "p1 and p2 must have the same length"),
    (lambda: bj.construct(t5("B", "", "", 0, 0, 0)), "paths must be nonempty"),
    (lambda: bj.construct(t5("A", "UDUD", "UUDD", 0, 2, 4)), "mark1=2 is not a rise from altitude 0 in p1"),
    (lambda: bj.construct(t5("A", "UDUD", "UUDD", 0, 1, 3)), "mark2=3 is not a fall to altitude 0 in p2"),
    (lambda: bj.construct(t5("A", "UDUD", "UUDD", 0, None, 4)), "mark1=None is not a rise from altitude 0 in p1"),
    (lambda: bj.construct(t5("B", "UUDD", "UUDD", 1, 0, 1)), "mark1=0 is not at altitude 1 in p1"),
    (lambda: bj.construct(t5("B", "UUDD", "UUDD", 1, 1, 5)), "mark2=5 is not at altitude 1 in p2"),
    (lambda: bj.construct(t5("C", "LUDL", "LUDL", 0, 1, 3)), "mark1=1 is not a rise from altitude 0 in p1"),
    (lambda: bj.construct(t5("C", "LUDL", "LUDL", 1, 2, 3)), "mark1=2 is not a rise from altitude 1 in p1"),
    (lambda: bj.construct(t5("C", "LUDL", "LUDL", 0, 2, -1)), "mark2=-1 is not a fall to altitude 0 in p2"),
    (lambda: bj.construct(t5("D", "LL", "LL", 0, 1, 1)), "mark1=1 is not an even-step level at altitude 0 in p1"),
    (lambda: bj.construct(t5("D", "LL", "LL", 0, 2, 2)), "mark2=2 is not an odd-step level at altitude 0 in p2"),
    (lambda: bj.invert("A", parse("UD", PathKind.DYCK)), "path length must be 4k with k >= 1, got 2"),
    (lambda: bj.invert("A", parse("UUUDDD", PathKind.DYCK)), "path length must be 4k with k >= 1, got 6"),
    (lambda: bj.invert("C", parse("", PathKind.ALT_MOTZKIN)), "path length must be 4k with k >= 1, got 0"),
    (lambda: bj.invert("B", parse("UUDD", PathKind.DYCK)), "path length must be 4k+2 with k >= 1, got 4"),
    (lambda: bj.invert("B", parse("UD", PathKind.DYCK)), "path length must be 4k+2 with k >= 1, got 2"),
    (lambda: bj.invert("D", parse("LLLLLL", PathKind.ALT_MOTZKIN)), "path length must be 4k with k >= 1, got 6"),
    (lambda: bj.invert("A", parse("UUDDUUDD", PathKind.DYCK)),
     "middle altitude 0 is not in the image of construction A: it must be positive and even"),
    (lambda: bj.invert("C", parse("LUDL", PathKind.ALT_MOTZKIN)),
     "middle altitude 1 is not in the image of construction C: it must be positive and even"),
    (lambda: bj.invert("D", parse("LLLLLLLL", PathKind.ALT_MOTZKIN)),
     "middle altitude 0 is not in the image of construction D: it must be odd"),
]


@pytest.mark.parametrize("call,message", _REFUSALS, ids=[m for _, m in _REFUSALS])
def test_construct_and_invert_refusals_are_pinned(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_records_are_frozen_values():
    t = t5("D", "LL", "LL", 0, 2, 1)
    mid = bj.construct(t)
    for record, field in ((t, "i"), (mid, "middle_altitude")):
        with pytest.raises(AttributeError):
            setattr(record, field, 3)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert copy.copy(record) == pickle.loads(pickle.dumps(record)) == record
    assert hash(t) == hash(t5("D", "LL", "LL", 0, 2, 1))
    assert hash(mid) == hash(bj.construct(t5("D", "LL", "LL", 0, 2, 1)))
    kind = "kind=<PathKind.ALT_MOTZKIN: 'altmotzkin'>"
    assert repr(t) == (f"FiveTuple(construction='D', p1=Path(steps=(0, 0), {kind}), "
                       f"p2=Path(steps=(0, 0), {kind}), i=0, mark1=2, mark2=1)")
    assert repr(mid) == f"MidPath(path=Path(steps=(0, 1, -1, 0), {kind}), middle_altitude=1)"


def mirror(steps):
    """The steps read from the end: reversed, rises and falls swapped."""
    return tuple(-s for s in reversed(steps))


def swapped(t):
    """t*: t with its halves swapped and mirrored, each mark where its
    mirror puts it (a vertex m at n-m, a step m at n+1-m)."""
    n = len(t.p1)
    at = n if t.construction == "B" else n + 1
    return bj.FiveTuple(t.construction, Path(mirror(t.p2.steps), t.p2.kind),
                        Path(mirror(t.p1.steps), t.p1.kind), t.i, at - t.mark2, at - t.mark1)


def assert_mirror_dual(t, path):
    """construct(t*) is the mirror of construct(t) == path, and invert of
    the mirror is invert(path)*: the right half's surgery is the left
    half's read from the other end."""
    dual, back = swapped(t), Path(mirror(path.steps), path.kind)
    assert bj.construct(dual).path == back
    assert bj.invert(t.construction, back) == dual


@pytest.mark.parametrize("construction", "ABCD")
def test_round_trips_exhaustive(construction):
    """invert(construct(t)) == t, construct(invert(P)) == P, injectivity,
    surjectivity, the middle-altitude and rise-count laws, and the mirror
    duality of the two halves."""
    for k in ROUND_TRIP_KS[construction]:
        outputs = set()
        n_tuples = 0
        for t in bj.five_tuples(construction, k):
            n_tuples += 1
            out = bj.construct(t)
            expected_mid = 2 * t.i + 2 if construction in "AC" else 2 * t.i + 1
            assert out.middle_altitude == expected_mid
            if construction == "C":
                assert out.path.rise_count() == t.p1.rise_count() + t.p2.rise_count()
            elif construction == "D":
                assert out.path.rise_count() == t.p1.rise_count() + t.p2.rise_count() + 1
            assert bj.invert(construction, out.path) == t
            assert_mirror_dual(t, out.path)
            outputs.add(out.path)
        assert len(outputs) == n_tuples, f"{construction} k={k}: not injective"
        image = set(bj.image_paths(construction, k))
        assert outputs == image, f"{construction} k={k}: image mismatch"
        for path in image:
            assert bj.construct(bj.invert(construction, path)).path == path


def test_a_path_names_the_one_construction_that_inverts_it():
    # every path of both kinds with k <= 7: at most one construction inverts
    # it, and that one is the construction its kind and middle altitude name
    inverted = Counter()
    for k in range(8):
        for path in (*enumerate_dyck(k), *enumerate_alt_motzkin(k)):
            names = []
            for construction in "ABCD":
                with contextlib.suppress(ValueError):
                    bj.invert(construction, path)
                    names.append(construction)
            assert names in ([], [bj._construction_of(path)]), path
            inverted[len(names)] += 1
    assert inverted == {1: 712, 0: 540}


# one tall path per construction at m = 8192 (32,768 to 65,536 steps),
# whose surgery opens or closes thousands of steps
_M = 8192
_TALL_PATHS = {
    "A": "U" * (2 * _M) + "D" * (2 * _M),
    "B": "U" * (2 * _M + 1) + "D" * (2 * _M + 1),
    "C": "LU" * (2 * _M) + "DL" * (2 * _M),
    "D": "LU" * (2 * _M - 1) + "DL" * (2 * _M - 1),
}


@pytest.mark.parametrize("construction", "ABCD")
def test_construct_and_invert_take_linear_time(construction):
    """A tall path goes through invert and back, and its mirror dual too,
    in well under 2 s; a surgery that rescans the half for each step it
    opens takes tens of seconds here."""
    kind = PathKind.DYCK if construction in "AB" else PathKind.ALT_MOTZKIN
    path = parse(_TALL_PATHS[construction], kind)
    start = time.perf_counter()
    t = bj.invert(construction, path)
    assert bj.construct(t).path == path
    assert_mirror_dual(t, path)
    assert time.perf_counter() - start < 2.0


# sha256 of "tuple path" for every five-tuple and "path tuple" for every
# image path, k = 1..K: a different bijection onto the same image changes it
_PINNED_MAPS = {
    ("A", 5): "bb4d479c66d5c0d76776959f27a33a20cbbfb221ad8cbc88d032b3c4d5ac8192",
    ("B", 4): "40c2ba7f507df1e3ecfbac521a4c8cc787b6d2e31973ffc04b37e5fbf99463d9",
    ("C", 4): "dbf455645975ad7a2022b25a964b4a6135d09e4143850f5af0d8f2a7addf6dc0",
    ("D", 4): "49afa706ea3b9efc5d32a15d0dd126c1d2bbf19d69fa952615c6e8edb063bb5b",
}


@pytest.mark.parametrize("construction,k_max", _PINNED_MAPS)
def test_construct_and_invert_are_pinned(construction, k_max):
    h = hashlib.sha256()
    for k in range(1, k_max + 1):
        for t in bj.five_tuples(construction, k):
            h.update(f"{json.dumps(t.to_json_dict())} {bj.construct(t).path.render()}\n".encode())
        for p in bj.image_paths(construction, k):
            h.update(f"{p.render()} {json.dumps(bj.invert(construction, p).to_json_dict())}\n".encode())
    assert h.hexdigest() == _PINNED_MAPS[construction, k_max]


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_ab_image_counts(k):
    assert sum(1 for _ in bj.image_paths("A", k)) == catalan(2 * k) - catalan(k) ** 2
    assert sum(1 for _ in bj.image_paths("B", k)) == catalan(2 * k + 1)


def weighted_tuple_count(construction, k):
    total = GammaPoly()
    extra = 1 if construction == "D" else 0
    for t in bj.five_tuples(construction, k):
        r = t.p1.rise_count() + t.p2.rise_count() + extra
        total = total + GammaPoly([0] * r + [1])
    return total


def weighted_image_count(construction, k):
    total = GammaPoly()
    for p in bj.image_paths(construction, k):
        total = total + GammaPoly([0] * p.rise_count() + [1])
    return total


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_cd_weight_split(k):
    """The two alternating Motzkin constructions split the weight of the
    doubled paths away from middle altitude zero."""
    c_weight = weighted_tuple_count("C", k)
    d_weight = weighted_tuple_count("D", k)
    assert c_weight == weighted_image_count("C", k)
    assert d_weight == weighted_image_count("D", k)
    assert c_weight + d_weight == narayana_poly(2 * k) - narayana_poly(k) * narayana_poly(k)


def test_five_tuple_json_round_trip():
    t = t5("C", "LUDL", "LUDL", 0, 2, 3)
    data = t.to_json_dict()
    assert data == {
        "construction": "C",
        "p1": "LUDL",
        "p2": "LUDL",
        "i": 0,
        "mark1": 2,
        "mark2": 3,
    }
    assert bj.FiveTuple.from_json_dict(data) == t


@pytest.mark.parametrize("field", ["p1", "p2"])
@pytest.mark.parametrize("text", [" UD", "UD ", "\tUD", "UD\n"])
def test_five_tuple_refuses_whitespace_around_a_path(field, text):
    # a path is read as written: parse refuses whitespace like any other character
    data = {"construction": "A", "p1": "UD", "p2": "UD", "i": 0, "mark1": 1, "mark2": 2, field: text}
    with pytest.raises(ValueError) as info:
        bj.FiveTuple.from_json_dict(data)
    pos = 1 if text[0] in " \t" else 3
    assert str(info.value) == f"{field}: invalid character {text[pos - 1]!r} at position {pos}"


def test_midpath_outputs_validate_as_their_kind():
    for t in bj.five_tuples("C", 3):
        out = bj.construct(t)
        assert out.path.kind is PathKind.ALT_MOTZKIN
        break


def test_middle_altitude_even_positions():
    # Dyck middles at even positions are even; length 4k+2 middles are odd
    for p in enumerate_dyck(4):
        assert bj.middle_altitude(p) % 2 == 0
    for p in enumerate_dyck(3):
        assert bj.middle_altitude(p) % 2 == 1


# constructions A-D far beyond exhaustive reach: uniform Dyck paths of size
# k drawn by the cycle lemma, and uniform alternating Motzkin paths read
# from them in pairs of steps, with a seed fixed before the first run
LARGE_K = 1000
LARGE_SEED = 7321


def _cycle_lemma(word):
    """The Dyck path of a word of k rises and k+1 falls: rotated to start
    just after the first minimum of its prefix sums, the word is a Dyck
    path and one last fall.  Each Dyck path comes from 2k+1 words."""
    sums = list(accumulate(word))
    start = sums.index(min(sums)) + 1
    return tuple(word[start:] + word[:start - 1])


def _uniform_dyck(rng, k):
    word = [RISE] * k + [FALL] * (k + 1)
    rng.shuffle(word)
    return _cycle_lemma(word)


def test_cycle_lemma_sampler_is_exact_at_k3():
    words = ([RISE if q in rises else FALL for q in range(7)] for rises in combinations(range(7), 3))
    images = Counter(_cycle_lemma(word) for word in words)
    assert sorted(images.values()) == [7] * 5
    assert set(images) == {p.steps for p in enumerate_dyck(3)}


# steps 2..2k-1 of a Dyck path of size k, read in pairs, are a Motzkin path
# of k-1 steps with two kinds of flat step (UD and DU); each pair becomes a
# pair of an alternating Motzkin path, between one level step and another
_PAIR_STEPS = {(RISE, RISE): (RISE, LEVEL), (FALL, FALL): (LEVEL, FALL),
               (RISE, FALL): (RISE, FALL), (FALL, RISE): (LEVEL, LEVEL)}


def _pair_reading(steps):
    """The alternating Motzkin path of the same size as the Dyck path."""
    pairs = (_PAIR_STEPS[steps[q:q + 2]] for q in range(1, len(steps) - 1, 2))
    return (LEVEL, *(step for pair in pairs for step in pair), LEVEL)


@pytest.mark.parametrize("k", range(1, 7))
def test_pair_reading_is_a_bijection_onto_alt_motzkin_paths(k):
    images = [_pair_reading(p.steps) for p in enumerate_dyck(k)]
    assert len(set(images)) == len(images) == catalan(k)
    assert set(images) == {p.steps for p in enumerate_alt_motzkin(k)}


def _uniform_path(rng, construction, k):
    """A uniform path of size k of the kind the construction takes."""
    if construction in "AB":
        return Path(_uniform_dyck(rng, k), PathKind.DYCK)
    return Path(_pair_reading(_uniform_dyck(rng, k)), PathKind.ALT_MOTZKIN)


def _large_marks(construction, steps):
    """Per altitude i, the positions that may carry mark 1 and mark 2 of
    construction A or C (a rise from i, a fall to i), B (a vertex at i,
    both) or D (a level step at i, even for mark 1 and odd for mark 2),
    read from the altitudes."""
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


def _image_rises(t):
    """The rise count of the image of t under C (the rises of p1 and p2)
    or D (one more: the marked levels become one new rise)."""
    return t.p1.rise_count() + t.p2.rise_count() + (t.construction == "D")


@pytest.mark.parametrize("construction", "ABCD")
def test_large_k_tuples_round_trip(construction):
    rng = random.Random(LARGE_SEED)
    for _ in range(50):
        p1, p2 = (_uniform_path(rng, construction, LARGE_K) for _ in range(2))
        marks1, marks2 = _large_marks(construction, p1.steps)[0], _large_marks(construction, p2.steps)[1]
        # (i, mark1, mark2) uniform among the valid triples of this pair
        levels = [i for i in marks1 if i in marks2]
        i = rng.choices(levels, [len(marks1[i]) * len(marks2[i]) for i in levels])[0]
        t = bj.FiveTuple(construction, p1, p2, i, rng.choice(marks1[i]), rng.choice(marks2[i]))
        out = bj.construct(t)
        steps = out.path.steps
        assert len(steps) == 4 * LARGE_K + (2 if construction == "B" else 0)
        assert out.middle_altitude == sum(steps[:len(steps) // 2])
        assert out.middle_altitude == 2 * i + (2 if construction in "AC" else 1)
        if construction in "CD":
            assert out.path.rise_count() == _image_rises(t)
        assert bj.invert(construction, out.path) == t


@pytest.mark.parametrize("construction", "ABCD")
def test_large_k_image_paths_round_trip(construction):
    rng = random.Random(LARGE_SEED)
    size = 2 * LARGE_K + (1 if construction == "B" else 0)
    parity = 0 if construction in "AC" else 1
    for _ in range(50):
        p = _uniform_path(rng, construction, size)
        # an image's middle altitude is positive and even (A, C) or odd (B, D)
        while (mid := bj.middle_altitude(p)) == 0 or mid % 2 != parity:
            p = _uniform_path(rng, construction, size)
        t = bj.invert(construction, p)
        if construction in "CD":
            assert p.rise_count() == _image_rises(t)
        assert bj.construct(t).path == p
