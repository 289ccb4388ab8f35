"""Path parsing, enumeration, statistics, and the level-parity lemma."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path as FilePath

import pytest

from pathforge.fold import fold_upto
from pathforge.numeric import GAMMA, GammaPoly, catalan, narayana_poly
from pathforge.paths import (
    FALL,
    LEVEL,
    RISE,
    Path,
    PathKind,
    _listing,
    altitudes,
    enumerate_alt_motzkin,
    enumerate_dyck,
    parse,
    stats,
    steps_at,
)

from oracles import levels


def test_parse_sawtooth():
    p = parse("UDUDUD", PathKind.DYCK)
    assert p.k == 3
    assert p.kind is PathKind.DYCK
    assert p.steps == (RISE, FALL) * 3


def test_parse_altitude_profile():
    p = parse("UUDDUD", PathKind.DYCK)
    assert altitudes(p.steps) == (0, 1, 2, 1, 0, 1, 0)


def test_parse_alternating_motzkin():
    p = parse("LUDL", PathKind.ALT_MOTZKIN)
    assert p.k == 2
    assert p.rise_count() == 1


@pytest.mark.parametrize(
    "text,kind,fragment",
    [
        ("UXDD", "dyck", "invalid character"),
        ("DU", "dyck", "below zero"),
        ("UU", "dyck", "altitude 2"),
        ("ULDD", "dyck", "level step"),
        ("UUDD", "altmotzkin", "rise on odd step 1"),
        ("LLDL", "altmotzkin", "below zero"),
        ("LDUL", "altmotzkin", "fall on even step 2"),
        ("LUDLL", "altmotzkin", "length must be even"),
        ("LLUD", "altmotzkin", "rise on odd step 3"),
    ],
)
def test_parse_rejects_invalid(text, kind, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse(text, PathKind(kind))


def test_fall_on_even_step_rejected():
    # falls only on odd steps: UD at positions 2,3 puts the fall on step 3 (fine)
    # but a fall on step 4 violates alternation
    with pytest.raises(ValueError, match="fall on even step 4"):
        Path((LEVEL, RISE, LEVEL, FALL), PathKind.ALT_MOTZKIN)


def test_path_accepts_exactly_the_enumerated_sequences():
    # the law read by validation and the law read by enumeration agree on
    # every sequence of up to 8 steps
    for kind, enumerate_kind in ((PathKind.DYCK, enumerate_dyck),
                                 (PathKind.ALT_MOTZKIN, enumerate_alt_motzkin)):
        listed = {p.steps for k in range(5) for p in enumerate_kind(k)}
        for n in range(9):
            for steps in product((RISE, LEVEL, FALL), repeat=n):
                try:
                    Path(steps, kind)
                    valid = True
                except ValueError:
                    valid = False
                assert valid == (steps in listed), (kind, steps)


def _one_step_a_turn(steps, kind):
    """The refusal that Path gives steps of a kind, or None if it accepts
    them, read one step a turn: the length, then each step's law and type
    and the altitude after it, then the closing altitude."""
    if len(steps) % 2:
        return f"path length must be even, got {len(steps)}"
    alt = 0
    for pos, s in enumerate(steps, start=1):
        if s not in steps_at(kind, pos) or type(s) is not int:
            if type(s) is not int or not -1 <= s <= 1:
                return f"step {pos} is {s!r}, not one of 1, 0, -1"
            name = {RISE: "rise", LEVEL: "level step", FALL: "fall"}[s]
            return f"{name} on {'odd' if pos % 2 else 'even'} step {pos}, which {kind.value} paths forbid"
        alt += s
        if alt < 0:
            return f"altitude drops below zero after step {pos}"
    return f"path ends at altitude {alt}, expected 0" if alt else None


@pytest.mark.parametrize("kind", PathKind)
def test_path_refusals_are_the_first_failing_step_word_for_word(kind):
    # every sequence of up to 8 steps, and of up to 4 over values that are
    # not steps, gets the acceptance or the ValueError text of the first
    # failure read one step a turn, whichever step of a pair it is on
    sequences = [steps for n in range(9) for steps in product((RISE, LEVEL, FALL), repeat=n)]
    sequences += [steps for n in range(5) for steps in product((1, 0, -1, 2, True, 1.0, "U"), repeat=n)]
    for steps in sequences:
        try:
            Path(steps, kind)
            refusal = None
        except ValueError as exc:
            refusal = str(exc)
        assert refusal == _one_step_a_turn(steps, kind), (kind, steps)


def test_parse_render_round_trip_enumerated():
    for k in range(7):
        for p in enumerate_dyck(k):
            assert parse(p.render(), PathKind.DYCK) == p
        for p in enumerate_alt_motzkin(k):
            assert parse(p.render(), PathKind.ALT_MOTZKIN) == p


@pytest.mark.parametrize("k", range(11))
def test_dyck_enumeration_count_is_catalan(k):
    assert sum(1 for _ in enumerate_dyck(k)) == catalan(k)


def test_dyck_enumeration_k0():
    paths = list(enumerate_dyck(0))
    assert len(paths) == 1
    assert paths[0].render() == ""


@pytest.mark.parametrize("kind", PathKind, ids=lambda kind: kind.value)
def test_enumeration_is_the_law_order_product(kind):
    # the listing is every sequence of the law's characters, tried at each
    # position in the law's order, that validation accepts, in that order;
    # odd and even k give both roundings of the tail length ceil(k/2)
    enumerate_kind = enumerate_dyck if kind is PathKind.DYCK else enumerate_alt_motzkin
    char = {RISE: "U", LEVEL: "L", FALL: "D"}
    for k in range(7):
        expected = []
        for chars in product(*(
            [char[s] for s in steps_at(kind, pos)] for pos in range(1, 2 * k + 1)
        )):
            try:
                expected.append(parse("".join(chars), kind).render())
            except ValueError:
                pass
        assert len(expected) == catalan(k)
        assert list(_listing(kind, k)) == expected, k
        assert [p.render() for p in enumerate_kind(k)] == expected, k


# prints the first path of size 1000 in an interpreter whose address space
# is capped at 256 MiB, so that a tail table sized by k fails fast
_FIRST_OF_HUGE_K = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))
from pathforge.paths import PathKind, _listing
print(next(_listing(PathKind(sys.argv[1]), 1000)))
"""


def test_huge_k_lists_its_first_path_at_once():
    src = str(FilePath(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for kind, first in ((PathKind.DYCK, "U" * 1000 + "D" * 1000), (PathKind.ALT_MOTZKIN, "L" * 2000)):
        proc = subprocess.run([sys.executable, "-c", _FIRST_OF_HUGE_K, kind.value],
                              env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, first + "\n"), proc.stderr


def test_dyck_k3_rise_vector_multiset():
    rises = sorted(stats(p).rises_by_altitude for p in enumerate_dyck(3))
    assert rises == sorted([(3, 0, 0), (2, 1, 0), (2, 1, 0), (1, 2, 0), (1, 1, 1)])


def test_dyck_k3_example_table():
    # the five length-6 paths with their rise and vertex vectors; the pair
    # ((2,1,0), (3,3,1,0)) occurs twice, and the column sums give the
    # expectations (9,5,1)/5 and (14,14,6,1)/5
    table = sorted(
        (stats(p).rises_by_altitude, stats(p).vertices_by_altitude) for p in enumerate_dyck(3)
    )
    assert table == sorted(
        [
            ((3, 0, 0), (4, 3, 0, 0)),
            ((2, 1, 0), (3, 3, 1, 0)),
            ((2, 1, 0), (3, 3, 1, 0)),
            ((1, 2, 0), (2, 3, 2, 0)),
            ((1, 1, 1), (2, 2, 2, 1)),
        ]
    )


def test_alt_motzkin_small_enumerations():
    assert [p.render() for p in enumerate_alt_motzkin(1)] == ["LL"]
    assert sorted(p.rise_count() for p in enumerate_alt_motzkin(3)) == [0, 1, 1, 1, 2]


def test_alt_motzkin_first_and_last_steps_level():
    for k in range(1, 7):
        for p in enumerate_alt_motzkin(k):
            assert p.steps[0] == LEVEL
            assert p.steps[-1] == LEVEL


@pytest.mark.parametrize("k", range(9))
def test_alt_motzkin_weight_is_narayana_poly(k):
    weight = [0] * max(k, 1)
    for p in enumerate_alt_motzkin(k):
        weight[p.rise_count()] += 1
    assert GammaPoly(weight) == narayana_poly(k)


def test_stats_worked_examples():
    st = stats(parse("UDUDUD", PathKind.DYCK))
    assert st.rises_by_altitude == (3, 0, 0)
    assert st.vertices_by_altitude == (4, 3, 0, 0)
    assert st.even_levels_by_altitude is None
    assert st.rise_count == 3

    st = stats(parse("UUUDDD", PathKind.DYCK))
    assert st.rises_by_altitude == (1, 1, 1)
    assert st.vertices_by_altitude == (2, 2, 2, 1)

    st = stats(parse("LLLLLL", PathKind.ALT_MOTZKIN))
    assert st.rises_by_altitude == (0, 0, 0)
    assert st.even_levels_by_altitude == (3, 0, 0)
    assert st.rise_count == 0


def test_stats_alt_motzkin_k3_table():
    # rise and even-level vectors of the five length-6 paths
    table = sorted(
        (stats(p).rises_by_altitude, stats(p).even_levels_by_altitude)
        for p in enumerate_alt_motzkin(3)
    )
    assert table == sorted(
        [
            ((0, 0, 0), (3, 0, 0)),
            ((1, 0, 0), (1, 1, 0)),
            ((1, 0, 0), (2, 0, 0)),
            ((1, 0, 0), (2, 0, 0)),
            ((2, 0, 0), (1, 0, 0)),
        ]
    )


@pytest.mark.parametrize("k", range(1, 7))
def test_stats_sum_invariants(k):
    for p in enumerate_dyck(k):
        st = stats(p)
        assert sum(st.rises_by_altitude) == k
        assert sum(st.vertices_by_altitude) == 2 * k + 1
    for p in enumerate_alt_motzkin(k):
        st = stats(p)
        assert sum(st.rises_by_altitude) == st.rise_count == p.rise_count()
        assert sum(st.vertices_by_altitude) == 2 * k + 1


def test_level_parity_examples():
    assert levels(parse("LL", PathKind.ALT_MOTZKIN)) == ((1,), (1,))
    assert levels(parse("LUDL", PathKind.ALT_MOTZKIN)) == ((1, 0), (1, 0))
    assert levels(parse("LLLUDL", PathKind.ALT_MOTZKIN)) == ((2, 0, 0), (2, 0, 0))


@pytest.mark.parametrize("k", range(1, 7))
def test_level_parity_lemma_exhaustive(k):
    # at every altitude, as many level steps on even steps as on odd ones;
    # stats counts the even ones
    for p in enumerate_alt_motzkin(k):
        even, odd = levels(p)
        assert even == odd, p.render()
        assert stats(p).even_levels_by_altitude == even


def test_expectation_vectors_dyck_k3():
    # the paper's worked k=3 values: the fold's sums over its path count
    *_, f = fold_upto(PathKind.DYCK, 3)
    assert f.count == 5
    assert f.rises == (9, 5, 1)
    assert f.others == (14, 14, 6, 1)
    assert [Fraction(x, f.count) for x in f.rises] == [Fraction(9, 5), 1, Fraction(1, 5)]
    assert [Fraction(x, f.count) for x in f.others] == [
        Fraction(14, 5),
        Fraction(14, 5),
        Fraction(6, 5),
        Fraction(1, 5),
    ]


def test_expectation_vectors_alt_motzkin_k3():
    # numerators in gamma over the Narayana polynomial 1 + 3g + g^2
    *_, f = fold_upto(PathKind.ALT_MOTZKIN, 3)
    assert f.count == GammaPoly([1, 3, 1])
    assert f.rises == (GammaPoly([0, 3, 2]), GammaPoly(), GammaPoly())
    assert f.others == (GammaPoly([3, 5, 1]), GAMMA, GammaPoly())


def test_path_equality_and_hash():
    a = parse("UUDD", PathKind.DYCK)
    b = Path((RISE, RISE, FALL, FALL), PathKind.DYCK)
    assert a == b
    assert hash(a) == hash(b)
    assert a != parse("UDUD", PathKind.DYCK)


def test_path_is_a_frozen_value():
    p = parse("LUDL", PathKind.ALT_MOTZKIN)
    with pytest.raises(AttributeError):
        p.steps = (0, 0)
    with pytest.raises(AttributeError):
        del p.kind
    assert repr(p) == "Path(steps=(0, 1, -1, 0), kind=<PathKind.ALT_MOTZKIN: 'altmotzkin'>)"
    assert str(p) == "LUDL"
    assert copy.copy(p) == pickle.loads(pickle.dumps(p)) == p
    assert p != p.steps


@pytest.mark.parametrize("steps", [(2, -1, -1), (2, -1, -1, 0), (1, 1.0, -1, -1), (True, False)])
def test_path_rejects_values_that_are_not_steps(steps):
    with pytest.raises(ValueError):
        Path(steps, "dyck")
    if len(steps) % 2 == 0:
        with pytest.raises(ValueError, match="not one of 1, 0, -1"):
            Path(steps, PathKind.DYCK)


@pytest.mark.parametrize("kind", ["dyck", "altmotzkin", None])
def test_path_rejects_kind_that_is_not_a_path_kind(kind):
    with pytest.raises(ValueError, match="kind must be a PathKind"):
        Path((0, 0), kind)
    with pytest.raises(ValueError, match="kind must be a PathKind"):
        Path((1, -1), kind)


def test_parse_takes_a_path_kind_alone():
    # the kind goes to Path, which gives the one refusal that fold_upto shares
    for kind in ("dyck", "bogus", None):
        with pytest.raises(ValueError, match=f"^kind must be a PathKind, got {kind!r}$"):
            parse("UD", kind)


def test_steps_are_plain_ints():
    paths = [parse("UUDD", PathKind.DYCK), parse("LUDL", PathKind.ALT_MOTZKIN), *enumerate_dyck(4), *enumerate_alt_motzkin(4)]
    for p in paths:
        assert all(type(s) is int for s in p.steps), p.render()
