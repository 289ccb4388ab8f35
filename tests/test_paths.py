"""Path parsing, enumeration, statistics, and the level-parity lemma."""

from fractions import Fraction

import pytest

from pathforge.numeric import GammaPoly, catalan, narayana_poly
from pathforge.paths import (
    FALL,
    LEVEL,
    RISE,
    Path,
    PathKind,
    check_level_parity,
    enumerate_alt_motzkin,
    enumerate_dyck,
    expectation_vectors,
    parse,
    stats,
)


def test_parse_sawtooth():
    p = parse("UDUDUD", "dyck")
    assert p.k == 3
    assert p.kind is PathKind.DYCK
    assert p.steps == (RISE, FALL) * 3


def test_parse_altitude_profile():
    p = parse("UUDDUD", "dyck")
    assert p.altitudes() == (0, 1, 2, 1, 0, 1, 0)


def test_parse_alternating_motzkin():
    p = parse("LUDL", "altmotzkin")
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
        parse(text, kind)


def test_fall_on_even_step_rejected():
    # falls only on odd steps: UD at positions 2,3 puts the fall on step 3 (fine)
    # but a fall on step 4 violates alternation
    with pytest.raises(ValueError, match="fall on even step 4"):
        Path((LEVEL, RISE, LEVEL, FALL), PathKind.ALT_MOTZKIN)


def test_parse_render_round_trip_enumerated():
    for k in range(7):
        for p in enumerate_dyck(k):
            assert parse(p.render(), "dyck") == p
        for p in enumerate_alt_motzkin(k):
            assert parse(p.render(), "altmotzkin") == p


@pytest.mark.parametrize("k", range(11))
def test_dyck_enumeration_count_is_catalan(k):
    assert sum(1 for _ in enumerate_dyck(k)) == catalan(k)


def test_dyck_enumeration_k0():
    paths = list(enumerate_dyck(0))
    assert len(paths) == 1
    assert paths[0].render() == ""


def test_dyck_enumeration_lexicographic():
    order = {"U": 0, "D": 1}
    rendered = [p.render() for p in enumerate_dyck(4)]
    keyed = [[order[c] for c in s] for s in rendered]
    assert keyed == sorted(keyed)
    assert len(set(rendered)) == len(rendered)


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
    assert sorted(p.render() for p in enumerate_alt_motzkin(2)) == ["LLLL", "LUDL"]
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
    expected = narayana_poly(k) if k >= 1 else GammaPoly([1])
    assert GammaPoly(weight) == expected


def test_stats_worked_examples():
    st = stats(parse("UDUDUD", "dyck"))
    assert st.rises_by_altitude == (3, 0, 0)
    assert st.vertices_by_altitude == (4, 3, 0, 0)
    assert st.even_levels_by_altitude is None
    assert st.rise_count == 3

    st = stats(parse("UUUDDD", "dyck"))
    assert st.rises_by_altitude == (1, 1, 1)
    assert st.vertices_by_altitude == (2, 2, 2, 1)

    st = stats(parse("LLLLLL", "altmotzkin"))
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
    rep = check_level_parity(parse("LL", "altmotzkin"))
    assert rep.counts == ((2, 1),)
    assert rep.ok

    rep = check_level_parity(parse("LUDL", "altmotzkin"))
    assert rep.counts == ((2, 1), (0, 0))
    assert rep.ok


@pytest.mark.parametrize("k", range(1, 7))
def test_level_parity_lemma_exhaustive(k):
    for p in enumerate_alt_motzkin(k):
        rep = check_level_parity(p)
        assert rep.ok, (p.render(), rep)
        for total, even in rep.counts:
            assert total % 2 == 0
            assert 2 * even == total


def test_level_parity_requires_alt_motzkin():
    with pytest.raises(ValueError):
        check_level_parity(parse("UD", "dyck"))


def test_expectation_vectors_dyck_k3():
    ev = expectation_vectors(3, "dyck")
    assert ev.denominator == 5
    assert ev.rise_numerators == (9, 5, 1)
    assert ev.vertex_numerators == (14, 14, 6, 1)
    assert ev.rise_expectations() == (Fraction(9, 5), Fraction(1), Fraction(1, 5))
    assert ev.vertex_expectations() == (
        Fraction(14, 5),
        Fraction(14, 5),
        Fraction(6, 5),
        Fraction(1, 5),
    )


def test_expectation_vectors_alt_motzkin_k3():
    ev = expectation_vectors(3, "altmotzkin")
    assert ev.denominator == GammaPoly([1, 3, 1])
    assert ev.rise_numerators == (GammaPoly([0, 3, 2]), GammaPoly(), GammaPoly())
    assert ev.level_numerators == (GammaPoly([3, 5, 1]), GammaPoly([0, 1]), GammaPoly())


def test_expectation_vectors_rejects_k0():
    with pytest.raises(ValueError):
        expectation_vectors(0, "dyck")


def test_expectation_vectors_weighting_consistency():
    assert expectation_vectors(2, "dyck", "uniform") == expectation_vectors(2, "dyck")
    assert expectation_vectors(2, "altmotzkin", "gamma") == expectation_vectors(2, "altmotzkin")
    with pytest.raises(ValueError, match="uniform"):
        expectation_vectors(2, "dyck", "gamma")
    with pytest.raises(ValueError, match="gamma"):
        expectation_vectors(2, "altmotzkin", "uniform")


def test_path_equality_and_hash():
    a = parse("UUDD", "dyck")
    b = Path((RISE, RISE, FALL, FALL), PathKind.DYCK)
    assert a == b
    assert hash(a) == hash(b)
    assert a != parse("UDUD", "dyck")


def test_mirrored():
    assert parse("UUDDUD", "dyck").mirrored().render() == "UDUUDD"
    assert parse("LUDL", "altmotzkin").mirrored().render() == "LUDL"
    p = parse("LULLDL", "altmotzkin")
    assert p.mirrored().mirrored() == p


def test_position_queries():
    p = parse("UUDDUD", "dyck")
    assert p.rises_from(0) == (1, 5)
    assert p.rises_from(1) == (2,)
    assert p.falls_to(0) == (4, 6)
    assert p.falls_to(1) == (3,)
    assert p.vertices_at(0) == (0, 4, 6)
    q = parse("LUDL", "altmotzkin")
    assert q.levels_at(0) == (1, 4)
    assert q.levels_at(0, even_steps=True) == (4,)
    assert q.levels_at(0, even_steps=False) == (1,)


@pytest.mark.parametrize("steps", [(2, -1, -1), (2, -1, -1, 0), (1, 1.0, -1, -1), (True, False)])
def test_path_rejects_values_that_are_not_steps(steps):
    with pytest.raises(ValueError):
        Path(steps, "dyck")
    if len(steps) % 2 == 0:
        with pytest.raises(ValueError, match="not one of 1, 0, -1"):
            Path(steps, PathKind.DYCK)


def test_steps_are_plain_ints():
    paths = [parse("UUDD", "dyck"), parse("LUDL", "altmotzkin"), *enumerate_dyck(4), *enumerate_alt_motzkin(4)]
    for p in paths:
        assert all(type(s) is int for s in p.steps), p.render()
