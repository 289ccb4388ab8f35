"""The four constructions: worked examples, exhaustive round trips, image
characterizations, and the weight bookkeeping behind the identities."""

import pytest

from pathforge import bijections as bj
from pathforge.numeric import GAMMA, GammaPoly, catalan, narayana_poly
from pathforge.paths import PathKind, enumerate_alt_motzkin, enumerate_dyck, parse

# runtime permits k=5 for the Dyck constructions (a few seconds each)
ROUND_TRIP_KS = {"A": (1, 2, 3, 4, 5), "B": (1, 2, 3, 4, 5), "C": (1, 2, 3, 4), "D": (1, 2, 3, 4)}


def t5(construction, p1, p2, i, m1, m2):
    kind = "dyck" if construction in "AB" else "altmotzkin"
    return bj.FiveTuple(construction, parse(p1, kind), parse(p2, kind), i, m1, m2)


def test_construct_a_worked_example():
    out = bj.construct(t5("A", "UDUD", "UUDD", 0, 1, 4))
    assert out.path.render() == "UUUDDUDD"
    assert out.middle_altitude == 2


def test_invert_a_worked_example():
    t = bj.invert("A", parse("UUUDDUDD", "dyck"))
    assert t == t5("A", "UDUD", "UUDD", 0, 1, 4)


def test_construct_a_k1_only_input():
    out = bj.construct(t5("A", "UD", "UD", 0, 1, 2))
    assert out.path.render() == "UUDD"
    assert out.middle_altitude == 2


def test_a_input_count_k2():
    assert sum(1 for _ in bj.five_tuples("A", 2)) == 10 == catalan(4) - catalan(2) ** 2


def test_invert_a_rejects_zero_middle():
    with pytest.raises(ValueError, match="middle altitude 0"):
        bj.invert("A", parse("UUDDUUDD", "dyck"))


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
    kind = "dyck" if construction == "A" else "altmotzkin"
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
        bj.invert("C", parse("LUDLLUDL", "altmotzkin"))  # middle altitude 0
    with pytest.raises(ValueError, match="positive and even"):
        bj.invert("C", parse("LUDL", "altmotzkin"))  # middle altitude 1


def test_invert_d_rejects_even_middle():
    with pytest.raises(ValueError, match="must be odd"):
        bj.invert("D", parse("LLLL", "altmotzkin"))


@pytest.mark.parametrize("construction", "ABCD")
def test_round_trips_exhaustive(construction):
    """invert(construct(t)) == t, construct(invert(P)) == P, injectivity,
    surjectivity, and the middle-altitude and rise-count laws."""
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
            outputs.add(out.path)
        assert len(outputs) == n_tuples, f"{construction} k={k}: not injective"
        image = set(bj.image_paths(construction, k))
        assert outputs == image, f"{construction} k={k}: image mismatch"
        for path in image:
            assert bj.construct(bj.invert(construction, path)).path == path


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
