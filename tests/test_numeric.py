"""Catalan/Narayana values and exact polynomial arithmetic."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pathforge.bijections import five_tuples, image_paths
from pathforge.fold import fold_upto
from pathforge.identities import sweep, verify
from pathforge.numeric import GAMMA, GammaPoly, _parse_int, catalan, narayana, narayana_poly
from pathforge.paths import PathKind, _listing, enumerate_alt_motzkin, enumerate_dyck


def segner_catalan(k_max):
    # independent oracle: C_0 = 1, C_{k+1} = sum_i C_i * C_{k-i}
    values = [1]
    for k in range(k_max):
        values.append(sum(values[i] * values[k - i] for i in range(k + 1)))
    return values


def test_catalan_known_values():
    assert catalan(0) == 1
    assert catalan(3) == 5
    assert catalan(6) == 132


def test_catalan_against_segner_recurrence():
    oracle = segner_catalan(40)
    for k in range(41):
        assert catalan(k) == oracle[k]


def test_catalan_rejects_negative():
    with pytest.raises(ValueError):
        catalan(-1)


def test_parse_int_takes_ascii_digits_alone():
    for text, value in (("0", 0), ("-0", 0), ("17", 17), ("-17", -17), ("007", 7)):
        assert _parse_int(text) == value
    # int() takes all but the last three of these
    for text in ("+1", " 1", "1 ", "1_0", "\u0661", "\uff11", "", "-", "1.0"):
        with pytest.raises(ValueError) as exc:
            _parse_int(text)
        assert str(exc.value) == f"{text!r} is not an integer written as ASCII -?[0-9]+"


def test_narayana_known_values():
    assert narayana(3, 0) == 1
    assert narayana(3, 1) == 3
    assert narayana(6, 2) == 50


def test_narayana_rejects_bad_arguments():
    with pytest.raises(ValueError):
        narayana(0, 0)
    with pytest.raises(ValueError):
        narayana(3, 3)
    with pytest.raises(ValueError):
        narayana(3, -1)


def _moments():
    # numpy loads for the moments entries alone
    from pathforge import moments

    return moments


# every entry that takes a size, count or seed, called with a value in that
# place, and the least value it takes there
_SIZE_ENTRIES = {
    "catalan": (catalan, 0),
    "narayana k": (lambda v: narayana(v, 0), 1),
    "narayana r": (lambda v: narayana(3, v), 0),
    "narayana_poly": (narayana_poly, 0),
    "_listing": (lambda v: _listing(PathKind.DYCK, v), 0),
    "enumerate_dyck": (enumerate_dyck, 0),
    "enumerate_alt_motzkin": (enumerate_alt_motzkin, 0),
    **{f"five_tuples {c}": (lambda v, c=c: five_tuples(c, v), 0) for c in "ABCD"},
    **{f"image_paths {c}": (lambda v, c=c: image_paths(c, v), 0) for c in "ABCD"},
    "fold_upto": (lambda v: fold_upto(PathKind.ALT_MOTZKIN, v), 0),
    "sweep": (lambda v: sweep(["thm1", "thm5"], v), 0),
    "verify thm1": (lambda v: verify("thm1", v), 1),
    "verify thm4": (lambda v: verify("thm4", v), 2),
    "wigner_moment k": (lambda v: _moments().wigner_moment(v, 10), 1),
    "wigner_moment n": (lambda v: _moments().wigner_moment(2, v), 2),
    "wigner_moment trials": (lambda v: _moments().wigner_moment(2, 10, trials=v), 1),
    "wigner_moment seed": (lambda v: _moments().wigner_moment(2, 10, seed=v), 0),
    "wishart_moment k": (lambda v: _moments().wishart_moment(v, 10, 5), 1),
    "wishart_moment n": (lambda v: _moments().wishart_moment(2, v, 5), 2),
    "wishart_moment m": (lambda v: _moments().wishart_moment(2, 10, v), 2),
    "wishart_moment trials": (lambda v: _moments().wishart_moment(2, 10, 5, trials=v), 1),
    "wishart_moment seed": (lambda v: _moments().wishart_moment(2, 10, 5, seed=v), 0),
}


@pytest.mark.parametrize("value", [True, 2.0, "below"])
@pytest.mark.parametrize("entry", _SIZE_ENTRIES)
def test_every_size_entry_refuses_what_is_no_size(entry, value):
    # at the call: an entry that returns an iterator is never advanced here
    call, low = _SIZE_ENTRIES[entry]
    if value == "below":
        value = low - 1
        bound = {0: "nonnegative", 1: "positive"}.get(low, f"at least {low}")
        message = f" must be {bound}, got {value}$"
    else:
        message = f" must be an int, got {value!r}$"
    with pytest.raises(ValueError, match=message):
        call(value)


def test_narayana_poly_is_the_folds_count():
    # the rise-weighted count of alternating Motzkin paths, 1 for the empty path
    counts = [f.count for f in fold_upto(PathKind.ALT_MOTZKIN, 12)]
    assert [narayana_poly(k) for k in range(13)] == counts


@pytest.mark.parametrize("k", range(1, 21))
def test_narayana_sums_to_catalan(k):
    assert sum(narayana(k, r) for r in range(k)) == catalan(k)


@pytest.mark.parametrize("k", range(1, 13))
def test_narayana_poly_coefficients_symmetric(k):
    coeffs = narayana_poly(k).coeffs
    assert coeffs == tuple(reversed(coeffs))


def test_narayana_poly_known_values():
    assert narayana_poly(1).coeffs == (1,)
    assert narayana_poly(3).coeffs == (1, 3, 1)
    assert narayana_poly(6).coeffs == (1, 15, 50, 50, 15, 1)


def test_narayana_poly_at_one_is_catalan():
    for k in range(1, 15):
        assert narayana_poly(k).evaluate(1) == catalan(k)


def test_poly_canonical_form():
    assert GammaPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert GammaPoly([0, 0]).coeffs == ()
    assert not GammaPoly()
    assert GammaPoly([0, 1])
    assert repr(GammaPoly([1, 2, 0, 0])) == "GammaPoly([1, 2])" and repr(GammaPoly()) == "GammaPoly([])"


def test_poly_multiplication_schoolbook():
    p = GammaPoly([1, 3, 1])
    assert (p * p).coeffs == (1, 6, 11, 6, 1)


def test_poly_additive_identity():
    p = GammaPoly([2, 0, 7])
    assert p + GammaPoly() == p
    assert GammaPoly() + p == p
    assert p - p == GammaPoly()


def test_poly_evaluate():
    p = GammaPoly([1, 3, 1])
    assert p.evaluate(1) == 5
    assert p.evaluate(Fraction(1, 2)) == Fraction(11, 4)
    assert p.evaluate(0) == 1


def test_poly_scalar_and_int_coercion():
    p = GammaPoly([1, 1])
    assert 2 * p == GammaPoly([2, 2])
    assert p * 0 == GammaPoly()
    assert p - 1 == GAMMA
    assert GammaPoly([1]) + GAMMA == p
    assert p == p + 0
    assert GammaPoly((2,)) == 2 and GammaPoly((2, 1)) != 2
    assert 3 - GAMMA == GammaPoly([3, -1])
    # an operand that is neither is refused, not coerced
    for op in (lambda: p + "x", lambda: p - "x", lambda: "x" - p, lambda: p * "x"):
        with pytest.raises(TypeError):
            op()
    assert (p == "x") is False


def test_poly_immutable_and_hashable():
    p = GammaPoly([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = (3,)
    with pytest.raises(AttributeError):
        del p.coeffs
    assert p.coeffs == (1, 2)
    assert hash(p) == hash(GammaPoly([1, 2, 0]))


def test_poly_copies_and_pickles():
    # copy and pickle rebuild through __init__, so a GammaPoly and the
    # records that hold one (an alternating Motzkin fold, a thm3 report)
    # round trip
    fold = list(fold_upto(PathKind.ALT_MOTZKIN, 3))[3]
    for value in (GammaPoly([0, 9, 39]), GammaPoly(), fold, verify("thm3", 3)):
        assert copy.copy(value) == copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value


def test_poly_hashes_as_the_int_it_equals():
    # equal values hash alike, so a constant and its int are one set member
    # and one dict key; the zero polynomial is 0
    assert len({GammaPoly((2,)), 2}) == 1 and len({GammaPoly(), 0}) == 1
    assert {2: "x"}.get(GammaPoly((2,))) == "x" and {GammaPoly(): "z"}[0] == "z"
    assert {GammaPoly([-1]): "m"}[-1] == "m"
    # a non-constant polynomial still hashes by its coefficients
    assert hash(GammaPoly([2, 1])) == hash((2, 1)) and len({GammaPoly([2, 1]), 2}) == 2


def test_poly_json_round_trip():
    p = GammaPoly([0, 9, 39, 44, 14, 1])
    wire = p.to_json()
    assert wire == ["0", "9", "39", "44", "14", "1"]
    assert GammaPoly(map(int, wire)) == p


small_polys = st.builds(GammaPoly, st.lists(st.integers(-9, 9), max_size=6))


@given(small_polys, small_polys)
def test_poly_addition_commutes(p, q):
    assert p + q == q + p


@given(small_polys, small_polys)
def test_poly_multiplication_commutes(p, q):
    assert p * q == q * p


@given(small_polys, small_polys, small_polys)
def test_poly_associativity_and_distributivity(p, q, s):
    assert (p + q) + s == p + (q + s)
    assert (p * q) * s == p * (q * s)
    assert p * (q + s) == p * q + p * s


@given(small_polys, small_polys, st.fractions(min_value=-20, max_value=20, max_denominator=9))
def test_poly_evaluation_is_a_homomorphism(p, q, x):
    assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)
    assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)
