"""Catalan/Narayana values and exact polynomial arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pathforge.numeric import GAMMA, GammaPoly, catalan, narayana, narayana_poly


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


def test_poly_immutable_and_hashable():
    p = GammaPoly([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = (3,)
    assert hash(p) == hash(GammaPoly([1, 2, 0]))


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
