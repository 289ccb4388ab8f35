"""Identity verification: worked values, independent pairwise oracles, and
the cross-check against the construction images."""

import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

from pathforge import bijections as bj
from pathforge import identities
from pathforge.identities import (
    IDENTITIES,
    sweep,
    verify_thm1,
    verify_thm2,
    verify_thm3,
    verify_thm4,
    verify_thm5,
)
from pathforge.numeric import GAMMA, GammaPoly, catalan
from pathforge.paths import enumerate_alt_motzkin, enumerate_dyck, stats


def test_thm1_worked_values():
    assert verify_thm1(1).lhs == Fraction(1) == verify_thm1(1).rhs
    r = verify_thm1(2)
    assert r.lhs == Fraction(10, 4) == Fraction(14, 4) - 1
    r = verify_thm1(3)
    assert r.lhs == Fraction(107, 25)
    assert r.rhs == Fraction(catalan(6), catalan(3) ** 2) - 1
    assert r.equal


def test_thm2_worked_values():
    assert verify_thm2(1).lhs == Fraction(5) == verify_thm2(1).rhs
    r = verify_thm2(3)
    assert r.lhs == Fraction(429, 25) == Fraction(catalan(7), catalan(3) ** 2)
    assert verify_thm2(4).equal


def test_thm3_worked_values():
    assert verify_thm3(1).lhs == GAMMA == verify_thm3(1).rhs
    r = verify_thm3(2)
    assert r.equal
    assert r.rhs == GammaPoly([0, 4, 5, 1])
    r = verify_thm3(3)
    assert r.lhs == GammaPoly([0, 9, 39, 44, 14, 1])
    assert r.equal


def test_thm4_k3_convention():
    r = verify_thm4(3, "k-1")
    assert r.lhs == 16 == r.rhs
    assert r.equal and r.is_default_convention
    r = verify_thm4(3, "k")
    assert not r.equal
    assert not r.is_default_convention


def test_thm5_k3_convention():
    r = verify_thm5(3, "k")
    assert r.lhs == GammaPoly([0, 3, 3]) == r.rhs
    assert r.equal and r.is_default_convention
    r = verify_thm5(3, "k-1")
    assert r.rhs == GAMMA
    assert not r.equal


@pytest.mark.parametrize("k", range(1, 7))
def test_thm123_hold(k):
    assert verify_thm1(k).equal
    assert verify_thm2(k).equal
    assert verify_thm3(k).equal


@pytest.mark.parametrize("k", range(2, 7))
def test_thm45_hold_under_default_conventions(k):
    assert verify_thm4(k, "k-1").equal
    assert verify_thm5(k, "k").equal


@pytest.mark.parametrize("k", range(2, 7))
def test_thm4_lhs_is_integral(k):
    assert verify_thm4(k).lhs.denominator == 1


def test_verify_preconditions():
    for fn in (verify_thm1, verify_thm2, verify_thm3):
        with pytest.raises(ValueError):
            fn(0)
    for fn in (verify_thm4, verify_thm5):
        with pytest.raises(ValueError):
            fn(1)
        with pytest.raises(ValueError):
            fn(3, "k-2")


# --- independent oracles -------------------------------------------------

def pairwise_square_sum(vectors):
    # naive double sum over ordered pairs of paths
    total = 0
    for v1 in vectors:
        for v2 in vectors:
            total += sum(a * b for a, b in zip(v1, v2))
    return total


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_thm1_lhs_against_naive_pairwise(k):
    vectors = [stats(p).rises_by_altitude for p in enumerate_dyck(k)]
    assert verify_thm1(k).lhs == Fraction(pairwise_square_sum(vectors), catalan(k) ** 2)


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_thm2_lhs_against_naive_pairwise(k):
    vectors = [stats(p).vertices_by_altitude for p in enumerate_dyck(k)]
    assert verify_thm2(k).lhs == Fraction(pairwise_square_sum(vectors), catalan(k) ** 2)


@pytest.mark.parametrize("k", (1, 2, 3))
def test_thm3_lhs_against_naive_pairwise(k):
    # gamma^{r1+r2} (sum R_i R_i + gamma sum L_i L_i), pair by pair
    paths = [(stats(p), p.rise_count()) for p in enumerate_alt_motzkin(k)]
    total = GammaPoly()
    for st1, r1 in paths:
        for st2, r2 in paths:
            rr = sum(a * b for a, b in zip(st1.rises_by_altitude, st2.rises_by_altitude))
            ll = sum(
                a * b
                for a, b in zip(st1.even_levels_by_altitude, st2.even_levels_by_altitude)
            )
            term = GammaPoly([rr]) + GAMMA * GammaPoly([ll])
            total = total + GammaPoly([0] * (r1 + r2) + [1]) * term
    assert verify_thm3(k).lhs == total


@pytest.mark.parametrize("k", (2, 3, 4))
def test_thm4_both_sides_against_direct_enumeration(k):
    lhs = Fraction(0)
    for p in enumerate_dyck(k):
        st = stats(p)
        lhs += sum(
            Fraction(x, 2) * (2 * i + 3 - x) for i, x in enumerate(st.rises_by_altitude)
        )
    assert verify_thm4(k, "k-1").lhs == lhs
    rhs = 0
    for q in enumerate_dyck(k - 1):
        vv = stats(q).vertices_by_altitude
        rhs += sum((v + 1) * v // 2 for v in vv[:k])
    assert verify_thm4(k, "k-1").rhs == rhs


# --- cross-module: identity left sides count the construction inputs ------

@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_thm1_counts_a_inputs_and_image(k):
    count = sum(1 for _ in bj.five_tuples("A", k))
    assert verify_thm1(k).lhs == Fraction(count, catalan(k) ** 2)
    assert count == sum(1 for _ in bj.image_paths("A", k))


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_thm2_counts_b_inputs_and_image(k):
    count = sum(1 for _ in bj.five_tuples("B", k))
    assert verify_thm2(k).lhs == Fraction(count, catalan(k) ** 2)
    assert count == catalan(2 * k + 1)


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_thm3_lhs_splits_into_cd_weights(k):
    c_weight = GammaPoly()
    for t in bj.five_tuples("C", k):
        c_weight = c_weight + GammaPoly([0] * (t.p1.rise_count() + t.p2.rise_count()) + [1])
    d_weight = GammaPoly()
    for t in bj.five_tuples("D", k):
        d_weight = d_weight + GammaPoly([0] * (t.p1.rise_count() + t.p2.rise_count() + 1) + [1])
    assert verify_thm3(k).lhs == c_weight + d_weight


# --- sweep ----------------------------------------------------------------

def test_sweep_all_identities_small():
    result = sweep(IDENTITIES, 4)
    assert result.passes()
    assert not result.truncated
    # non-default variants of 4 and 5 are present and unequal
    off = [r for r in result.reports if not r.is_default_convention]
    assert off and all(not r.equal for r in off)


def test_the_selected_variant_gates_the_pass():
    # None selects each identity's default variant; a named variant is
    # selected for identities 4 and 5 alike
    assert sweep(["thm1", "thm4", "thm5"], 3).passes()
    for rhs_index in ("k", "k-1"):
        assert not sweep(["thm4", "thm5"], 3).passes(rhs_index)
    assert sweep(["thm4"], 3).passes("k-1") and not sweep(["thm4"], 3).passes("k")
    assert sweep(["thm5"], 3).passes("k") and not sweep(["thm5"], 3).passes("k-1")


def test_sweep_k_max_zero_is_empty():
    result = sweep(["thm1"], 0)
    assert result.reports == ()
    assert result.passes()


def test_sweep_rejects_unknown_identity():
    with pytest.raises(ValueError):
        sweep(["thm9"], 3)


def test_sweep_time_budget_truncates():
    result = sweep(IDENTITIES, 6, time_budget=0.0)
    assert result.truncated
    assert len(result.reports) < 30


def per_identity_reports(k_max):
    # each identity on its own, every fold computed apart, in sweep order
    reports = []
    for k in range(1, k_max + 1):
        reports.append(verify_thm1(k))
    for k in range(1, k_max + 1):
        reports.append(verify_thm2(k))
    for k in range(1, k_max + 1):
        reports.append(verify_thm3(k))
    for k in range(2, k_max + 1):
        reports += [verify_thm4(k, "k-1"), verify_thm4(k, "k")]
    for k in range(2, k_max + 1):
        reports += [verify_thm5(k, "k"), verify_thm5(k, "k-1")]
    return reports


def test_sweep_equals_each_identity_folded_apart():
    assert list(sweep(IDENTITIES, 12).reports) == per_identity_reports(12)


_FOLDS = ("fold_dyck_upto", "fold_alt_motzkin_upto")


def count_fold_calls(monkeypatch):
    """Wrap the fold functions identities calls; the dict counts calls by name."""
    calls = dict.fromkeys(_FOLDS, 0)
    for name in _FOLDS:
        def wrapper(*args, _name=name, _fn=getattr(identities, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(identities, name, wrapper)
    return calls


@pytest.mark.parametrize("names,k_max", [
    (IDENTITIES, 1), (IDENTITIES, 2), (IDENTITIES, 20), (["thm1", "thm2", "thm4"], 33),
    (["thm5"], 16),
])
def test_sweep_folds_each_kind_in_logarithmically_many_passes(monkeypatch, names, k_max):
    calls = count_fold_calls(monkeypatch)
    sweep(names, k_max)
    kinds = {identities._SWEEP[name][0] for name in names}
    for kind, upto in (("dyck", "fold_dyck_upto"), ("altmotzkin", "fold_alt_motzkin_upto")):
        if kind in kinds:
            assert 1 <= calls[upto] <= math.ceil(math.log2(k_max)) + 1
        else:
            assert calls[upto] == 0


def test_thm4_and_thm5_read_both_sizes_from_one_pass(monkeypatch):
    calls = count_fold_calls(monkeypatch)
    assert verify_thm4(5, "k-1").equal
    assert verify_thm5(5, "k-1").rhs == verify_thm5(4).rhs
    assert calls == {"fold_dyck_upto": 1, "fold_alt_motzkin_upto": 2}


def test_truncated_sweep_is_a_prefix_of_the_full_sweep(monkeypatch):
    # a clock that ticks once per reading cuts the sweep at every point
    # where it checks the budget: between folds and between reports
    full = sweep(IDENTITIES, 8)
    cut_points = set()
    for budget in range(400):
        ticks = iter(range(10**6))
        monkeypatch.setattr(identities, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
        result = sweep(IDENTITIES, 8, time_budget=budget)
        assert result.reports == full.reports[:len(result.reports)]
        if not result.truncated:
            assert result == full
            break
        cut_points.add(len(result.reports))
    else:
        pytest.fail("a budget of 400 clock readings did not finish the sweep")
    assert len(cut_points) > 10
