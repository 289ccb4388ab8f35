"""Identity verification: worked values, independent pairwise oracles, and
the cross-check against the construction images."""

import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

from pathforge import bijections as bj
from pathforge import identities
from pathforge.cli import K_MAX_LIMIT
from pathforge.fold import fold_upto
from pathforge.identities import (
    IDENTITIES,
    sweep,
    verify,
)
from pathforge.numeric import GAMMA, GammaPoly, catalan, narayana_poly
from pathforge.paths import PathKind, enumerate_alt_motzkin, enumerate_dyck, stats


def test_thm1_worked_values():
    assert verify("thm1", 1).lhs == Fraction(1) == verify("thm1", 1).rhs
    r = verify("thm1", 2)
    assert r.lhs == Fraction(10, 4) == Fraction(14, 4) - 1
    r = verify("thm1", 3)
    assert r.lhs == Fraction(107, 25)
    assert r.rhs == Fraction(catalan(6), catalan(3) ** 2) - 1
    assert r.equal


def test_thm2_worked_values():
    assert verify("thm2", 1).lhs == Fraction(5) == verify("thm2", 1).rhs
    r = verify("thm2", 3)
    assert r.lhs == Fraction(429, 25) == Fraction(catalan(7), catalan(3) ** 2)
    assert verify("thm2", 4).equal


def test_thm3_worked_values():
    assert verify("thm3", 1).lhs == GAMMA == verify("thm3", 1).rhs
    r = verify("thm3", 2)
    assert r.equal
    assert r.rhs == GammaPoly([0, 4, 5, 1])
    r = verify("thm3", 3)
    assert r.lhs == GammaPoly([0, 9, 39, 44, 14, 1])
    assert r.equal


def test_thm4_k3_convention():
    r = verify("thm4", 3, "k-1")
    assert r.lhs == 16 == r.rhs
    assert r.equal and r.is_default_convention
    r = verify("thm4", 3, "k")
    assert not r.equal
    assert not r.is_default_convention


def test_thm5_k3_convention():
    r = verify("thm5", 3, "k")
    assert r.lhs == GammaPoly([0, 3, 3]) == r.rhs
    assert r.equal and r.is_default_convention
    r = verify("thm5", 3, "k-1")
    assert r.rhs == GAMMA
    assert not r.equal


@pytest.mark.parametrize("k", range(1, 7))
def test_thm123_hold(k):
    assert verify("thm1", k).equal
    assert verify("thm2", k).equal
    assert verify("thm3", k).equal


@pytest.mark.parametrize("k", range(2, 7))
def test_thm45_hold_under_default_conventions(k):
    assert verify("thm4", k, "k-1").equal
    assert verify("thm5", k, "k").equal


@pytest.mark.parametrize("k", range(2, 7))
def test_thm4_lhs_is_integral(k):
    assert verify("thm4", k).lhs.denominator == 1


def test_thm4_sides_are_the_folds_ints():
    for k in range(2, 8):
        for variant in ("k-1", "k"):
            r = verify("thm4", k, variant)
            assert type(r.lhs) is int and type(r.rhs) is int, (k, variant)


@pytest.mark.parametrize("k", [True, 2.0, -1])
def test_verify_and_sweep_refuse_a_size_that_is_not_one(k):
    with pytest.raises(ValueError, match="^k must be "):
        verify("thm1", k)
    with pytest.raises(ValueError, match="^k must be "):
        sweep(["thm1"], k)


def test_verify_preconditions():
    for name in ("thm1", "thm2", "thm3"):
        with pytest.raises(ValueError):
            verify(name, 0)
    for name in ("thm4", "thm5"):
        with pytest.raises(ValueError):
            verify(name, 1)
        with pytest.raises(ValueError):
            verify(name, 3, "k-2")


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
    assert verify("thm1", k).lhs == Fraction(pairwise_square_sum(vectors), catalan(k) ** 2)


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_thm2_lhs_against_naive_pairwise(k):
    vectors = [stats(p).vertices_by_altitude for p in enumerate_dyck(k)]
    assert verify("thm2", k).lhs == Fraction(pairwise_square_sum(vectors), catalan(k) ** 2)


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
    assert verify("thm3", k).lhs == total


@pytest.mark.parametrize("k", (2, 3, 4))
def test_thm4_both_sides_against_direct_enumeration(k):
    lhs = Fraction(0)
    for p in enumerate_dyck(k):
        st = stats(p)
        lhs += sum(
            Fraction(x, 2) * (2 * i + 3 - x) for i, x in enumerate(st.rises_by_altitude)
        )
    assert verify("thm4", k, "k-1").lhs == lhs
    rhs = 0
    for q in enumerate_dyck(k - 1):
        vv = stats(q).vertices_by_altitude
        rhs += sum((v + 1) * v // 2 for v in vv[:k])
    assert verify("thm4", k, "k-1").rhs == rhs


# --- closed forms of identities 4 and 5: checked against the DP, not proved

def test_thm4_sides_are_powers_of_four():
    reports = [r for r in sweep(["thm4"], K_MAX_LIMIT).reports if r.is_default_convention]
    assert [r.k for r in reports] == list(range(2, K_MAX_LIMIT + 1))
    for r in reports:
        assert r.lhs == 4 ** (r.k - 1) == r.rhs, r.k


def test_dyck_fold_lemmas():
    # the Dyck pieces of identity 4 in closed form: with a(1) = 0 and
    # a(k+1) = 4a(k) + C_k, the rise pairs of size k and the vertex pairs of
    # size k-1 are a(k), sum (i+1)R_i is (2k-1)C_{k-1} + 2a(k), and the
    # vertices of all paths of size k number C(2k+1, k)
    folds = tuple(fold_upto(PathKind.DYCK, K_MAX_LIMIT))
    a = 0
    for k in range(1, K_MAX_LIMIT + 1):
        f = folds[k]
        assert f.rise_pairs == folds[k - 1].other_pairs == a, k
        assert sum((i + 1) * r for i, r in enumerate(f.rises)) == (2 * k - 1) * catalan(k - 1) + 2 * a, k
        assert sum(f.others) == math.comb(2 * k + 1, k), k
        a = 4 * a + catalan(k)


def test_alt_motzkin_rows_in_closed_form():
    # with N = x(1+N)(1+gN), rises[i] = [x^k] g^(i+1) N^(2i+2) (1+N) and
    # others[i] = [x^k] g^i N^(2i+1) (1+N); Lagrange inversion with
    # phi(t) = (1+t)(1+gt) gives, for s = r - e,
    # [x^k g^r] g^e N^m (1+N) = (m C(k, k-m-s) + (m+1) C(k, k-1-m-s)) C(k, s) / k
    def comb(n, r):
        return math.comb(n, r) if r >= 0 else 0

    def times_k(k, e, m):  # k [x^k] g^e N^m (1+N), so that no division hides a remainder
        return GammaPoly((m * comb(k, k - m - s) + (m + 1) * comb(k, k - 1 - m - s)) * comb(k, s)
                         for s in range(-e, k + 1 - e))

    folds = tuple(fold_upto(PathKind.ALT_MOTZKIN, 40))
    for k in range(1, 41):
        f = folds[k]
        assert len(f.rises) == len(f.others) == k, k
        for i in range(k):
            assert k * f.rises[i] == times_k(k, i + 1, 2 * i + 2), (k, i)
            assert k * f.others[i] == times_k(k, i, 2 * i + 1), (k, i)


# a series in x is a list whose item a is its x^a coefficient, a polynomial
# in g as a list of ints, lowest power first; a polynomial in one or two
# variables is a series whose top is above its degree


def _times(top, *factors):
    """The product of the series, cut above x^top."""
    out = [[1]]
    for b in factors:
        nxt = [[] for _ in range(min(top, len(out) + len(b) - 2) + 1)]
        for i, p in enumerate(out):
            for j, r in enumerate(b[:top + 1 - i]):
                acc = nxt[i + j]
                acc.extend([0] * (len(p) + len(r) - 1 - len(acc)))
                for e, c in enumerate(p):
                    for f, d in enumerate(r):
                        acc[e + f] += c * d
        out = nxt
    return out


def _plus(*terms):
    out = [[] for _ in range(max(map(len, terms)))]
    for s in terms:
        for a, p in enumerate(s):
            out[a].extend([0] * (len(p) - len(out[a])))
            for e, c in enumerate(p):
                out[a][e] += c
    return out


def _trim(p):
    # a polynomial or series with its top zero coefficients dropped, so that
    # equal values compare equal
    out = [list(c) for c in p]
    for c in out:
        while c and c[-1] == 0:
            c.pop()
    while out and not out[-1]:
        out.pop()
    return out


_ONE, _X, _G = [[1]], [[], [1]], [[0, 1]]


def test_alt_motzkin_pair_totals_in_closed_form():
    # with N = x(1+N)(1+gN) and q = gN^2, rise_pairs and other_pairs are the
    # x^k coefficients of g^2 N^3 (1+N)^2 / ((1-q)(1-q^2)) and
    # N^2 (1+N)(1+gNq) / ((1-q)(1-q^2))
    top = 30
    n = []
    for cut in range(1, top + 1):  # each round fixes one more coefficient of N
        n = _times(cut, _X, _plus(_ONE, n), _plus(_ONE, _times(cut, _G, n)))
    q = _times(top, _G, n, n)

    def geometric(s):  # 1/(1-s) for an s with no term below x^2
        out = _ONE
        for _ in range(top // 2):
            out = _plus(_ONE, _times(top, s, out))
        return out

    over = _times(top, geometric(q), geometric(_times(top, q, q)))
    one_n = _plus(_ONE, n)
    rise_pairs = _times(top, _G, _G, n, n, n, one_n, one_n, over)
    other_pairs = _times(top, n, n, one_n, _plus(_ONE, _times(top, _G, n, q)), over)
    for f in fold_upto(PathKind.ALT_MOTZKIN, top):
        if f.k:
            assert _trim([f.rise_pairs.coeffs]) == _trim([rise_pairs[f.k]]), f.k
            assert _trim([f.other_pairs.coeffs]) == _trim([other_pairs[f.k]]), f.k


def test_identities_4_and_5_algebra():
    # both sides of identities 4 and 5 as generating functions, checked as
    # exact identities of polynomials once the denominators are cleared
    top = 20  # above every degree below: nothing is cut

    def times(*fractions):  # a fraction is a pair (numerator, denominator)
        return tuple(_times(top, *parts) for parts in zip(*fractions))

    def plus(f, g):
        return _plus(_times(top, f[0], g[1]), _times(top, g[0], f[1])), _times(top, f[1], g[1])

    def same(f, g):
        return _trim(_times(top, f[0], g[1])) == _trim(_times(top, g[0], f[1]))

    # in Z[C], C in the place of x: x = (C-1)/C^2 and B = C/(2-C), and both
    # sides of identity 4 are (C-1)/(C-2)^2
    one, minus_one, c = (_ONE, _ONE), ([[-1]], _ONE), (_X, _ONE)
    x = ([[-1], [1]], [[], [], [1]])
    b = ([[], [1]], [[2], [-1]])
    xc = times(x, c)
    sides = ([[-1], [1]], [[4], [-4], [1]])
    assert same(times(xc, b, b, plus(one, times(minus_one, xc))), sides)
    assert same(times(x, plus(times(c, b), times(xc, c, b, b))), sides)
    assert not same(times(x, plus(times(c, b), times(x, c, b, b))), sides)  # x C B^2: wrong
    # in Z[N, g], N in the place of x: both sides of identity 5 times
    # (1-q)(1-q^2), q = gN^2
    n, one_n = _X, [[1], [1]]
    q = _times(top, _G, n, n)
    lhs = _times(top, _G, n, n, one_n, _plus(_ONE, _times(top, _G, n)), _plus(_ONE, q))
    rhs = _plus(_times(top, _G, _G, n, n, n, one_n, one_n),
                _times(top, _G, n, n, one_n, _plus(_ONE, _times(top, _G, n, q))))
    assert _trim(lhs) == _trim(rhs)


def test_default_variant_is_the_rows_first():
    # without rhs_index a verifier reports the variant it resolved
    assert verify("thm4", 3).rhs_index == "k-1" == identities._ROWS["thm4"].variants[0]
    assert verify("thm5", 3).rhs_index == "k" == identities._ROWS["thm5"].variants[0]
    assert (verify("thm4", 3) == verify("thm4", 3, "k-1")
            and verify("thm5", 3) == verify("thm5", 3, "k"))


def test_thm5_sides_are_a_narayana_convolution():
    # sum_{j=2..k} g N_{j-1}(g) c_{k-j}, with c_n the x^n coefficient of
    # 1/((1 - x(1+g))^2 - 4 g x^2): c_n = 2(1+g) c_{n-1} - (1-g)^2 c_{n-2}
    k_max = 40
    reports = [r for r in sweep(["thm5"], k_max).reports if r.is_default_convention]
    assert [r.k for r in reports] == list(range(2, k_max + 1))
    c = [GammaPoly([1]), GammaPoly([2, 2])]
    while len(c) < k_max - 1:
        c.append(GammaPoly([2, 2]) * c[-1] - GammaPoly([1, -2, 1]) * c[-2])
    for r in reports:
        k = r.k
        closed = sum((GAMMA * narayana_poly(j - 1) * c[k - j] for j in range(2, k + 1)), GammaPoly())
        assert r.lhs == closed == r.rhs, k


# --- cross-module: identity left sides count the construction inputs ------

@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_thm1_counts_a_inputs_and_image(k):
    count = sum(1 for _ in bj.five_tuples("A", k))
    assert verify("thm1", k).lhs == Fraction(count, catalan(k) ** 2)
    assert count == sum(1 for _ in bj.image_paths("A", k))


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_thm2_counts_b_inputs_and_image(k):
    count = sum(1 for _ in bj.five_tuples("B", k))
    assert verify("thm2", k).lhs == Fraction(count, catalan(k) ** 2)
    assert count == catalan(2 * k + 1)


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_thm3_lhs_splits_into_cd_weights(k):
    c_weight = GammaPoly()
    for t in bj.five_tuples("C", k):
        c_weight = c_weight + GammaPoly([0] * (t.p1.rise_count() + t.p2.rise_count()) + [1])
    d_weight = GammaPoly()
    for t in bj.five_tuples("D", k):
        d_weight = d_weight + GammaPoly([0] * (t.p1.rise_count() + t.p2.rise_count() + 1) + [1])
    assert verify("thm3", k).lhs == c_weight + d_weight


# --- sweep ----------------------------------------------------------------

def test_sweep_all_identities_small():
    result = sweep(IDENTITIES, 4)
    assert result.passes()
    assert not result.truncated
    # non-default variants of 4 and 5 are present and unequal
    off = [r for r in result.reports if not r.is_default_convention]
    assert off and all(not r.equal for r in off)


def test_the_selected_variant_gates_the_pass():
    # of each identity the default variant is selected; the other
    # variant's failures are reported but do not gate
    result = sweep(["thm1", "thm4", "thm5"], 3)
    assert result.passes() and not all(r.equal for r in result.reports)
    bad = result.reports[0]._replace(rhs=0)
    assert not result._replace(reports=(bad, *result.reports[1:])).passes()


def test_only_the_default_variant_holds():
    # for identities 4 and 5 at every k in 2..30 the default report is an
    # equality and the other is not, so no choice of variant is needed
    for r in sweep(["thm4", "thm5"], 30).reports:
        assert r.equal is r.is_default_convention, (r.identity, r.k, r.rhs_index)


def test_sweep_k_max_zero_is_empty():
    result = sweep(["thm1"], 0)
    assert result.reports == ()
    assert result.passes()


def test_sweep_rejects_unknown_identity():
    with pytest.raises(ValueError):
        sweep(["thm9"], 3)


def test_verify_rejects_unknown_identity():
    # the same refusal as sweep's, from the same check
    with pytest.raises(ValueError, match="unknown identity 'thm9'"):
        verify("thm9", 3)
    with pytest.raises(ValueError, match="unknown identity 'thm9'"):
        sweep(["thm1", "thm9"], 3)


def test_sweep_time_budget_truncates():
    result = sweep(IDENTITIES, 6, time_budget=0.0)
    assert result.truncated
    assert len(result.reports) < 30


def per_identity_reports(k_max):
    # each identity on its own, every fold computed apart, in sweep order
    reports = []
    for k in range(1, k_max + 1):
        reports.append(verify("thm1", k))
    for k in range(1, k_max + 1):
        reports.append(verify("thm2", k))
    for k in range(1, k_max + 1):
        reports.append(verify("thm3", k))
    for k in range(2, k_max + 1):
        reports += [verify("thm4", k, "k-1"), verify("thm4", k, "k")]
    for k in range(2, k_max + 1):
        reports += [verify("thm5", k, "k"), verify("thm5", k, "k-1")]
    return reports


def test_sweep_equals_each_identity_folded_apart():
    assert list(sweep(IDENTITIES, 12).reports) == per_identity_reports(12)


def count_fold_calls(monkeypatch):
    """Wrap the fold entry identities calls; the dict counts calls by kind."""
    calls = dict.fromkeys(PathKind, 0)
    fold_upto = identities.fold_upto

    def wrapper(kind, k_max):
        calls[kind] += 1
        return fold_upto(kind, k_max)

    monkeypatch.setattr(identities, "fold_upto", wrapper)
    return calls


@pytest.mark.parametrize("names,k_max", [
    (IDENTITIES, 1), (IDENTITIES, 2), (IDENTITIES, 20), (["thm1", "thm2", "thm4"], 33),
    (["thm5"], 16),
])
def test_sweep_folds_each_kind_in_logarithmically_many_passes(monkeypatch, names, k_max):
    calls = count_fold_calls(monkeypatch)
    sweep(names, k_max)
    kinds = {identities._ROWS[name].kind for name in names}
    for kind in PathKind:
        if kind in kinds:
            assert 1 <= calls[kind] <= math.ceil(math.log2(k_max)) + 1
        else:
            assert calls[kind] == 0


def test_thm4_and_thm5_read_both_sizes_from_one_pass(monkeypatch):
    calls = count_fold_calls(monkeypatch)
    assert verify("thm4", 5, "k-1").equal
    assert verify("thm5", 5, "k-1").rhs == verify("thm5", 4).rhs
    assert calls == {PathKind.DYCK: 1, PathKind.ALT_MOTZKIN: 2}


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
