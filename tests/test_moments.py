"""Monte Carlo moment estimates: determinism, targets, and the trace oracle."""

import tracemalloc
from fractions import Fraction
from functools import partial
from itertools import product
from math import sqrt

import numpy as np
import pytest

from pathforge import moments
from pathforge.cli import _mc_trial
from pathforge.moments import (_laguerre_tridiagonal, _walk_trace, _wigner_matrix, _wigner_trace,
                                wigner_moment, wishart_moment)


def index_walk_trace(matrix, k):
    # brute-force expansion of tr(A^k) as a sum over closed index walks
    n = matrix.shape[0]
    total = 0.0
    for walk in product(range(n), repeat=k):
        term = 1.0
        for j in range(k):
            term *= matrix[walk[j], walk[(j + 1) % k]]
        total += term
    return total


def blocks(matrix):
    # a full symmetric matrix laid into _wigner_trace's block form: its top
    # n // 2 rows and its trailing diagonal block
    n1 = len(matrix) // 2
    return matrix[:n1].copy(), matrix[n1:, n1:].copy()


def test_wigner_trace_identity():
    assert _wigner_trace(blocks(np.eye(3)), 5) == pytest.approx(3.0)


def test_wigner_trace_diagonal():
    assert _wigner_trace(blocks(np.diag([1.0, 2.0])), 2) == pytest.approx(5.0)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("k", range(1, 9))
def test_wigner_trace_matches_index_walk_expansion(n, k):
    # k = 6 and 8 square a square, so the trace runs syrk twice
    z = np.random.default_rng(n).standard_normal((n, n))
    matrix = z + z.T
    assert np.array_equal(matrix, matrix.T)
    assert _wigner_trace(blocks(matrix), k) == pytest.approx(index_walk_trace(matrix, k), rel=1e-10)


@pytest.mark.parametrize("n", [127, 128, 129, 300])
@pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8, 10])
def test_wigner_trace_across_panels(n, k):
    # blocks of about 64 rows, each in one 128-row panel, and of 150 rows
    # (n = 300), a full and a partial panel; k = 6 and 10 take the odd-h
    # product of y and A, and odd k sums A^h A against A^h
    z = np.random.default_rng(n).standard_normal((n, n))
    matrix = (z + z.T) / sqrt(n)
    assert np.array_equal(matrix, matrix.T)
    expected = np.trace(np.linalg.matrix_power(matrix, k))
    assert _wigner_trace(blocks(matrix), k) == pytest.approx(expected, rel=1e-10)


def traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trial_holds_one_matrix():
    # numpy reports its buffers to tracemalloc; a second n-by-n array held in
    # a trial, or a matrix kept while the next trial draws, lifts the peak
    # past this bound
    n = 1200
    for k in (3, 4):
        assert traced_peak(lambda: wigner_moment(k, n, trials=3)) < 1.6 * n * n * 8


def test_wigner_trial_holds_three_quarters_of_its_matrix():
    # a trial holds its top rows and trailing block, 3n^2/4 floats, and no
    # n-by-n array: one n-by-n matrix alone is above the first bound, and a
    # full matrix beside its full square above the second
    n = 1200
    wigner_moment(2, n, trials=1)
    for k in (2, 3, 4):
        assert traced_peak(lambda: wigner_moment(k, n, trials=1)) < 0.95 * n * n * 8, k
    for k in (5, 6):
        assert traced_peak(lambda: wigner_moment(k, n, trials=1)) < 2.0 * n * n * 8, k


@pytest.mark.parametrize("ensemble,k,n,m", [
    *(("wigner", k, n, None) for k in (2, 3, 4, 5, 6, 11) for n in (50, 600)),
    *(("wishart", k, n, m) for k in (2, 3) for n, m in ((60, 40), (300, 200), (200, 300))),
    *(("wishart", k, n, m) for k, n, m in ((8, 60000, 40000), (41, 60000, 40000), (201, 300, 500))),
])
def test_mc_byte_estimate_covers_one_trial(ensemble, k, n, m):
    # the estimate that mc checks before numpy loads is at least what one
    # trial holds at once, below one 128-row block (n = 50) and above it;
    # k = 5 and 11 hold the most powers beside the matrix, and a Wishart
    # walk at p = 40,000 takes its rows in many blocks.  A first run,
    # untraced, takes the allocations of numpy's lazy imports out of it
    run = partial(wigner_moment, k, n) if m is None else partial(wishart_moment, k, n, m)
    run(trials=1)
    assert traced_peak(lambda: run(trials=1)) <= _mc_trial(ensemble, k, n, m)[1]


@pytest.mark.parametrize("n", [2, 3, 127, 128, 129, 300])
def test_wigner_matrix_is_the_mirrored_draw(n):
    # the row-wise draw is one stream of n(n+1)/2 normals laid over the
    # upper triangle, row by row, and the blocked in-place mirror gives
    # its symmetric matrix, whose top rows and trailing block are the two
    # arrays: blocks of unequal size (n = 3, 127, 129), one panel, and a
    # full and a partial one (n = 300)
    top, a22 = _wigner_matrix(np.random.default_rng(n), n)
    upper = np.zeros((n, n))
    upper[np.triu_indices(n)] = np.random.default_rng(n).standard_normal(n * (n + 1) // 2)
    expected = upper + np.triu(upper, 1).T
    expected /= sqrt(n)
    n1 = n // 2
    assert np.array_equal(top, expected[:n1])
    assert np.array_equal(a22, expected[n1:, n1:])


@pytest.mark.parametrize("p", [2, 3, 7, 130])
@pytest.mark.parametrize("extra", [3, 0, -3])
@pytest.mark.parametrize("cells", [None, 16])
def test_wishart_walk_trace_is_the_bidiagonal_trace(monkeypatch, p, extra, cells):
    # the walk over T = B B^T / n against the dense power of B B^T, for B
    # the bidiagonal of this substream's chi draws: m < n, m = n and m > n
    # (p = min(m, n) rows, scaled by the n given), k = 1..8, a band wider
    # than p (p = 2 and 3), and rows taken in one block or in many
    if cells is not None:
        monkeypatch.setattr(moments, "_BAND_CELLS", cells)
    m, n = (p, p + extra) if extra >= 0 else (p - extra, p)
    q = max(m, n)
    rng = np.random.default_rng(p)
    x = np.sqrt(rng.chisquare(np.arange(q, q - p, -1)))
    y = np.sqrt(rng.chisquare(np.arange(p - 1, 0, -1)))
    b = np.diag(x) + np.diag(y, -1)
    t = _laguerre_tridiagonal(np.random.default_rng(p), m, n)
    for k in range(1, 9):
        expected = np.trace(np.linalg.matrix_power(b @ b.T, k)) / n**k
        assert _walk_trace(*t, k) == pytest.approx(expected, rel=1e-10), k


@pytest.mark.parametrize("m,n", [(3, 5), (4, 4), (5, 3)])
def test_wishart_low_moments_match_their_exact_finite_means(m, n):
    # E[tr(W^2)]/m and E[tr(W^3)]/m for W = G G^T / n, exact at every m and n
    exact = {2: Fraction(m + n + 1, n),
             3: Fraction(m * m + n * n + 3 * m * n + 3 * m + 3 * n + 4, n * n)}
    for k, mean in exact.items():
        est = wishart_moment(k, n, m, trials=2000, seed=1)
        assert abs(est.estimate - mean) <= 4 * est.stderr, (k, est)


def test_wishart_trial_holds_no_dense_matrix():
    # a trial holds p-long arrays and blocks of band cells: far below the
    # m-by-m W (32 MB here) or the m-by-n G it stands for
    m, n = 2000, 4000
    wishart_moment(4, n, m, trials=1)
    assert traced_peak(lambda: wishart_moment(4, n, m, trials=3)) < m * m * 8 / 16


def test_wigner_seeded_determinism():
    a = wigner_moment(4, 50, trials=4, seed=11)
    b = wigner_moment(4, 50, trials=4, seed=11)
    assert a == b
    c = wigner_moment(4, 50, trials=4, seed=12)
    assert c.estimate != a.estimate


def test_wishart_seeded_determinism():
    a = wishart_moment(2, 60, 30, trials=4, seed=5)
    b = wishart_moment(2, 60, 30, trials=4, seed=5)
    assert a == b


def test_substreams_are_pinned():
    # fixed values of these seeded runs: a change to the draws, their order or
    # the substream seeding moves them, which comparing two runs cannot catch
    # (estimate, stderr) of Wigner trials at k = 1 and 2 and at odd and even
    # k past 2, where the trace takes matrix powers
    for k, estimate, stderr in [(1, 0.011020664775810084, 0.009706277483019537),
                                (2, 1.0254599616139695, 0.018964838168768167),
                                (3, 0.08103565577111906, 0.03387675640533582),
                                (4, 2.11810695028198, 0.09252394691411149),
                                (5, 0.37392994434662125, 0.14735735927627508)]:
        a = wigner_moment(k, 50, trials=4, seed=11)
        assert a.estimate == pytest.approx(estimate, rel=1e-12), k
        assert a.stderr == pytest.approx(stderr, rel=1e-12), k
    b = wishart_moment(2, 60, 30, trials=4, seed=5)
    assert b.estimate == pytest.approx(1.6693703168462115, rel=1e-12)
    assert b.stderr == pytest.approx(0.06431434477417038, rel=1e-12)


def test_moments_public_names_are_pinned():
    # a name is public here when moments defines it without a leading
    # underscore; what it imports is not its own
    assert sorted(name for name, value in vars(moments).items() if not name.startswith("_")
                  and getattr(value, "__module__", None) == moments.__name__) == [
        "MomentEstimate", "wigner_moment", "wishart_moment"]


def test_wigner_targets():
    assert wigner_moment(2, 10, trials=1, seed=0).target == 1
    assert wigner_moment(4, 10, trials=1, seed=0).target == 2
    assert wigner_moment(3, 10, trials=1, seed=0).target == 0
    assert wigner_moment(6, 10, trials=1, seed=0).target == 5


def test_wishart_targets():
    assert wishart_moment(1, 10, 5, trials=1, seed=0).target == 1
    assert wishart_moment(2, 10, 5, trials=1, seed=0).target == Fraction(3, 2)
    assert wishart_moment(3, 10, 10, trials=1, seed=0).target == 5


def test_wigner_estimates_near_target():
    est = wigner_moment(2, 300, trials=10, seed=3)
    assert abs(est.estimate - 1.0) < max(4 * est.stderr, 0.05)
    est = wigner_moment(3, 300, trials=10, seed=3)
    assert abs(est.estimate) < 0.05


def test_wishart_estimates_near_target():
    est = wishart_moment(1, 200, 100, trials=10, seed=3)
    assert abs(est.estimate - 1.0) < 0.02
    est = wishart_moment(2, 300, 150, trials=10, seed=3)
    assert abs(est.estimate - 1.5) < max(4 * est.stderr, 0.05)


def test_four_stderr_coverage_over_seed_set():
    # fixed seed set at production scale; deterministic, so exact coverage
    wigner_hits = 0
    for s in range(3):
        est = wigner_moment(4, 1000, trials=20, seed=s)
        wigner_hits += abs(est.estimate - 2.0) <= 4 * est.stderr
    assert wigner_hits == 3
    wishart_hits = 0
    for s in range(10):
        est = wishart_moment(2, 1000, 500, trials=20, seed=s)
        wishart_hits += abs(est.estimate - 1.5) <= 4 * est.stderr
    assert wishart_hits >= 9  # at least 95% of the seed set


def test_higher_moments_near_target():
    est = wigner_moment(6, 1000, trials=20, seed=0)
    assert abs(est.estimate - 5.0) <= 4 * est.stderr
    est = wishart_moment(3, 1000, 1000, trials=20, seed=0)
    assert est.target == 5
    assert abs(est.estimate - 5.0) <= 4 * est.stderr


def test_stderr_from_per_trial_variance():
    est = wigner_moment(2, 50, trials=8, seed=9)
    assert est.stderr > 0
    single = wigner_moment(2, 50, trials=1, seed=9)
    assert single.stderr == 0.0


def _estimate_of(values):
    # moments._estimate over the given per-trial values
    trials = iter(values)
    return moments._estimate("wigner", 2, 2, None, len(values), 0, lambda rng: next(trials), 1, 2)


def test_statistics_stay_finite_near_the_largest_float():
    # squared deviations pass the largest float from values of about
    # 1.3e154, and a sum of values near it overflows the mean
    est = wigner_moment(600, 50, trials=3, seed=1)
    assert est.stderr == pytest.approx(8.6314e178, rel=1e-4)
    for values in ([1e200, 3e200, 2e200], [1.7e308, 1.6e308, 1.5e308], [-1e300, 1e300, 5e299]):
        exact = [Fraction(v) for v in values]
        mean = sum(exact) / len(exact)
        variance = sum((v - mean) ** 2 for v in exact) / (len(exact) - 1)
        est = _estimate_of(values)
        assert est.estimate == pytest.approx(float(mean), rel=1e-15)
        assert est.stderr == pytest.approx(sqrt(float(variance / len(exact) / 4**1000)) * 2.0**1000,
                                           rel=1e-15)


def test_statistics_keep_their_bits_on_ordinary_values():
    # the scaling by a power of two changes no bit of numpy's statistics
    rng = np.random.default_rng(5)
    for _ in range(500):
        values = rng.standard_normal(20) * 10.0 ** int(rng.integers(-100, 100))
        est = _estimate_of(list(values))
        assert est.estimate == values.mean()
        assert est.stderr == values.std(ddof=1) / sqrt(20)


def test_argument_validation():
    with pytest.raises(ValueError):
        wigner_moment(0, 10)
    with pytest.raises(ValueError):
        wigner_moment(2, 1)
    with pytest.raises(ValueError):
        wigner_moment(2, 10, trials=0)
    with pytest.raises(ValueError):
        wishart_moment(2, 10, 1)
    with pytest.raises(ValueError, match="^k must be positive, got 0$"):
        wishart_moment(0, 10, 5)
    with pytest.raises(ValueError, match="^trials must be positive, got 0$"):
        wishart_moment(2, 10, 5, trials=0)
    # the chi degrees and the scale are floats: an n past them is refused,
    # one past int64 is taken
    with pytest.raises(ValueError, match="^m and n must be at most the largest float"):
        wishart_moment(2, 10**400, 2)
    assert wishart_moment(2, 10**32, 2, trials=2).estimate == pytest.approx(1.0)
