"""The transfer-matrix fold against a per-path enumeration oracle."""

import math

import pytest

from pathforge import fold
from pathforge.identities import verify_thm1, verify_thm2, verify_thm3, verify_thm4, verify_thm5
from pathforge.paths import enumerate_alt_motzkin, enumerate_dyck, stats


def dyck_fold_oracle(k):
    # re-derive the fold from the public enumeration and stats, one path at a time
    count = 0
    rise = [0] * k
    vert = [0] * (k + 1)
    rise_open = [0] * k
    vert_pair = [0] * (k + 1)
    for p in enumerate_dyck(k):
        st = stats(p)
        count += 1
        for i, x in enumerate(st.rises_by_altitude):
            rise[i] += x
            rise_open[i] += x * (2 * i + 3 - x)
        for i, x in enumerate(st.vertices_by_altitude):
            vert[i] += x
            vert_pair[i] += math.comb(x + 1, 2)
    return count, rise, vert, rise_open, vert_pair


def am_fold_oracle(k):
    nr = max(k, 1)
    counts = [0] * nr
    rise = [[0] * nr for _ in range(k)]
    vert = [[0] * nr for _ in range(k + 1)]
    lev = [[0] * nr for _ in range(k)]
    wrise = [0] * nr
    wlev = [0] * nr
    rpair = [0] * nr
    lpair = [0] * nr
    for p in enumerate_alt_motzkin(k):
        st = stats(p)
        r = st.rise_count
        counts[r] += 1
        for i in range(k):
            rise[i][r] += st.rises_by_altitude[i]
            lev[i][r] += st.even_levels_by_altitude[i]
            wrise[r] += (i + 1) * st.rises_by_altitude[i]
            wlev[r] += i * st.even_levels_by_altitude[i]
            rpair[r] += math.comb(st.rises_by_altitude[i], 2)
            lpair[r] += math.comb(st.even_levels_by_altitude[i], 2)
        for i in range(k + 1):
            vert[i][r] += st.vertices_by_altitude[i]
    return counts, rise, vert, lev, wrise, wlev, rpair, lpair


def frozen(x):
    # the oracles build lists; the fold results hold tuples
    return tuple(map(frozen, x)) if isinstance(x, (list, tuple)) else x


# the oracle enumerates every path; k=10 (16,796 paths of each kind) costs
# a few seconds
@pytest.mark.parametrize("k", range(11))
def test_pure_dyck_fold_matches_per_path_oracle(k):
    assert fold.fold_dyck(k) == fold.DyckFold(k, *frozen(dyck_fold_oracle(k)))


@pytest.mark.parametrize("k", range(11))
def test_pure_am_fold_matches_per_path_oracle(k):
    assert fold.fold_alt_motzkin(k) == fold.AltMotzkinFold(k, *frozen(am_fold_oracle(k)))


def test_negative_k_rejected():
    for fn in (fold.fold_dyck, fold.fold_alt_motzkin):
        with pytest.raises(ValueError, match="nonnegative"):
            fn(-1)
    for upto in (fold.fold_dyck_upto, fold.fold_alt_motzkin_upto):
        with pytest.raises(ValueError, match="nonnegative"):
            list(upto(-1))


@pytest.mark.parametrize("k_max", [12, 20])
@pytest.mark.parametrize("upto,single", [
    (fold.fold_dyck_upto, fold.fold_dyck),
    (fold.fold_alt_motzkin_upto, fold.fold_alt_motzkin),
])
def test_one_pass_yields_each_size_as_a_pass_to_that_size(upto, single, k_max):
    # a pass to k_max packs gamma coefficients wider and prunes altitudes
    # later than a pass to k, and must not change what size k reads; the
    # packing width's bound is loose, so a width too small for k_max shows
    # only from about k = 20
    assert list(upto(k_max)) == [single(k) for k in range(k_max + 1)]


def test_identities_hold_beyond_enumeration():
    # Catalan(20) is about 6.6e9 paths of each kind: out of reach of the oracle
    k = 20
    for report in (
        verify_thm1(k), verify_thm2(k), verify_thm3(k), verify_thm4(k), verify_thm5(k)
    ):
        assert report.is_default_convention and report.equal, report.identity
