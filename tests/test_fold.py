"""The transfer-matrix fold against a per-path enumeration oracle."""

import math

import pytest

from pathforge import fold
from pathforge.identities import verify
from pathforge.numeric import GammaPoly
from pathforge.paths import PathKind, enumerate_alt_motzkin, enumerate_dyck, stats


def fold_oracle(kind, k):
    # re-derive the fold from the public enumeration and stats, one path at
    # a time; an alternating Motzkin path weighs gamma**rises
    enumerate_paths = enumerate_dyck if kind is PathKind.DYCK else enumerate_alt_motzkin
    count, rises, others, rise_pairs, other_pairs = 0, [0] * k, None, 0, 0
    for p in enumerate_paths(k):
        st = stats(p)
        if kind is PathKind.DYCK:
            w, row = 1, st.vertices_by_altitude
        else:
            w, row = GammaPoly([0] * st.rise_count + [1]), st.even_levels_by_altitude
        if others is None:
            others = [0] * len(row)
        count += w
        rises = [x + w * r for x, r in zip(rises, st.rises_by_altitude)]
        others = [x + w * o for x, o in zip(others, row)]
        rise_pairs += w * sum(math.comb(r, 2) for r in st.rises_by_altitude)
        other_pairs += w * sum(math.comb(o, 2) for o in row)
    return fold.Fold(k, count, tuple(rises), tuple(others), rise_pairs, other_pairs)


# the oracle enumerates every path; k=10 (16,796 paths of each kind) costs
# a few seconds.  Every size is read from one pass to 10.
_FOLDS = {kind: tuple(fold.fold_upto(kind, 10)) for kind in PathKind}


@pytest.mark.parametrize("k", range(11))
def test_pure_dyck_fold_matches_per_path_oracle(k):
    assert _FOLDS[PathKind.DYCK][k] == fold_oracle(PathKind.DYCK, k)


@pytest.mark.parametrize("k", range(11))
def test_pure_am_fold_matches_per_path_oracle(k):
    assert _FOLDS[PathKind.ALT_MOTZKIN][k] == fold_oracle(PathKind.ALT_MOTZKIN, k)


def test_negative_k_rejected():
    for kind in PathKind:
        with pytest.raises(ValueError, match="nonnegative"):
            list(fold.fold_upto(kind, -1))


@pytest.mark.parametrize("k_max", [-1, True, 2.0, "2"])
def test_fold_upto_refuses_a_size_at_the_call(k_max):
    # at the call, as paths._listing does, not at the first fold
    for kind in PathKind:
        with pytest.raises(ValueError, match="^k must be "):
            fold.fold_upto(kind, k_max)


def test_fold_upto_refuses_a_kind_at_the_call():
    # with Path's refusal, not a KeyError at the first fold
    with pytest.raises(ValueError, match="^kind must be a PathKind, got 'dyck'$"):
        fold.fold_upto("dyck", 3)


@pytest.mark.parametrize("k_max", [12, 20])
@pytest.mark.parametrize("kind", PathKind, ids=lambda kind: kind.value)
def test_one_pass_yields_each_size_as_a_pass_to_that_size(kind, k_max):
    # a pass to k_max packs gamma coefficients wider and prunes altitudes
    # later than a pass to k, and must not change what size k reads; the
    # packing width's bound is loose, so a width too small for k_max shows
    # only from about k = 20
    assert list(fold.fold_upto(kind, k_max)) == [
        list(fold.fold_upto(kind, k))[-1] for k in range(k_max + 1)
    ]


def test_identities_hold_beyond_enumeration():
    # Catalan(20) is about 6.6e9 paths of each kind: out of reach of the oracle
    k = 20
    for report in (
        verify("thm1", k), verify("thm2", k), verify("thm3", k), verify("thm4", k),
        verify("thm5", k),
    ):
        assert report.is_default_convention and report.equal, report.identity
