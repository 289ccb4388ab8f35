"""Halfline walk translation and occupation statistics."""

from fractions import Fraction

import pytest

from pathforge.identities import verify_thm1, verify_thm2
from pathforge.paths import PathKind, enumerate_alt_motzkin, enumerate_dyck, parse, stats
from pathforge.walks import Walk, path_to_walk, walk_statistics, walk_to_path

_ENUMERATE = {PathKind.DYCK: enumerate_dyck, PathKind.ALT_MOTZKIN: enumerate_alt_motzkin}


def test_dyck_to_walk_examples():
    assert path_to_walk(parse("UD", "dyck")).nodes == (0, 1, 0)
    assert path_to_walk(parse("UUDDUD", "dyck")).nodes == (0, 1, 2, 1, 0, 1, 0)


def test_walk_to_dyck_example():
    assert walk_to_path(Walk((0, 1, 0, 1, 0)), "dyck").render() == "UDUD"


def test_walk_to_dyck_rejects_loops():
    with pytest.raises(ValueError, match="level step on odd step 1, which dyck paths forbid"):
        walk_to_path(Walk((0, 0, 1, 0, 0)), "dyck")


def test_alt_motzkin_walk_examples():
    assert path_to_walk(parse("LL", "altmotzkin")).nodes == (0, 0, 0)
    assert path_to_walk(parse("LUDL", "altmotzkin")).nodes == (0, 0, 1, 0, 0)
    assert walk_to_path(Walk((0, 0, 1, 0, 0)), "altmotzkin").render() == "LUDL"


def test_walk_to_alt_motzkin_rejects_parity_violation():
    # right move at odd time step 1
    with pytest.raises(ValueError, match="rise on odd step"):
        walk_to_path(Walk((0, 1, 0, 0, 0)), "altmotzkin")


@pytest.mark.parametrize("kind", PathKind)
def test_path_walk_map_offsets_and_inverts(kind):
    for k in range(5):
        for p in _ENUMERATE[kind](k):
            walk = path_to_walk(p, start=2)
            assert walk.nodes == tuple(a + 2 for a in p.altitudes())
            assert walk_to_path(walk, kind) == p
    with pytest.raises(ValueError, match="nonnegative"):
        path_to_walk(next(_ENUMERATE[kind](1)), start=-1)


def test_walk_validation():
    with pytest.raises(ValueError, match="not closed"):
        Walk((0, 1))
    with pytest.raises(ValueError, match="negative node"):
        Walk((0, -1, 0))
    with pytest.raises(ValueError, match="not in -1/0/\\+1"):
        Walk((0, 2, 0))


def test_walk_parse_render():
    w = Walk.parse("0,1,2,1,0")
    assert w.nodes == (0, 1, 2, 1, 0)
    assert w.render() == "0,1,2,1,0"
    with pytest.raises(ValueError, match="comma-separated"):
        Walk.parse("0;1;0")


def test_walk_start_offset():
    w = path_to_walk(parse("UUDD", "dyck"), start=3)
    assert w.nodes == (3, 4, 5, 4, 3)
    assert walk_to_path(w, "dyck").render() == "UUDD"


@pytest.mark.parametrize("k", range(7))
def test_round_trips_exhaustive(k):
    for kind, enumerate_paths in _ENUMERATE.items():
        for p in enumerate_paths(k):
            assert walk_to_path(path_to_walk(p), kind) == p


def test_walk_statistics_examples():
    ws = walk_statistics(path_to_walk(parse("UDUDUD", "dyck")))
    assert ws.time_at_node == (4, 3)
    assert ws.advances_from_node == (3,)
    assert ws.loops_at_node == (0, 0)

    ws = walk_statistics(path_to_walk(parse("LL", "altmotzkin")))
    assert ws.time_at_node == (3,)
    assert ws.advances_from_node == ()
    assert ws.loops_at_node == (2,)

    ws = walk_statistics(path_to_walk(parse("LUDL", "altmotzkin")))
    assert ws.time_at_node == (4, 1)
    assert ws.advances_from_node == (1,)
    assert ws.loops_at_node == (2, 0)


@pytest.mark.parametrize("k", range(1, 7))
def test_walk_statistics_match_path_stats(k):
    for p in enumerate_dyck(k):
        st = stats(p)
        ws = walk_statistics(path_to_walk(p))
        top = len(ws.time_at_node)
        assert ws.time_at_node == st.vertices_by_altitude[:top]
        assert all(v == 0 for v in st.vertices_by_altitude[top:])
        assert ws.advances_from_node == st.rises_by_altitude[: len(ws.advances_from_node)]
        assert all(v == 0 for v in st.rises_by_altitude[len(ws.advances_from_node):])
    for p in enumerate_alt_motzkin(k):
        st = stats(p)
        ws = walk_statistics(path_to_walk(p))
        top = len(ws.time_at_node)
        assert ws.time_at_node == st.vertices_by_altitude[:top]
        # loops count all level steps; even-step levels are exactly half
        for node, loops in enumerate(ws.loops_at_node):
            assert loops == 2 * st.even_levels_by_altitude[node]


def test_walk_identities_k3():
    # identities 1 and 2 over closed loop-free walks of length 6: square-average
    # advances into higher nodes, and square-average time at a node
    advances, time = verify_thm1(3), verify_thm2(3)
    assert advances.lhs == Fraction(107, 25) == advances.rhs
    assert time.lhs == Fraction(429, 25) == time.rhs
    assert advances.equal and time.equal


def test_walk_identities_k1():
    assert verify_thm1(1).lhs == 1
    assert verify_thm2(1).lhs == 5
