"""Halfline walk translation and the walk reading of identities 1 and 2."""

from fractions import Fraction

import pytest

from pathforge.identities import verify
from pathforge.paths import PathKind, altitudes, enumerate_alt_motzkin, enumerate_dyck, parse
from pathforge.walks import Walk, path_to_walk, walk_to_path

_ENUMERATE = {PathKind.DYCK: enumerate_dyck, PathKind.ALT_MOTZKIN: enumerate_alt_motzkin}


def test_dyck_to_walk_examples():
    assert path_to_walk(parse("UD", PathKind.DYCK)).nodes == (0, 1, 0)
    assert path_to_walk(parse("UUDDUD", PathKind.DYCK)).nodes == (0, 1, 2, 1, 0, 1, 0)


def test_walk_to_dyck_example():
    assert walk_to_path(Walk((0, 1, 0, 1, 0)), PathKind.DYCK).render() == "UDUD"


def test_walk_to_dyck_rejects_loops():
    with pytest.raises(ValueError, match="level step on odd step 1, which dyck paths forbid"):
        walk_to_path(Walk((0, 0, 1, 0, 0)), PathKind.DYCK)


def test_alt_motzkin_walk_examples():
    assert path_to_walk(parse("LL", PathKind.ALT_MOTZKIN)).nodes == (0, 0, 0)
    assert path_to_walk(parse("LUDL", PathKind.ALT_MOTZKIN)).nodes == (0, 0, 1, 0, 0)
    assert walk_to_path(Walk((0, 0, 1, 0, 0)), PathKind.ALT_MOTZKIN).render() == "LUDL"
    assert str(path_to_walk(parse("LUDL", PathKind.ALT_MOTZKIN))) == "0,0,1,0,0"


def test_walk_to_alt_motzkin_rejects_parity_violation():
    # right move at odd time step 1
    with pytest.raises(ValueError, match="rise on odd step"):
        walk_to_path(Walk((0, 1, 0, 0, 0)), PathKind.ALT_MOTZKIN)


def test_walk_to_path_refuses_a_walk_not_from_node_0():
    # path_to_walk starts every walk at node 0, so no other walk is an image
    for nodes in ((1, 2, 1), (1, 0, 1)):
        with pytest.raises(ValueError, match="walk starts at node 1, not at node 0"):
            walk_to_path(Walk(nodes), PathKind.DYCK)


def test_walk_validation():
    with pytest.raises(ValueError, match="not closed"):
        Walk((0, 1))
    with pytest.raises(ValueError, match="node at time 1 must be nonnegative"):
        Walk((0, -1, 0))
    with pytest.raises(ValueError, match="not in -1/0/\\+1"):
        Walk((0, 2, 0))


def test_walk_keeps_its_nodes_as_a_tuple():
    nodes = [0, 1, 0]
    from_list, from_generator = Walk(nodes), Walk(n for n in (0, 1, 0))
    nodes.append(7)
    for built in (from_list, from_generator):
        assert built == Walk((0, 1, 0)) and hash(built) == hash(Walk((0, 1, 0)))
    assert from_list.render() == "0,1,0"
    with pytest.raises(ValueError, match="^a walk visits at least one node$"):
        Walk(())


def test_walk_to_path_takes_a_path_kind_alone():
    # the kind goes to Path, which gives the one refusal that fold_upto shares
    with pytest.raises(ValueError, match="^kind must be a PathKind, got 'dyck'$"):
        walk_to_path(Walk((0, 1, 0)), "dyck")


@pytest.mark.parametrize("node", [True, 0.5])
def test_walk_refuses_a_node_that_is_no_int(node):
    with pytest.raises(ValueError, match=f"^node at time 1 must be an int, got {node!r}$"):
        Walk((0, node, 0))


def test_walk_is_checked_however_it_is_built():
    # a named tuple also builds through _make and _replace
    w = Walk((0, 1, 0))
    assert w == ((0, 1, 0),) and Walk(nodes=(0, 1, 0)) == w == Walk._make([(0, 1, 0)])
    with pytest.raises(ValueError, match="not closed"):
        w._replace(nodes=(0, 1))
    with pytest.raises(ValueError, match="not in -1/0/\\+1"):
        Walk._make([(0, 2, 0)])


def test_walk_parse_render():
    w = Walk.parse("0,1,2,1,0")
    assert w.nodes == (0, 1, 2, 1, 0)
    assert w.render() == "0,1,2,1,0"
    with pytest.raises(ValueError, match="comma-separated"):
        Walk.parse("0;1;0")


@pytest.mark.parametrize("k", range(7))
def test_round_trips_exhaustive(k):
    for kind, enumerate_paths in _ENUMERATE.items():
        for p in enumerate_paths(k):
            walk = path_to_walk(p)
            assert walk.nodes == altitudes(p.steps)
            assert walk_to_path(walk, kind) == p


def test_walk_identities_k3():
    # identities 1 and 2 over closed loop-free walks of length 6: square-average
    # advances into higher nodes, and square-average time at a node
    advances, time = verify("thm1", 3), verify("thm2", 3)
    assert advances.lhs == Fraction(107, 25) == advances.rhs
    assert time.lhs == Fraction(429, 25) == time.rhs
    assert advances.equal and time.equal


def test_walk_identities_k1():
    assert verify("thm1", 1).lhs == 1
    assert verify("thm2", 1).lhs == 5
