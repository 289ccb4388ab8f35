"""Closed walks on the labelled halfline and their correspondence with
lattice paths.

A walk visits nonnegative integer nodes, moving by -1, 0, or +1 at each
time step and returning to its start.  A path's walk starts at node 0,
so ``walk_to_path`` refuses a walk from any other node.  Loop-free walks
correspond to Dyck paths; walks whose right moves happen only at even
time steps and left moves only at odd time steps correspond to
alternating Motzkin paths.  So a walk states its kind, as ``pathforge
walk`` reads it: one with a loop can only be alternating Motzkin.
``walk_to_path`` still takes the kind, a ``PathKind`` member, since the
walk at node 0 alone is the empty path of either kind.  ``Walk.parse``
reads each node as ASCII -?[0-9]+ alone.
Under the correspondence, time spent at node i is the vertex count V_i,
advances into node i+1 are the rises R_i, and loops at node i are the
level steps there.  ``paths.stats`` of the path counts them: its vertex
and rise rows, and twice its even-step level row (the level-parity
lemma).  So identities 1 and 2 (``identities.verify("thm1", k)`` and
``verify("thm2", k)``) restate for a uniform random closed loop-free
walk of length 2k: they give the total square-average advances into
higher nodes and the total square-average time at a node in closed form.
"""

from __future__ import annotations

from typing import NamedTuple

from .numeric import _check_size, _parse_int
from .paths import Path, PathKind, altitudes


class Walk(NamedTuple("Walk", [("nodes", tuple[int, ...])])):
    """A closed walk on the halfline, stored as the visited node labels."""

    __slots__ = ()

    def __new__(cls, nodes):
        nodes = tuple(nodes)
        if len(nodes) < 1:
            raise ValueError("a walk visits at least one node")
        if nodes[0] != nodes[-1]:
            raise ValueError(f"walk is not closed: starts at {nodes[0]}, ends at {nodes[-1]}")
        for t, node in enumerate(nodes):
            _check_size(node, 0, f"node at time {t}")
        for t, (a, b) in enumerate(zip(nodes, nodes[1:]), start=1):
            if abs(b - a) > 1:
                raise ValueError(f"move from {a} to {b} at time step {t} is not in -1/0/+1")
        return super().__new__(cls, nodes)

    # _replace builds through _make, which would skip the checks above
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def moves(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.nodes, self.nodes[1:]))

    def render(self) -> str:
        return ",".join(str(n) for n in self.nodes)

    @classmethod
    def parse(cls, text: str) -> "Walk":
        """A walk from its nodes, each ASCII -?[0-9]+, joined by commas."""
        try:
            nodes = tuple(_parse_int(part) for part in text.split(","))
        except ValueError as exc:
            raise ValueError(f"walk must be comma-separated integers: {exc}") from None
        return cls(nodes)

    def __str__(self) -> str:
        return self.render()


def path_to_walk(path: Path) -> Walk:
    """Closed walk from node 0 visiting the path's altitudes: a loop for
    each level step, so loop-free for a Dyck path."""
    return Walk(altitudes(path.steps))


def walk_to_path(walk: Walk, kind: PathKind) -> Path:
    """Inverse of path_to_walk: the moves of a walk from node 0, validated
    as a path of the given kind (so a walk with loops is no Dyck path)."""
    if walk.nodes[0] != 0:
        raise ValueError(f"walk starts at node {walk.nodes[0]}, not at node 0")
    return Path(walk.moves(), kind)

