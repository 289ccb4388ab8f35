"""Closed walks on the labelled halfline and their correspondence with
lattice paths.

A walk visits nonnegative integer nodes, moving by -1, 0, or +1 at each
time step and returning to its start.  Loop-free walks correspond to Dyck
paths; walks whose right moves happen only at even time steps and left
moves only at odd time steps correspond to alternating Motzkin paths.
Under the correspondence, time spent at node i is the vertex count V_i,
advances into node i+1 are the rises R_i, and loops at node i are the
level steps there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .identities import verify_thm1, verify_thm2
from .paths import Path, PathKind


@dataclass(frozen=True)
class Walk:
    """A closed walk on the halfline, stored as the visited node labels."""

    nodes: tuple[int, ...]

    def __post_init__(self):
        if len(self.nodes) < 1:
            raise ValueError("a walk visits at least one node")
        if self.nodes[0] != self.nodes[-1]:
            raise ValueError(f"walk is not closed: starts at {self.nodes[0]}, ends at {self.nodes[-1]}")
        for t, node in enumerate(self.nodes):
            if node < 0:
                raise ValueError(f"negative node {node} at time {t}")
        for t, (a, b) in enumerate(zip(self.nodes, self.nodes[1:]), start=1):
            if abs(b - a) > 1:
                raise ValueError(f"move from {a} to {b} at time step {t} is not in -1/0/+1")

    def moves(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.nodes, self.nodes[1:]))

    def render(self) -> str:
        return ",".join(str(n) for n in self.nodes)

    @classmethod
    def parse(cls, text: str) -> "Walk":
        try:
            nodes = tuple(int(part) for part in text.strip().split(","))
        except ValueError as exc:
            raise ValueError(f"walk must be comma-separated integers: {exc}") from None
        return cls(nodes)

    def __str__(self) -> str:
        return self.render()


def dyck_to_walk(path: Path, start: int = 0) -> Walk:
    """Loop-free closed walk visiting the path's altitudes, offset by start."""
    if path.kind is not PathKind.DYCK:
        raise ValueError("expected a Dyck path")
    if start < 0:
        raise ValueError("start node must be nonnegative")
    return Walk(tuple(a + start for a in path.altitudes()))


def walk_to_dyck(walk: Walk) -> Path:
    """Inverse of dyck_to_walk; rejects walks that use loops."""
    if any(m == 0 for m in walk.moves()):
        raise ValueError("walk uses loops; it does not correspond to a Dyck path")
    return Path(walk.moves(), PathKind.DYCK)


def alt_motzkin_to_walk(path: Path, start: int = 0) -> Walk:
    """Closed walk with loops; right moves on even time steps only."""
    if path.kind is not PathKind.ALT_MOTZKIN:
        raise ValueError("expected an alternating Motzkin path")
    if start < 0:
        raise ValueError("start node must be nonnegative")
    return Walk(tuple(a + start for a in path.altitudes()))


def walk_to_alt_motzkin(walk: Walk) -> Path:
    """Inverse of alt_motzkin_to_walk; the parity rule is revalidated."""
    return Path(walk.moves(), PathKind.ALT_MOTZKIN)


@dataclass(frozen=True)
class WalkStatistics:
    """Occupation statistics of a walk, indexed by node label.

    time_at_node has an entry per visited node (0..max), advances_from_node
    stops at max-1 (no walk advances out of its top node), loops_at_node
    counts zero moves and runs 0..max.
    """

    time_at_node: tuple[int, ...]
    advances_from_node: tuple[int, ...]
    loops_at_node: tuple[int, ...]


def walk_statistics(walk: Walk) -> WalkStatistics:
    """Count time steps, advances, and loops per node."""
    top = max(walk.nodes)
    time = [0] * (top + 1)
    advances = [0] * max(top, 0)
    loops = [0] * (top + 1)
    for node in walk.nodes:
        time[node] += 1
    for a, b in zip(walk.nodes, walk.nodes[1:]):
        if b == a + 1:
            advances[a] += 1
        elif b == a:
            loops[a] += 1
    return WalkStatistics(tuple(time), tuple(advances), tuple(loops))


@dataclass(frozen=True)
class WalkIdentitySummary:
    """The two Dyck identities restated for uniform random closed loop-free
    walks of length 2k: total square-average advances into higher nodes and
    total square-average time at a node, with their closed forms."""

    k: int
    square_avg_advances: Fraction
    advances_closed_form: Fraction
    square_avg_time: Fraction
    time_closed_form: Fraction

    @property
    def advances_identity_holds(self) -> bool:
        return self.square_avg_advances == self.advances_closed_form

    @property
    def time_identity_holds(self) -> bool:
        return self.square_avg_time == self.time_closed_form


def walk_identity_summary(k: int) -> WalkIdentitySummary:
    """Exact square-average occupation statistics for walks of length 2k."""
    r1 = verify_thm1(k)
    r2 = verify_thm2(k)
    return WalkIdentitySummary(k, r1.lhs, r1.rhs, r2.lhs, r2.rhs)
