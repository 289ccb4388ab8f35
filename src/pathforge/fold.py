"""Exact per-altitude path statistics by a transfer-matrix DP.

Every statistic is a sum over all paths of size k.  One forward pass over
(position, altitude) computes them all exactly in polynomial time, the
transfer-matrix method for Motzkin paths (Flajolet, *Combinatorial aspects
of continued fractions*, Discrete Math. 32, 1980).  A path of length 2k is
a prefix that is back at altitude 0 after step 2k, so one pass to length
2K yields every size k <= K, from the altitude-0 state after each even
step: O(K^3) int operations for all of them, where folding each size
apart costs O(K^4).  ``fold_dyck_upto`` and ``fold_alt_motzkin_upto``
yield those folds in order; ``fold_dyck`` and ``fold_alt_motzkin`` are
the last of them.  The steps each position allows come from the step law
in ``paths``, the same table that validates a ``Path``.

Each state carries, summed over the prefixes that reach it, the prefix
count, the count X of every event (a rise from, a vertex at, or an
even-step level at altitude i) and the count of unordered pairs C(X, 2)
of those events: marking an event adds the pair total to its pairs and
the prefix count to its total.  The remaining statistics follow from
these:

- R*(2i+3-R) = (2i+2)*R - 2*C(R, 2);
- C(V+1, 2) = V + C(V, 2);
- the weighted sums are linear combinations of the per-altitude rows.

Alternating Motzkin paths are weighted gamma**rises.  The DP carries the
polynomial in gamma packed into one int, coefficient r in bits
[r*W, (r+1)*W) with W wide enough for the largest coefficient of the
largest size in the pass, so that a rise is a shift by W bits and
polynomial sums are int sums.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator

from .paths import PathKind, fall_room, steps_at

# One implementation; the names stay because benchmark runs record them and
# refuse to compare runs whose backend differs.
BACKEND_NAME = "pure"
HAVE_COMPILED = False


@dataclass(frozen=True)
class DyckFold:
    """Statistics summed over all Dyck paths of length 2k.

    rise_sums[i] is the total number of rises from altitude i,
    vertex_sums[i] the total number of vertices at altitude i,
    rise_open_sums[i] the total of R_i*(2i+3-R_i) and vertex_pair_sums[i]
    the total of C(V_i+1, 2), per path.
    """

    k: int
    count: int
    rise_sums: tuple[int, ...]
    vertex_sums: tuple[int, ...]
    rise_open_sums: tuple[int, ...]
    vertex_pair_sums: tuple[int, ...]


@dataclass(frozen=True)
class AltMotzkinFold:
    """Rise-count-resolved statistics over all alternating Motzkin paths of
    length 2k.  Matrix fields are indexed [altitude][rises]; level statistics
    count even-step level steps only."""

    k: int
    counts_by_rises: tuple[int, ...]
    rise_sums: tuple[tuple[int, ...], ...]
    vertex_sums: tuple[tuple[int, ...], ...]
    level_sums: tuple[tuple[int, ...], ...]
    weighted_rise_sums: tuple[int, ...]
    weighted_level_sums: tuple[int, ...]
    rise_pair_sums: tuple[int, ...]
    level_pair_sums: tuple[int, ...]

    @property
    def count(self) -> int:
        return sum(self.counts_by_rises)


def _fold_upto(k_max: int, kind: PathKind, rise_shift: int):
    """Run the DP over paths of the kind of length up to 2*k_max, each step
    s (1-based) one of ``paths.steps_at(kind, s)``; a rise multiplies the
    weight by 2**rise_shift.

    Yields (k, count, totals, pairs) for k = 0..k_max, from the altitude-0
    state after step 2k: totals[e][i] and pairs[e][i] sum X and C(X, 2)
    over paths of length 2k, for the events e = 0 rise from, 1 even-step
    level at and 2 vertex at altitude i, i in 0..k_max.  A state is kept
    only while the falls the law still allows can bring it back to 0 by
    step 2*k_max, which keeps every path that returns by an earlier even
    step.
    """
    if k_max < 0:
        raise ValueError(f"k must be nonnegative, got {k_max}")
    n = 2 * k_max
    room = fall_room(kind, n)
    size = 3 * (k_max + 1)
    rise, level, vertex = 0, k_max + 1, 2 * (k_max + 1)

    def snapshot(k):
        # the altitude-0 state, its rows cut to altitudes 0..k: the only
        # ones a path of length 2k reaches
        count, totals, pairs = states[0]
        rows = [slice(e * (k_max + 1), e * (k_max + 1) + k + 1) for e in range(3)]
        return k, count, [totals[r] for r in rows], [pairs[r] for r in rows]

    # altitude -> (prefix count, event totals, event pair totals)
    totals0 = [0] * size
    totals0[vertex] = 1
    states = {0: (1, totals0, [0] * size)}
    yield snapshot(0)
    for s in range(1, n + 1):
        nxt = {}
        allowed = steps_at(kind, s)
        for a, (count, totals, pairs) in states.items():
            for d in allowed:
                b = a + d
                if b < 0 or b > room[s]:
                    continue
                t, p = totals[:], pairs[:]
                marks = [vertex + b]
                if d == 1:
                    marks.append(rise + a)
                elif d == 0 and s % 2 == 0:
                    marks.append(level + a)
                for j in marks:
                    p[j] += t[j]
                    t[j] += count
                shift = rise_shift if d == 1 else 0
                if shift:
                    t = [x << shift for x in t]
                    p = [x << shift for x in p]
                count_b = count << shift
                old = nxt.get(b)
                if old is None:
                    nxt[b] = (count_b, t, p)
                else:
                    nxt[b] = (
                        old[0] + count_b,
                        [x + y for x, y in zip(old[1], t)],
                        [x + y for x, y in zip(old[2], p)],
                    )
        states = nxt
        if s % 2 == 0:
            yield snapshot(s // 2)


def _dyck_fold(snapshot) -> DyckFold:
    k, count, (rise, _, vert), (rise_pair, _, vert_pair) = snapshot
    return DyckFold(
        k,
        count,
        tuple(rise[:k]),
        tuple(vert),
        tuple((2 * i + 2) * rise[i] - 2 * rise_pair[i] for i in range(k)),
        tuple(v + vp for v, vp in zip(vert, vert_pair)),
    )


def _alt_motzkin_width(k_max: int) -> int:
    # a packed coefficient sums at most 4**k_max paths, each adding at most
    # (2k_max+1)**2 to any statistic
    return 2 * k_max + 2 * (2 * k_max + 1).bit_length()


def _alt_motzkin_fold(snapshot, width: int) -> AltMotzkinFold:
    k, count, (rise, lev, vert), (rise_pair, lev_pair, _) = snapshot
    nr = max(k, 1)
    mask = (1 << width) - 1

    def unpack(x: int) -> tuple[int, ...]:
        return tuple((x >> (r * width)) & mask for r in range(nr))

    return AltMotzkinFold(
        k,
        unpack(count),
        tuple(unpack(x) for x in rise[:k]),
        tuple(unpack(x) for x in vert),
        tuple(unpack(x) for x in lev[:k]),
        unpack(sum((i + 1) * rise[i] for i in range(k))),
        unpack(sum(i * lev[i] for i in range(k))),
        unpack(sum(rise_pair[:k])),
        unpack(sum(lev_pair[:k])),
    )


def _last(snapshots):
    return deque(snapshots, maxlen=1)[0]


def fold_dyck_upto(k_max: int) -> Iterator[DyckFold]:
    """Yield the fold of every size k = 0..k_max, in order, from one DP pass
    to length 2*k_max; each size's fold is yielded as soon as the pass has
    reached step 2k."""
    return map(_dyck_fold, _fold_upto(k_max, PathKind.DYCK, 0))


def fold_alt_motzkin_upto(k_max: int) -> Iterator[AltMotzkinFold]:
    """Yield the rise-resolved fold of every size k = 0..k_max, in order,
    from one DP pass to length 2*k_max, as fold_dyck_upto does."""
    width = _alt_motzkin_width(k_max)
    return (_alt_motzkin_fold(s, width) for s in _fold_upto(k_max, PathKind.ALT_MOTZKIN, width))


def fold_dyck(k: int) -> DyckFold:
    """Fold per-altitude statistics over all Dyck paths of length 2k: the
    last fold of fold_dyck_upto(k)."""
    return _dyck_fold(_last(_fold_upto(k, PathKind.DYCK, 0)))


def fold_alt_motzkin(k: int) -> AltMotzkinFold:
    """Fold rise-resolved statistics over all alternating Motzkin paths of
    length 2k: the last fold of fold_alt_motzkin_upto(k), with only that
    one unpacked."""
    width = _alt_motzkin_width(k)
    return _alt_motzkin_fold(_last(_fold_upto(k, PathKind.ALT_MOTZKIN, width)), width)
