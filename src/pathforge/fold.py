"""Exact per-altitude path statistics by a transfer-matrix DP.

Every statistic is a sum over all paths of size k.  One forward pass over
(position, altitude) computes them all exactly in polynomial time, the
transfer-matrix method for Motzkin paths (Flajolet, *Combinatorial aspects
of continued fractions*, Discrete Math. 32, 1980).  A path of length 2k is
a prefix that is back at altitude 0 after step 2k, so one pass to length
2K yields every size k <= K, from the altitude-0 state after each even
step: O(K^3) int operations for all of them, where folding each size
apart costs O(K^4).  ``fold_upto`` yields those folds in order, and is the
only way to fold: the fold of size k is the last item of a pass to k.
The steps each position allows come from the step law in ``paths``, the
same table that validates a ``Path``.

A fold carries two events, the ones the identities read: rises from
altitude i, and either vertices at i (Dyck paths) or even-step level
steps at i (alternating Motzkin paths, the kind whose law allows level
steps).  Each state carries, summed over the prefixes that reach it, the
prefix count, the count X_i of each event at every altitude i, and one
total of C(X_i, 2) over the altitudes per event: marking an event at i
adds its count at i to the pair total, then the prefix count to its
count at i.

Alternating Motzkin paths are weighted gamma**rises.  The DP carries the
polynomial in gamma packed into one int, coefficient r in bits
[r*W, (r+1)*W) with W wide enough for the largest coefficient of the
largest size in the pass, so that a rise is a shift by W bits and
polynomial sums are int sums; each fold unpacks its values once.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Union

from .numeric import GammaPoly, _check_size
from .paths import LEVEL, RISE, PathKind, _check_kind, fall_room, steps_at

Value = Union[int, GammaPoly]


class Fold(NamedTuple):
    """Statistics summed over all paths of one kind of length 2k.

    rises[i] totals the rises from altitude i (i < k).  others[i] totals
    the kind's second event: vertices at altitude i (i <= k) of Dyck
    paths, or even-step level steps at altitude i (i < k) of alternating
    Motzkin paths.  rise_pairs and other_pairs total C(X_i, 2) over every
    altitude i and path, X_i the event's count at i on that path.  Dyck
    values are ints; alternating Motzkin values are ``GammaPoly``s, each
    path weighted gamma**rises.
    """

    k: int
    count: Value
    rises: tuple[Value, ...]
    others: tuple[Value, ...]
    rise_pairs: Value
    other_pairs: Value


def _alt_motzkin_width(k_max: int) -> int:
    # a packed coefficient sums at most 4**k_max paths, each adding at most
    # (2k_max+1)**2 to any statistic; a pair total summed over altitudes
    # stays below that, at most C(2k_max+1, 2) pairs of a path's events
    return 2 * k_max + 2 * (2 * k_max + 1).bit_length()


def fold_upto(kind: PathKind, k_max: int) -> Iterator[Fold]:
    """Yield the fold of every size k = 0..k_max of the kind, in order,
    from one DP pass to length 2*k_max, each step s (1-based) one of
    ``paths.steps_at(kind, s)``; each size's fold is yielded as soon as
    the pass has reached step 2k.  A state is kept only while the falls
    the law still allows can bring it back to 0 by step 2*k_max, which
    keeps every path that returns by an earlier even step.  Raises at the
    call, not at the first item, on a kind or a k_max it cannot take.
    """
    _check_kind(kind)
    _check_size(k_max)
    return _one_pass(kind, k_max)


def _one_pass(kind: PathKind, k_max: int) -> Iterator[Fold]:
    n = 2 * k_max
    room = fall_room(kind, n)
    levels = LEVEL in steps_at(kind, 2)
    shift = _alt_motzkin_width(k_max) if levels else 0
    # a state: [prefix count, rise pairs, other pairs, rises from altitude
    # 0..k_max, others at altitude 0..k_max]
    rise, other = 3, 3 + k_max + 1
    if shift:
        mask = (1 << shift) - 1

        def value(x):
            # up to the packed int's own degree, so no coefficient is a trailing zero
            return GammaPoly([(x >> r) & mask for r in range(0, x.bit_length(), shift)])
    else:
        value = int

    def snapshot(k):
        # the altitude-0 state, its rows cut to the altitudes a path of
        # length 2k reaches: a vertex may sit at k, a step starts below it
        v = states[0]
        top = k if levels else k + 1
        return Fold(k, value(v[0]), tuple(map(value, v[rise:rise + k])),
                    tuple(map(value, v[other:other + top])), value(v[1]), value(v[2]))

    start = [1] + [0] * (2 * k_max + 4)
    if not levels:
        start[other] = 1  # the vertex before the first step
    states = {0: start}
    yield snapshot(0)
    for s in range(1, n + 1):
        nxt = {}
        allowed = steps_at(kind, s)
        for a, v in states.items():
            for d in allowed:
                b = a + d
                if b < 0 or b > room[s]:
                    continue
                # (pair total, event count) slots the step marks
                marks = [(1, rise + a)] if d == RISE else []
                if not levels:
                    marks.append((2, other + b))
                elif d == LEVEL and s % 2 == 0:
                    marks.append((2, other + a))
                t = v[:]
                for p, j in marks:
                    t[p] += t[j]
                    t[j] += t[0]
                if d == RISE and shift:
                    t = [x << shift for x in t]
                old = nxt.get(b)
                nxt[b] = t if old is None else [x + y for x, y in zip(old, t)]
        states = nxt
        if s % 2 == 0:
            yield snapshot(s // 2)
