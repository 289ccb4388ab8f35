"""Exact per-altitude path statistics by a transfer-matrix DP.

Every statistic is a sum over all paths of size k.  One forward pass over
(position, altitude) computes them all exactly in polynomial time, the
transfer-matrix method for Motzkin paths (Flajolet, *Combinatorial aspects
of continued fractions*, Discrete Math. 32, 1980).  Each state carries,
summed over the prefixes that reach it, the prefix count, the count X of
every event (a rise from, a vertex at, or an even-step level at altitude i)
and the count of unordered pairs C(X, 2) of those events: marking an event
adds the pair total to its pairs and the prefix count to its total.  The
remaining statistics follow from these:

- R*(2i+3-R) = (2i+2)*R - 2*C(R, 2);
- C(V+1, 2) = V + C(V, 2);
- the weighted sums are linear combinations of the per-altitude rows.

Alternating Motzkin paths are weighted gamma**rises.  The DP carries the
polynomial in gamma packed into one int, coefficient r in bits
[r*W, (r+1)*W) with W wide enough for the largest coefficient, so that a
rise is a shift by W bits and polynomial sums are int sums.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _dyck_rule(s: int) -> tuple[int, ...]:
    return (1, -1)


def _alt_motzkin_rule(s: int) -> tuple[int, ...]:
    # rises only on even steps, falls only on odd steps
    return (0, 1) if s % 2 == 0 else (0, -1)


def _fold(k: int, steps_at, rise_shift: int):
    """Run the DP over paths of length 2k whose step s (1-based) may change
    the altitude by any of ``steps_at(s)``; a rise multiplies the weight by
    2**rise_shift.

    Returns (count, totals, pairs): totals[e][i] and pairs[e][i] sum X and
    C(X, 2) over paths, for the events e = 0 rise from, 1 even-step level
    at and 2 vertex at altitude i, i in 0..k.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    n = 2 * k
    size = 3 * (k + 1)
    rise, level, vertex = 0, k + 1, 2 * (k + 1)
    # altitude -> (prefix count, event totals, event pair totals)
    totals0 = [0] * size
    totals0[vertex] = 1
    states = {0: (1, totals0, [0] * size)}
    for s in range(1, n + 1):
        nxt = {}
        for a, (count, totals, pairs) in states.items():
            for d in steps_at(s):
                b = a + d
                if b < 0 or b > n - s:
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
    count, totals, pairs = states[0]

    def by_event(v):
        return [v[e * (k + 1):(e + 1) * (k + 1)] for e in range(3)]

    return count, by_event(totals), by_event(pairs)


def fold_dyck(k: int) -> DyckFold:
    """Fold per-altitude statistics over all Dyck paths of length 2k."""
    count, (rise, _, vert), (rise_pair, _, vert_pair) = _fold(k, _dyck_rule, 0)
    return DyckFold(
        k,
        count,
        tuple(rise[:k]),
        tuple(vert),
        tuple((2 * i + 2) * rise[i] - 2 * rise_pair[i] for i in range(k)),
        tuple(v + vp for v, vp in zip(vert, vert_pair)),
    )


def fold_alt_motzkin(k: int) -> AltMotzkinFold:
    """Fold rise-resolved statistics over all alternating Motzkin paths of
    length 2k."""
    # a packed coefficient sums at most 4**k paths, each adding at most
    # (2k+1)**2 to any statistic
    width = 2 * k + 2 * (2 * k + 1).bit_length()
    count, (rise, lev, vert), (rise_pair, lev_pair, _) = _fold(k, _alt_motzkin_rule, width)
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
