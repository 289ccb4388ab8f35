"""Monte Carlo cross-check of the limiting eigenvalue moments.

Scaled Wigner matrices have even moments converging to Catalan numbers;
Wishart matrices with aspect ratio gamma = m/n have moments converging to
the Narayana polynomial at gamma.  Estimates are averages of normalized
traces of matrix powers over independent seeded trials, so the exact
combinatorial values from ``numeric`` double as statistical targets.

A trial draws only what its law reads: a Wigner trial the n(n+1)/2
entries on and above the diagonal, and a Wishart trial the 2p - 1 chi
variables of the beta = 1 Laguerre tridiagonal model, p = min(m, n),
whose trace power is a sum over half-line walks.  A Wigner trial holds
its symmetric matrix as its top n // 2 rows and its trailing diagonal
block, about 3n^2/4 floats, and takes its traces and powers block by
block: no n-by-n array is ever formed.
"""

from __future__ import annotations

from fractions import Fraction
import sys
from math import frexp, sqrt
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .numeric import Scalar, _check_size, catalan, narayana_poly


class MomentEstimate(NamedTuple):
    """A seeded Monte Carlo estimate next to its exact limiting target."""

    ensemble: str
    k: int
    n: int
    m: int | None
    trials: int
    seed: int
    estimate: float
    stderr: float
    target: Scalar


def _wigner_trace(a: tuple[np.ndarray, np.ndarray], k: int) -> float:
    """tr(A^k) for a Wigner trial matrix A, exactly symmetric, in the block
    form of ``_wigner_matrix``: its top rows [A11 | C] and its block A22.

    k = 1 is the trace and k = 2 the sum of A times A^T entry by entry,
    ||A11||^2 + 2 ||C||^2 + ||A22||^2.  For k >= 3, tr(A^k) is the inner product of
    A^ceil(k/2) and A^floor(k/2), and A^ceil(k/2) is never formed: it is
    X Y^T, with X = A^ceil(h/2) and Y = A^floor(h/2) for even k = 2h (the
    other factor is X Y^T again), and X = A^h and Y = A for odd
    k = 2h + 1.  ``_inner`` sums it block by block, one row panel of 128
    rows at a time, and the powers X and Y are built in block form by
    ``_product``.  At k = 3 and 4 nothing beside the matrix is held but
    a few panels of 128 rows by n - n // 2 columns, at n^3 flops; k = 5,
    6 and 8 cost 2 n^3.
    """
    a11, c, a22 = _blocks(a)
    if k == 1:
        # one sum over the whole diagonal, in order: the bits of A's trace
        return float(np.concatenate((a11.diagonal(), a22.diagonal())).sum())
    if k == 2:
        return float(np.einsum("ij,ij->", a11, a11) + 2 * np.einsum("ij,ij->", c, c)
                     + np.einsum("ij,ij->", a22, a22))
    h = k // 2
    if k % 2:
        half = _symmetric_power(a, h)
        return _inner(half, a, half)
    y = _symmetric_power(a, h // 2)
    x = y if h % 2 == 0 else _product(y, a)
    return _inner(x, y)


_BLOCK = 128  # rows or columns per block: the Wigner mirror and the trace panels


def _blocks(a):
    # the views A11, C and A22 of A's block form (top, A22), top = [A11 | C]
    top, a22 = a
    n1 = len(top)
    return top[:, :n1], top[:, n1:], a22


def _block_terms(x, y):
    # the blocks P11, P12 and P22 of P = X Y^T, for symmetric X and Y in
    # block form, each a list of pairs (l, r) whose l @ r.T it sums:
    # P11 = X11 Y11^T + X12 Y12^T, P12 = X11 Y12 + X12 Y22^T and
    # P22 = X12^T Y12 + X22 Y22^T, X21 being X12^T
    (x11, c_x, x22), (_, c_y, y22) = _blocks(x), _blocks(y)
    return [(x[0], y[0])], [(x11, c_y.T), (c_x, y22)], [(c_x.T, c_y.T), (x22, y22)]


def _sum_of_products(pairs, out=None) -> np.ndarray:
    # the sum of l @ r.T over the pairs, into out (a new array if None); each
    # product with l and r on one buffer, as when X is Y, runs as syrk
    (l, r), *rest = pairs
    out = np.matmul(l, r.T, out=out)
    for l, r in rest:
        out += l @ r.T
    return out


def _product(x, y) -> tuple[np.ndarray, np.ndarray]:
    # X Y^T in block form, for symmetric X and Y in it
    p11, p12, p22 = _block_terms(x, y)
    n1 = len(x[0])
    top = np.empty(x[0].shape)
    _sum_of_products(p11, top[:, :n1])
    _sum_of_products(p12, top[:, n1:])
    return top, _sum_of_products(p22)


def _inner(x, y, w=None) -> float:
    # <X Y^T, W> for symmetric X Y^T and W (None: X Y^T) in block form, as
    # <P11, W11> + 2 <P12, W12> + <P22, W22>, one row panel of a block P at
    # a time.  P11 and P22 are symmetric, so their panels are P[i:j, i:],
    # counted twice less their diagonal block: the upper triangle, each
    # entry right of the diagonal standing for its mirror too
    total = 0.0
    w_blocks = (None,) * 3 if w is None else _blocks(w)
    for terms, w_block, upper in zip(_block_terms(x, y), w_blocks, (True, False, True)):
        rows = len(terms[0][0])
        for i in range(0, rows, _BLOCK):
            j = min(i + _BLOCK, rows)
            c = i if upper else 0
            panel = _sum_of_products([(l[i:j], r[c:]) for l, r in terms])
            v = panel if w_block is None else w_block[i:j, c:]
            total += 2 * np.vdot(v, panel)
            if upper:
                total -= np.vdot(v[:, : j - i], panel[:, : j - i])
            del panel, v  # else the next panel is formed beside this one
    return float(total)


def _symmetric_power(matrix, h: int):
    # A^h in block form, for a symmetric A in it: each intermediate p is a
    # power of A, and in the square p p^T each product of a block with its
    # own transpose runs as syrk; p is dropped before the odd exponent's
    # product, so A, the square and that product are the most powers held
    if h == 1:
        return matrix
    p = _symmetric_power(matrix, h // 2)
    square = _product(p, p)
    del p
    return _product(square, matrix) if h % 2 else square


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    # independent, reproducible substream per (seed, trial)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


def _estimate(ensemble, k, n, m, trials, seed, trace, size, target) -> MomentEstimate:
    # tr(A^k)/size, one trace(rng) per (seed, trial) substream; a trial's
    # arrays are freed before the next one draws
    values = np.array([trace(_trial_rng(seed, t)) / size for t in range(trials)])
    # the statistics are taken on values / 2**e, e the exponent of the
    # largest |value|, and scaled back: a power of two changes no bit, and
    # squared deviations and sums of values near the largest float stay finite
    e = frexp(np.abs(values).max())[1]
    values = np.ldexp(values, -e)
    stderr = float(np.ldexp(values.std(ddof=1) / sqrt(trials), e)) if trials > 1 else 0.0
    return MomentEstimate(ensemble, k, n, m, trials, seed, float(np.ldexp(values.mean(), e)),
                          stderr, target)


def _wigner_matrix(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """One scaled Wigner trial matrix A, exactly symmetric, in block form.

    With n1 = n // 2, A is held as its first n1 rows, top = [A11 | C]
    (n1-by-n), and its trailing block A22 (n - n1 square): its other rows
    are [C^T | A22], so C^T is never stored, and A takes about 3n^2/4
    floats.  The draws and their order fix the substream: row i's entries
    on and right of the diagonal, for i = 0..n-1, drawn straight into top
    or A22, n(n+1)/2 normals in all.  Then the upper triangles of A11 and
    A22 are mirrored into their lower ones in place: column block [i, j)
    takes its rows below the block from the transposed rows i..j-1 right
    of it; the two regions share no memory, so numpy copies without a
    buffer the size of the block, and the diagonal block takes its strict
    lower triangle from its own upper one.
    """
    n1 = n // 2
    top, a22 = np.empty((n1, n)), np.empty((n - n1, n - n1))
    for part in (top, a22):
        for i, row in enumerate(part):
            rng.standard_normal(out=row[i:])
    for block in (top[:, :n1], a22):
        for i in range(0, len(block), _BLOCK):
            j = min(i + _BLOCK, len(block))
            block[j:, i:j] = block[i:j, j:].T
            diagonal = block[i:j, i:j]
            np.copyto(diagonal, np.triu(diagonal, 1).T, where=np.tri(j - i, k=-1, dtype=bool))
    top /= sqrt(n)
    a22 /= sqrt(n)
    return top, a22


def wigner_moment(k: int, n: int, trials: int = 20, seed: int = 0) -> MomentEstimate:
    """Estimate the k-th moment of a scaled symmetric Gaussian matrix.

    Entries are unit Gaussians (independent on and above the diagonal,
    mirrored below), scaled by 1/sqrt(n); each trial contributes
    tr(A^k)/n.  The limit is C_{k/2} for even k and 0 for odd k.

    Each trial matrix is drawn row by row on and above its diagonal into
    its block form, its top n // 2 rows and its trailing diagonal block,
    and its diagonal blocks are mirrored in place; it goes straight into
    ``_wigner_trace``, so it is freed before the next trial draws.  A
    trial holds those two arrays, about 3n^2/4 floats, and a few 128-row
    panels at k = 3 and 4, and k = 6 costs 2 n^3 flops.
    """
    _check_size(k, 1)
    _check_size(n, 2, "n")
    _check_size(trials, 1, "trials")
    _check_size(seed, 0, "seed")
    target = catalan(k // 2) if k % 2 == 0 else 0
    return _estimate("wigner", k, n, None, trials, seed,
                     lambda rng: _wigner_trace(_wigner_matrix(rng, n), k), n, target)


def _laguerre_tridiagonal(rng: np.random.Generator, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal and off-diagonal of one Wishart trial's T = B B^T / n.

    B is the p-by-p lower bidiagonal matrix of the beta = 1 Laguerre model
    (Dumitriu and Edelman, J. Math. Phys. 43, 2002), p = min(m, n) and
    q = max(m, n): x_i ~ chi_{q-i} on the diagonal, i = 0..p-1, drawn
    first, then y_i ~ chi_{p-1-i} below it, i = 0..p-2, one ``chisquare``
    call each.  G G^T for an m-by-n Gaussian G has the eigenvalues of
    B B^T when m <= n, and shares its nonzero ones with G^T G when m > n,
    so tr((G G^T / n)^k) and tr(T^k) have one law.  T is tridiagonal, with
    diagonal (x_i^2 + y_{i-1}^2)/n and off-diagonal x_i y_i / n.
    """
    p, q = min(m, n), max(m, n)
    x2 = rng.chisquare(q - np.arange(p, dtype=float)) / n  # float: q may pass int64
    y2 = rng.chisquare(np.arange(p - 1, 0, -1)) / n
    off = np.sqrt(x2[:-1] * y2)
    x2[1:] += y2
    return x2, off


_BAND_CELLS = 1 << 15  # band cells per block of rows in a Wishart walk, 256 KiB


def _walk_trace(diagonal: np.ndarray, off: np.ndarray, k: int) -> float:
    """tr(T^k) for the symmetric tridiagonal T with this diagonal and
    off-diagonal: the sum, over closed walks of length k on 0..p-1 (the
    half-line walk), of the products of the entries they step along.

    Row i of T^t is held in band form, band[w + s, i] = (T^t)[i, i + s],
    with w = min(ceil(k/2), p - 1): T^t reaches no further than t off the
    diagonal, nor past p - 1.  Each step right-multiplies by T, a few
    elementwise products along the band's rows, and T^0 is the identity.
    Then tr(T^k) = <T^ceil(k/2), T^floor(k/2)>, as both are symmetric.
    Row i of T^t is e_i^T T^t, which needs no other row, so the rows are
    taken in blocks of about ``_BAND_CELLS`` band cells: a trial holds a
    few blocks beside its p-long arrays, whatever p is.
    """
    p = len(diagonal)
    w = min((k + 1) // 2, p - 1)
    # d_band[c, i] = T[j, j] and e_band[c, i] = T[j, j + 1] for j = i + c - w,
    # 0 where j is off the matrix: windows over zero-padded copies
    d_pad = np.zeros(p + 2 * w)
    d_pad[w:w + p] = diagonal
    e_pad = np.zeros(p + 2 * w - 1)
    e_pad[w:w + p - 1] = off
    d_band = sliding_window_view(d_pad, p)
    e_band = sliding_window_view(e_pad, p)
    rows = max(1, _BAND_CELLS // (2 * w + 1))
    total = 0.0
    for i in range(0, p, rows):
        d, e = d_band[:, i:i + rows], e_band[:, i:i + rows]
        band = np.zeros(d.shape)
        band[w] = 1.0
        for _ in range(k // 2):
            band = _band_step(band, d, e)
        total += np.vdot(band, band if k % 2 == 0 else _band_step(band, d, e))
    return float(total)


def _band_step(band: np.ndarray, d: np.ndarray, e: np.ndarray) -> np.ndarray:
    # (T^t T)[i, j] = (T^t)[i, j] T[j, j] + (T^t)[i, j - 1] T[j - 1, j]
    #               + (T^t)[i, j + 1] T[j + 1, j]
    out = band * d
    out[1:] += band[:-1] * e
    out[:-1] += band[1:] * e
    return out


def wishart_moment(k: int, n: int, m: int, trials: int = 20, seed: int = 0) -> MomentEstimate:
    """Estimate the k-th moment of a Wishart matrix W = G G^T / n for an
    m-by-n Gaussian G; each trial contributes tr(W^k)/m.

    The limit as m/n -> gamma is the Narayana polynomial at gamma; the
    normalization makes the k=1 target exactly 1.

    A trial draws no G: tr(W^k) has the law of tr(T^k) for the tridiagonal
    T of the beta = 1 Laguerre model, with p = min(m, n) rows, so it costs
    2p chi draws and about p k^2 / 2 band cells, and holds a few p-long
    arrays and a few blocks of band cells, at any m and n.  T is scaled
    by 1/n before its powers are taken, so a large k overflows to a value
    that is not finite, never to an ``OverflowError``; m and n must be
    floats too, as the chi degrees and the scale are.
    """
    _check_size(k, 1)
    _check_size(n, 2, "n")
    _check_size(m, 2, "m")
    _check_size(trials, 1, "trials")
    _check_size(seed, 0, "seed")
    if max(m, n) > sys.float_info.max:
        raise ValueError("m and n must be at most the largest float, about 1.8e308")
    target = narayana_poly(k).evaluate(Fraction(m, n))
    return _estimate("wishart", k, n, m, trials, seed,
                     lambda rng: _walk_trace(*_laguerre_tridiagonal(rng, m, n), k), m, target)
