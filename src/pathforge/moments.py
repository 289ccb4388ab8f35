"""Monte Carlo cross-check of the limiting eigenvalue moments.

Scaled Wigner matrices have even moments converging to Catalan numbers;
Wishart matrices with aspect ratio gamma = m/n have moments converging to
the Narayana polynomial at gamma.  Estimates are averages of normalized
traces of matrix powers over independent seeded trials, so the exact
combinatorial values from ``numeric`` double as statistical targets.

A trial draws only what its law reads: a Wigner trial the n(n+1)/2
entries on and above the diagonal, and a Wishart trial the 2p - 1 chi
variables of the beta = 1 Laguerre tridiagonal model, p = min(m, n),
whose trace power is a sum over half-line walks.
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


def _wigner_trace(a: np.ndarray, k: int) -> float:
    """tr(A^k) for a Wigner trial matrix A, which is exactly symmetric.

    k = 1 is the trace and k = 2 the sum of A times A^T entry by entry.
    For k >= 3 the powers of A are symmetric, so they are built by squarings
    ``p @ p.T``, which numpy hands to BLAS syrk at half the flops of a
    general product, with one extra ``@ A`` for each odd exponent.  Then
    tr(A^k) is the inner product of A^ceil(k/2) and A^floor(k/2), and
    A^ceil(k/2) is never formed: it is X Y^T, with X = A^ceil(h/2) and
    Y = A^floor(h/2) for even k = 2h (the other factor is X Y^T again),
    and X = A^h and Y = A for odd k = 2h + 1.  One kernel sums the product
    over the upper triangle of X Y^T, one row panel of 128 rows at a time.
    At k = 3 and 4 nothing beside the matrix is held but that 128-by-n
    panel, at n^3 flops; k = 5, 6 and 8 cost 2 n^3.
    """
    if k == 1:
        return float(a.trace())
    if k == 2:
        return float(np.einsum("ij,ji->", a, a))
    h = k // 2
    if k % 2:
        half = _symmetric_power(a, h)
        return _upper_inner(half, a, half)
    y = _symmetric_power(a, h // 2)
    # y @ a.T is y @ a for a symmetric a; at k = 6, where y is a itself,
    # numpy runs it as syrk
    x = y if h % 2 == 0 else y @ a.T
    return _upper_inner(x, y)


_BLOCK = 128  # rows or columns per block: the Wigner mirror and the trace panels


def _upper_inner(x: np.ndarray, y: np.ndarray, w: np.ndarray | None = None) -> float:
    # <x @ y.T, w> for symmetric x @ y.T and w (None: x @ y.T), summed over the
    # upper triangle: panel P = (x @ y.T)[i:j, i:] against w's counts its
    # diagonal block once and the rest, which mirrors the part left of it, twice
    total = 0.0
    for i in range(0, x.shape[0], _BLOCK):
        j = min(i + _BLOCK, x.shape[0])
        panel = x[i:j] @ y[i:].T
        v = panel if w is None else w[i:j, i:]
        total += 2 * np.vdot(v, panel) - np.vdot(v[:, : j - i], panel[:, : j - i])
        del panel, v  # else the next panel is formed beside this one
    return float(total)


def _symmetric_power(matrix: np.ndarray, h: int) -> np.ndarray:
    # A^h for a symmetric A: each intermediate p is a power of A, so p.T is
    # p up to rounding and the squaring p @ p.T runs as syrk
    if h == 1:
        return matrix
    p = _symmetric_power(matrix, h // 2)
    square = p @ p.T
    return square @ matrix if h % 2 else square


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


def _wigner_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """One scaled Wigner trial matrix, exactly symmetric.

    The draws and their order fix the substream: row i's entries on and
    right of the diagonal, a[i, i:], for i = 0..n-1, drawn straight into
    the n-by-n array, n(n+1)/2 normals in all.  Then the upper triangle
    is mirrored into the lower one in place: column block [i, j) takes
    its rows below the block from the transposed rows i..j-1 right of it;
    the two regions share no memory, so numpy copies without the n-by-n
    buffer that ``a += a.T`` needs, and the diagonal block takes its
    strict lower triangle from its own upper one.
    """
    a = np.empty((n, n))
    for i in range(n):
        rng.standard_normal(out=a[i, i:])
    for i in range(0, n, _BLOCK):
        j = min(i + _BLOCK, n)
        a[j:, i:j] = a[i:j, j:].T
        block = a[i:j, i:j]
        np.copyto(block, np.triu(block, 1).T, where=np.tri(j - i, k=-1, dtype=bool))
    a /= sqrt(n)
    return a


def wigner_moment(k: int, n: int, trials: int = 20, seed: int = 0) -> MomentEstimate:
    """Estimate the k-th moment of a scaled symmetric Gaussian matrix.

    Entries are unit Gaussians (independent on and above the diagonal,
    mirrored below), scaled by 1/sqrt(n); each trial contributes
    tr(A^k)/n.  The limit is C_{k/2} for even k and 0 for odd k.

    Each trial matrix is drawn row by row on and above its diagonal and
    mirrored in place, block by block, and goes straight into
    ``_wigner_trace``, so it is freed before the next trial draws: a
    trial holds one n-by-n array and a 128-row panel at k = 3 and 4, and
    k = 6 costs 2 n^3 flops.
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
