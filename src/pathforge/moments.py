"""Monte Carlo cross-check of the limiting eigenvalue moments.

Scaled Wigner matrices have even moments converging to Catalan numbers;
Wishart matrices with aspect ratio gamma = m/n have moments converging to
the Narayana polynomial at gamma.  Estimates are averages of normalized
traces of matrix powers over independent seeded trials, so the exact
combinatorial values from ``numeric`` double as statistical targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Union

import numpy as np

from .numeric import catalan, narayana_poly

Exact = Union[int, Fraction]


@dataclass(frozen=True)
class MomentEstimate:
    """A seeded Monte Carlo estimate next to its exact limiting target."""

    ensemble: str
    k: int
    n: int
    m: int | None
    trials: int
    seed: int
    estimate: float
    stderr: float
    target: Exact


def trace_power(matrix: np.ndarray, k: int) -> float:
    """Trace of the k-th power of a square matrix.

    Uses tr(A^k) = sum_ij (A^h)_ij (A^(k-h))_ji with h = k // 2, which holds
    for any square A: only A^h and, for odd k, A^h @ A are formed, and the
    trace of their product is one elementwise sum.  That is about half the
    n-by-n products of forming A^k (k=2: none, k=4: one, k=6: two).

    For k >= 3 an exactly symmetric A (``A == A.T`` entry for entry, as
    both Monte Carlo ensembles are) takes a faster path.  Its powers are
    symmetric, so A^h is built by squarings ``p @ p.T``, which numpy hands
    to BLAS syrk at half the flops of a general product, with one extra
    ``@ A`` for each odd exponent; and the trace sum reads both factors
    in the same order (``np.vdot``) instead of one of them transposed.  Any
    other matrix, one ulp off symmetric included, takes the general path.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    if k < 1:
        raise ValueError(f"power must be positive, got {k}")
    if k == 1:
        return float(matrix.trace())
    if k >= 3 and np.array_equal(matrix, matrix.T):
        half = _symmetric_power(matrix, k // 2)
        rest = half if k % 2 == 0 else half @ matrix
        return float(np.vdot(half, rest))
    half = np.linalg.matrix_power(matrix, k // 2)
    rest = half if k % 2 == 0 else half @ matrix
    return float(np.einsum("ij,ji->", half, rest))


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


def _summarize(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values)
    estimate = float(arr.mean())
    stderr = float(arr.std(ddof=1) / sqrt(len(arr))) if len(arr) > 1 else 0.0
    return estimate, stderr


_MIRROR_BLOCK = 128  # columns per block of the Wigner mirror copy


def _wigner_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """One scaled Wigner trial matrix, exactly symmetric.

    The draws and their order fix the substream: an n-by-n block, whose
    strict upper triangle is kept and mirrored into the lower one in
    place, then the n diagonal entries.  Column block [i, j) takes its
    rows below the block from the transposed rows i..j-1 right of it; the
    two regions share no memory, so numpy copies without the n-by-n
    buffer that ``a += a.T`` needs, and the diagonal block is rebuilt from
    its own upper triangle.
    """
    a = rng.standard_normal((n, n))
    for i in range(0, n, _MIRROR_BLOCK):
        j = min(i + _MIRROR_BLOCK, n)
        a[j:, i:j] = a[i:j, j:].T
        upper = np.triu(a[i:j, i:j], 1)
        a[i:j, i:j] = upper + upper.T
    np.fill_diagonal(a, rng.standard_normal(n))
    a /= sqrt(n)
    return a


def wigner_moment(k: int, n: int, trials: int = 20, seed: int = 0) -> MomentEstimate:
    """Estimate the k-th moment of a scaled symmetric Gaussian matrix.

    Entries are unit Gaussians (independent on and above the diagonal,
    mirrored below), scaled by 1/sqrt(n); each trial contributes
    tr(A^k)/n.  The limit is C_{k/2} for even k and 0 for odd k.

    Each trial matrix is built in place, mirrored block by block from the
    upper triangle of one n-by-n draw, so no second n-by-n array is held
    beside it; being exactly symmetric, it takes ``trace_power``'s syrk
    path for k >= 3.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    values = []
    for trial in range(trials):
        a = _wigner_matrix(_trial_rng(seed, trial), n)
        values.append(trace_power(a, k) / n)
    estimate, stderr = _summarize(values)
    target = catalan(k // 2) if k % 2 == 0 else 0
    return MomentEstimate("wigner", k, n, None, trials, seed, estimate, stderr, target)


def wishart_moment(k: int, n: int, m: int, trials: int = 20, seed: int = 0) -> MomentEstimate:
    """Estimate the k-th moment of a Wishart matrix W = G G^T / n for an
    m-by-n Gaussian G; each trial contributes tr(W^k)/m.

    The limit as m/n -> gamma is the Narayana polynomial at gamma; the
    normalization makes the k=1 target exactly 1.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if n < 2 or m < 2:
        raise ValueError(f"matrix dimensions must be at least 2, got n={n}, m={m}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    values = []
    for trial in range(trials):
        rng = _trial_rng(seed, trial)
        g = rng.standard_normal((m, n))
        w = (g @ g.T) / n
        values.append(trace_power(w, k) / m)
    estimate, stderr = _summarize(values)
    target = narayana_poly(k).evaluate(Fraction(m, n))
    return MomentEstimate("wishart", k, n, m, trials, seed, estimate, stderr, target)
