"""Scalar statistics: Spearman rho, Pearson r, Kendall tau-b, Welch's
t-test, and quintile relative-F overlap between two score vectors, plus
the two kernels every rank statistic of the toolkit goes through.

Spearman is computed as Pearson over average ranks, which is exact under
ties (human 0-10 scores tie heavily); the 1 - 6*sum(d^2)/... shortcut is
not used because it is invalid under ties. ``column_ranks`` ranks the
columns of a matrix, 256 at a time, with one row-wise argsort over the
transposed block, one flat pass over the tie groups and one scatter back.
Average ranks are half-integers, so it equals
``scipy.stats.rankdata(axis=0)`` bit for bit, and every sum of centred
ranks is exact, whatever its order. ``quintile_overlaps`` gives, column
by column, the share of each rank block that two score matrices put in
the same block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from .errors import ArgumentError, ConstantInputError, DegenerateError, \
    ValidationError

# Columns ranked per block. Each temporary of a block then stays near
# 100 KB and the allocator reuses its memory; a temporary the size of a
# whole 50 x 1716 matrix is mapped afresh on every call, and its page
# faults cost about as much as the ranking itself.
_RANK_BLOCK = 256

# Positions Kendall's tau-b compares per block against every later
# position: its temporaries are then 256 x n, not n x n.
_PAIR_BLOCK = 256


@dataclass(frozen=True)
class WelchResult:
    t_statistic: float
    degrees_of_freedom: float
    p_value: float  # two-sided


@dataclass(frozen=True)
class QuintileOverlap:
    f_scores: tuple[float, ...]


def _paired(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ArgumentError("inputs must be 1-d sequences of equal length")
    if len(x) < 2:
        raise ArgumentError("need at least 2 observations")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValidationError("inputs must be finite")
    return x, y


def column_ranks(x: np.ndarray) -> np.ndarray:
    """Average ranks (1-based, ties share the mean of their positions) of
    every column of an n x m matrix, equal to ``rankdata(x, axis=0)``."""
    n, m = x.shape
    ranks = np.empty((m, n))
    for lo in range(0, m, _RANK_BLOCK):
        rows = np.ascontiguousarray(x[:, lo:lo + _RANK_BLOCK].T)
        _rank_rows(rows, out=ranks[lo:lo + _RANK_BLOCK])
    return ranks.T


def _rank_rows(rows: np.ndarray, out: np.ndarray) -> None:
    """Average ranks within each row of a C-contiguous matrix."""
    m, n = rows.shape
    # one argsort over all rows; flat indices address the matrix as one
    # array of m runs of n sorted values
    offsets = np.arange(0, m * n, n)[:, None]
    flat = (rows.argsort(axis=1) + offsets).ravel()
    ordered = rows.ravel()[flat]
    # a tie group starts at every run start and at every change of value
    starts = np.empty(m * n, dtype=bool)
    starts[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    starts[::n] = True
    first = np.flatnonzero(starts)
    last = np.append(first[1:], m * n) - 1
    # mean of the group's flat 1-based positions; subtracting the run's
    # offset makes it a rank within the row. Every value is a small
    # half-integer, so all of this is exact.
    mean_position = (first + last) / 2 + 1
    # cumsum over an integer copy: on a bool array it is over twice as slow
    group = starts.astype(np.intp).cumsum() - 1
    ranks = np.empty(m * n)
    ranks[flat] = mean_position[group]
    np.subtract(ranks.reshape(m, n), offsets, out=out)


def pearson(x, y) -> float:
    x, y = _paired(x, y)
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt(np.dot(xc, xc) * np.dot(yc, yc))
    if denom == 0.0:
        raise ConstantInputError(
            "correlation undefined: at least one input is constant"
        )
    return float(np.clip(np.dot(xc, yc) / denom, -1.0, 1.0))


def spearman(x, y) -> float:
    x, y = _paired(x, y)
    rx, ry = column_ranks(np.column_stack((x, y))).T
    return pearson(rx, ry)


def kendall_tau_b(x, y) -> float:
    """(concordant - discordant) / sqrt((n0 - tx)(n0 - ty)) via explicit
    pairwise sign comparison, ``_PAIR_BLOCK`` positions at a time. The
    tallies are integers, so the result does not depend on the blocks."""
    x, y = _paired(x, y)
    n = len(x)
    concordant_minus_discordant = ties_x = ties_y = 0
    for lo in range(0, n - 1, _PAIR_BLOCK):
        hi = min(lo + _PAIR_BLOCK, n - 1)
        # rows lo..hi-1 against positions lo+1..n-1, keeping j > i
        later = np.arange(lo + 1, n) > np.arange(lo, hi)[:, None]
        sx = np.sign(x[lo + 1:] - x[lo:hi, None])[later]
        sy = np.sign(y[lo + 1:] - y[lo:hi, None])[later]
        agree = sx * sy
        concordant_minus_discordant += (np.count_nonzero(agree > 0)
                                        - np.count_nonzero(agree < 0))
        ties_x += np.count_nonzero(sx == 0)
        ties_y += np.count_nonzero(sy == 0)
    n0 = n * (n - 1) // 2
    denom = np.sqrt(float(n0 - ties_x) * float(n0 - ties_y))
    if denom == 0.0:
        raise ConstantInputError(
            "tau-b undefined: all pairs tied on at least one input"
        )
    return float(np.clip(concordant_minus_discordant / denom, -1.0, 1.0))


def student_t_sf(t: float, df: float) -> float:
    """P(T > t) for Student's t with df degrees of freedom, via the
    regularized incomplete beta function."""
    if df <= 0:
        raise ArgumentError("degrees of freedom must be positive")
    x = df / (df + t * t)
    tail = 0.5 * betainc(df / 2.0, 0.5, x)
    return tail if t >= 0 else 1.0 - tail


def welch_t_test(a, b) -> WelchResult:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) < 2 or len(b) < 2:
        raise ArgumentError("Welch's t-test needs >= 2 observations per side")
    va = a.var(ddof=1)
    vb = b.var(ddof=1)
    if va == 0.0 and vb == 0.0:
        raise DegenerateError("both samples have zero variance")
    sa = va / len(a)
    sb = vb / len(b)
    t = (a.mean() - b.mean()) / np.sqrt(sa + sb)
    df = (sa + sb) ** 2 / (
        sa**2 / (len(a) - 1) + sb**2 / (len(b) - 1)
    )
    p = 2.0 * student_t_sf(abs(float(t)), float(df))
    return WelchResult(
        t_statistic=float(t),
        degrees_of_freedom=float(df),
        p_value=min(float(p), 1.0),
    )


def quintile_block_sizes(n: int, q: int) -> tuple[int, ...]:
    """Contiguous block sizes differing by at most 1, larger blocks first."""
    base, rem = divmod(n, q)
    return tuple(base + 1 if i < rem else base for i in range(q))


def quintile_overlaps(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """The q x m relative overlaps F of two n x m score matrices: per
    column, the count of pairs both put in block i over the size of
    block i. Blocks follow ``quintile_block_sizes`` down the descending
    order of a column; a stable sort keeps pair-position order on ties."""
    n, m = a.shape
    if q < 2:
        raise ArgumentError(f"q must be >= 2, got {q}")
    if n < q:
        raise ArgumentError(f"cannot split {n} items into {q} blocks")
    sizes = quintile_block_sizes(n, q)
    block_of_position = np.repeat(np.arange(q), sizes)[:, None]
    cols = np.arange(m)[None, :]
    blocks = []
    for scores in (a, b):
        order = np.argsort(-scores, axis=0, kind="stable")
        block = np.empty_like(order)
        block[order, cols] = block_of_position
        blocks.append(block)
    b1, b2 = blocks
    inter = np.stack([((b1 == i) & (b2 == i)).sum(axis=0) for i in range(q)])
    return inter / np.array(sizes)[:, None]


def quintile_fscore(x, y, q: int = 5) -> QuintileOverlap:
    """Split the descending orders of two aligned score vectors (higher is
    better) into q contiguous blocks and compute
    F_i = 2|A_i & B_i| / (|A_i| + |B_i|) = |A_i & B_i| / |A_i| per
    corresponding block.

    Ties at block boundaries are resolved by stable pair-position order.
    """
    x, y = _paired(x, y)
    return QuintileOverlap(f_scores=tuple(
        quintile_overlaps(x[:, None], y[:, None], q)[:, 0].tolist()))
