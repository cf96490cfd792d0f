"""Scalar statistics: Spearman rho, Pearson r, Kendall tau-b, Welch's
t-test, and quintile relative-F overlap between two score vectors, plus
the kernels every rank statistic of the toolkit goes through.

Spearman is Pearson over average ranks r, which is exact under ties
(human 0-10 scores tie heavily); the 1 - 6*sum(d^2)/... shortcut is not
used because it is invalid under ties. ``centred_ranks`` gives the
doubled centred ranks ``d = 2r - (n + 1)`` of the columns of a matrix,
256 columns at a time, and their sums of squares. Float columns get one
row-wise argsort over the transposed block, one flat pass over the tie
groups and one scatter back. Integer columns spanning fewer than 1024
values, such as the exact subset sums of the agreement walk, are counted
instead: one ``bincount`` and one ``cumsum`` over (column, value) keys
give an integer table of d that is gathered back. ``ranked_spearman``
takes two such results to rho per column; ``spearman`` is its one-column
case. Pearson's centring leaves exactly d / 2, so the numerator and sums
of squares on d are those on r times 4, and rho has the bits Pearson on
float64 ranks gives. d is float32 while ``n * (n - 1)**2 <= 2**24`` (up
to n = 256) and float64 above, so every sum of n squares or products of
d, at most n(n - 1)^2, is an exact integer whatever its order (in
float64 up to n of about 2 x 10^5). ``quintile_overlaps`` gives, column
by column, the share of each rank block that two score matrices put in
the same block; on integer input its stable sort is a radix sort, over
one byte where the input spans fewer than 256 values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ConstantInputError, DegenerateError, \
    ValidationError

# Columns ranked per block. On a 50-pair batch each temporary of a block
# then stays within about 100 KB (the int64 sort keys and positions; the
# float32 ranks are half that) and the allocator reuses its memory; a
# temporary the size of a whole 50 x 1716 matrix is mapped afresh on
# every call, and its page faults cost about as much as the ranking.
_RANK_BLOCK = 256

# Levels an integer matrix may span for ``centred_ranks`` to count rather
# than sort. A block's rank table then holds at most 256 x 1024 integers
# (2 MiB); the K-subset sums of the agreement protocol span at most 121.
_COUNT_LEVELS = 1024

# Positions Kendall's tau-b compares per block against every later
# position: its temporaries are then 256 x n, not n x n.
_PAIR_BLOCK = 256


@dataclass(frozen=True)
class WelchResult:
    t_statistic: float
    degrees_of_freedom: float
    p_value: float  # two-sided


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


def centred_ranks(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Doubled centred ranks d of every column of an n x m matrix, with
    r = ``rankdata(x, axis=0)``, and each column's sum of their squares
    in float64. Integer input spanning fewer than ``_COUNT_LEVELS``
    values is counted (``_count_ranks``), any other sorted
    (``_rank_rows``)."""
    n, m = x.shape
    dtype = np.float32 if n * (n - 1) ** 2 <= 2 ** 24 else np.float64
    low = int(x.min()) if np.can_cast(x.dtype, np.intp) and x.size else None
    if low is not None and int(x.max()) - low < _COUNT_LEVELS:
        d = _count_ranks(x, low, dtype)
    else:
        d = np.empty((m, n), dtype)
        for lo in range(0, m, _RANK_BLOCK):
            rows = np.ascontiguousarray(x[:, lo:lo + _RANK_BLOCK].T)
            _rank_rows(rows, out=d[lo:lo + _RANK_BLOCK])
        d = d.T
    return d, np.einsum("ij,ij->j", d, d).astype(np.float64)


def ranked_spearman(
    a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Spearman rho per column from two ``centred_ranks`` results;
    columns with a constant side come back NaN."""
    (da, ssa), (db, ssb) = a, b
    denom = np.sqrt(ssa * ssb)
    # an exact integer sum in either dtype, without building the pairs x
    # subsets product matrix
    num = np.einsum("ij,ij->j", da, db).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = np.where(denom > 0, num / np.maximum(denom, 1e-300), np.nan)
    return np.clip(rho, -1.0, 1.0)


def _count_ranks(x: np.ndarray, low: int, dtype) -> np.ndarray:
    """Doubled centred ranks of every column of an integer matrix whose
    values are at least ``low``, counted rather than sorted. A block gets
    one key per cell, its level ``value - low`` plus its column times the
    block's number of levels, and one ``bincount`` and one flat
    ``cumsum`` over the keys. A key's doubled rank is then
    ``2 * cum - count + 1`` less 2n for each earlier column of the
    block, and d is that less n + 1: an integer table, one entry per
    column and level up to the block's largest level, cast to ``dtype``
    and gathered back."""
    n, m = x.shape
    d = np.empty((n, m), dtype)
    for lo in range(0, m, _RANK_BLOCK):
        block = x[:, lo:lo + _RANK_BLOCK]
        w = block.shape[1]
        levels = int(block.max()) - low + 1
        keys = block + (np.arange(0, w * levels, levels) - low)
        count = np.bincount(keys.ravel(), minlength=w * levels)
        table = (2 * count.cumsum() - count - n).reshape(w, levels)
        table -= np.arange(0, 2 * w * n, 2 * n)[:, None]
        np.take(table.astype(dtype), keys, out=d[:, lo:lo + _RANK_BLOCK])
    return d


def _rank_rows(rows: np.ndarray, out: np.ndarray) -> None:
    """Doubled centred average ranks within each row of a C-contiguous
    matrix."""
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
    # first + last is twice the mean of the group's flat 0-based
    # positions; less twice the run's offset and n - 1 it is d. All of
    # this is in integers, so exact. cumsum over an integer copy: on a
    # bool array it is over twice as slow
    group = starts.astype(np.intp).cumsum() - 1
    doubled = np.empty(m * n, dtype=np.intp)
    doubled[flat] = (first + last)[group]
    np.subtract(doubled.reshape(m, n), 2 * offsets + (n - 1), out=out)


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
    """``ranked_spearman`` of the two vectors as one-column matrices."""
    x, y = _paired(x, y)
    rho, = ranked_spearman(centred_ranks(x[:, None]),
                           centred_ranks(y[:, None]))
    if np.isnan(rho):
        raise ConstantInputError(
            "correlation undefined: at least one input is constant"
        )
    return float(rho)


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
    from scipy.special import betainc
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
    order of a column; a stable sort keeps pair-position order on ties.
    Block labels and counts are held in the narrowest unsigned type that
    holds q and n."""
    n, m = a.shape
    if q < 2:
        raise ArgumentError(f"q must be >= 2, got {q}")
    if n < q:
        raise ArgumentError(f"cannot split {n} items into {q} blocks")
    sizes = quintile_block_sizes(n, q)
    label = np.min_scalar_type(q)
    block_of_position = np.repeat(np.arange(q, dtype=label), sizes)[:, None]
    cols = np.arange(m)[None, :]
    blocks = []
    for scores in (a, b):
        order = np.argsort(_descending_keys(scores), axis=0, kind="stable")
        block = np.empty(order.shape, dtype=label)
        block[order, cols] = block_of_position
        blocks.append(block)
    b1, b2 = blocks
    # a pair's shared block, or q where the two blocks differ
    shared = np.where(b1 == b2, b1, q)
    count = np.min_scalar_type(n)
    inter = np.stack([(shared == i).sum(axis=0, dtype=count)
                      for i in range(q)])
    return inter / np.array(sizes)[:, None]


def _descending_keys(scores: np.ndarray) -> np.ndarray:
    """Keys whose stable ascending order is the stable descending order
    of ``scores``: the negated scores for floats; for integers
    ``max - scores`` in the narrowest unsigned type that holds their
    span (one byte for the walk's sums, which the radix sort orders in
    one pass). The subtraction may wrap in the input's type; the cast
    keeps it modulo a power of two no larger than the wrap's, and the
    true difference, at most the span, is below that power, so every key
    is exact."""
    if np.can_cast(scores.dtype, np.intp) and scores.size:
        top = scores.max()
        span = int(top) - int(scores.min())
        return (top - scores).astype(np.min_scalar_type(span))
    return -scores


def quintile_fscore(x, y, q: int = 5) -> tuple[float, ...]:
    """Split the descending orders of two aligned score vectors (higher is
    better) into q contiguous blocks and compute
    F_i = 2|A_i & B_i| / (|A_i| + |B_i|) = |A_i & B_i| / |A_i| per
    corresponding block.

    Ties at block boundaries are resolved by stable pair-position order.
    """
    x, y = _paired(x, y)
    return tuple(quintile_overlaps(x[:, None], y[:, None], q)[:, 0].tolist())
