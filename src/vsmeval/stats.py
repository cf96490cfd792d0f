"""Scalar statistics: Spearman rho, Pearson r, Kendall tau-b, Welch's
t-test, and quintile relative-F overlap between two rankings.

Spearman is computed as Pearson over average ranks, which is exact under
ties (human 0-10 scores tie heavily); the 1 - 6*sum(d^2)/... shortcut is
not used because it is invalid under ties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betainc
from scipy.stats import rankdata

from .errors import AlignmentError, ArgumentError, ConstantInputError, \
    DegenerateError
from .scoring import Ranking


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
    return x, y


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
    return pearson(rankdata(x), rankdata(y))


def kendall_tau_b(x, y) -> float:
    """(concordant - discordant) / sqrt((n0 - tx)(n0 - ty)) via explicit
    pairwise sign comparison."""
    x, y = _paired(x, y)
    sx = np.sign(np.subtract.outer(x, x))
    sy = np.sign(np.subtract.outer(y, y))
    iu = np.triu_indices(len(x), k=1)
    sx, sy = sx[iu], sy[iu]
    n0 = len(sx)
    concordant_minus_discordant = float(np.sum(sx * sy))
    ties_x = int(np.sum(sx == 0))
    ties_y = int(np.sum(sy == 0))
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


def block_assignment(order: np.ndarray, sizes) -> np.ndarray:
    """Map each item (by position in the ordered array) to its block index."""
    blocks = np.empty(len(order), dtype=np.int64)
    start = 0
    for b, size in enumerate(sizes):
        blocks[order[start:start + size]] = b
        start += size
    return blocks


def quintile_fscore(r1: Ranking, r2: Ranking, q: int = 5) -> QuintileOverlap:
    """Split both rankings into q contiguous rank blocks and compute
    F_i = 2|A_i & B_i| / (|A_i| + |B_i|) per corresponding block.

    Ties at block boundaries are resolved by stable pair-index order.
    """
    if q < 2:
        raise ArgumentError(f"q must be >= 2, got {q}")
    idx1 = r1.indices()
    if idx1 != r2.indices():
        raise AlignmentError("rankings cover different pair index sets")
    n = len(idx1)
    if n < q:
        raise ArgumentError(f"cannot split {n} items into {q} blocks")
    sizes = quintile_block_sizes(n, q)
    a1 = r1.as_array(idx1)
    a2 = r2.as_array(idx1)
    order1 = np.argsort(a1, kind="stable")
    order2 = np.argsort(a2, kind="stable")
    b1 = block_assignment(order1, sizes)
    b2 = block_assignment(order2, sizes)
    f_scores = []
    for i, size in enumerate(sizes):
        inter = int(np.sum((b1 == i) & (b2 == i)))
        f_scores.append(2.0 * inter / (2 * size))
    return QuintileOverlap(f_scores=tuple(f_scores))
