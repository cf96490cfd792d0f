"""Count-based bag-of-words vector space: windowed co-occurrence counting
over the k most frequent context words, normalized to PPMI.

Counting never crosses sentence boundaries. A row exists for every target
word (typically all words appearing in an evaluation pair), a column for
each of the k most frequent corpus words. Counts are kept as (row, col,
count) triplets of the non-zero cells, and PPMI takes logs at those cells
only, so the output matrix is the one dense rows x k array left.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .corpus import Corpus
from .errors import ArgumentError, DegenerateError
from .vectors import VectorTable


@dataclass
class CountMatrix:
    """A |rows| x k count matrix as triplets: ``values[i]`` counts the cell
    (``rows[i]``, ``cols[i]``), and a cell without a triplet counts 0.
    ``count_cooccurrences`` gives one triplet per non-zero cell, in
    row-major order."""

    row_words: tuple[str, ...]
    col_words: tuple[str, ...]
    rows: np.ndarray  # int64 row index per triplet
    cols: np.ndarray  # int64 column index per triplet
    values: np.ndarray  # int64 count per triplet
    language: str = "und"

    @property
    def total(self) -> int:
        return int(self.values.sum())


def count_cooccurrences(
    corpus: Corpus,
    targets,
    vocab: dict[str, int],
    k: int,
    window: int,
) -> CountMatrix:
    """counts[w][c] = number of position pairs (i of w, j of c) within the
    same sentence with 0 < |i - j| <= window.

    Two occurrences of the same type do co-occur; a token never co-occurs
    with itself at its own position.
    """
    if k < 1:
        raise ArgumentError(f"k must be >= 1, got {k}")
    if window < 1:
        raise ArgumentError(f"window must be >= 1, got {window}")
    if k > len(vocab):
        raise ArgumentError(f"k={k} exceeds vocabulary size {len(vocab)}")
    col_words = tuple(islice(vocab, k))
    row_words = tuple(sorted(set(targets)))
    index = dict(zip(corpus.types, range(len(corpus.types))))
    row_of = _type_positions(index, row_words)
    col_of = _type_positions(index, col_words)
    ids, offsets = corpus.ids, corpus.offsets
    at = np.flatnonzero((row_of >= 0)[ids])  # the target tokens
    rows = row_of[ids[at]]
    sentence = np.searchsorted(offsets, at, side="right") - 1
    start, end = offsets[sentence], offsets[sentence + 1]
    longest = int(np.diff(offsets).max(initial=0))
    keys = [np.zeros(0, dtype=np.int64)]
    for d in range(1, min(window, longest - 1) + 1):
        # each target token with the token d before it and d after it
        for inside, j in ((at - d >= start, at - d), (at + d < end, at + d)):
            c = col_of[ids[j[inside]]]
            hit = c >= 0
            keys.append(rows[inside][hit] * k + c[hit])
    # sorted distinct keys are the non-zero cells in row-major order
    idx, values = np.unique(np.concatenate(keys), return_counts=True)
    return CountMatrix(
        row_words=row_words, col_words=col_words, rows=idx // k,
        cols=idx % k, values=values, language=corpus.language,
    )


def _type_positions(index, words) -> np.ndarray:
    """For each type id of ``index`` (type -> id), the type's position in
    ``words``, or -1."""
    positions = np.full(len(index), -1, np.int64)
    for j, w in enumerate(words):
        if w in index:
            positions[index[w]] = j
    return positions


def ppmi_transform(m: CountMatrix) -> VectorTable:
    """entry(w, c) = max(0, ln(n(w,c) * total / (row_sum(w) * col_sum(c)))).

    Marginals come from the matrix itself; rows that never co-occur with
    any context become zero vectors. Natural log; the choice of base only
    rescales the whole table and leaves cosine untouched. Logs are taken
    only at cells with a positive count; every other cell is 0.
    """
    total = m.total
    if total == 0:
        raise DegenerateError("PPMI of an all-zero count matrix is undefined")
    shape = (len(m.row_words), len(m.col_words))
    row_sums = np.bincount(m.rows, weights=m.values, minlength=shape[0])
    col_sums = np.bincount(m.cols, weights=m.values, minlength=shape[1])
    hit = m.values > 0
    rows, cols = m.rows[hit], m.cols[hit]
    n = m.values[hit].astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        pmi = np.log(n * total) - np.log(row_sums[rows] * col_sums[cols])
    ppmi = np.zeros(shape)
    ppmi[rows, cols] = np.maximum(pmi, 0.0)
    return VectorTable(m.language, m.row_words, ppmi)


def build_bow_table(
    corpus: Corpus,
    targets,
    vocab: dict[str, int],
    k: int = 10000,
    window: int = 2,
) -> VectorTable:
    """Count + PPMI in one step; k and window default to the tuned values."""
    matrix = count_cooccurrences(corpus, targets, vocab, k, window)
    return ppmi_transform(matrix)
