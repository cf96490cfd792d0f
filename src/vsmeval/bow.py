"""Count-based bag-of-words vector space: windowed co-occurrence counting
over the k most frequent context words, normalized to PPMI.

Counting never crosses sentence boundaries. A row exists for every target
word (typically all words appearing in an evaluation pair), a column for
each of the k most frequent corpus words.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Vocabulary
from .errors import ArgumentError, DegenerateError
from .vectors import VectorTable


@dataclass
class CountMatrix:
    row_words: tuple[str, ...]
    col_words: tuple[str, ...]
    counts: np.ndarray  # |rows| x k, nonnegative integers
    window: int
    language: str = "und"

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def count_cooccurrences(
    corpus: Corpus,
    targets,
    vocab: Vocabulary,
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
    col_words = vocab.top_k(k)  # raises if k exceeds vocabulary size
    row_words = tuple(sorted(set(targets)))
    row_index = {w: i for i, w in enumerate(row_words)}
    col_index = {w: j for j, w in enumerate(col_words)}
    counts = np.zeros((len(row_words), k), dtype=np.int64)
    for sent in corpus.sentences:
        rows = np.array([row_index.get(t, -1) for t in sent], dtype=np.int64)
        cols = np.array([col_index.get(t, -1) for t in sent], dtype=np.int64)
        n = len(sent)
        for d in range(1, min(window, n - 1) + 1):
            # token at i with token at i+d, in both role assignments
            left_r, right_c = rows[:-d], cols[d:]
            mask = (left_r >= 0) & (right_c >= 0)
            np.add.at(counts, (left_r[mask], right_c[mask]), 1)
            right_r, left_c = rows[d:], cols[:-d]
            mask = (right_r >= 0) & (left_c >= 0)
            np.add.at(counts, (right_r[mask], left_c[mask]), 1)
    return CountMatrix(
        row_words=row_words, col_words=col_words, counts=counts, window=window,
        language=corpus.language,
    )


def ppmi_transform(m: CountMatrix) -> VectorTable:
    """entry(w, c) = max(0, ln(n(w,c) * total / (row_sum(w) * col_sum(c)))).

    Marginals come from the matrix itself; rows that never co-occur with
    any context become zero vectors. Natural log; the choice of base only
    rescales the whole table and leaves cosine untouched.
    """
    total = m.total
    if total == 0:
        raise DegenerateError("PPMI of an all-zero count matrix is undefined")
    counts = m.counts.astype(float)
    row_sums = counts.sum(axis=1, keepdims=True)
    col_sums = counts.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        pmi = np.log(counts * total) - np.log(row_sums * col_sums)
    ppmi = np.where(counts > 0, np.maximum(pmi, 0.0), 0.0)
    return VectorTable(m.language, m.row_words, ppmi)


def build_bow_table(
    corpus: Corpus,
    targets,
    vocab: Vocabulary,
    k: int = 10000,
    window: int = 2,
) -> VectorTable:
    """Count + PPMI in one step; k and window default to the tuned values."""
    matrix = count_cooccurrences(corpus, targets, vocab, k, window)
    return ppmi_transform(matrix)
