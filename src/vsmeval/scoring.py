"""Word-pair scoring: cosine similarity against a vector table, score
vectors keyed by pair index, and their TSV files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, FormatError, WordLookupError
from .textfile import read_lines, read_rows, write_lines
from .vectors import VectorTable


@dataclass(frozen=True)
class WordPairList:
    pairs: tuple[tuple[str, str], ...]
    source_ids: tuple[int, ...]

    def __post_init__(self):
        if len(self.pairs) != len(self.source_ids):
            raise ArgumentError("pairs and source_ids differ in length")
        if len(set(self.source_ids)) != len(self.source_ids):
            raise ArgumentError("pair indices must be unique")

    def __len__(self):
        return len(self.pairs)


@dataclass
class ScoreVector:
    scores: dict[int, float]  # pair index -> score
    skipped: dict[int, tuple[str, ...]] = field(default_factory=dict)
    degenerate: frozenset[int] = frozenset()  # zero-norm cosine pairs

    def as_array(self) -> np.ndarray:
        """The scores in ascending pair-index order."""
        return np.array([self.scores[i] for i in sorted(self.scores)])


_TINY = np.finfo(float).tiny  # smallest normal double


def _pow2_scaled(x: np.ndarray) -> np.ndarray:
    """``x`` scaled by a power of two to a largest magnitude in [0.5, 1)."""
    _, exponent = np.frexp(np.max(np.abs(x), initial=0.0))
    return np.ldexp(x, -exponent)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """u.v / (|u||v|); defined as 0.0 when either norm is zero. If a
    squared norm is subnormal or overflows, each vector is first scaled by
    a power of two, which leaves the cosine unchanged."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ArgumentError(
            f"dimension mismatch: {u.shape} vs {v.shape}"
        )
    with np.errstate(over="ignore"):
        uu, vv = np.dot(u, u), np.dot(v, v)
    if not (_TINY <= uu < np.inf and _TINY <= vv < np.inf):
        u, v = _pow2_scaled(u), _pow2_scaled(v)
        uu, vv = np.dot(u, u), np.dot(v, v)
    if uu == 0.0 or vv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (np.sqrt(uu) * np.sqrt(vv)))


def score_pairs(
    table: VectorTable,
    pairs: WordPairList,
    oov_policy: str = "skip",
    aliases: dict[str, str] | None = None,
) -> ScoreVector:
    """One cosine score per covered pair.

    With ``oov_policy="skip"`` out-of-vocabulary pairs are omitted and
    recorded; with ``"error"`` the first miss aborts. ``aliases`` maps
    alternate surface forms onto table keys (used by combined tables).
    """
    if oov_policy not in ("skip", "error"):
        raise ArgumentError(f"unknown oov_policy {oov_policy!r}")
    scores: dict[int, float] = {}
    skipped: dict[int, tuple[str, ...]] = {}
    degenerate = set()
    for (w1, w2), idx in zip(pairs.pairs, pairs.source_ids):
        missing = []
        vecs = []
        for w in (w1, w2):
            key = w if w in table else (aliases or {}).get(w, w)
            if key in table:
                vecs.append(table[key])
            else:
                missing.append(w)
        if missing:
            if oov_policy == "error":
                raise WordLookupError(
                    f"word {missing[0]!r} of pair {idx} not in table"
                )
            skipped[idx] = tuple(missing)
            continue
        value = cosine(vecs[0], vecs[1])
        if value == 0.0 and (
            np.linalg.norm(vecs[0]) == 0.0 or np.linalg.norm(vecs[1]) == 0.0
        ):
            degenerate.add(idx)
        scores[idx] = value
    return ScoreVector(
        scores=scores,
        skipped=skipped,
        degenerate=frozenset(degenerate),
    )


def align_scores(
    a: ScoreVector, b: ScoreVector
) -> tuple[ScoreVector, ScoreVector]:
    """``a`` and ``b`` restricted to the pair indices they share, each in
    ascending index order."""
    common = sorted(set(a.scores) & set(b.scores))
    return (ScoreVector({i: a.scores[i] for i in common}),
            ScoreVector({i: b.scores[i] for i in common}))


def record_pair_index(first_line: dict, index: int, path, lineno) -> None:
    """Set ``first_line[index] = lineno``, refusing an index seen before."""
    if index in first_line:
        raise FormatError(f"repeated pair index {index}, first on line "
                          f"{first_line[index]}", path=path, line=lineno)
    first_line[index] = lineno


def read_pair_list(path) -> WordPairList:
    """TSV of ``pair_index<TAB>word1<TAB>word2`` (extra columns ignored);
    ``#`` comments and a header row before the first pair are skipped."""
    pairs, ids = [], {}  # pair index -> line number
    for lineno, fields in read_rows(path):
        if not ids and fields[0] == "pair_index":
            continue
        if len(fields) < 3:
            raise FormatError("expected pair_index, word1, word2",
                              path=path, line=lineno)
        try:
            index = int(fields[0])
        except ValueError:
            raise FormatError("non-integer pair index", path=path, line=lineno)
        record_pair_index(ids, index, path, lineno)
        pairs.append((fields[1], fields[2]))
    return WordPairList(pairs=tuple(pairs), source_ids=tuple(ids))


def write_scores(scores: ScoreVector, pairs: WordPairList, path,
                 header_lines=()) -> None:
    """TSV dump ``pair_index word1 word2 score``; skipped pairs appear as
    trailing ``#OOV`` comment lines."""
    word_of = dict(zip(pairs.source_ids, pairs.pairs))
    lines = ["pair_index\tword1\tword2\tscore"]
    for idx in sorted(scores.scores):
        w1, w2 = word_of.get(idx, ("?", "?"))
        lines.append(f"{idx}\t{w1}\t{w2}\t{scores.scores[idx]!r}")
    for idx in sorted(scores.skipped):
        w1, w2 = word_of.get(idx, ("?", "?"))
        missing = ",".join(scores.skipped[idx])
        lines.append(f"#OOV\t{idx}\t{w1}\t{w2}\t{missing}")
    write_lines(path, lines, header_lines)


def read_scores(path) -> ScoreVector:
    """Inverse of ``write_scores``; no pair index, ``#OOV`` or not, repeats."""
    scores: dict[int, float] = {}
    skipped: dict[int, tuple[str, ...]] = {}
    first_line: dict[int, int] = {}
    for lineno, line in read_lines(path):
        oov = line.startswith("#OOV\t")
        if not oov and line.startswith(("#", "pair_index")):
            continue
        fields = line.split("\t")
        width = 5 if oov else 4
        if len(fields) < width:
            raise FormatError(f"expected {width} columns",
                              path=path, line=lineno)
        try:
            index = int(fields[1] if oov else fields[0])
            score = None if oov else float(fields[3])
        except ValueError:
            raise FormatError("non-numeric pair index or score",
                              path=path, line=lineno)
        record_pair_index(first_line, index, path, lineno)
        if oov:
            skipped[index] = tuple(fields[4].split(","))
        elif math.isfinite(score):
            scores[index] = score
        else:
            raise FormatError("non-finite score", path=path, line=lineno)
    return ScoreVector(scores=scores, skipped=skipped)
