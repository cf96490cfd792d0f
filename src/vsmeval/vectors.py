"""Word vector tables and their text interchange format.

A ``VectorTable`` is one ``len(words) x dimension`` float matrix whose row
``i`` is the vector of ``words[i]``; a word -> row index backs ``in``, ``[]``
and the ``rows`` gather. PPMI, file IO and CCA all pass such matrices whole.

The canonical on-disk representation is the word2vec text format: a
header line ``<vocab_size> <dimension>`` followed by one ``word v1 ... vd``
line per word, each float in its shortest round-tripping ``repr``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import (
    AlignmentError,
    ArgumentError,
    EmptyInputError,
    FormatError,
)
from .textfile import read_lines


@dataclass(frozen=True)
class VectorTable:
    language: str
    words: tuple[str, ...]
    matrix: np.ndarray  # len(words) x dimension, float
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.matrix.ndim != 2 or len(self.matrix) != len(self.words):
            raise ArgumentError(
                f"matrix of shape {self.matrix.shape} does not hold one row "
                f"per word ({len(self.words)} words)"
            )
        index = {w: i for i, w in enumerate(self.words)}
        if len(index) != len(self.words):
            raise ArgumentError("a vector table lists a word twice")
        object.__setattr__(self, "_index", index)

    @classmethod
    def from_dict(cls, language: str, vectors, dimension: int) -> VectorTable:
        """Table from a word -> vector mapping. As in a dict, a word keeps
        the position of its first insertion and its last value."""
        for word, vec in vectors.items():
            if np.shape(vec) != (dimension,):
                raise ArgumentError(
                    f"vector for {word!r} has shape {np.shape(vec)}, "
                    f"expected ({dimension},)"
                )
        matrix = np.array(list(vectors.values()), dtype=float)
        return cls(language, tuple(vectors),
                   matrix.reshape(len(vectors), dimension))

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]

    @property
    def vectors(self):
        """Read-only word -> row view mapping, in row order."""
        return MappingProxyType(dict(zip(self.words, self.matrix)))

    def rows(self, words) -> np.ndarray:
        """The rows of ``words`` as a new matrix; KeyError names a miss."""
        return self.matrix[[self._index[w] for w in words]]

    def __contains__(self, word):
        return word in self._index

    def __getitem__(self, word):
        return self.matrix[self._index[word]]

    def __len__(self):
        return len(self.words)


@dataclass
class CoverageReport:
    covered: tuple[int, ...]
    excluded: tuple[int, ...]
    missing_words: dict[int, tuple[tuple[str, str], ...]]
    # pair_index -> ((word, language), ...) for every absent lookup

    def __post_init__(self):
        if set(self.covered) & set(self.excluded):
            raise AlignmentError("covered and excluded pair sets overlap")


def load_vectors(path, language: str = "und") -> VectorTable:
    """Parse a word2vec text file; the header must match the body exactly.

    Duplicate words keep the last occurrence, with a warning.
    """
    vectors: dict[str, np.ndarray] = {}
    lines = read_lines(path)
    lineno, header = next(lines, (1, ""))
    parts = header.split()
    if len(parts) != 2:
        raise FormatError("expected header '<vocab_size> <dimension>'",
                          path=path, line=lineno)
    try:
        vocab_size, dimension = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError("non-integer header fields", path=path, line=lineno)
    if vocab_size < 0 or dimension < 0:
        raise FormatError("negative header field", path=path, line=lineno)
    for lineno, line in lines:
        fields = line.split()
        if len(fields) != dimension + 1:
            raise FormatError(
                f"expected {dimension + 1} fields, got {len(fields)}",
                path=path, line=lineno,
            )
        word = fields[0]
        try:
            vec = _parse_cells(fields[1:], dimension)
        except ValueError:
            raise FormatError("unparseable float", path=path, line=lineno)
        if not np.all(np.isfinite(vec)):
            raise FormatError(
                f"non-finite value in vector for {word!r}",
                path=path, line=lineno,
            )
        if word in vectors:
            warnings.warn(
                f"duplicate word {word!r} at line {lineno}; "
                "keeping the last occurrence"
            )
        vectors[word] = vec
        if len(vectors) > vocab_size:
            raise FormatError(
                f"more than the declared {vocab_size} words",
                path=path, line=lineno,
            )
    if len(vectors) != vocab_size:
        raise FormatError(
            f"header declares {vocab_size} words but body has {len(vectors)}",
            path=path,
        )
    return VectorTable.from_dict(language, vectors, dimension)


def save_vectors(table: VectorTable, path) -> None:
    """Emit the word2vec text format; floats are written so that a reload
    reproduces the table bit-for-bit."""
    if len(table) == 0:
        raise EmptyInputError("refusing to save an empty vector table")
    for word in table.words:
        if word.split() != [word]:
            raise FormatError(f"word {word!r} is empty or contains "
                              "whitespace", path=path)
    nonzero = table.matrix != 0
    sparse = np.count_nonzero(nonzero, axis=1) * 2 < table.dimension
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table)} {table.dimension}\n")
        for word, row, row_nonzero, few in zip(table.words, table.matrix,
                                               nonzero, sparse):
            cells = (_sparse_cells(row, row_nonzero) if few
                     else map(repr, row.tolist()))
            fh.write(word + " " + " ".join(cells) + "\n")


def _sparse_cells(row: np.ndarray, nonzero: np.ndarray) -> list[str]:
    """The ``repr`` of every cell of a mostly zero row, formatting only
    its non-zeros."""
    cells = ["0.0"] * len(row)
    for j in np.flatnonzero(np.signbit(row) & ~nonzero).tolist():
        cells[j] = "-0.0"
    where = np.flatnonzero(nonzero)
    for j, value in zip(where.tolist(), row[where].tolist()):
        cells[j] = repr(value)
    return cells


def _parse_cells(cells: list[str], dimension: int) -> np.ndarray:
    """The floats of one vector line, each parsed by ``float`` as numpy
    would. When most cells are ``0.0`` only the others are parsed, into a
    zero vector."""
    if cells.count("0.0") * 2 <= dimension:
        return np.fromiter(map(float, cells), float, count=dimension)
    text = np.array(cells, dtype=object)
    where = np.flatnonzero(text != "0.0")
    vec = np.zeros(dimension)
    vec[where] = list(map(float, text[where].tolist()))
    return vec


def vocabulary_coverage(tables, eval_sets) -> CoverageReport:
    """Uniform cross-language pair exclusion: a pair index is dropped
    everywhere as soon as either of its words is missing from the matching
    language's table in ANY language version.

    ``tables`` and ``eval_sets`` are matched by language code; languages
    without a table are skipped (no model to cover them), and two tables
    of one language are refused.
    """
    by_language = {}
    for t in tables:
        if t.language in by_language:
            raise ArgumentError(
                f"language {t.language!r} names more than one vector table")
        by_language[t.language] = t
    lengths = {len(s.pairs.pairs) for s in eval_sets}
    if len(lengths) > 1:
        raise AlignmentError(
            f"evaluation sets have differing pair counts: {sorted(lengths)}"
        )
    indices = None
    for s in eval_sets:
        ids = tuple(s.pairs.source_ids)
        if indices is None:
            indices = ids
        elif ids != indices:
            raise AlignmentError("evaluation sets have misaligned pair indices")
    covered, excluded = [], []
    missing: dict[int, list[tuple[str, str]]] = {}
    for pos, idx in enumerate(indices):
        absent = []
        for s in eval_sets:
            table = by_language.get(s.language)
            if table is None:
                continue
            w1, w2 = s.pairs.pairs[pos]
            for w in (w1, w2):
                if w not in table:
                    absent.append((w, s.language))
        if absent:
            excluded.append(idx)
            missing[idx] = absent
        else:
            covered.append(idx)
    return CoverageReport(
        covered=tuple(covered),
        excluded=tuple(excluded),
        missing_words={k: tuple(v) for k, v in missing.items()},
    )


def write_coverage(report: CoverageReport, eval_set, path,
                   header_lines=()) -> None:
    """TSV dump: pair_index, word1, word2, status, missing_in."""
    pos_of = {idx: pos for pos, idx in enumerate(eval_set.pairs.source_ids)}
    with open(path, "w", encoding="utf-8") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("pair_index\tword1\tword2\tstatus\tmissing_in\n")
        for idx in sorted(pos_of):
            w1, w2 = eval_set.pairs.pairs[pos_of[idx]]
            if idx in report.missing_words:
                langs = ",".join(
                    f"{w}:{lang}" for w, lang in report.missing_words[idx]
                )
                fh.write(f"{idx}\t{w1}\t{w2}\texcluded\t{langs}\n")
            else:
                fh.write(f"{idx}\t{w1}\t{w2}\tcovered\t\n")
