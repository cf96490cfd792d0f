"""Word vector tables and their text interchange format.

A ``VectorTable`` is one ``len(words) x dimension`` float matrix whose row
``i`` is the vector of ``words[i]``; a word -> row index backs ``in``, ``[]``
and the ``rows`` gather. PPMI, file IO and CCA all pass such matrices whole.

The canonical on-disk representation is the word2vec text format: a
header line ``<vocab_size> <dimension>`` followed by one ``word v1 ... vd``
line per word, each float in its shortest round-tripping ``repr``.
``load_vectors`` is one loop over the file's lines. A line in the
spelling ``save_vectors`` writes (a word of any script, then printable
ASCII cells, each after a single space) is parsed from the bytes of its
cells, and in a mostly zero line only the cells other than ``0.0`` and
``-0.0`` are parsed. Every other line (tabs, Unicode separators, a bad
cell) is split by ``str.split``, which is the one source of every
refusal. No header allocates more than the file's bytes could fill.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from itertools import chain
from types import MappingProxyType

import numpy as np

from .errors import ArgumentError, EmptyInputError, FormatError
from .textfile import numeric, read_lines, write_lines


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


def load_vectors(path, language: str = "und") -> VectorTable:
    """Parse a word2vec text file; the header must match the body exactly.

    Duplicate words keep their first position and their last vector, with
    a warning. A line spelled as ``save_vectors`` writes it is parsed from
    the bytes of its cells; any other line is split by ``str.split``,
    which gives every refusal.
    """
    lines = read_lines(path)
    lineno, header = next(lines, (1, ""))
    parts = header.split()
    if len(parts) != 2:
        raise FormatError("expected header '<vocab_size> <dimension>'",
                          path=path, line=lineno)
    try:
        vocab_size, dimension = (int(numeric(part)) for part in parts)
    except ValueError:
        raise FormatError("non-integer header fields", path=path, line=lineno)
    if vocab_size < 0 or dimension < 0:
        raise FormatError("negative header field", path=path, line=lineno)
    # an empty table keeps the header's dimension, and numpy refuses the
    # shape of a float row longer than its largest byte count
    if not vocab_size and dimension > np.iinfo(np.intp).max // 8:
        raise FormatError("dimension too large for an array",
                          path=path, line=lineno)
    # each line taken below holds at least 2 * dimension + 1 bytes, so no
    # header makes this allocate more rows than the body could fill, nor
    # columns when no line can hold them
    rows = min(vocab_size, os.path.getsize(path) // (2 * dimension + 1))
    matrix = np.zeros((rows, dimension if rows or not vocab_size else 0))
    index: dict[str, int] = {}  # word -> row
    for lineno, line in lines:
        word, _, cells = line.partition(" ")
        vec = (_parse_row(cells.encode(), dimension)
               if word.split() == [word] else None)
        if vec is None or not np.isfinite(vec).all():
            fields = line.split()
            if len(fields) != dimension + 1:
                raise FormatError(
                    f"expected {dimension + 1} fields, got {len(fields)}",
                    path=path, line=lineno,
                )
            word, numbers = fields[0], fields[1:]
            try:
                numeric("".join(numbers))
                vec = np.fromiter(map(float, numbers), float, count=dimension)
            except ValueError:
                raise FormatError("unparseable float", path=path, line=lineno)
            if not np.all(np.isfinite(vec)):
                raise FormatError(
                    f"non-finite value in vector for {word!r}",
                    path=path, line=lineno,
                )
        count = len(index)
        row = index.setdefault(word, count)
        if row < count:
            warnings.warn(
                f"duplicate word {word!r} at line {lineno}; "
                "keeping the last occurrence"
            )
        elif count == vocab_size:
            raise FormatError(
                f"more than the declared {vocab_size} words",
                path=path, line=lineno,
            )
        if row == len(matrix):  # a pipe, whose size reads as 0
            matrix = np.resize(matrix, (min(2 * row + 1, vocab_size),
                                        dimension))
        matrix[row] = vec
    if len(index) != vocab_size:
        raise FormatError(
            f"header declares {vocab_size} words but body has {len(index)}",
            path=path,
        )
    return VectorTable(language, tuple(index), matrix)


# printable ASCII, space included, without ``_``: ``textfile.numeric``'s
# rule on the bytes of a line's cells
_PRINTABLE = bytes(range(0x20, 0x7F)).replace(b"_", b"")
_SPACE, _MINUS, _ZERO, _POINT = b" -0."  # as byte values


def _parse_row(cells: bytes, dimension: int):
    """The vector of a line's cells, or None unless they are exactly
    ``dimension`` floats in printable ASCII without ``_``, each after a
    single space but the first. On such bytes ``float`` reads a cell as
    it reads its text.

    When most cells are exactly ``0.0`` or ``-0.0``, one numpy pass over
    the bytes finds them and only the other cells go through ``float``;
    any other line is split with ``bytes.split``."""
    if cells.translate(None, _PRINTABLE):
        return None
    try:
        if _mostly_zero(cells, dimension):
            text = np.frombuffer(cells, np.uint8)
            spaces = np.flatnonzero(text == _SPACE)
            if len(spaces) != dimension - 1:
                return None
            starts = np.concatenate(([0], spaces + 1))
            stops = np.append(spaces, len(cells))
            lengths = stops - starts
            short = np.flatnonzero((lengths == 3) | (lengths == 4))
            end, first = stops[short], text[starts[short]]
            signed = first == _MINUS
            is_zero = ((text[end - 3] == _ZERO) & (text[end - 2] == _POINT)
                       & (text[end - 1] == _ZERO)
                       & ((lengths[short] == 3) | signed))
            zero = short[is_zero]
            if len(zero) * 2 > dimension:
                keep = np.ones(dimension, bool)
                keep[zero] = False
                # the bytes of each kept cell and the space after it
                kept = text[np.repeat(keep, lengths + 1)[:-1]]
                values = kept.tobytes().split()
                if len(values) != dimension - len(zero):
                    return None
                row = np.zeros(dimension)
                row[keep] = np.fromiter(map(float, values), float,
                                        count=len(values))
                row[short[is_zero & signed]] = -0.0
                return row
        values = cells.split(b" ")
        if len(values) != dimension:
            return None
        return np.fromiter(map(float, values), float, count=dimension)
    except ValueError:
        return None


def _mostly_zero(cells: bytes, dimension: int) -> bool:
    """Whether more than half of the cells may be ``0.0`` or ``-0.0``: a
    cheap test, never False when they are. Such a cell and its space take
    at most 5 bytes and any other cell that ``repr`` writes at most 25, so
    the line is shorter than 15 bytes a cell. Every such cell but the
    last is followed by ``"0.0 "``, as are ``10.0`` and ``20.0``, which
    the exact pass tells apart."""
    return (len(cells) < 15 * dimension
            and (cells.count(b"0.0 ") + 1) * 2 > dimension)


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
    rows = (word + " " + " ".join(_sparse_cells(row, row_nonzero) if few
                                  else map(repr, row.tolist()))
            for word, row, row_nonzero, few in zip(table.words, table.matrix,
                                                   nonzero, sparse))
    write_lines(path, chain([f"{len(table)} {table.dimension}"], rows))


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
