"""Corpus ingestion: tokenization, cleaning, vocabulary extraction and
reproducible sentence subsampling.

A corpus is one integer token stream. ``types`` holds each token string
once, ``ids`` (int32) holds one index into ``types`` per token, and
sentence ``i`` is ``ids[offsets[i]:offsets[i + 1]]``. Tokenising interns
each token as its line is read, in order of first occurrence, so no id
depends on string hashing. Every later stage is array work: cleaning maps
``ids`` through a type -> stem-id array, the vocabulary is one
``np.bincount``, and sampling and counting slice by ``offsets``.
``Corpus.from_sentences`` interns token sequences, and the derived
``sentences`` gives them back as a tuple of tuples.

Sentence boundaries matter downstream because co-occurrence windows never
cross them, which also makes the sentence the atomic unit of subsampling.
"""

from __future__ import annotations

import math
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ArgumentError, EmptyInputError, FormatError
from .stemming import porter_stem
from .stopwords import ENGLISH_STOPWORDS
from .textfile import read_lines, write_lines

_SENTENCE_END = re.compile(r"[.!?]+")
_SURROGATE = re.compile("[\ud800-\udfff]")  # not encodable as UTF-8


def _interner() -> defaultdict:
    """A dict that gives each new key the next id, in C: looking up a
    missing key inserts ``len`` of the dict as its value."""
    index = defaultdict()
    index.default_factory = index.__len__
    return index


@dataclass(frozen=True, eq=False)
class Corpus:
    language: str
    types: tuple[str, ...]
    ids: np.ndarray  # int32 index into types, one per token
    offsets: np.ndarray  # int64 sentence starts, then len(ids)

    @classmethod
    def from_sentences(cls, language: str, sentences) -> Corpus:
        """Intern token sequences, each type once in order of first
        occurrence; an empty sequence stays an empty sentence."""
        index = _interner()
        intern = index.__getitem__
        ids, ends = array("i"), array("q", [0])
        for tokens in sentences:
            ids.extend(map(intern, tokens))
            ends.append(len(ids))
        return cls(language, tuple(index), np.frombuffer(ids, np.intc),
                   np.frombuffer(ends, np.int64))

    @property
    def sentences(self) -> tuple[tuple[str, ...], ...]:
        words = np.array(self.types, dtype=object)[self.ids].tolist()
        bounds = self.offsets.tolist()
        return tuple(tuple(words[a:b]) for a, b in zip(bounds, bounds[1:]))

    @property
    def token_count(self) -> int:
        return len(self.ids)

    @property
    def type_count(self) -> int:
        """Types that occur; after sampling, ``types`` may hold more."""
        return int(np.count_nonzero(_type_counts(self)))


def _type_counts(corpus: Corpus) -> np.ndarray:
    return np.bincount(corpus.ids, minlength=len(corpus.types))


def tokenize_corpus(
    text: str | Iterable[str], language: str, sentence_per_line: bool = False
) -> Corpus:
    """Split text into lowercased whitespace tokens, one sentence per
    terminal-punctuation or line boundary.

    ``text`` is one string or an iterable of lines without their breaks.
    With ``sentence_per_line`` every line is one sentence regardless of
    punctuation (the pre-segmented input mode).
    """
    segments = text.split("\n") if isinstance(text, str) else text
    if not sentence_per_line:
        segments = (s for line in segments for s in _SENTENCE_END.split(line))
    return Corpus.from_sentences(language, (
        tokens for segment in segments
        if (tokens := segment.lower().split())))  # lower() makes no whitespace


def clean_tokens(
    corpus: Corpus,
    stopwords: Iterable[str] | None = None,
) -> Corpus:
    """Drop non-alphabetic tokens and stopwords, stem the survivors with
    ``porter_stem``, and discard sentences that end up empty.

    "Alphabetic" is Unicode letter classification (str.isalpha), so
    Cyrillic and umlauted words survive. Stopword filtering runs before
    stemming. ``porter_stem`` is looked up in this module at each call
    and called once per distinct surviving token.
    """
    if stopwords is None:
        stopwords = ENGLISH_STOPWORDS
    else:
        stopwords = frozenset(stopwords)
    stems = _interner()
    stem_of = np.full(len(corpus.types), -1, np.int32)
    for i in np.flatnonzero(_type_counts(corpus)).tolist():
        tok = corpus.types[i]
        if tok.isalpha() and tok not in stopwords:
            stem_of[i] = stems[porter_stem(tok)]
    ids = stem_of[corpus.ids]
    kept = ids >= 0
    # kept tokens before each old boundary; a sentence left empty repeats
    # its start, so the distinct counts are the new offsets
    bounds = np.unique(np.searchsorted(np.flatnonzero(kept), corpus.offsets))
    return Corpus(corpus.language, tuple(stems), ids[kept], bounds)


def build_vocabulary(corpus: Corpus) -> dict[str, int]:
    """Exact corpus frequencies, word -> count, in frequency order: count
    descending, then lexicographic, for determinism."""
    counts = _type_counts(corpus)
    present = sorted(np.flatnonzero(counts).tolist(),
                     key=corpus.types.__getitem__)
    if not present:
        raise EmptyInputError("cannot build a vocabulary from an empty corpus")
    # by word, then stably by count descending: (-count, word) order
    order = np.array(present)[np.argsort(-counts[present], kind="stable")]
    return dict(zip(map(corpus.types.__getitem__, order.tolist()),
                    counts[order].tolist()))


def sample_corpus(corpus: Corpus, fraction: float, seed: int) -> Corpus:
    """Select round(fraction * n) whole sentences uniformly without
    replacement, preserving original sentence order; deterministic in
    (corpus, fraction, seed)."""
    if not 0.0 < fraction <= 1.0:
        raise ArgumentError(f"fraction must lie in (0, 1], got {fraction}")
    if seed < 0:
        raise ArgumentError(f"seed must be >= 0, got {seed}")
    n = len(corpus.offsets) - 1
    if fraction == 1.0:
        return corpus
    size = int(math.floor(fraction * n + 0.5))
    rng = np.random.default_rng(seed)
    chosen = np.zeros(n, bool)
    chosen[rng.choice(n, size=size, replace=False)] = True
    lengths = np.diff(corpus.offsets)
    return Corpus(corpus.language, corpus.types,
                  corpus.ids[np.repeat(chosen, lengths)],
                  np.concatenate(([0], np.cumsum(lengths[chosen]))))


def read_corpus(path, language: str, sentence_per_line: bool = True) -> Corpus:
    return tokenize_corpus((line for _, line in read_lines(path)),
                           language, sentence_per_line=sentence_per_line)


def write_corpus(corpus: Corpus, path) -> None:
    """One sentence per line, tokens joined by a space. Refuses, before
    the file is opened, a corpus that ``read_corpus`` would give back
    changed: an empty sentence, or a token that is empty, holds
    whitespace, changes under ``lower()`` or has no UTF-8 encoding."""
    empty = np.flatnonzero(np.diff(corpus.offsets) == 0)
    if len(empty):
        raise FormatError(f"sentence {empty[0] + 1} is empty", path=path)
    for i in np.flatnonzero(_type_counts(corpus)).tolist():
        tok = corpus.types[i]
        if tok.lower().split() != [tok] or _SURROGATE.search(tok):
            raise FormatError(f"token {tok!r} would not read back as "
                              "written", path=path)
    write_lines(path, map(" ".join, corpus.sentences))


def read_wordlist(path) -> tuple[str, ...]:
    """One word per line; blank lines ignored."""
    return tuple(line.strip() for _, line in read_lines(path))
