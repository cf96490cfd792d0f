"""Corpus ingestion: tokenization, cleaning, vocabulary extraction and
reproducible sentence subsampling.

A corpus is a language-tagged sequence of sentences (token sequences);
sentence boundaries matter downstream because co-occurrence windows never
cross them, which also makes the sentence the atomic unit of subsampling.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ArgumentError, EmptyInputError
from .stemming import porter_stem
from .stopwords import ENGLISH_STOPWORDS
from .textfile import read_lines, read_text, write_lines

_SENTENCE_BREAK = re.compile(r"[.!?]+|\n+")


@dataclass(frozen=True)
class Corpus:
    language: str
    sentences: tuple[tuple[str, ...], ...]

    @property
    def token_count(self) -> int:
        return sum(map(len, self.sentences))

    @property
    def type_count(self) -> int:
        return len({t for s in self.sentences for t in s})


def tokenize_corpus(
    raw_text: str, language: str, sentence_per_line: bool = False
) -> Corpus:
    """Split text into lowercased whitespace tokens, one sentence per
    terminal-punctuation or newline boundary.

    With ``sentence_per_line`` every line is one sentence regardless of
    punctuation (the pre-segmented input mode).
    """
    if sentence_per_line:
        segments = raw_text.split("\n")
    else:
        segments = _SENTENCE_BREAK.split(raw_text)
    sentences = []
    for seg in segments:
        tokens = tuple(tok.lower() for tok in seg.split())
        if tokens:
            sentences.append(tokens)
    return Corpus(language=language, sentences=tuple(sentences))


def clean_tokens(
    corpus: Corpus,
    stopwords: Iterable[str] | None = None,
    stemmer: Callable[[str], str] | None = None,
) -> Corpus:
    """Drop non-alphabetic tokens and stopwords, stem the survivors, and
    discard sentences that end up empty.

    "Alphabetic" is Unicode letter classification (str.isalpha), so
    Cyrillic and umlauted words survive. Stopword filtering runs before
    stemming. The stemmer is called once per distinct surviving token, so
    it must be a pure ``str -> str`` function.
    """
    if stopwords is None:
        stopwords = ENGLISH_STOPWORDS
    else:
        stopwords = frozenset(stopwords)
    if stemmer is None:
        stemmer = porter_stem
    types = {tok for sent in corpus.sentences for tok in sent}
    stem_of = {tok: stemmer(tok) for tok in types
               if tok.isalpha() and tok not in stopwords}
    sentences = []
    for sent in corpus.sentences:
        kept = tuple(stem_of[tok] for tok in sent if tok in stem_of)
        if kept:
            sentences.append(kept)
    return Corpus(language=corpus.language, sentences=tuple(sentences))


def build_vocabulary(corpus: Corpus) -> dict[str, int]:
    """Exact corpus frequencies, word -> count, in frequency order: count
    descending, then lexicographic, for determinism."""
    counts = Counter(chain.from_iterable(corpus.sentences))
    if not counts:
        raise EmptyInputError("cannot build a vocabulary from an empty corpus")
    return dict(sorted(counts.items(), key=lambda wc: (-wc[1], wc[0])))


def sample_corpus(corpus: Corpus, fraction: float, seed: int) -> Corpus:
    """Select round(fraction * n) whole sentences uniformly without
    replacement, preserving original sentence order; deterministic in
    (corpus, fraction, seed)."""
    if not 0.0 < fraction <= 1.0:
        raise ArgumentError(f"fraction must lie in (0, 1], got {fraction}")
    if seed < 0:
        raise ArgumentError(f"seed must be >= 0, got {seed}")
    n = len(corpus.sentences)
    if fraction == 1.0:
        return corpus
    size = int(math.floor(fraction * n + 0.5))
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(n, size=size, replace=False))
    sentences = tuple(corpus.sentences[i] for i in chosen)
    return Corpus(language=corpus.language, sentences=sentences)


def read_corpus(path, language: str, sentence_per_line: bool = True) -> Corpus:
    return tokenize_corpus(read_text(path), language,
                           sentence_per_line=sentence_per_line)


def write_corpus(corpus: Corpus, path) -> None:
    write_lines(path, map(" ".join, corpus.sentences))


def read_wordlist(path) -> tuple[str, ...]:
    """One word per line; blank lines ignored."""
    return tuple(line.strip() for _, line in read_lines(path))
