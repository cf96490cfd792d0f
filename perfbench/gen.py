"""Seeded input writers for the benchmark workloads.

Everything here depends only on the seed and the size table, never on
``vsmeval``, so the bytes a workload feeds the program are the same on
every commit. Each ``make_*`` writes its files into a directory and
returns a description of them: the file names and the input sizes.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

# Pseudo-words are consonant-vowel syllables plus one final consonant.
# With no "s", "y", "l", "r", "c" or "d" at the end and never two vowels
# or two consonants in a row, no Porter suffix rule matches, so every
# base word is its own stem and a target never turns into a zero row.
_ONSETS = list("bdfgkmnptvz")
_VOWELS = list("aeiou")
_FINALS = list("bgkmnptvz")
# Inflected variants give the stemmer real work: cleaning folds them back.
_SUFFIXES = ["s", "ed", "ing", "ness", "ation"]
# A fixed function-word list, so cleaning has stopwords to drop.
_STOPWORDS = ("the of and a to in is was it for on with as by that this "
              "from at be are or an not").split()
_NON_ALPHA = ["1987", "42", "x-ray", "it's", ",", ";", "3.5", "e-mail"]

ANNOTATORS = 13
BATCH = 50
LANGUAGES = ("en", "de", "it", "ru")

SIZES = {
    "full": {
        "bow_build": dict(tokens=100_000, types=40_000, pairs=100,
                          ranks=(20, 600), k=10_000, window=2),
        "agreement_protocol": dict(pairs=999, outliers=3),
        "resample_combine": dict(tokens=60_000, types=8_000, pairs=100,
                                 ranks=(10, 800), k=500, window=2, reps=2,
                                 emb_words=4_000, emb_dim=100,
                                 lexicon=3_000, max_dim=50),
    },
    "tiny": {
        "bow_build": dict(tokens=3_000, types=600, pairs=20,
                          ranks=(5, 60), k=200, window=2),
        "agreement_protocol": dict(pairs=99, outliers=1),
        "resample_combine": dict(tokens=3_000, types=400, pairs=20,
                                 ranks=(5, 60), k=100, window=2, reps=1,
                                 emb_words=300, emb_dim=20,
                                 lexicon=200, max_dim=10),
    },
}


def pseudo_words(rng, n: int) -> list[str]:
    """``n`` distinct Porter fixed points, in a seeded order."""
    words: dict[str, None] = {}
    while len(words) < n:
        m = 2 * (n - len(words))
        onsets = rng.integers(len(_ONSETS), size=(m, 3))
        vowels = rng.integers(len(_VOWELS), size=(m, 3))
        finals = rng.integers(len(_FINALS), size=m)
        lengths = rng.integers(1, 4, size=m)
        for on, vo, fi, length in zip(onsets.tolist(), vowels.tolist(),
                                      finals.tolist(), lengths.tolist()):
            word = "".join(_ONSETS[on[i]] + _VOWELS[vo[i]]
                           for i in range(length)) + _FINALS[fi]
            words.setdefault(word)
            if len(words) == n:
                break
    return list(words)


def _vocabulary(rng, n_types: int) -> tuple[list[str], np.ndarray]:
    """Types in frequency-rank order and a mask of the uninflected ones."""
    n_base = int(n_types * 0.85)
    base = pseudo_words(rng, n_base)
    extra = [base[i] + _SUFFIXES[rng.integers(len(_SUFFIXES))]
             for i in rng.choice(n_base, n_types - n_base, replace=False)]
    types = base + sorted(set(extra) - set(base))
    order = rng.permutation(len(types))
    is_base = np.array([i < n_base for i in order])
    return [types[i] for i in order], is_base


def _zipf_sentences(rng, types, n_tokens, stop_frac=0.0, non_alpha_frac=0.0):
    p = 1.0 / np.arange(1, len(types) + 1)
    ids = rng.choice(len(types), size=n_tokens, p=p / p.sum())
    tokens = [types[i] for i in ids]
    draw = rng.random(n_tokens)
    for pos in np.flatnonzero(draw < stop_frac):
        tokens[pos] = _STOPWORDS[rng.integers(len(_STOPWORDS))]
    for pos in np.flatnonzero(draw > 1.0 - non_alpha_frac):
        tokens[pos] = _NON_ALPHA[rng.integers(len(_NON_ALPHA))]
    sentences, start = [], 0
    while start < n_tokens:
        length = int(rng.integers(5, 26))
        sentences.append(" ".join(tokens[start:start + length]))
        start += length
    return sentences


def _pairs(rng, types, is_base, n_pairs, lo, hi):
    """Pairs of uninflected words with frequency rank in [lo, hi)."""
    pool = [w for w, b in zip(types[lo:hi], is_base[lo:hi]) if b]
    pool = [pool[i] for i in rng.permutation(len(pool))[:int(n_pairs * 1.5)]]
    pairs = []
    while len(pairs) < n_pairs:
        a, b = rng.choice(len(pool), size=2, replace=False)
        pairs.append((pool[a], pool[b]))
    return pairs


def _latent_scores(rng, n_pairs):
    return rng.uniform(0.0, 10.0, size=n_pairs)


def _annotate(rng, latent, noise=1.5, shift=None):
    """13 integer judgments per pair on the 0-10 scale, rounded as crowd
    sliders are; ``shift`` moves chosen (row slice, annotator) cells."""
    raw = latent[:, None] + rng.normal(0.0, noise,
                                       size=(len(latent), ANNOTATORS))
    if shift is not None:
        for rows, j in shift:
            raw[rows, j] += 4.0
    return np.clip(np.rint(raw), 0.0, 10.0)


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def _write_evalset(path, pairs, scores):
    cols = "\t".join(f"a{j + 1:02d}" for j in range(ANNOTATORS))
    lines = [f"pair_index\tword1\tword2\tbatch\t{cols}"]
    for i, ((w1, w2), row) in enumerate(zip(pairs, scores)):
        cells = "\t".join(repr(float(v)) for v in row)
        lines.append(f"{i}\t{w1}\t{w2}\t{i // BATCH}\t{cells}")
    _write_lines(path, lines)


def _write_table(path, words, matrix):
    lines = [f"{len(words)} {matrix.shape[1]}"]
    for word, row in zip(words, matrix):
        lines.append(word + " " + " ".join(repr(float(v)) for v in row))
    _write_lines(path, lines)


def make_bow_build(rng, size, out):
    types, is_base = _vocabulary(rng, size["types"])
    sentences = _zipf_sentences(rng, types, size["tokens"],
                                stop_frac=0.25, non_alpha_frac=0.04)
    _write_lines(os.path.join(out, "corpus.txt"), sentences)
    pairs = _pairs(rng, types, is_base, size["pairs"], *size["ranks"])
    scores = _annotate(rng, _latent_scores(rng, len(pairs)))
    _write_evalset(os.path.join(out, "evalset.tsv"), pairs, scores)
    return {"files": ["corpus.txt", "evalset.tsv"],
            "human": scores.mean(axis=1),
            "sizes": dict(size, sentences=len(sentences),
                          targets=len({w for p in pairs for w in p}),
                          batches=-(-len(pairs) // BATCH),
                          annotators=ANNOTATORS)}


def make_agreement_protocol(rng, size, out):
    n = size["pairs"]
    words = pseudo_words(rng, 2 * n)
    pairs = list(zip(words[:n], words[n:]))
    latent = _latent_scores(rng, n)
    n_batches = -(-n // BATCH)
    files, planted = [], {}
    for lang in LANGUAGES:
        bias = rng.normal(0.0, 1.2, size=n)
        batches = rng.choice(n_batches, size["outliers"], replace=False)
        outliers = [(int(b), int(rng.integers(ANNOTATORS))) for b in batches]
        shift = [(slice(b * BATCH, (b + 1) * BATCH), j) for b, j in outliers]
        scores = _annotate(rng, np.clip(latent + bias, 0.0, 10.0),
                           shift=shift)
        name = f"evalset_{lang}.tsv"
        _write_evalset(os.path.join(out, name), pairs, scores)
        files.append(name)
        planted[lang] = sorted(outliers)
    return {"files": files, "planted": planted,
            "sizes": dict(size, languages=len(LANGUAGES), batches=n_batches,
                          annotators=ANNOTATORS)}


def make_resample_combine(rng, size, out):
    types, is_base = _vocabulary(rng, size["types"])
    sentences = _zipf_sentences(rng, types, size["tokens"])
    _write_lines(os.path.join(out, "corpus.txt"), sentences)
    pairs = _pairs(rng, types, is_base, size["pairs"], *size["ranks"])
    scores = _annotate(rng, _latent_scores(rng, len(pairs)))
    _write_evalset(os.path.join(out, "evalset.tsv"), pairs, scores)

    # Two dense embedding tables sharing a latent space on the lexicon rows.
    n, d, n_lex = size["emb_words"], size["emb_dim"], size["lexicon"]
    words = pseudo_words(rng, 2 * n)
    latent = rng.normal(size=(n, d // 4))
    tables = []
    for lang, vocab in (("en", words[:n]), ("de", words[n:])):
        mixing = rng.normal(size=(d // 4, d))
        matrix = latent @ mixing + rng.normal(scale=2.0, size=(n, d))
        _write_table(os.path.join(out, f"emb_{lang}.txt"), vocab, matrix)
        tables.append(matrix)
    _write_lines(os.path.join(out, "lexicon.tsv"),
                 ["en\tde"] + [f"{words[i]}\t{words[n + i]}"
                               for i in range(n_lex)])

    # Two model score files over one pair list, for interpolation.
    score_files = []
    for name in ("scores_1.tsv", "scores_2.tsv"):
        values = rng.uniform(-1.0, 1.0, size=len(pairs))
        _write_lines(os.path.join(out, name),
                     ["pair_index\tword1\tword2\tscore"]
                     + [f"{i}\t{a}\t{b}\t{v!r}" for i, ((a, b), v)
                        in enumerate(zip(pairs, values.tolist()))])
        score_files.append(name)
    return {"files": ["corpus.txt", "evalset.tsv", "emb_en.txt",
                      "emb_de.txt", "lexicon.tsv"] + score_files,
            "lexicon_rows": (tables[0][:n_lex], tables[1][:n_lex]),
            "sizes": dict(size, sentences=len(sentences),
                          targets=len({w for p in pairs for w in p}),
                          annotators=ANNOTATORS)}


MAKERS = {
    "bow_build": make_bow_build,
    "agreement_protocol": make_agreement_protocol,
    "resample_combine": make_resample_combine,
}


def make(workload: str, seed: int, size: str, out: str) -> dict:
    """Write the inputs of ``workload`` for ``seed`` into ``out``."""
    rng = np.random.default_rng([seed, list(MAKERS).index(workload)])
    return MAKERS[workload](rng, SIZES[size][workload], out)


def describe(inputs: dict, out: str) -> dict:
    """SHA-256 and byte size of every input file, plus the input sizes."""
    files = {}
    for name in inputs["files"]:
        with open(os.path.join(out, name), "rb") as fh:
            data = fh.read()
        files[name] = {"sha256": hashlib.sha256(data).hexdigest(),
                       "bytes": len(data)}
    return {"files": files, "sizes": inputs["sizes"]}
