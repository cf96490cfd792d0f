import numpy as np
import pytest
from hypothesis import strategies as st

from vsmeval.agreement import EvaluationSet
from vsmeval.bow import CountMatrix
from vsmeval.scoring import WordPairList
from vsmeval.stats import centred_ranks


# characters a line reader treats specially: the tab, the line breaks \n
# and \r, other Unicode breaks and spaces, and the comment sign
LINE_READER_CHARACTERS = ["a", "\u00e4", "\u0416", "#", " ", "\t", "\n", "\r",
                          "\x0c", "\x85", "\u2028"]


@st.composite
def damaged(draw, data: bytes):
    """Arbitrary bytes, or ``data`` with one byte replaced or inserted."""
    kind = draw(st.sampled_from(["bytes", "replace", "insert"]))
    if kind == "bytes":
        return draw(st.binary(max_size=120))
    replace = kind == "replace"
    pos = draw(st.integers(0, len(data) - replace))
    byte = draw(st.binary(min_size=1, max_size=1))
    return data[:pos] + byte + data[pos + replace:]


def dense_count_matrix(row_words, col_words, counts, language="und"):
    """A CountMatrix holding the non-zero cells of a dense count array."""
    counts = np.asarray(counts)
    rows, cols = np.nonzero(counts)
    return CountMatrix(tuple(row_words), tuple(col_words), rows, cols,
                       counts[rows, cols].astype(np.int64), language)


def integer_matrix(seed, n, m, levels, constant_share, span=121, low=0):
    """An n x m int16 matrix over at most ``levels`` distinct values of
    ``low`` to ``low + span - 1``, with a share of constant columns."""
    r = np.random.default_rng(seed)
    values = low + r.choice(span, size=min(levels, span), replace=False)
    x = r.choice(values, size=(n, m)).astype(np.int16)
    constant = r.random(m) < constant_share
    x[:, constant] = x[0, constant]
    return x


def average_ranks(x):
    """Average ranks of the columns of ``x``, ``(d + n + 1) / 2`` in
    float64 of the doubled centred ranks d of ``stats.centred_ranks``."""
    d, _ = centred_ranks(x)
    return np.add(d, len(x) + 1, dtype=np.float64) / 2


def _rescale_to_range(scores, lo=0.0, hi=10.0):
    smin, smax = scores.min(), scores.max()
    return np.clip(lo + (hi - lo) * (scores - smin) / (smax - smin), lo, hi)


def make_evalset(scores, language="en", batch_size=50, words=None):
    """Wrap a pairs x annotators score matrix into an EvaluationSet with
    consecutive batches of ``batch_size`` pairs."""
    scores = np.asarray(scores, dtype=float)
    n = scores.shape[0]
    if words is None:
        pairs = tuple((f"w{i}a", f"w{i}b") for i in range(n))
    else:
        pairs = tuple(words)
    batches = []
    pos = 0
    while pos < n:
        batches.append(tuple(range(pos, min(pos + batch_size, n))))
        pos += batch_size
    return EvaluationSet(
        language=language,
        pairs=WordPairList(pairs=pairs, source_ids=tuple(range(n))),
        scores=scores,
        batches=tuple(batches),
    )


def synthetic_languages(
    seed,
    n_langs=4,
    n_batches=2,
    batch_size=50,
    bias_sd=1.2,
    noise_sd=1.0,
    extreme_consensus=False,
    n_annotators=13,
):
    """Language-tagged evaluation sets sharing one latent pair-score
    vector, with a per-language bias vector and per-annotator noise.

    With ``extreme_consensus`` the annotator noise shrinks on each batch's
    extreme pairs and grows in the middle, concentrating agreement at the
    ranking extremes.
    """
    rng = np.random.default_rng(seed)
    n = n_batches * batch_size
    latent = rng.uniform(0.0, 10.0, size=n)
    if extreme_consensus:
        scale = np.empty(n)
        for b in range(n_batches):
            block = slice(b * batch_size, (b + 1) * batch_size)
            order = np.argsort(latent[block])
            cut = batch_size // 5
            s = np.full(batch_size, 2.5)
            s[order[:cut]] = 0.3
            s[order[-cut:]] = 0.3
            scale[block] = s
    else:
        scale = np.full(n, noise_sd)
    languages = ["en", "de", "it", "ru"][:n_langs]
    sets = []
    for lang in languages:
        bias = rng.normal(0.0, bias_sd, size=n)
        base = latent + bias
        raw = base[:, None] + rng.normal(
            0.0, 1.0, size=(n, n_annotators)
        ) * scale[:, None]
        sets.append(
            make_evalset(_rescale_to_range(raw), language=lang,
                         batch_size=batch_size)
        )
    return sets


def build_cli_workspace(root):
    """Populate a directory with the small fixture files the CLI commands
    consume: corpus, target list, evaluation set, two vector tables, and
    a one-to-one translation lexicon."""
    from vsmeval.agreement import save_evaluation_set
    from vsmeval.combine import TranslationLexicon, save_lexicon
    from vsmeval.vectors import VectorTable, save_vectors

    rng = np.random.default_rng(99)
    words = [f"w{i}" for i in range(16)]
    corpus = "\n".join(
        " ".join(rng.choice(words, size=8)) for _ in range(200)
    )
    (root / "corpus.txt").write_text(corpus + "\n")
    (root / "targets.txt").write_text("\n".join(words) + "\n")

    pair_words = tuple((words[2 * i], words[2 * i + 1]) for i in range(8))
    scores = rng.uniform(0, 10, size=(8, 13))
    evalset = make_evalset(scores, language="en", words=pair_words,
                           batch_size=8)
    save_evaluation_set(evalset, root / "evalset.tsv")

    save_vectors(
        VectorTable("en", tuple(words), rng.normal(size=(len(words), 4))),
        root / "vectors.txt",
    )
    save_vectors(
        VectorTable("de", tuple(words), rng.normal(size=(len(words), 4))),
        root / "vectors_de.txt",
    )
    save_lexicon(
        TranslationLexicon(("en", "de"), tuple((w, w) for w in words)),
        root / "lexicon.tsv",
    )
    return root


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def ws353_shaped():
    """350 pairs in 7 batches of 50, 13 annotators, random scores."""
    r = np.random.default_rng(7)
    return make_evalset(r.uniform(0, 10, size=(350, 13)), language="en")


@pytest.fixture
def sl999_shaped():
    """999 pairs: 19 batches of 50 plus one of 49."""
    r = np.random.default_rng(9)
    return make_evalset(r.uniform(0, 10, size=(999, 13)), language="en")
