import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vsmeval.bow import (CountMatrix, build_bow_table, count_cooccurrences,
                         ppmi_transform)
from vsmeval.corpus import Corpus, build_vocabulary
from vsmeval.errors import ArgumentError, DegenerateError

from conftest import dense_count_matrix
from oracles import (cooccurrence_bruteforce, dense_counts,
                     ppmi_dense_reference, ppmi_scalar)


def _corpus(*sentences):
    return Corpus.from_sentences("en", tuple(tuple(s.split()) for s in sentences))


def test_simple_window_count():
    corpus = _corpus("a b a")
    vocab = build_vocabulary(corpus)
    m = count_cooccurrences(corpus, {"a"}, vocab, k=2, window=1)
    b_col = m.col_words.index("b")
    a_row = m.row_words.index("a")
    assert dense_counts(m)[a_row, b_col] == 2


def test_counts_respect_sentence_boundaries():
    corpus = _corpus("a", "b")
    vocab = build_vocabulary(corpus)
    m = count_cooccurrences(corpus, {"a", "b"}, vocab, k=2, window=5)
    assert dense_counts(m).sum() == 0


def test_k_exceeding_vocabulary_rejected():
    corpus = _corpus("a b")
    vocab = build_vocabulary(corpus)
    with pytest.raises(ArgumentError):
        count_cooccurrences(corpus, {"a"}, vocab, k=3, window=1)


def test_counts_match_bruteforce_enumerator(rng):
    words = [f"w{i}" for i in range(12)]
    for trial in range(20):
        sentences = tuple(
            tuple(rng.choice(words, size=rng.integers(1, 15)))
            for _ in range(50)
        )
        corpus = Corpus.from_sentences("en", sentences)
        vocab = build_vocabulary(corpus)
        k = int(rng.integers(1, len(vocab) + 1))
        window = int(rng.integers(1, 5))
        targets = set(rng.choice(words, size=6))
        m = count_cooccurrences(corpus, targets, vocab, k, window)
        expected = cooccurrence_bruteforce(
            sentences, m.row_words, m.col_words, window
        )
        counts = dense_counts(m)
        for i, w in enumerate(m.row_words):
            for j, c in enumerate(m.col_words):
                assert counts[i, j] == expected.get((w, c), 0)


@st.composite
def _counting_cases(draw):
    """(sentences, targets, k, window): a few short sentences over a tiny
    vocabulary, so tokens often repeat next to themselves, with windows up
    to beyond the longest sentence."""
    words = ["a", "b", "c", "d", "e"]
    sentences = draw(st.lists(
        st.lists(st.sampled_from(words), min_size=1, max_size=6)
        .map(tuple), max_size=6))
    targets = draw(st.sets(st.sampled_from(words + ["z"])))
    types = len({t for s in sentences for t in s})
    k = draw(st.integers(1, max(types, 1)))
    window = draw(st.integers(1, 8))
    return tuple(sentences), targets, k, window


@settings(deadline=None, max_examples=150)
@given(_counting_cases())
@example(((), {"a"}, 1, 2))
@example(((("a",), ("a", "a"), ("b", "a")), {"a", "b"}, 2, 1))
@example(((("a", "a", "a"),), {"a"}, 1, 8))
def test_counts_equal_bruteforce_property(case):
    sentences, targets, k, window = case
    corpus = Corpus.from_sentences("en", sentences)
    if corpus.token_count == 0:
        # an empty corpus has no vocabulary to take contexts from
        vocab = build_vocabulary(Corpus.from_sentences("en", (("a",),)))
    else:
        vocab = build_vocabulary(corpus)
    m = count_cooccurrences(corpus, targets, vocab, k, window)
    expected = cooccurrence_bruteforce(sentences, m.row_words, m.col_words,
                                       window)
    counts = dense_counts(m)
    assert m.values.dtype == np.int64
    assert counts.shape == (len(targets), k)
    assert {(w, c): int(counts[i, j])
            for i, w in enumerate(m.row_words)
            for j, c in enumerate(m.col_words) if counts[i, j]} == expected


def test_count_symmetry_between_roles():
    corpus = _corpus("a b c a b", "c c a b a")
    vocab = build_vocabulary(corpus)
    m = count_cooccurrences(corpus, {"a", "b", "c"}, vocab,
                            k=len(vocab), window=2)
    counts = dense_counts(m)
    for w1 in m.row_words:
        for w2 in m.row_words:
            i1, j1 = m.row_words.index(w1), m.col_words.index(w2)
            i2, j2 = m.row_words.index(w2), m.col_words.index(w1)
            assert counts[i1, j1] == counts[i2, j2]


def test_wider_window_never_decreases_counts(rng):
    words = [f"w{i}" for i in range(8)]
    sentences = tuple(
        tuple(rng.choice(words, size=10)) for _ in range(30)
    )
    corpus = Corpus.from_sentences("en", sentences)
    vocab = build_vocabulary(corpus)
    prev = None
    for window in (1, 2, 3, 5):
        m = count_cooccurrences(corpus, set(words), vocab,
                                k=len(vocab), window=window)
        if prev is not None:
            assert np.all(dense_counts(m) >= prev)
        prev = dense_counts(m)


def test_ppmi_independence_gives_zero():
    m = dense_count_matrix(("a", "b"), ("x", "y"),
                           np.array([[1, 1], [1, 1]]))
    table = ppmi_transform(m)
    assert np.allclose(table.vectors["a"], 0.0)
    assert np.allclose(table.vectors["b"], 0.0)


def test_ppmi_diagonal_hand_value():
    m = dense_count_matrix(("a", "b"), ("x", "y"),
                           np.array([[2, 0], [0, 2]]))
    table = ppmi_transform(m)
    # n=2, total=4, row=col=2: ln(2*4/(2*2)) = ln 2
    assert table.vectors["a"][0] == pytest.approx(math.log(2), abs=1e-12)
    assert table.vectors["a"][1] == 0.0
    assert table.vectors["b"][1] == pytest.approx(math.log(2), abs=1e-12)


def test_ppmi_nonnegative_and_matches_scalar_formula(rng):
    counts = rng.integers(0, 6, size=(7, 9))
    m = dense_count_matrix(
        tuple(f"r{i}" for i in range(7)),
        tuple(f"c{j}" for j in range(9)),
        counts,
    )
    table = ppmi_transform(m)
    total = counts.sum()
    for i in range(7):
        vec = table.vectors[f"r{i}"]
        assert np.all(vec >= 0)
        for j in range(9):
            expected = ppmi_scalar(
                counts[i, j], counts[i].sum(), counts[:, j].sum(), total
            )
            assert vec[j] == pytest.approx(expected, abs=1e-12)


def test_ppmi_scale_invariance(rng):
    counts = rng.integers(0, 5, size=(5, 6))
    counts[0, 0] += 1  # nonzero total
    rows = tuple(f"r{i}" for i in range(5))
    cols = tuple(f"c{j}" for j in range(6))
    t1 = ppmi_transform(dense_count_matrix(rows, cols, counts))
    t2 = ppmi_transform(dense_count_matrix(rows, cols, counts * 2))
    for w in rows:
        assert np.allclose(t1.vectors[w], t2.vectors[w], atol=1e-12)


def test_ppmi_zero_matrix_rejected():
    m = dense_count_matrix(("a",), ("x",), np.zeros((1, 1), dtype=int))
    with pytest.raises(DegenerateError):
        ppmi_transform(m)


def test_ppmi_zero_row_becomes_zero_vector():
    m = dense_count_matrix(("a", "b"), ("x", "y"),
                           np.array([[0, 0], [1, 2]]))
    table = ppmi_transform(m)
    assert np.all(table.vectors["a"] == 0.0)


@st.composite
def _count_arrays(draw):
    """A dense count array: 1x1 to 40x300, any density, counts up to
    10**9, some rows and columns zeroed out."""
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 300)))
    density = draw(st.floats(0.0, 1.0))
    high = draw(st.sampled_from([1, 3, 1000, 10**9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(1, high, size=shape, endpoint=True)
    counts[rng.random(shape) >= density] = 0
    counts[rng.random(shape[0]) < draw(st.floats(0.0, 0.5))] = 0
    counts[:, rng.random(shape[1]) < draw(st.floats(0.0, 0.5))] = 0
    return counts


def _single(shape, cell, value):
    counts = np.zeros(shape, dtype=np.int64)
    counts[cell] = value
    return counts


@settings(deadline=None, max_examples=200)
@given(_count_arrays(), st.booleans())
@example(np.zeros((1, 1), dtype=np.int64), False)
@example(np.zeros((3, 5), dtype=np.int64), True)
@example(_single((1, 1), (0, 0), 1), False)
@example(_single((40, 300), (17, 123), 10**9), False)
@example(_single((40, 300), (39, 0), 1), True)
@example(np.full((40, 300), 10**9, dtype=np.int64), False)
@example(np.array([[3, -1], [2, 5]]), False)  # marginals sum every triplet
def test_ppmi_equals_the_dense_reference(counts, every_cell):
    rows = tuple(f"r{i}" for i in range(counts.shape[0]))
    cols = tuple(f"c{j}" for j in range(counts.shape[1]))
    m = dense_count_matrix(rows, cols, counts, "en")
    if every_cell:
        # a library caller may pass a triplet per cell, zeros included
        r, c = np.indices(counts.shape).reshape(2, -1)
        m = CountMatrix(rows, cols, r, c, counts.ravel(), "en")
    try:
        want = ppmi_dense_reference(m)
    except DegenerateError as error:
        with pytest.raises(DegenerateError) as got:
            ppmi_transform(m)
        assert str(got.value) == str(error)
        return
    table = ppmi_transform(m)
    assert table.language == want.language
    assert table.words == want.words
    # equal bytes: equal values and equal sign bits, zeros included
    assert table.matrix.tobytes() == want.matrix.tobytes()


def test_paper_scale_build_peaks_near_its_matrix():
    # 1000 targets x k=10000 on a 200k-token Zipf corpus; dense counts and
    # dense PPMI temporaries peaked at about five times the output matrix
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(12_000)]
    p = 1.0 / np.arange(1, len(words) + 1)
    tokens = [words[i] for i in rng.choice(len(words), 200_000,
                                           p=p / p.sum())]
    sentences = tuple(tuple(tokens[i:i + 15])
                      for i in range(0, len(tokens), 15))
    # one sentence of every word, so that k=10000 contexts exist
    corpus = Corpus.from_sentences("en", sentences + (tuple(words),))
    vocab = build_vocabulary(corpus)
    tracemalloc.start()
    try:
        table = build_bow_table(corpus, words[::12], vocab, k=10_000,
                                window=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.matrix.shape == (1000, 10_000)
    assert peak <= 2.0 * table.matrix.nbytes
