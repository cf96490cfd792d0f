import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vsmeval.corpus
from vsmeval.corpus import (
    Corpus,
    build_vocabulary,
    clean_tokens,
    read_corpus,
    sample_corpus,
    tokenize_corpus,
    write_corpus,
)
from vsmeval.bow import count_cooccurrences
from vsmeval.errors import ArgumentError, EmptyInputError, FormatError
from vsmeval.stemming import porter_stem


def test_tokenize_sentences_and_lowercasing():
    corpus = tokenize_corpus("A cat sat. A dog ran.", "en")
    assert corpus.sentences == (("a", "cat", "sat"), ("a", "dog", "ran"))
    assert corpus.token_count == 6
    assert corpus.type_count == 5


def test_tokenize_empty_input():
    corpus = tokenize_corpus("", "en")
    assert corpus.sentences == ()
    assert corpus.token_count == 0


def test_tokenize_newline_fallback():
    corpus = tokenize_corpus("One sentence no period", "en")
    assert len(corpus.sentences) == 1
    assert len(corpus.sentences[0]) == 4


def test_tokenize_sentence_per_line_mode():
    corpus = tokenize_corpus("no split here. really\nsecond line", "en",
                             sentence_per_line=True)
    assert len(corpus.sentences) == 2
    assert corpus.sentences[0] == ("no", "split", "here.", "really")


@pytest.mark.parametrize("sentence_per_line", [True, False])
def test_read_corpus_ends_a_line_at_a_lone_carriage_return(
        tmp_path, sentence_per_line):
    # as every other format does; the line breaks are \n, \r\n and \r
    path = tmp_path / "corpus.txt"
    path.write_text("A b\rc d\r\ne\n\rf\u2028g", encoding="utf-8",
                    newline="")  # U+2028 is a space within a line
    corpus = read_corpus(path, "en", sentence_per_line=sentence_per_line)
    assert corpus.sentences == (("a", "b"), ("c", "d"), ("e",),
                                ("f", "g"))


def test_clean_drops_stopwords_and_nonalpha(monkeypatch):
    monkeypatch.setattr(vsmeval.corpus, "porter_stem", lambda w: w)
    corpus = Corpus.from_sentences("en", (("the", "cat", "42", "running"),))
    cleaned = clean_tokens(corpus, stopwords={"the"})
    assert cleaned.sentences == (("cat", "running"),)


def test_clean_stems_each_distinct_token_once(monkeypatch):
    calls = []

    def stem(token):
        calls.append(token)
        return token[:3]

    stopwords = {"the", "and"}
    sentences = (
        ("the", "running", "runner", "the", "running", "42"),
        ("and", "the", "x1", "--"),
        ("runner", "über", "über", "ran"),
        ("running",),
    )
    monkeypatch.setattr(vsmeval.corpus, "porter_stem", stem)
    cleaned = clean_tokens(Corpus.from_sentences("en", sentences), stopwords=stopwords)
    eligible = {t for s in sentences for t in s
                if t.isalpha() and t not in stopwords}
    assert sorted(calls) == sorted(eligible)
    expected = tuple(
        kept for kept in (tuple(stem(t) for t in s
                                if t.isalpha() and t not in stopwords)
                          for s in sentences) if kept)
    assert cleaned.sentences == expected


def test_clean_drops_empty_sentences(monkeypatch):
    monkeypatch.setattr(vsmeval.corpus, "porter_stem", lambda w: w)
    corpus = Corpus.from_sentences("en", (("the", "a", "an"), ("cat",)))
    cleaned = clean_tokens(corpus, stopwords={"the", "a", "an"})
    assert cleaned.sentences == (("cat",),)


def test_clean_unicode_letters_survive(monkeypatch):
    monkeypatch.setattr(vsmeval.corpus, "porter_stem", lambda w: w)
    corpus = Corpus.from_sentences("ru", (("слово", "straße", "x1"),))
    cleaned = clean_tokens(corpus, stopwords=set())
    assert cleaned.sentences == (("слово", "straße"),)


def test_default_stemmer_conflates_inflections():
    assert porter_stem("running") == porter_stem("runs")
    corpus = Corpus.from_sentences("en", (("running", "runs"),))
    cleaned = clean_tokens(corpus, stopwords=set())
    assert cleaned.sentences[0][0] == cleaned.sentences[0][1]


def test_clean_is_idempotent():
    corpus = tokenize_corpus(
        "The quick brown foxes were running. Dogs ran 42 times!", "en"
    )
    once = clean_tokens(corpus)
    twice = clean_tokens(once)
    assert once.sentences == twice.sentences


def test_vocabulary_counts_and_order():
    vocab = build_vocabulary(Corpus.from_sentences("en", (("a", "b", "a"),)))
    assert vocab["a"] == 2
    assert vocab["b"] == 1
    assert tuple(vocab) == ("a", "b")
    assert sum(vocab.values()) == 3


def test_vocabulary_lexicographic_tiebreak():
    vocab = build_vocabulary(Corpus.from_sentences("en", (("b", "a"),)))
    assert tuple(vocab) == ("a", "b")


def test_vocabulary_empty_corpus_rejected():
    with pytest.raises(EmptyInputError):
        build_vocabulary(Corpus.from_sentences("en", ()))


def test_vocabulary_matches_naive_recount(rng):
    words = [f"w{i}" for i in range(30)]
    sentences = tuple(
        tuple(rng.choice(words, size=rng.integers(1, 12)))
        for _ in range(1000)
    )
    corpus = Corpus.from_sentences("en", sentences)
    vocab = build_vocabulary(corpus)
    naive = {}
    for sent in sentences:
        for tok in sent:
            naive[tok] = naive.get(tok, 0) + 1
    assert {w: vocab[w] for w in vocab} == naive
    assert sum(naive.values()) == sum(vocab.values())


@st.composite
def _tie_heavy_sentences(draw):
    """Sentences over a pool of at most six words, so that several words
    share a count in most examples."""
    pool = draw(st.lists(st.text("abAZé", min_size=1, max_size=3),
                         min_size=1, max_size=6, unique=True))
    word = st.sampled_from(pool)
    return draw(st.lists(st.lists(word, min_size=1, max_size=5),
                         min_size=1, max_size=6))


@settings(max_examples=200, deadline=None)
@given(_tie_heavy_sentences())
@example([["b", "a"], ["ab", "B"], ["é", "a", "b"]])
def test_vocabulary_order_under_ties_property(sentences):
    corpus = Corpus.from_sentences("en", tuple(map(tuple, sentences)))
    naive = {}
    for sent in sentences:
        for tok in sent:
            naive[tok] = naive.get(tok, 0) + 1
    # by word, then stably by count descending: (-count, word) order
    expected = sorted(sorted(naive.items()), key=lambda wc: -wc[1])
    assert list(build_vocabulary(corpus).items()) == expected


def test_sample_full_fraction_is_identity():
    corpus = Corpus.from_sentences("en", (("a", "b"), ("c",)))
    assert sample_corpus(corpus, 1.0, 3).sentences == corpus.sentences


def test_sample_size_and_subset():
    corpus = Corpus.from_sentences("en", tuple((f"w{i}",) for i in range(100)))
    sampled = sample_corpus(corpus, 0.8, seed=11)
    assert len(sampled.sentences) == 80
    assert set(sampled.sentences) <= set(corpus.sentences)


def test_sample_deterministic():
    corpus = Corpus.from_sentences("en", tuple((f"w{i}",) for i in range(50)))
    a = sample_corpus(corpus, 0.5, seed=4)
    b = sample_corpus(corpus, 0.5, seed=4)
    assert a.sentences == b.sentences


def test_sample_fraction_validation():
    corpus = Corpus.from_sentences("en", (("a",),))
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ArgumentError):
            sample_corpus(corpus, bad, 0)


def test_sample_then_vocab_equals_direct_vocab():
    corpus = Corpus.from_sentences("en", (("a", "b"), ("b", "c"), ("c", "d")))
    for seed in range(5):
        sampled = sample_corpus(corpus, 1.0, seed)
        assert list(build_vocabulary(sampled).items()) == \
            list(build_vocabulary(corpus).items())


def test_type_and_token_counts_match_recount(rng):
    words = [f"w{i}" for i in range(20)]
    sentences = tuple(
        tuple(rng.choice(words, size=5)) for _ in range(200)
    )
    corpus = Corpus.from_sentences("en", sentences)
    tokens = [t for s in sentences for t in s]
    assert corpus.type_count == len(set(tokens))
    assert corpus.token_count == len(tokens)


def test_every_vocab_word_appears_in_a_sentence():
    corpus = tokenize_corpus("a b c. d e f. a a b", "en")
    vocab = build_vocabulary(corpus)
    present = {t for s in corpus.sentences for t in s}
    assert set(vocab) == present


def test_corpus_roundtrip(tmp_path):
    corpus = tokenize_corpus("a cat sat. a dog ran.", "en")
    path = tmp_path / "corpus.txt"
    write_corpus(corpus, path)
    again = read_corpus(path, "en")
    assert again.sentences == corpus.sentences


@pytest.mark.parametrize("sentences", [
    (("The", "cat"),),  # would read back lower-cased
    (("a b",),),  # would read back as two tokens
    (("a", ""),),  # an empty token would vanish
    (("a",), ()),  # so would an empty sentence
    (("x\u2028y",),),  # a Unicode line separator is whitespace
    (("\ud800",),),  # a lone surrogate has no UTF-8 encoding
])
def test_write_corpus_refuses_what_read_corpus_changes(tmp_path, sentences):
    path = tmp_path / "corpus.txt"
    with pytest.raises(FormatError, match="corpus.txt"):
        write_corpus(Corpus.from_sentences("en", sentences), path)
    assert not path.exists()


_TOKEN_CHARACTERS = st.sampled_from(
    ["a", "b", "B", "\u00e9", "\u0130", "\u03a3", "\u03c2", ".", " ",
     "\t", "\r", "\u2028"]) | st.characters()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.text(_TOKEN_CHARACTERS, max_size=4),
                         max_size=4), max_size=4))
@example([["the", "cat"], ["\u03c3\u03c2"]])
@example([["The", "cat"], ["a b"], []])
def test_write_corpus_round_trip_property(sentences):
    corpus = Corpus.from_sentences("en", sentences)
    valid = all(s and " ".join(s).lower().split() == s for s in sentences)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.txt"
        if valid:
            write_corpus(corpus, path)
            assert read_corpus(path, "en").sentences == corpus.sentences
        else:
            with pytest.raises(FormatError):
                write_corpus(corpus, path)
            assert not path.exists()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from("abcdefgh"), max_size=5)
                .map(tuple), max_size=12),
       st.floats(0.0, 1.0, exclude_min=True),
       st.integers(0, 2**32))
@example([("a", "b"), ("c",), ("a", "d")], 0.5, 0)
def test_sample_picks_the_rng_choice_sentences_property(sentences,
                                                        fraction, seed):
    sampled = sample_corpus(Corpus.from_sentences("en", sentences),
                            fraction, seed)
    n = len(sentences)
    if fraction == 1.0:
        expected = tuple(sentences)
    else:
        size = int(np.floor(fraction * n + 0.5))
        chosen = np.random.default_rng(seed).choice(n, size=size,
                                                    replace=False)
        expected = tuple(sentences[i] for i in sorted(chosen))
    assert sampled.sentences == expected
    tokens = [t for s in expected for t in s]
    assert sampled.token_count == len(tokens)
    assert sampled.type_count == len(set(tokens))


def test_corpus_pipeline_memory_is_a_few_token_arrays(tmp_path):
    # read -> clean -> vocabulary -> count over 300k tokens, with targets
    # in frequency ranks 20-620. Tuples of str peaked at about 80 bytes a
    # token; int32 ids and the arrays made from them peak at about 30
    rng = np.random.default_rng(3)
    words = ["".join(rng.choice(list("bdgkmnptvz"), size=3)) + "o" + c
             for c in "bdgkmnptvz" for _ in range(1_200)]
    p = 1.0 / np.arange(1, len(words) + 1)
    tokens = np.array(words)[rng.choice(len(words), 300_000, p=p / p.sum())]
    path = tmp_path / "corpus.txt"
    path.write_text("".join(" ".join(tokens[i:i + 15]) + "\n"
                            for i in range(0, len(tokens), 15)))
    tracemalloc.start()
    try:
        corpus = clean_tokens(read_corpus(path, "en"))
        vocab = build_vocabulary(corpus)
        m = count_cooccurrences(corpus, words[20:620:6], vocab,
                                k=min(10_000, len(vocab)), window=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert corpus.token_count == len(tokens)
    assert m.total > 0
    assert peak <= 40 * len(tokens)
