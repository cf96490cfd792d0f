import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vsmeval.errors import (ArgumentError, FormatError, ValidationError,
                            WordLookupError)
from vsmeval.scoring import (
    ScoreVector,
    WordPairList,
    cosine,
    read_pair_list,
    read_scores,
    score_pairs,
    write_scores,
)
from vsmeval.vectors import VectorTable

from conftest import average_ranks
from oracles import average_ranks_bruteforce


def test_cosine_identity():
    v = np.array([1.0, 2.0, -3.0])
    assert cosine(v, v) == pytest.approx(1.0)


def test_cosine_orthogonal():
    assert cosine([1, 0], [0, 1]) == 0.0


def test_cosine_hand_value():
    # (4+10+18) / (sqrt(14) * sqrt(77))
    assert cosine([1, 2, 3], [4, 5, 6]) == pytest.approx(
        32 / (np.sqrt(14) * np.sqrt(77)), abs=1e-12
    )
    assert cosine([1, 2, 3], [4, 5, 6]) == pytest.approx(0.974631846, abs=1e-9)


def test_cosine_zero_vector_is_zero():
    assert cosine([0, 0], [1, 2]) == 0.0


def test_cosine_dimension_mismatch():
    with pytest.raises(ArgumentError):
        cosine([1, 2], [1, 2, 3])


def test_cosine_overflowing_norms():
    assert cosine([1e200, 1e200], [1e200, 2e200]) == pytest.approx(
        3 / np.sqrt(10), abs=1e-15
    )


@given(
    st.lists(st.floats(-100, 100), min_size=2, max_size=6),
    st.floats(0.001, 1000),
    st.floats(0.001, 1000),
)
@example(v=[1.08e-159, 1.08e-159], alpha=1.0, beta=0.5)
def test_cosine_positive_scale_invariance(v, alpha, beta):
    u = np.array(v)
    w = u[::-1].copy()
    if np.linalg.norm(u) == 0 or np.linalg.norm(w) == 0:
        return
    assert cosine(alpha * u, beta * w) == pytest.approx(
        cosine(u, w), abs=1e-12
    )


def _pairlist(pairs):
    return WordPairList(pairs=tuple(pairs),
                        source_ids=tuple(range(len(pairs))))


def test_score_identical_vectors_give_one():
    table = VectorTable("en", ("a", "b"), np.array([[1.0, 2.0], [1.0, 2.0]]))
    scores = score_pairs(table, _pairlist([("a", "b")]))
    assert scores.scores[0] == pytest.approx(1.0)


def test_score_skip_policy_bookkeeping(rng):
    table = VectorTable("en", tuple(f"w{i}" for i in range(14)),
                        rng.normal(size=(14, 3)))
    pairs = [(f"w{2 * i}", f"w{2 * i + 1}") for i in range(7)]
    pairs += [("w0", "miss1"), ("miss2", "w1"), ("miss3", "miss4")]
    scores = score_pairs(table, _pairlist(pairs), oov_policy="skip")
    assert len(scores.scores) == 7
    assert set(scores.skipped) == {7, 8, 9}
    assert scores.skipped[9] == ("miss3", "miss4")


def test_score_error_policy_names_word():
    table = VectorTable("en", ("a",), np.ones((1, 2)))
    with pytest.raises(WordLookupError, match="b"):
        score_pairs(table, _pairlist([("a", "b")]), oov_policy="error")


def test_scores_match_per_pair_cosine(rng):
    table = VectorTable("en", tuple(f"w{i}" for i in range(100)),
                        rng.normal(size=(100, 8)))
    pairs = [
        (f"w{rng.integers(100)}", f"w{rng.integers(100)}")
        for _ in range(353)
    ]
    scores = score_pairs(table, _pairlist(pairs))
    for idx, (w1, w2) in enumerate(pairs):
        u, v = table[w1], table[w2]
        expected = float(
            np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
        )
        assert scores.scores[idx] == pytest.approx(expected, abs=1e-12)


def test_degenerate_pairs_flagged():
    # "c" is not a zero vector, though its norm underflows to 0.0
    table = VectorTable("en", ("a", "b", "c", "d"),
                        np.array([[0, 0], [1, 1], [1e-200, 0], [0, 1]]))
    scores = score_pairs(table, _pairlist([("a", "b"), ("b", "b"),
                                           ("c", "d")]))
    assert scores.scores[2] == 0.0
    assert scores.degenerate == frozenset({0})


def _descending_ranks(values):
    """Average ranks of scores by ``stats.centred_ranks``, rank 1 for the
    highest score."""
    return average_ranks(-np.asarray(values, dtype=float)[:, None])[:, 0]


def test_rank_simple():
    assert _descending_ranks([3.0, 1.0, 2.0]).tolist() == [1.0, 3.0, 2.0]


def test_rank_average_ties():
    assert _descending_ranks([5.0, 5.0, 1.0]).tolist() == [1.5, 1.5, 3.0]


def test_ranks_match_bruteforce(rng):
    values = rng.choice([0.0, 0.25, 0.5, 1.0, 2.0], size=100)
    ranks = _descending_ranks(values)
    expected = average_ranks_bruteforce([-v for v in values])
    assert np.allclose(ranks, expected)


def test_rank_sum_invariant(rng):
    values = rng.normal(size=57)
    values[10:20] = values[0]  # force ties
    ranks = _descending_ranks(values)
    n = len(values)
    assert sum(ranks) == pytest.approx(n * (n + 1) / 2)


def test_rank_invariant_under_monotone_transform(rng):
    values = rng.normal(size=40)
    assert np.array_equal(_descending_ranks(values),
                          _descending_ranks(np.exp(2 * values)))


def test_uniform_table_scaling_keeps_scores(rng):
    words = tuple(f"w{i}" for i in range(10))
    t1 = VectorTable("en", words, rng.normal(size=(10, 4)))
    t2 = VectorTable("en", words, 3.5 * t1.matrix)
    pairs = _pairlist([("w0", "w1"), ("w2", "w3")])
    s1 = score_pairs(t1, pairs)
    s2 = score_pairs(t2, pairs)
    for idx in s1.scores:
        assert s1.scores[idx] == pytest.approx(s2.scores[idx], abs=1e-12)


def test_score_tsv_roundtrip(tmp_path):
    pairs = _pairlist([("a", "b"), ("c", "d"), ("e", "f")])
    scores = ScoreVector({0: 0.5, 2: -0.25}, skipped={1: ("c",)})
    path = tmp_path / "scores.tsv"
    write_scores(scores, pairs, path)
    again = read_scores(path)
    assert again.scores == scores.scores
    assert again.skipped == scores.skipped


_SCORE_WORDS = st.text(st.characters(exclude_categories=("Cs",)),
                       max_size=4) | st.sampled_from(
    ["", "#OOV", "a,b", "c\td", "e\nf", "g\rh", "pair_index", " "])


@st.composite
def _score_files(draw):
    """(scores, pairs): scored and skipped pair indices, which may share
    an index, and words that may hold a separator."""
    indices = st.integers(-2 ** 70, 2 ** 70)
    scores = draw(st.dictionaries(indices, st.floats() | st.sampled_from(
        [0.0, -0.0, 5e-324, -2.2250738585072014e-308]), max_size=6))
    skipped = draw(st.dictionaries(
        indices, st.lists(_SCORE_WORDS, max_size=3).map(tuple), max_size=4))
    listed = draw(st.lists(st.sampled_from(sorted({*scores, *skipped, 0})),
                           unique=True))
    words = draw(st.lists(st.tuples(_SCORE_WORDS, _SCORE_WORDS),
                          min_size=len(listed), max_size=len(listed)))
    return ScoreVector(scores, skipped), WordPairList(tuple(words),
                                                      tuple(listed))


@settings(deadline=None)
@given(_score_files())
@example((ScoreVector({0: -0.0, 1: 5e-324}, skipped={2: ("x", "")}),
          _pairlist([("a", "b"), ("c", "d"), ("x", "")])))
@example((ScoreVector({0: 0.5}, skipped={0: ("a",)}), _pairlist([("a", "b")])))
@example((ScoreVector({}, skipped={1: ()}), _pairlist([("a", "b")])))
def test_score_file_roundtrip_property(case):
    # every score comes back bit for bit and every #OOV row whole, or the
    # writer refuses before the file is opened
    scores, pairs = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scores.tsv")
        try:
            write_scores(scores, pairs, path)
        except (FormatError, ValidationError):
            assert not os.path.exists(path)
            return
        again = read_scores(path)
    assert again.skipped == scores.skipped
    assert again.scores.keys() == scores.scores.keys()
    for index, value in scores.scores.items():
        assert np.float64(again.scores[index]).tobytes() == \
            np.float64(value).tobytes()


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   -float("inf")])
def test_write_scores_refuses_a_non_finite_score(tmp_path, value):
    # read_scores refuses the line, so the file would not read back
    path = tmp_path / "scores.tsv"
    with pytest.raises(FormatError) as info:
        write_scores(ScoreVector({0: 0.5, 1: value}),
                     _pairlist([("a", "b"), ("c", "d")]), path)
    assert str(info.value) == f"non-finite score for pair 1 [{path}]"
    assert not path.exists()


@pytest.mark.parametrize("word", ["c\td", "c\nd", "c\rd"])
@pytest.mark.parametrize("skipped", [False, True])
def test_write_scores_refuses_a_word_with_a_tab_or_line_break(
        tmp_path, word, skipped):
    path = tmp_path / "scores.tsv"
    scores = (ScoreVector({0: 0.5}, skipped={1: (word,)}) if skipped
              else ScoreVector({0: 0.5, 1: 0.25}))
    with pytest.raises(FormatError) as info:
        write_scores(scores, _pairlist([("a", "b"), (word, "e")]), path)
    assert str(info.value) == \
        f"cell {word!r} holds a tab or a line break [{path}]"
    assert not path.exists()


def test_write_scores_refuses_an_oov_word_with_a_comma(tmp_path):
    # the OOV words of a pair are joined with ",", so "a,b" would read
    # back as ("a", "b")
    path = tmp_path / "scores.tsv"
    with pytest.raises(FormatError) as info:
        write_scores(ScoreVector({0: 0.5}, skipped={1: ("c", "a,b")}),
                     _pairlist([("a", "b"), ("c", "a,b")]), path)
    assert str(info.value) == f"OOV word 'a,b' of pair 1 holds ',' [{path}]"
    assert not path.exists()


def test_write_scores_refuses_a_pair_both_scored_and_skipped(tmp_path):
    # read_scores refuses the repeated pair index
    path = tmp_path / "scores.tsv"
    with pytest.raises(FormatError) as info:
        write_scores(ScoreVector({0: 0.5, 1: 0.25}, skipped={1: ("c",)}),
                     _pairlist([("a", "b"), ("c", "d")]), path)
    assert str(info.value) == f"pair 1 is both scored and skipped [{path}]"
    assert not path.exists()


def test_write_scores_refuses_a_skipped_pair_without_a_word(tmp_path):
    # its empty word list would read back as one empty word
    path = tmp_path / "scores.tsv"
    with pytest.raises(FormatError) as info:
        write_scores(ScoreVector({0: 0.5}, skipped={1: ()}),
                     _pairlist([("a", "b"), ("c", "d")]), path)
    assert str(info.value) == \
        f"skipped pair 1 names no missing word [{path}]"
    assert not path.exists()


@pytest.mark.parametrize("second", ["1\tcat\tdog\t0.7",
                                    "#OOV\t1\tcat\tdog\tdog"])
def test_read_scores_refuses_a_repeated_pair_index(tmp_path, second):
    path = tmp_path / "scores.tsv"
    path.write_text("pair_index\tword1\tword2\tscore\n1\tcat\tdog\t0.5\n"
                    f"{second}\n")
    with pytest.raises(FormatError) as info:
        read_scores(path)
    assert str(info.value) == \
        f"repeated pair index 1, first on line 2 [{path}:3]"


def test_read_scores_refuses_a_header_after_the_first_pair(tmp_path):
    # as read_pair_list does; only a header before the first pair is skipped
    path = tmp_path / "scores.tsv"
    header = "pair_index\tword1\tword2\tscore\n"
    path.write_text(f"# note\n{header}0\tcat\tdog\t0.5\n{header}"
                    "#OOV\t1\tcat\tgatto\tgatto\n")
    with pytest.raises(FormatError) as info:
        read_scores(path)
    assert str(info.value) == \
        f"non-numeric pair index or score [{path}:4]"


def test_read_scores_skips_only_a_pair_index_header(tmp_path):
    # a first cell that merely starts with pair_index is data, refused as
    # read_pair_list refuses it
    path = tmp_path / "scores.tsv"
    path.write_text("pair_indexes\tword1\tword2\tscore\n0\tcat\tdog\t0.5\n")
    with pytest.raises(FormatError) as info:
        read_scores(path)
    assert str(info.value) == f"non-numeric pair index or score [{path}:1]"
    with pytest.raises(FormatError) as info:
        read_pair_list(path)
    assert str(info.value) == f"non-integer pair index [{path}:1]"
