import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from vsmeval.errors import ArgumentError, FormatError, WordLookupError
from vsmeval.scoring import (
    ScoreVector,
    WordPairList,
    cosine,
    read_scores,
    score_pairs,
    write_scores,
)
from vsmeval.stats import column_ranks
from vsmeval.vectors import VectorTable

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
    v = np.array([1.0, 2.0])
    table = VectorTable.from_dict("en", {"a": v, "b": v.copy()}, 2)
    scores = score_pairs(table, _pairlist([("a", "b")]))
    assert scores.scores[0] == pytest.approx(1.0)


def test_score_skip_policy_bookkeeping(rng):
    words = {f"w{i}": rng.normal(size=3) for i in range(14)}
    table = VectorTable.from_dict("en", words, 3)
    pairs = [(f"w{2 * i}", f"w{2 * i + 1}") for i in range(7)]
    pairs += [("w0", "miss1"), ("miss2", "w1"), ("miss3", "miss4")]
    scores = score_pairs(table, _pairlist(pairs), oov_policy="skip")
    assert len(scores.scores) == 7
    assert set(scores.skipped) == {7, 8, 9}
    assert scores.skipped[9] == ("miss3", "miss4")


def test_score_error_policy_names_word():
    table = VectorTable.from_dict("en", {"a": np.ones(2)}, 2)
    with pytest.raises(WordLookupError, match="b"):
        score_pairs(table, _pairlist([("a", "b")]), oov_policy="error")


def test_scores_match_per_pair_cosine(rng):
    words = {f"w{i}": rng.normal(size=8) for i in range(100)}
    table = VectorTable.from_dict("en", words, 8)
    pairs = [
        (f"w{rng.integers(100)}", f"w{rng.integers(100)}")
        for _ in range(353)
    ]
    scores = score_pairs(table, _pairlist(pairs))
    for idx, (w1, w2) in enumerate(pairs):
        u, v = words[w1], words[w2]
        expected = float(
            np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
        )
        assert scores.scores[idx] == pytest.approx(expected, abs=1e-12)


def test_degenerate_pairs_flagged():
    table = VectorTable.from_dict("en", {"a": np.zeros(2), "b": np.ones(2)}, 2)
    scores = score_pairs(table, _pairlist([("a", "b"), ("b", "b")]))
    assert scores.degenerate == frozenset({0})


def _descending_ranks(values):
    """Average ranks of scores by ``stats.column_ranks``, rank 1 for the
    highest score."""
    return column_ranks(-np.asarray(values, dtype=float)[:, None])[:, 0]


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
    words = {f"w{i}": rng.normal(size=4) for i in range(10)}
    t1 = VectorTable.from_dict("en", words, 4)
    t2 = VectorTable.from_dict("en", {w: 3.5 * v for w, v in words.items()}, 4)
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
