import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.stats import rankdata

from vsmeval import agreement
from vsmeval.agreement import (
    EvaluationSet,
    _centred_ranks,
    _ranked_spearman,
    apply_outlier_filter,
    agreement_significance,
    cross_language_agreement,
    detect_outliers,
    enumerate_subsets,
    human_mean_scores,
    load_evaluation_set,
    quintile_agreement_analysis,
    save_evaluation_set,
    screen_annotators,
    significance_driver,
    within_language_agreement,
)
from vsmeval.errors import (
    AlignmentError,
    ArgumentError,
    FormatError,
    ValidationError,
)
from vsmeval.scoring import WordPairList
from vsmeval.stats import column_ranks, spearman

from conftest import LINE_READER_CHARACTERS, make_evalset, synthetic_languages
from oracles import spearman_bruteforce


class TestScreening:
    def test_clear_pass(self):
        assert screen_annotators({"a": (9, 1)}) == {"a": True}

    def test_similar_below_seven_fails(self):
        assert screen_annotators({"a": (6.9, 0)}) == {"a": False}

    def test_boundary_values_pass(self):
        assert screen_annotators({"a": (7, 3)}) == {"a": True}

    def test_dissimilar_above_three_fails(self):
        assert screen_annotators({"a": (10, 3.1)}) == {"a": False}

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            screen_annotators({"a": (11, 0)})


class TestOutliers:
    def test_identical_annotators_keep_everyone(self):
        scores = np.full((50, 13), 5.0)
        result = detect_outliers(scores)
        assert result.excluded == ()
        assert np.allclose(result.statistics, 0.0)

    def test_planted_constant_outlier(self, rng):
        scores = 5.0 + rng.normal(0, 0.3, size=(50, 13))
        scores[:, 7] = 10.0
        result = detect_outliers(scores)
        assert result.excluded == (7,)

    def test_statistic_hand_arithmetic(self, rng):
        scores = rng.uniform(0, 10, size=(20, 6))
        result = detect_outliers(scores, threshold=np.inf)
        means = scores.mean(axis=0)
        for j in range(6):
            others = [means[i] for i in range(6) if i != j]
            mu = sum(others) / len(others)
            sd = math.sqrt(
                sum((m - mu) ** 2 for m in others) / (len(others) - 1)
            )
            assert result.statistics[j] == pytest.approx(
                abs(means[j] - mu) / sd, abs=1e-12
            )

    def test_infinite_threshold_keeps_everyone(self, rng):
        scores = rng.uniform(0, 10, size=(10, 5))
        result = detect_outliers(scores, threshold=np.inf)
        assert result.excluded == ()

    def test_boundary_statistic_kept(self):
        # exclusion requires strictly exceeding the threshold
        scores = np.array([[1.0, 2.0, 3.0, 4.0]]).repeat(5, axis=0)
        result = detect_outliers(scores, threshold=np.inf)
        stat = result.statistics[0]
        at_boundary = detect_outliers(scores, threshold=stat)
        assert 0 in at_boundary.kept

    def test_minimum_annotators(self):
        with pytest.raises(ArgumentError):
            detect_outliers(np.zeros((5, 2)))

    def test_zero_spread_convention(self):
        # others' means identical: +inf when the annotator's mean differs
        scores = np.zeros((4, 4))
        scores[:, 0] = 9.0
        result = detect_outliers(scores, threshold=np.inf)
        assert result.statistics[0] == np.inf
        # ... and 0 when it matches
        flat = detect_outliers(np.full((4, 4), 5.0), threshold=np.inf)
        assert np.all(flat.statistics == 0.0)


class TestSubsets:
    def test_subset_count(self):
        assert len(enumerate_subsets(13, 6)) == 1716

    def test_tiny_cases(self):
        assert enumerate_subsets(3, 1) == [(0,), (1,), (2,)]
        subsets = enumerate_subsets(5, 2)
        assert len(subsets) == 10
        assert len(set(subsets)) == 10
        assert all(len(s) == 2 for s in subsets)

    def test_lexicographic_order(self):
        subsets = enumerate_subsets(5, 3)
        assert subsets == sorted(subsets)

    def test_invalid_k(self):
        with pytest.raises(ArgumentError):
            enumerate_subsets(5, 5)
        with pytest.raises(ArgumentError):
            enumerate_subsets(5, 0)


class TestColumnRanks:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 60),
        m=st.integers(1, 600),
        values=st.sampled_from(["sixths", "sevenths", "gaussian"]),
        levels=st.integers(1, 61),
        constant_share=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_rankdata_exactly(self, n, m, values, levels,
                                     constant_share, seed):
        r = np.random.default_rng(seed)
        if values == "gaussian":
            x = r.normal(size=(n, m))
        else:
            # few levels on a 1/6 or 1/7 grid give tie-heavy columns
            step = 6 if values == "sixths" else 7
            x = r.integers(0, levels, size=(n, m)) / step
        constant = r.random(m) < constant_share
        x[:, constant] = x[0, constant]
        ranks = column_ranks(x)
        expected = rankdata(x, axis=0)
        assert ranks.dtype == expected.dtype
        assert np.array_equal(ranks, expected)


class TestWithinAgreement:
    def test_identical_annotators(self, rng):
        column = rng.uniform(0, 10, size=50)
        scores = np.tile(column[:, None], (1, 13))
        report = within_language_agreement(make_evalset(scores))
        assert report.mean == pytest.approx(1.0)
        assert report.std == pytest.approx(0.0)

    def test_ws353_sample_count(self, ws353_shaped):
        report = within_language_agreement(ws353_shaped)
        assert report.sample_count == 1716 * 7

    def test_matches_loop_oracle(self, rng):
        scores = rng.uniform(0, 10, size=(20, 13))
        evalset = make_evalset(scores, batch_size=10)
        report = within_language_agreement(evalset)
        expected = []
        for batch in evalset.batches:
            block = scores[list(batch)]
            for subset in enumerate_subsets(13, 6):
                comp = [j for j in range(13) if j not in subset]
                a = block[:, list(subset)].mean(axis=1)
                b = block[:, comp].mean(axis=1)
                expected.append(spearman_bruteforce(list(a), list(b)))
        assert report.sample_count == len(expected)
        assert np.allclose(np.sort(report.samples), np.sort(expected),
                           atol=1e-10)
        assert report.mean == pytest.approx(np.mean(expected), abs=1e-10)

    def test_pair_reordering_invariance(self, rng):
        scores = rng.uniform(0, 10, size=(30, 13))
        base = make_evalset(scores, batch_size=15)
        perm = np.concatenate([
            np.random.default_rng(1).permutation(15),
            15 + np.random.default_rng(2).permutation(15),
        ])
        shuffled = make_evalset(scores[perm], batch_size=15)
        r1 = within_language_agreement(base)
        r2 = within_language_agreement(shuffled)
        assert r1.mean == pytest.approx(r2.mean, abs=1e-12)
        assert r1.std == pytest.approx(r2.std, abs=1e-12)

    def test_constant_shift_invariance(self, rng):
        scores = rng.uniform(0, 8, size=(20, 13))
        r1 = within_language_agreement(make_evalset(scores, batch_size=20))
        r2 = within_language_agreement(
            make_evalset(scores + 2.0, batch_size=20)
        )
        assert np.allclose(r1.samples, r2.samples, atol=1e-12)


class TestDegenerateSamples:
    def _half_constant(self, seed, language):
        # annotators 0..6 give every pair the same score
        scores = np.random.default_rng(seed).uniform(0, 10, size=(100, 13))
        scores[:, :7] = 5.0
        return make_evalset(scores, language=language)

    def test_constant_column_is_nan(self, rng):
        a = rng.uniform(0, 10, size=(20, 4))
        b = rng.uniform(0, 10, size=(20, 4))
        a[:, 1] = 3.0
        b[:, 2] = 7.0
        rho = _ranked_spearman(_centred_ranks(a), _centred_ranks(b))
        assert np.isnan(rho[[1, 2]]).all()
        assert np.isfinite(rho[[0, 3]]).all()

    def test_within_drops_and_counts_constant_sides(self):
        report = within_language_agreement(self._half_constant(1, "en"))
        # per batch, C(7, 6) = 7 subsets lie inside the constant annotators,
        # and the subset {7..12} has exactly the constant annotators as its
        # complement: 8 splits with a constant side
        assert report.degenerate_count == 2 * 8
        assert report.sample_count == 2 * (1716 - 8)
        assert np.isfinite(report.samples).all()

    def test_cross_and_driver_count_constant_sides(self, monkeypatch):
        constant = self._half_constant(1, "en")
        varied = make_evalset(
            np.random.default_rng(2).uniform(0, 10, size=(100, 13)),
            language="de",
        )
        report = cross_language_agreement(constant, varied)
        assert report.degenerate_count == 2 * 7
        assert report.sample_count == 2 * (1716 - 7)
        seen = {}
        welch = agreement.agreement_significance

        def spy(within, cross):
            seen[within.label] = within.degenerate_count
            seen[cross.label] = cross.degenerate_count
            return welch(within, cross)

        monkeypatch.setattr(agreement, "agreement_significance", spy)
        significance_driver([constant, varied])
        # within counts the constant complement too; cross compares subsets
        assert seen == {"within:en": 16, "within:de": 0, "cross:en-de": 14}


class TestCrossAgreement:
    def test_self_comparison_is_one(self, rng):
        scores = rng.uniform(0, 10, size=(50, 13))
        s1 = make_evalset(scores, language="en")
        s2 = make_evalset(scores.copy(), language="de")
        report = cross_language_agreement(s1, s2)
        assert report.mean == pytest.approx(1.0)
        assert report.std == pytest.approx(0.0)
        assert report.sample_count == 1716

    def test_column_permutation_changes_samples(self, rng):
        scores = rng.uniform(0, 10, size=(50, 13))
        s1 = make_evalset(scores, language="en")
        permuted = make_evalset(scores[:, ::-1].copy(), language="de")
        consistent = cross_language_agreement(s1, s1)
        shuffled = cross_language_agreement(s1, permuted)
        # index correspondence is semantic: permuting one side's columns
        # changes which subsets are compared
        assert consistent.mean == pytest.approx(1.0)
        assert shuffled.mean < 1.0

    def test_ws353_sample_count(self, rng):
        a, b = synthetic_languages(3, n_langs=2, n_batches=7)
        report = cross_language_agreement(a, b)
        assert report.sample_count == 12012

    def test_alignment_check(self, rng):
        s1 = make_evalset(rng.uniform(0, 10, size=(20, 13)), batch_size=10)
        s2 = make_evalset(rng.uniform(0, 10, size=(20, 13)), batch_size=20)
        with pytest.raises(AlignmentError):
            cross_language_agreement(s1, s2)
        with pytest.raises(AlignmentError):
            quintile_agreement_analysis(s1, s2)
        with pytest.raises(AlignmentError):
            significance_driver([s1, s2])


class TestSignificance:
    def test_identical_samples_p_one(self, rng):
        scores = rng.uniform(0, 10, size=(20, 13))
        report = within_language_agreement(make_evalset(scores,
                                                        batch_size=20))
        result = agreement_significance(report, report)
        assert result.p_value == pytest.approx(1.0)

    def test_within_exceeds_cross_on_synthetic(self):
        sets = synthetic_languages(0, n_langs=2, n_batches=1)
        within = within_language_agreement(sets[0])
        cross = cross_language_agreement(sets[0], sets[1])
        result = agreement_significance(within, cross)
        assert within.mean > cross.mean
        assert result.p_value < 0.001

    def test_driver_reports_equal_standalone_reports(self, monkeypatch):
        sets = synthetic_languages(2, n_langs=4, n_batches=2)
        seen = {}
        welch = agreement.agreement_significance

        def spy(within, cross):
            seen[within.label] = within
            seen[cross.label] = cross
            return welch(within, cross)

        monkeypatch.setattr(agreement, "agreement_significance", spy)
        significance_driver(sets)
        standalone = [within_language_agreement(s) for s in sets] + [
            cross_language_agreement(sets[i], sets[j])
            for i in range(4) for j in range(i + 1, 4)
        ]
        assert len(seen) == len(standalone) == 10
        for report in standalone:
            inside = seen[report.label]
            assert inside.samples.tobytes() == report.samples.tobytes()
            assert inside.degenerate_count == report.degenerate_count

    def test_driver_emits_24_results(self):
        sets = synthetic_languages(1, n_langs=4, n_batches=1)
        results = significance_driver(sets)
        assert len(results) == 24
        languages = {s.language for s in sets}
        for (lang, l1, l2) in results:
            assert lang in languages
            assert l1 != l2


class TestQuintileAnalysis:
    def test_identical_sets_all_ones(self, rng):
        scores = rng.uniform(0, 10, size=(50, 13))
        s1 = make_evalset(scores, language="en")
        s2 = make_evalset(scores.copy(), language="de")
        overlap = quintile_agreement_analysis(s1, s2)
        assert np.allclose(overlap.f_scores, 1.0)

    def test_independent_scores_near_chance(self):
        rng = np.random.default_rng(42)
        s1 = make_evalset(rng.uniform(0, 10, size=(100, 13)),
                          language="en", batch_size=100)
        s2 = make_evalset(rng.uniform(0, 10, size=(100, 13)),
                          language="de", batch_size=100)
        overlap = quintile_agreement_analysis(s1, s2)
        # middle quintile F hovers near the 1/q chance baseline
        assert abs(overlap.f_scores[2] - 0.2) < 0.1

    def test_u_shape_with_extreme_consensus(self):
        sets = synthetic_languages(5, n_langs=2, n_batches=2,
                                   extreme_consensus=True)
        overlap = quintile_agreement_analysis(sets[0], sets[1])
        f = overlap.f_scores
        for middle in (f[1], f[2], f[3]):
            assert f[0] > middle
            assert f[4] > middle

    def test_within_mode_matches_direct_loop(self, rng):
        scores = rng.uniform(0, 10, size=(10, 13))
        evalset = make_evalset(scores, batch_size=10)
        overlap = quintile_agreement_analysis(evalset)
        assert len(overlap.f_scores) == 5
        assert all(0.0 <= f <= 1.0 for f in overlap.f_scores)


_WORDS = st.text(st.sampled_from(LINE_READER_CHARACTERS), max_size=3)


@st.composite
def _evalsets(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 3))
    words = draw(st.lists(st.tuples(_WORDS, _WORDS), min_size=n, max_size=n))
    ids = draw(st.lists(st.integers(-10, 10**6), min_size=n, max_size=n,
                        unique=True))
    cell = st.one_of(st.just(np.nan), st.just(-0.0), st.floats(0.0, 10.0))
    scores = draw(st.lists(st.lists(cell, min_size=m, max_size=m),
                           min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    cuts = sorted(c for c in draw(st.sets(st.integers(1, n))) if c < n)
    batches = tuple(tuple(order[a:b])
                    for a, b in zip([0, *cuts], [*cuts, n]))
    return EvaluationSet("en", "drawn", WordPairList("en", tuple(words),
                                                     tuple(ids)),
                         np.array(scores, dtype=float), batches)


class TestEvaluationSetIO:
    @settings(max_examples=60, deadline=None, suppress_health_check=[
        HealthCheck.function_scoped_fixture])
    @given(evalset=_evalsets())
    def test_roundtrip_property(self, tmp_path, evalset):
        path = tmp_path / "set.tsv"
        path.unlink(missing_ok=True)
        words = [w for pair in evalset.pairs.pairs for w in pair]
        if any(c in w for w in words for c in "\t\n\r"):
            with pytest.raises(FormatError, match="tab or a line break"):
                save_evaluation_set(evalset, path)
            assert not path.exists()
            return
        save_evaluation_set(evalset, path)
        again = load_evaluation_set(path)
        assert again.pairs.pairs == evalset.pairs.pairs
        assert again.pairs.source_ids == evalset.pairs.source_ids
        assert again.scores.tobytes() == evalset.scores.tobytes()
        assert ({frozenset(b) for b in again.batches}
                == {frozenset(b) for b in evalset.batches})

    def test_roundtrip(self, tmp_path, rng):
        evalset = make_evalset(rng.uniform(0, 10, size=(100, 13)),
                               language="it")
        path = tmp_path / "set.tsv"
        save_evaluation_set(evalset, path)
        again = load_evaluation_set(path, language="it")
        assert again.pairs.pairs == evalset.pairs.pairs
        assert again.batches == evalset.batches
        assert np.array_equal(again.scores, evalset.scores)

    def test_set_without_annotator_columns_not_saved(self, tmp_path):
        evalset = make_evalset(np.empty((4, 0)), batch_size=2)
        path = tmp_path / "set.tsv"
        with pytest.raises(FormatError, match="annotator column"):
            save_evaluation_set(evalset, path)
        assert not path.exists()

    def test_score_range_validation(self, rng):
        with pytest.raises(ValidationError):
            make_evalset(np.full((5, 13), 11.0), batch_size=5)

    def test_human_mean_scores(self, rng):
        scores = rng.uniform(0, 10, size=(10, 13))
        evalset = make_evalset(scores, batch_size=10)
        human = human_mean_scores(evalset)
        for pos in range(10):
            assert human.scores[pos] == pytest.approx(scores[pos].mean())

    def test_human_mean_scores_average_present_judgments(self, rng):
        scores = rng.uniform(0, 10, size=(10, 13))
        scores[:5, 12] = np.nan
        human = human_mean_scores(make_evalset(scores, batch_size=5))
        for pos in range(10):
            present = [v for v in scores[pos] if not np.isnan(v)]
            assert human.scores[pos] == pytest.approx(
                sum(present) / len(present))

    def test_pair_without_judgment_refused(self, rng):
        scores = rng.uniform(0, 10, size=(10, 13))
        scores[3] = np.nan
        with pytest.raises(ValidationError, match="pair 3"):
            human_mean_scores(make_evalset(scores, batch_size=5))


class TestOutlierFilter:
    def _planted(self, shift=4.0):
        rng = np.random.default_rng(8)
        scores = np.clip(4.0 + rng.normal(0, 0.4, size=(50, 13)), 0, 10)
        scores = scores - scores.mean(axis=0) + 4.0  # consistent annotators
        scores[:, 4] = np.clip(scores[:, 4] + shift, 0, 10)
        return make_evalset(scores)

    def test_planted_outlier_removed(self):
        cleaned, results = apply_outlier_filter(self._planted())
        assert results[0].excluded == (4,)
        assert cleaned.n_annotators == 12

    def test_clean_input_untouched(self, rng):
        # consistent annotators: per-pair effects plus noise centered so
        # every annotator mean coincides (all statistics 0)
        scores = rng.uniform(4, 6, size=(50, 13))
        scores = scores - scores.mean(axis=0) + 5.0
        evalset = make_evalset(scores)
        cleaned, results = apply_outlier_filter(evalset)
        assert results[0].excluded == ()
        assert np.array_equal(cleaned.scores, evalset.scores)

    @pytest.mark.parametrize("threshold, iterate", [(-1.0, False),
                                                    (0.0, True)])
    def test_batch_left_without_annotator_refused(self, threshold, iterate):
        evalset = self._planted()
        with pytest.raises(ValidationError,
                           match=f"threshold {threshold!r} .* batch 0"):
            apply_outlier_filter(evalset, threshold=threshold,
                                 iterate=iterate)

    def test_iterate_mode_reaches_fixpoint(self):
        cleaned, results = apply_outlier_filter(self._planted(),
                                                iterate=True)
        matrix = cleaned.scores[:, ~np.isnan(cleaned.scores[0])]
        again = detect_outliers(matrix)
        assert again.excluded == ()
