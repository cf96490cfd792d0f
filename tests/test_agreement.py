import math
import os
import re
import threading

import numpy as np
import pytest
from hypothesis import (HealthCheck, assume, example, given, settings,
                        strategies as st)
from scipy.stats import rankdata

from vsmeval import agreement
from vsmeval.agreement import (
    EvaluationSet,
    apply_outlier_filter,
    agreement_significance,
    cross_language_agreement,
    detect_outliers,
    enumerate_subsets,
    human_mean_scores,
    load_evaluation_set,
    quintile_agreement_analysis,
    save_evaluation_set,
    significance_driver,
    within_language_agreement,
)
from vsmeval.errors import (
    AlignmentError,
    ArgumentError,
    DegenerateError,
    FormatError,
    ValidationError,
)
from vsmeval.scoring import WordPairList
from vsmeval.stats import (centred_ranks, quintile_overlaps, ranked_spearman,
                           spearman)

from conftest import (LINE_READER_CHARACTERS, average_ranks, integer_matrix,
                      make_evalset, synthetic_languages)
from oracles import (centred_ranks_reference, outlier_statistics_bruteforce,
                     ranked_spearman_reference, spearman_bruteforce)


@st.composite
def _outlier_batches(draw):
    """One batch of 3 to 20 annotator columns with empty (NaN) cells,
    tied and constant columns, and a judgment in every column."""
    n, m = draw(st.integers(1, 12)), draw(st.integers(3, 20))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = r.uniform(0, 10, size=(n, m))
    if draw(st.booleans()):  # integer judgments tie often
        scores = np.rint(scores)
    pick = st.integers(0, m - 1)
    for j, k in draw(st.lists(st.tuples(pick, pick), max_size=4)):
        scores[:, j] = scores[:, k]
    for j in draw(st.lists(pick, max_size=3)):
        scores[:, j] = scores[0, j]
    scores[r.random((n, m)) < draw(st.sampled_from([0.0, 0.2, 0.6]))] = \
        np.nan
    # an all-empty column would make nanmean warn
    empty = np.isnan(scores).all(axis=0)
    scores[0, empty] = r.integers(0, 11, size=empty.sum())
    return scores


class TestOutliers:
    @settings(max_examples=300, deadline=None)
    @given(scores=_outlier_batches())
    def test_statistics_equal_the_per_column_loop(self, scores):
        result = detect_outliers(scores, threshold=np.inf)
        assert result.statistics.tobytes() == \
            outlier_statistics_bruteforce(scores).tobytes()

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

    def test_statistics_independent_of_memory_order(self, rng):
        for _ in range(20):
            scores = np.round(rng.uniform(0, 10, size=(50, 13)), 1)
            c_order = detect_outliers(scores, threshold=np.inf)
            f_order = detect_outliers(np.asfortranarray(scores),
                                      threshold=np.inf)
            assert c_order.statistics.tobytes() == \
                f_order.statistics.tobytes()

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
        ranks = average_ranks(x)
        expected = rankdata(x, axis=0)
        assert ranks.dtype == expected.dtype
        assert np.array_equal(ranks, expected)


def _rank_input(seed, n, m, path, levels, constant_share):
    """An ``integer_matrix`` with a share of constant columns: int16 over
    ``levels`` of 121 values for the counting path; for the sort path the
    same over 7 (floats, as tie-heavy), or int16 over the whole int16
    range, wider than a counting table, with few ties."""
    if path == "sort-wide":
        return integer_matrix(seed, n, m, 2**16, constant_share,
                              span=2**16, low=-2**15)
    x = integer_matrix(seed, n, m, levels, constant_share, low=-60)
    return x / 7 if path == "sort-ties" else x


_RANK_PATHS = st.sampled_from(["count", "sort-ties", "sort-wide"])


class TestDoubledRanks:
    """``stats.centred_ranks``, the agreement walk's rank kernel, against
    rankdata on its counting and sort paths, on both sides of its switch
    from float32 to float64 above n = 256."""

    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(1, 300), m=st.integers(1, 300), path=_RANK_PATHS,
           levels=st.integers(1, 60), constant_share=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    # the largest n held in float32, and the smallest above it
    @example(n=256, m=40, path="count", levels=60, constant_share=0.1,
             seed=0)
    @example(n=257, m=40, path="sort-ties", levels=60, constant_share=0.1,
             seed=0)
    def test_equals_doubled_rankdata(self, n, m, path, levels,
                                     constant_share, seed):
        x = _rank_input(seed, n, m, path, levels, constant_share)
        d, squares = centred_ranks(x)
        assert d.dtype == (np.float32 if n <= 256 else np.float64)
        assert np.array_equal(d, 2 * rankdata(x, axis=0) - (n + 1))
        # every sum of squares is an exact integer in d's own dtype
        exact = d.astype(np.int64)
        assert np.array_equal(np.einsum("ij,ij->j", d, d),
                              np.einsum("ij,ij->j", exact, exact))
        assert np.array_equal(squares, np.einsum("ij,ij->j", exact, exact))

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 300), m=st.integers(1, 200), path=_RANK_PATHS,
           levels=st.integers(1, 60), constant_share=st.floats(0.0, 0.5),
           seed=st.integers(0, 2**32 - 1))
    @example(n=256, m=40, path="count", levels=1, constant_share=0.0,
             seed=0)
    @example(n=257, m=40, path="sort-wide", levels=60,
             constant_share=0.3, seed=1)
    def test_agreement_spearman_has_the_reference_bits(
            self, n, m, path, levels, constant_share, seed):
        # the walk's rho on doubled ranks against the float64 pair on
        # half-integer ranks; constant columns stay NaN
        a, b = (_rank_input(seed + side, n, m, path, levels, constant_share)
                for side in (0, 1))
        got_a, got_b = centred_ranks(a), centred_ranks(b)
        ref_a, ref_b = centred_ranks_reference(a), centred_ranks_reference(b)
        assert got_a[1].dtype == np.float64
        assert np.array_equal(got_a[1], 4 * ref_a[1])
        rho = ranked_spearman(got_a, got_b)
        expected = ranked_spearman_reference(ref_a, ref_b)
        assert np.array_equal(rho.view(np.int64), expected.view(np.int64))

    def test_agreement_on_one_batch_of_300_pairs_has_the_reference_bits(
            self):
        # 300 pairs take the float64 side; en has integer judgments (the
        # walk's int16 sums), de half points (float means); annotators 0
        # to 6 of en are constant in the first 150 pairs only
        rng = np.random.default_rng(300)
        en = rng.integers(0, 11, size=(300, 13)).astype(float)
        en[:150, :7] = 4.0
        de = np.rint(rng.uniform(0, 10, size=(300, 13)) * 2) / 2
        sets = [make_evalset(s, language=lang, batch_size=300)
                for s, lang in ((en, "en"), (de, "de"))]
        member = agreement._subset_membership(13, 6)
        sub_en, sub_de = (s @ member.T / 6 for s in (en, de))
        comp_en = en @ (1 - member).T / 7

        def reference(x, y):
            return ranked_spearman_reference(centred_ranks_reference(x),
                                             centred_ranks_reference(y))

        for report, expected in (
                (within_language_agreement(sets[0]),
                 reference(sub_en, comp_en)),
                (cross_language_agreement(*sets), reference(sub_en, sub_de))):
            bad = np.isnan(expected)
            assert report.degenerate_count == bad.sum()
            assert np.array_equal(report.samples.view(np.int64),
                                  expected[~bad].view(np.int64))


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

    def test_integer_judgments_match_loop_oracle(self, rng):
        # whole-point judgments take the walk on integer subset sums
        scores = rng.integers(0, 11, size=(2, 20, 13)).astype(float)
        en, de = (make_evalset(s, language=lang, batch_size=10)
                  for s, lang in zip(scores, ("en", "de")))
        within = within_language_agreement(en)
        cross = cross_language_agreement(en, de)
        expected_within, expected_cross = [], []
        for batch in en.batches:
            block, other = (s[list(batch)] for s in scores)
            for subset in enumerate_subsets(13, 6):
                comp = [j for j in range(13) if j not in subset]
                a = block[:, list(subset)].mean(axis=1)
                b = block[:, comp].mean(axis=1)
                c = other[:, list(subset)].mean(axis=1)
                expected_within.append(spearman_bruteforce(list(a), list(b)))
                expected_cross.append(spearman_bruteforce(list(a), list(c)))
        for report, expected in ((within, expected_within),
                                 (cross, expected_cross)):
            assert report.degenerate_count == 0
            assert np.allclose(report.samples, expected, atol=1e-10)

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
        rho = ranked_spearman(centred_ranks(a), centred_ranks(b))
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

    def test_report_without_a_sample_refuses_its_statistics(self):
        # every annotator gives every pair 5: all 1716 splits are constant
        constant = make_evalset(np.full((10, 13), 5.0), language="en")
        varied = make_evalset(
            np.random.default_rng(3).uniform(0, 10, size=(10, 13)),
            language="de")
        empty = within_language_agreement(constant)
        assert empty.sample_count == 0 and empty.degenerate_count == 1716
        message = "within:en has no samples: all 1716 splits are degenerate"
        for statistic in (lambda: empty.mean, lambda: empty.std,
                          lambda: agreement_significance(
                              empty, cross_language_agreement(varied,
                                                              varied))):
            with pytest.raises(DegenerateError) as refused:
                statistic()
            assert str(refused.value) == message
        with pytest.raises(DegenerateError):
            significance_driver([constant, varied])


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

    def test_driver_refuses_a_repeated_language(self, monkeypatch):
        a, b, c = synthetic_languages(4, n_langs=3, n_batches=1)
        a.language = b.language = "und"

        def walk(*args):
            raise AssertionError("a batch was ranked")

        monkeypatch.setattr(agreement, "_split_means", walk)
        with pytest.raises(ArgumentError, match="'und'"):
            significance_driver([a, b, c])

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
        assert np.allclose(overlap, 1.0)

    def test_independent_scores_near_chance(self):
        rng = np.random.default_rng(42)
        s1 = make_evalset(rng.uniform(0, 10, size=(100, 13)),
                          language="en", batch_size=100)
        s2 = make_evalset(rng.uniform(0, 10, size=(100, 13)),
                          language="de", batch_size=100)
        overlap = quintile_agreement_analysis(s1, s2)
        # middle quintile F hovers near the 1/q chance baseline
        assert abs(overlap[2] - 0.2) < 0.1

    def test_u_shape_with_extreme_consensus(self):
        sets = synthetic_languages(5, n_langs=2, n_batches=2,
                                   extreme_consensus=True)
        overlap = quintile_agreement_analysis(sets[0], sets[1])
        f = overlap
        for middle in (f[1], f[2], f[3]):
            assert f[0] > middle
            assert f[4] > middle

    def test_within_mode_matches_direct_loop(self, rng):
        scores = rng.uniform(0, 10, size=(10, 13))
        evalset = make_evalset(scores, batch_size=10)
        overlap = quintile_agreement_analysis(evalset)
        assert len(overlap) == 5
        assert all(0.0 <= f <= 1.0 for f in overlap)

    def test_quantiles_above_the_smallest_batch_refused_before_the_walk(
            self, monkeypatch):
        # batches of 50 and 49 pairs: q = 50 fits batch 0 but not batch 1
        walked = []
        kernel = agreement.quintile_overlaps
        monkeypatch.setattr(agreement, "quintile_overlaps",
                            lambda *args: walked.append(1) or kernel(*args))
        rng = np.random.default_rng(49)
        s1, s2 = (make_evalset(rng.uniform(0, 10, size=(99, 13)),
                               language=lang) for lang in ("en", "de"))
        for sets in ((s1,), (s1, s2)):
            with pytest.raises(ArgumentError, match=r"^batch 1 holds 49 "
                               r"pairs, fewer than the 50 quantile blocks$"):
                quintile_agreement_analysis(*sets, q=50)
        # the walk's own checks on the sets and on K still come first
        s3 = make_evalset(s2.scores, language="de", batch_size=33)
        with pytest.raises(AlignmentError, match="batch partitions"):
            quintile_agreement_analysis(s1, s3, q=50)
        with pytest.raises(ArgumentError, match="need 0 < k < n"):
            quintile_agreement_analysis(s1, K=13, q=50)
        assert walked == []
        assert len(quintile_agreement_analysis(s1, q=49)) == 49
        assert len(walked) == 2


class TestParallelWalk:
    """The batches of the K-subset walk run on a thread pool; the number
    of workers changes no bit of any result, and the pool leaves no
    thread behind."""

    @staticmethod
    def _sets(integral=False):
        # 7 batches, the last of 49 pairs; half-point scores tie, whole
        # points tie more and take the walk on integer sums, and constant
        # annotators give degenerate samples in en (every batch) and de
        # (batch 3 only)
        rng = np.random.default_rng(31)
        sets = []
        for lang in ("en", "de", "it", "ru"):
            scores = rng.uniform(0, 10, size=(349, 13))
            scores = np.rint(scores) if integral else np.rint(scores * 2) / 2
            if lang == "en":
                scores[:, :7] = 5.0
            if lang == "de":
                scores[150:200, :7] = 2.0 if integral else 2.5
            sets.append(make_evalset(scores, language=lang))
        assert len(sets[0].batches) == 7 and len(sets[0].batches[-1]) == 49
        return sets

    @staticmethod
    def _leaves_no_thread(fn, *args, **kwargs):
        before = threading.active_count()
        result = fn(*args, **kwargs)
        assert threading.active_count() == before
        return result

    def _results(self, sets):
        call = self._leaves_no_thread
        within, cross = call(agreement._agreement_reports, sets, 6, True)
        driver = call(significance_driver, sets)
        quintiles = [
            call(quintile_agreement_analysis, *pair, q=q)
            for pair in ((sets[1],), (sets[0], sets[1]))
            for q in (5, 7)
        ]
        return within + cross, repr(sorted(driver.items())), quintiles

    def test_worker_count_changes_no_bit(self, monkeypatch):
        self._check_worker_counts(monkeypatch, self._sets())

    def test_worker_count_changes_no_bit_on_integer_judgments(
            self, monkeypatch):
        self._check_worker_counts(monkeypatch, self._sets(integral=True))

    def _check_worker_counts(self, monkeypatch, sets):
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(agreement, "_worker_count",
                                lambda batches, w=workers: w)
            runs.append(self._results(sets))
        (reports, driver, quintiles), *others = runs
        assert [r.degenerate_count for r in reports[:2]] == [7 * 8, 8]
        assert driver.count("WelchResult") == 24
        for other_reports, other_driver, other_quintiles in others:
            for a, b in zip(reports, other_reports, strict=True):
                assert a.label == b.label
                assert np.array_equal(a.samples, b.samples)
                assert a.degenerate_count == b.degenerate_count
            assert other_driver == driver
            assert other_quintiles == quintiles

    def test_batch_error_reaches_caller(self, monkeypatch):
        monkeypatch.setattr(agreement, "_worker_count", lambda batches: 2)
        evalset = self._sets()[2]
        with pytest.raises(ArgumentError, match="q must be >= 2, got 1"):
            self._leaves_no_thread(quintile_agreement_analysis, evalset, q=1)

    def test_worker_count_bounds(self):
        cpus = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count())
        assert agreement._worker_count(0) == 1
        assert agreement._worker_count(1) == 1
        assert agreement._worker_count(10**6) == cpus


class TestIntegerJudgments:
    """A set whose judgments are all integers is walked on exact int16
    subset sums; every sample, degenerate count and quintile F equals the
    walk on float means."""

    @staticmethod
    def _sets(rng):
        # 60 pairs in batches of 50 and 10; annotator 0 of en is constant,
        # so K = 1 subsets and K = 12 complements of it are degenerate
        scores = rng.integers(0, 11, size=(2, 60, 13)).astype(float)
        scores[0, :, 0] = 4.0
        return [make_evalset(s, language=lang)
                for s, lang in zip(scores, ("en", "de"))]

    @staticmethod
    def _float_reference(sets, K, q=5):
        """Within and cross samples, degenerate counts and quintile F of
        the float means, built batch by batch as the walk adds them."""
        member = agreement._subset_membership(13, K)
        rhos = {"within": [], "cross": []}
        f_sums = {"within": 0.0, "cross": 0.0}
        count = 0
        for batch in sets[0].batches:
            (sub, comp), (other, _) = (
                (s.scores[list(batch)] @ member.T / K,
                 s.scores[list(batch)] @ (1 - member).T / (13 - K))
                for s in sets)
            for mode, b in (("within", comp), ("cross", other)):
                rhos[mode].append(ranked_spearman(centred_ranks(sub),
                                                  centred_ranks(b)))
                f_sums[mode] += quintile_overlaps(sub, b, q).sum(axis=1)
            count += sub.shape[1]
        reference = {}
        for mode in rhos:
            rho = np.concatenate(rhos[mode])
            reference[mode] = (rho[~np.isnan(rho)], int(np.isnan(rho).sum()),
                               tuple((f_sums[mode] / count).tolist()))
        return reference

    @pytest.mark.parametrize("K", [1, 12])
    def test_extreme_subset_sizes_equal_float_means(self, rng, K):
        # K = 1 and K = 12 give the fewest and the most sum levels
        sets = self._sets(rng)
        reference = self._float_reference(sets, K)
        got = {
            "within": (within_language_agreement(sets[0], K),
                       quintile_agreement_analysis(sets[0], K=K)),
            "cross": (cross_language_agreement(*sets, K),
                      quintile_agreement_analysis(*sets, K=K)),
        }
        for mode, (report, quintiles) in got.items():
            samples, degenerate, f = reference[mode]
            assert np.array_equal(report.samples, samples)
            assert report.degenerate_count == degenerate
            assert quintiles == f
        # the subset (K = 1) or complement (K = 12) {0}, once per batch
        assert reference["within"][1] == 2

    def test_kernels_get_int16_sums_only_for_integer_judgments(
            self, rng, monkeypatch):
        seen = []

        def spy(kernel):
            def wrapped(*matrices, **kwargs):
                seen.extend(m.dtype for m in matrices
                            if isinstance(m, np.ndarray))
                return kernel(*matrices, **kwargs)
            return wrapped

        monkeypatch.setattr(agreement, "centred_ranks",
                            spy(agreement.centred_ranks))
        monkeypatch.setattr(agreement, "quintile_overlaps",
                            spy(agreement.quintile_overlaps))
        integral, _ = self._sets(rng)
        scores = integral.scores.copy()
        scores[3, 4] = 7.5
        halved = make_evalset(scores, language="de")
        for evalset, dtype in ((integral, np.int16), (halved, np.float64)):
            seen.clear()
            within_language_agreement(evalset)
            quintile_agreement_analysis(evalset)
            assert set(seen) == {np.dtype(dtype)}
        seen.clear()
        cross_language_agreement(integral, halved)
        assert set(seen) == {np.dtype(np.int16), np.dtype(np.float64)}


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
    return EvaluationSet("en", WordPairList(tuple(words), tuple(ids)),
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

    @pytest.mark.parametrize("cells", [("1_0", "2.0"), ("1", "\u0663"),
                                       ("1", "2_5.0"), ("\u0661", "2.0")])
    def test_underscore_or_non_ascii_digit_refused(self, tmp_path, cells):
        # int and float read these as 10, 3.0, 25.0 and 1; no writer
        # spells them so
        path = tmp_path / "set.tsv"
        index, score = cells
        path.write_text("pair_index\tword1\tword2\tbatch\ta01\n"
                        "0\tcat\tdog\t0\t1.0\n"
                        f"{index}\tcat\tcow\t0\t{score}\n",
                        encoding="utf-8")
        with pytest.raises(FormatError, match=re.escape(
                f"non-numeric pair index or score [{path}:3]")):
            load_evaluation_set(path)

    def test_set_without_annotator_columns_not_saved(self, tmp_path):
        evalset = make_evalset(np.empty((4, 0)), batch_size=2)
        path = tmp_path / "set.tsv"
        with pytest.raises(FormatError, match="annotator column"):
            save_evaluation_set(evalset, path)
        assert not path.exists()

    def test_score_range_validation(self, rng):
        with pytest.raises(ValidationError):
            make_evalset(np.full((5, 13), 11.0), batch_size=5)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_score_out_of_range(self, value):
        scores = np.full((5, 13), 5.0)
        scores[2, 7] = value
        with pytest.raises(ValidationError, match=r"\[0, 10\]"):
            make_evalset(scores, batch_size=5)

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

    @settings(max_examples=200, deadline=None)
    @given(scores=_outlier_batches(), threshold=st.floats(0.5, 3.0))
    def test_iterate_partitions_the_screened_columns(self, scores,
                                                     threshold):
        try:
            cleaned, results = apply_outlier_filter(
                make_evalset(scores, batch_size=len(scores)),
                threshold=threshold, iterate=True)
        except ValidationError:  # no annotator kept
            assume(False)
        result = results[0]
        kept, excluded = list(result.kept), list(result.excluded)
        assert kept == sorted(set(kept)) and excluded == sorted(set(excluded))
        assert not set(kept) & set(excluded)
        assert sorted(kept + excluded) == list(result.screened)
        if len(kept) >= 3:
            assert detect_outliers(scores[:, kept], threshold).excluded == ()
        assert np.array_equal(cleaned.scores, scores[:, kept],
                              equal_nan=True)

    def test_iterate_mode_reaches_fixpoint(self):
        cleaned, results = apply_outlier_filter(self._planted(),
                                                iterate=True)
        matrix = cleaned.scores[:, ~np.isnan(cleaned.scores[0])]
        again = detect_outliers(matrix)
        assert again.excluded == ()
