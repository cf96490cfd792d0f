import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, example, given, settings, strategies as st

from vsmeval.errors import (
    ArgumentError,
    ConstantInputError,
    DegenerateError,
    ValidationError,
)
from vsmeval import stats
from vsmeval.stats import (
    kendall_tau_b,
    pearson,
    quintile_block_sizes,
    quintile_fscore,
    quintile_overlaps,
    spearman,
    student_t_sf,
    welch_t_test,
)

from conftest import average_ranks, integer_matrix
from oracles import (
    kendall_tau_b_bruteforce,
    pearson_formula,
    quintile_fscores_sets,
    spearman_bruteforce,
    t_sf_quadrature,
    welch_p_quadrature,
)


def _random_tied(rng, n):
    # heavy ties, mimicking 0-10 human scores
    return rng.choice(np.arange(0, 10.5, 0.5), size=n)


class TestSpearman:
    def test_identity(self):
        assert spearman([1, 2, 3, 4], [1, 2, 3, 4]) == pytest.approx(1.0)

    def test_reversal(self):
        assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_tied_case_matches_two_step_oracle(self):
        x = [1, 2, 2, 4]
        y = [1, 3, 2, 4]
        assert spearman(x, y) == pytest.approx(
            spearman_bruteforce(x, y), abs=1e-12
        )

    def test_constant_input_raises(self):
        with pytest.raises(ConstantInputError):
            spearman([1, 1, 1], [1, 2, 3])

    def test_symmetry_and_bounds(self, rng):
        for _ in range(50):
            x = _random_tied(rng, 30)
            y = _random_tied(rng, 30)
            try:
                a = spearman(x, y)
            except ConstantInputError:
                continue
            assert a == pytest.approx(spearman(y, x), abs=1e-14)
            assert -1.0 <= a <= 1.0

    def test_monotone_transform_invariance(self, rng):
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        assert spearman(np.exp(x), y) == pytest.approx(
            spearman(x, y), abs=1e-12
        )
        assert spearman(x, 5 * y + 2) == pytest.approx(
            spearman(x, y), abs=1e-12
        )

    def test_against_scipy(self, rng):
        for _ in range(100):
            x = _random_tied(rng, int(rng.integers(5, 80)))
            y = _random_tied(rng, len(x))
            try:
                ours = spearman(x, y)
            except ConstantInputError:
                continue
            theirs = scipy.stats.spearmanr(x, y).statistic
            assert ours == pytest.approx(theirs, abs=1e-10)

    def test_equals_pearson_of_rankdata_exactly(self, rng):
        for _ in range(100):
            x = _random_tied(rng, int(rng.integers(2, 80)))
            y = rng.normal(size=len(x))
            try:
                ours = spearman(x, y)
            except ConstantInputError:
                continue
            assert ours == pearson(scipy.stats.rankdata(x),
                                   scipy.stats.rankdata(y))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 600),
           kinds=st.tuples(*[st.sampled_from(["ties", "rounded", "gaussian",
                                              "constant"])] * 2),
           seed=st.integers(0, 2**32 - 1))
    # the largest n whose doubled ranks are float32, and the smallest above
    @example(n=256, kinds=("ties", "gaussian"), seed=0)
    @example(n=257, kinds=("ties", "gaussian"), seed=0)
    @example(n=256, kinds=("ties", "ties"), seed=1)
    @example(n=257, kinds=("rounded", "ties"), seed=1)
    @example(n=257, kinds=("gaussian", "constant"), seed=2)
    def test_has_the_bits_of_pearson_of_rankdata(self, n, kinds, seed):
        # on both sides of the float32 / float64 switch of centred_ranks;
        # a constant side raises where pearson raises
        r = np.random.default_rng(seed)
        x, y = ({"ties": lambda: _random_tied(r, n),
                 "rounded": lambda: r.normal(size=n).round(1),
                 "gaussian": lambda: r.normal(size=n),
                 "constant": lambda: np.full(n, 0.5)}[kind]()
                for kind in kinds)
        try:
            expected = pearson(scipy.stats.rankdata(x),
                               scipy.stats.rankdata(y))
        except ConstantInputError:
            with pytest.raises(ConstantInputError):
                spearman(x, y)
            return
        assert "constant" not in kinds
        assert np.float64(spearman(x, y)).tobytes() == \
            np.float64(expected).tobytes()


@pytest.mark.parametrize("correlation", [pearson, spearman, kendall_tau_b])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_correlations_reject_non_finite(correlation, bad):
    x = [1.0, 2.0, 3.0, 4.0]
    with pytest.raises(ValidationError):
        correlation(x, [1.0, bad, 2.0, 3.0])
    with pytest.raises(ValidationError):
        correlation([1.0, bad, 2.0, 3.0], x)


class TestPearson:
    def test_identity_and_negation(self, rng):
        x = rng.normal(size=20)
        assert pearson(x, x) == pytest.approx(1.0)
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_against_textbook_formula(self, rng):
        for _ in range(50):
            x = rng.normal(size=25)
            y = rng.normal(size=25)
            assert pearson(x, y) == pytest.approx(
                pearson_formula(list(x), list(y)), abs=1e-12
            )

    def test_constant_raises(self):
        with pytest.raises(ConstantInputError):
            pearson([2, 2], [1, 3])


class TestKendall:
    def test_identity_and_reversal(self):
        x = [1, 2, 3, 4, 5]
        assert kendall_tau_b(x, x) == pytest.approx(1.0)
        assert kendall_tau_b(x, x[::-1]) == pytest.approx(-1.0)

    def test_ties_match_bruteforce(self, rng):
        for _ in range(30):
            x = list(_random_tied(rng, 25))
            y = list(_random_tied(rng, 25))
            try:
                ours = kendall_tau_b(x, y)
            except ConstantInputError:
                continue
            assert ours == pytest.approx(
                kendall_tau_b_bruteforce(x, y), abs=1e-12
            )

    @pytest.mark.parametrize("n", [257, 513])
    def test_block_boundaries_match_bruteforce(self, rng, n):
        # one and two positions past a whole block of compared rows
        x = _random_tied(rng, n)
        y = _random_tied(rng, n)
        assert kendall_tau_b(x, y) == \
            kendall_tau_b_bruteforce(x.tolist(), y.tolist())

    def test_memory_grows_with_n_not_n_squared(self, rng):
        # an n x n sign matrix at n=4000 alone takes 122 MiB
        x = _random_tied(rng, 4000)
        y = _random_tied(rng, 4000)
        tracemalloc.start()
        try:
            kendall_tau_b(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_all_tied_raises(self):
        with pytest.raises(ConstantInputError):
            kendall_tau_b([1, 1, 1], [1, 2, 3])

    def test_against_scipy(self, rng):
        for _ in range(50):
            x = _random_tied(rng, 40)
            y = _random_tied(rng, 40)
            try:
                ours = kendall_tau_b(x, y)
            except ConstantInputError:
                continue
            theirs = scipy.stats.kendalltau(x, y, variant="b").statistic
            assert ours == pytest.approx(theirs, abs=1e-10)


class TestWelch:
    def test_same_sample_twice(self):
        a = [1.0, 2.0, 5.0, 7.0]
        result = welch_t_test(a, a)
        assert result.t_statistic == 0.0
        assert result.p_value == pytest.approx(1.0)

    def test_hand_arithmetic(self):
        result = welch_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
        assert result.t_statistic == pytest.approx(-1.0, abs=1e-12)
        assert result.degrees_of_freedom == pytest.approx(8.0, abs=1e-12)
        assert result.p_value == pytest.approx(
            welch_p_quadrature([1, 2, 3, 4, 5], [2, 3, 4, 5, 6]), abs=1e-10
        )

    def test_extreme_separation(self, rng):
        a = rng.normal(0, 1, size=20)
        b = rng.normal(100, 1, size=20)
        assert welch_t_test(a, b).p_value < 1e-10

    def test_antisymmetry(self, rng):
        a = rng.normal(0, 1, size=10)
        b = rng.normal(0.5, 2, size=15)
        r1 = welch_t_test(a, b)
        r2 = welch_t_test(b, a)
        assert r1.t_statistic == pytest.approx(-r2.t_statistic, abs=1e-14)
        assert r1.p_value == pytest.approx(r2.p_value, abs=1e-14)

    def test_df_bound(self, rng):
        a = rng.normal(size=8)
        b = rng.normal(size=12)
        result = welch_t_test(a, b)
        assert result.degrees_of_freedom <= len(a) + len(b) - 2

    def test_zero_variance_both_sides(self):
        with pytest.raises(DegenerateError):
            welch_t_test([1, 1, 1], [2, 2])

    @pytest.mark.parametrize("df", [1, 5, 30, 1000])
    def test_sf_matches_quadrature(self, df):
        for t in np.linspace(-10, 10, 21):
            assert student_t_sf(float(t), df) == pytest.approx(
                t_sf_quadrature(float(t), df), abs=1e-8
            )


class TestQuintiles:
    def test_block_sizes(self):
        assert quintile_block_sizes(350, 5) == (70, 70, 70, 70, 70)
        assert quintile_block_sizes(999, 5) == (200, 200, 200, 200, 199)
        assert quintile_block_sizes(49, 5) == (10, 10, 10, 10, 9)

    def test_identical_rankings(self, rng):
        r = rng.normal(size=25)
        overlap = quintile_fscore(r, r)
        assert overlap == (1.0, 1.0, 1.0, 1.0, 1.0)

    def test_full_reversal_n10(self):
        values = list(range(10))
        r1 = values
        r2 = values[::-1]
        # mirrored blocks of 2 share nothing except the self-mapped middle
        assert quintile_fscore(r1, r2) == (0, 0, 1, 0, 0)

    def test_matches_set_intersection_oracle(self, rng):
        for _ in range(30):
            n = int(rng.integers(10, 60))
            v1 = rng.normal(size=n)
            v2 = rng.normal(size=n)
            sizes = quintile_block_sizes(n, 5)
            order1 = sorted(range(n), key=lambda i: (-v1[i], i))
            order2 = sorted(range(n), key=lambda i: (-v2[i], i))
            expected = quintile_fscores_sets(order1, order2, sizes)
            got = quintile_fscore(v1, v2)
            assert list(got) == pytest.approx(expected)

    def test_symmetry(self, rng):
        r1 = rng.normal(size=33)
        r2 = rng.normal(size=33)
        assert quintile_fscore(r1, r2) == quintile_fscore(r2, r1)

    def test_ties_follow_pair_position(self, rng):
        # few levels and signed zeros: equal scores keep pair order
        for _ in range(30):
            n = int(rng.integers(5, 80))
            q = int(rng.integers(2, 6))
            levels = np.array([-0.0, 0.0, 0.5, 1.0])
            v1 = rng.choice(levels, size=n)
            v2 = rng.choice(levels, size=n)
            sizes = quintile_block_sizes(n, q)
            order1 = sorted(range(n), key=lambda i: (-v1[i], i))
            order2 = sorted(range(n), key=lambda i: (-v2[i], i))
            expected = quintile_fscores_sets(order1, order2, sizes)
            assert list(quintile_fscore(v1, v2, q=q)) == \
                pytest.approx(expected)

    def test_unequal_or_single_inputs_rejected(self, rng):
        with pytest.raises(ArgumentError):
            quintile_fscore(rng.normal(size=10), rng.normal(size=9))
        with pytest.raises(ArgumentError):
            quintile_fscore([1.0], [1.0], q=2)

    def test_q_validation(self, rng):
        r = rng.normal(size=10)
        with pytest.raises(ArgumentError):
            quintile_fscore(r, r, q=1)


class TestIntegerKeys:
    """The K-subset walk gives both kernels exact int16 subset sums when
    every judgment is an integer. On them the kernels give what they give
    on float input, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 60), m=st.integers(1, 600),
           levels=st.integers(1, 121), low=st.integers(-121, 121),
           constant_share=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_counting_ranks_equal_rankdata(self, n, m, levels, low,
                                           constant_share, seed):
        x = integer_matrix(seed, n, m, levels, constant_share, low=low)
        ranks = average_ranks(x)
        expected = scipy.stats.rankdata(x.astype(float), axis=0)
        assert ranks.dtype == expected.dtype == np.float64
        assert np.array_equal(ranks, expected)

    def test_wide_integer_range_is_sorted(self, rng):
        # more levels than a counting table may hold: the sort ranks it
        x = rng.integers(-5, 5, size=(30, 300)) * stats._COUNT_LEVELS
        assert np.ptp(x) >= stats._COUNT_LEVELS
        expected = scipy.stats.rankdata(x.astype(float), axis=0)
        assert np.array_equal(average_ranks(x), expected)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(7, 60), m=st.integers(1, 600), q=st.integers(2, 7),
           K=st.integers(1, 12), levels=st.integers(1, 121),
           constant_share=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    # two levels: ties straddle every block boundary
    @example(n=50, m=300, q=5, K=6, levels=2, constant_share=0.1, seed=0)
    def test_quintiles_on_sums_equal_quintiles_on_means(
            self, n, m, q, K, levels, constant_share, seed):
        # subset sums of K judgments on 0-10, complement sums of 13 - K
        sums = [integer_matrix(seed + side, n, m, levels, constant_share,
                               span=10 * k + 1)
                for side, k in enumerate((K, 13 - K))]
        means = (sums[0] / K, sums[1] / (13 - K))
        assert np.array_equal(quintile_overlaps(*sums, q),
                              quintile_overlaps(*means, q))

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 60), m=st.integers(1, 300), q=st.integers(2, 7),
           levels=st.integers(1, 121),
           span=st.one_of(st.integers(1, 256), st.integers(257, 2**16)),
           at_bottom=st.booleans(), constant_share=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    # the widest span one byte of keys holds, and the narrowest beyond it
    @example(n=50, m=40, q=5, levels=121, span=256, at_bottom=True,
             constant_share=0.1, seed=0)
    @example(n=50, m=40, q=5, levels=121, span=257, at_bottom=True,
             constant_share=0.1, seed=0)
    def test_quintiles_on_int16_of_any_span_equal_quintiles_on_floats(
            self, n, m, q, levels, span, at_bottom, constant_share, seed):
        # down to -32768, whose negation overflows in int16, or up to 32767
        assume(n >= q)
        low = -2**15 if at_bottom else 2**15 - span
        a, b = (integer_matrix(seed + side, n, m, levels, constant_share,
                               span=span, low=low) for side in (0, 1))
        a[0], a[-1] = low, low + span - 1
        assert np.array_equal(quintile_overlaps(a, b, q),
                              quintile_overlaps(a.astype(float),
                                                b.astype(float), q))
