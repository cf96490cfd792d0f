import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from vsmeval.combine import (
    BaselineResult,
    CcaModel,
    TranslationLexicon,
    fit_cca,
    fit_cca_tables,
    interpolate_scores,
    load_cca_model,
    load_lexicon,
    monolingual_baseline,
    project_concat,
    save_cca_model,
    save_lexicon,
)
from vsmeval.corpus import Corpus
from vsmeval.errors import (
    AlignmentError,
    ArgumentError,
    DegenerateError,
    FormatError,
    WordLookupError,
)
from vsmeval.scoring import (
    ScoreVector,
    WordPairList,
    read_scores,
    score_pairs,
    write_scores,
)
from vsmeval.stats import spearman
from vsmeval.vectors import VectorTable

from conftest import LINE_READER_CHARACTERS
from oracles import cca_correlations_eigen


def _sv(values):
    return ScoreVector(dict(enumerate(values)))


class TestInterpolation:
    def test_lambda_one_is_first_model(self):
        s1 = _sv([0.1, 0.2, 0.3])
        s2 = _sv([0.9, 0.8, 0.7])
        out = interpolate_scores(s1, s2, 1.0)
        assert out.scores == s1.scores

    def test_halfway_arithmetic(self):
        out = interpolate_scores(_sv([0.2]), _sv([0.6]), 0.5)
        assert out.scores[0] == pytest.approx(0.4)

    def test_lambda_sweep_monotone(self, rng):
        s1 = _sv(rng.uniform(-1, 1, 10))
        s2 = _sv(rng.uniform(-1, 1, 10))
        lams = [0.25, 0.33, 0.5, 0.67, 0.75]
        outputs = [interpolate_scores(s1, s2, lam) for lam in lams]
        for idx in range(10):
            values = [o.scores[idx] for o in outputs]
            lo = min(s1.scores[idx], s2.scores[idx])
            hi = max(s1.scores[idx], s2.scores[idx])
            assert all(lo - 1e-12 <= v <= hi + 1e-12 for v in values)
            diffs = np.diff(values)
            assert np.all(diffs >= -1e-12) or np.all(diffs <= 1e-12)

    def test_complement_symmetry(self, rng):
        s1 = _sv(rng.uniform(-1, 1, 7))
        s2 = _sv(rng.uniform(-1, 1, 7))
        # exact when 1 - lambda is exactly representable
        a = interpolate_scores(s1, s2, 0.25)
        b = interpolate_scores(s2, s1, 0.75)
        assert a.scores == b.scores
        c = interpolate_scores(s1, s2, 0.33)
        d = interpolate_scores(s2, s1, 1 - 0.33)
        for idx in c.scores:
            assert c.scores[idx] == pytest.approx(d.scores[idx], abs=1e-15)

    def test_index_mismatch(self):
        with pytest.raises(AlignmentError):
            interpolate_scores(_sv([1, 2]), _sv([1, 2, 3]), 0.5)

    def test_lambda_range(self):
        with pytest.raises(ArgumentError):
            interpolate_scores(_sv([1, 2]), _sv([1, 2]), 1.5)

    def test_numpy_lambda_scores_read_back(self, tmp_path):
        # a numpy lambda gives numpy scores, which the file holds as numbers
        out = interpolate_scores(_sv([0.25, 0.5]), _sv([0.75, 1.0]),
                                 np.float64(0.5))
        path = tmp_path / "li.tsv"
        write_scores(out, WordPairList((("a", "b"), ("c", "d")), (0, 1)),
                     path)
        assert read_scores(path).scores == {0: 0.5, 1: 0.75}


class TestCca:
    def test_self_correlation_all_ones(self, rng):
        X = rng.normal(size=(40, 5))
        model = fit_cca(X, X, eps=1e-12)
        assert np.allclose(model.correlations, 1.0, atol=1e-8)

    def test_orthogonal_rotation_all_ones(self, rng):
        X = rng.normal(size=(40, 5))
        R = np.linalg.qr(rng.normal(size=(5, 5)))[0]
        model = fit_cca(X, X @ R, eps=1e-12)
        assert np.allclose(model.correlations, 1.0, atol=1e-8)

    def test_matches_eigenproblem_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(20, 60))
            d1 = int(rng.integers(2, 8))
            d2 = int(rng.integers(2, 8))
            X = rng.normal(size=(n, d1))
            Y = rng.normal(size=(n, d2))
            model = fit_cca(X, Y)
            expected = cca_correlations_eigen(X, Y)
            assert np.allclose(model.correlations, expected, atol=1e-8)

    def test_correlations_sorted_and_bounded(self, rng):
        X = rng.normal(size=(30, 6))
        Y = 0.5 * X[:, :4] + rng.normal(size=(30, 4))
        model = fit_cca(X, Y)
        c = model.correlations
        assert np.all(np.diff(c) <= 1e-12)
        assert np.all((0.0 <= c) & (c <= 1.0))

    def test_invertible_transform_invariance(self, rng):
        X = rng.normal(size=(50, 4))
        Y = rng.normal(size=(50, 3))
        A = rng.normal(size=(4, 4)) + 4 * np.eye(4)
        m1 = fit_cca(X, Y, eps=1e-12)
        m2 = fit_cca(X @ A, Y, eps=1e-12)
        assert np.allclose(m1.correlations, m2.correlations, atol=1e-8)

    def test_degenerate_inputs(self, rng):
        with pytest.raises(DegenerateError):
            fit_cca(np.zeros((1, 3)), np.zeros((1, 3)))
        with pytest.raises(DegenerateError):
            fit_cca(np.ones((5, 3)), rng.normal(size=(5, 3)))

    def test_wide_views_match_their_row_space(self, rng):
        # X = Z A and Y = W B with orthonormal rows in A and B: the views
        # are wider than they are tall, and their canonical correlations
        # are those of (Z, W), then zeros, one per row
        for _ in range(10):
            n = int(rng.integers(20, 40))
            r, q = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            d1, d2 = int(rng.integers(n + 1, 90)), int(rng.integers(n + 1, 90))
            Z, W = rng.normal(size=(n, r)), rng.normal(size=(n, q))
            W[:, 0] += Z[:, 0]
            A = np.linalg.qr(rng.normal(size=(d1, r)))[0].T
            B = np.linalg.qr(rng.normal(size=(d2, q)))[0].T
            model = fit_cca(Z @ A, W @ B)
            expected = cca_correlations_eigen(Z, W)
            lead = len(expected)
            assert model.n_components == min(n, d1, d2)
            assert np.allclose(model.correlations[:lead], expected,
                               rtol=0, atol=1e-10)
            assert np.all(model.correlations[lead:] <= 1e-8)

    def test_fit_allocates_no_width_squared_matrix(self, rng):
        d = 1500
        X, Y = rng.normal(size=(40, d)), rng.normal(size=(40, d))
        tracemalloc.start()
        try:
            fit_cca(X, Y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < d * d * 8

    @pytest.mark.parametrize("n, d1, d2, k", [
        (60, 12, 9, 5), (60, 6, 5, 8), (60, 7, 7, 7), (8, 15, 12, 10),
    ], ids=["cut-below-widths", "cut-above-widths", "cut-at-widths",
            "rows-below-cut"])
    def test_max_dim_is_cca_of_the_principal_scores(self, rng, n, d1, d2, k):
        # each view cut to the scores on its k leading principal axes;
        # centred rows span n - 1 dimensions, and past them the
        # correlations are zeros
        def scores(M):
            Mc = M - M.mean(axis=0)
            return Mc @ np.linalg.svd(Mc, full_matrices=False)[2][:k].T

        for _ in range(10):
            X, Y = rng.normal(size=(n, d1)), rng.normal(size=(n, d2))
            Y[:, 0] += X[:, 0]
            model = fit_cca(X, Y, max_dim=k)
            expected = cca_correlations_eigen(scores(X), scores(Y))
            lead = min(n - 1, d1, d2, k)
            assert model.n_components == len(expected) == min(n, d1, d2, k)
            assert np.allclose(model.correlations[:lead], expected[:lead],
                               rtol=0, atol=1e-10)
            assert np.all(model.correlations[lead:] <= 1e-8)
            if k >= min(n, max(d1, d2)):
                uncut = fit_cca(X, Y)
                assert np.array_equal(model.projection_1, uncut.projection_1)
                assert np.array_equal(model.correlations, uncut.correlations)

    @pytest.mark.parametrize("max_dim", [0, -1])
    def test_max_dim_below_one_rejected(self, rng, max_dim):
        with pytest.raises(ArgumentError, match="max_dim must be >= 1"):
            fit_cca(rng.normal(size=(10, 3)), rng.normal(size=(10, 3)),
                    max_dim=max_dim)

    def test_components_cap(self, rng):
        X = rng.normal(size=(30, 6))
        Y = rng.normal(size=(30, 5))
        model = fit_cca(X, Y, components=2)
        assert model.n_components == 2
        assert model.projection_1.shape == (6, 2)
        assert model.projection_2.shape == (5, 2)


def _aligned_tables(rng, n_words=20, d1=6, d2=6):
    w1 = tuple(f"en{i}" for i in range(n_words))
    w2 = tuple(f"de{i}" for i in range(n_words))
    base = rng.normal(size=(n_words, d1))
    t1 = VectorTable("en", w1, base)
    t2 = VectorTable("de", w2,
                     base[:, :d2] + 0.1 * rng.normal(size=(n_words, d2)))
    lexicon = TranslationLexicon(("en", "de"), tuple(zip(w1, w2)))
    return t1, t2, lexicon


class TestProjectConcat:
    def test_output_dimension_and_rows(self, rng):
        t1, t2, lexicon = _aligned_tables(rng)
        model = fit_cca_tables(t1, t2, lexicon, components=3)
        table = project_concat(t1, t2, lexicon, model)
        assert table.dimension == 6
        assert len(table) == len(lexicon.rows)

    def test_side_variant_dimension(self, rng):
        t1, t2, lexicon = _aligned_tables(rng)
        model = fit_cca_tables(t1, t2, lexicon, components=3)
        table = project_concat(t1, t2, lexicon, model, side="l1")
        assert table.dimension == 3

    @pytest.mark.parametrize("side", [None, "l1", "l2"])
    def test_rows_match_the_per_row_formula(self, rng, side):
        t1, t2, lexicon = _aligned_tables(rng, d1=6, d2=5)
        model = fit_cca_tables(t1, t2, lexicon, components=3)
        table = project_concat(t1, t2, lexicon, model, side=side)
        halves = []
        for t, mean, projection, half in (
                (t1, model.mean_1, model.projection_1, "l1"),
                (t2, model.mean_2, model.projection_2, "l2")):
            if side in (None, half):
                M = t.rows(lexicon.column(t.language))
                unit = M / np.linalg.norm(M, axis=1, keepdims=True)
                halves.append([(u - mean) @ projection for u in unit])
        assert table.words == lexicon.column("en")
        assert np.array_equal(table.matrix, np.hstack(halves))

    def test_identical_tables_preserve_scores(self, rng):
        words = tuple(f"w{i}" for i in range(15))
        base = rng.normal(size=(15, 5))
        t1 = VectorTable("en", words, base.copy())
        t2 = VectorTable("de", words, base.copy())
        lexicon = TranslationLexicon(("en", "de"),
                                     tuple((w, w) for w in words))
        model = fit_cca_tables(t1, t2, lexicon, eps=1e-12)
        combined = project_concat(t1, t2, lexicon, model)
        m = model.n_components
        vectors = combined.rows(words)
        assert np.allclose(vectors[:, :m], vectors[:, m:], rtol=0, atol=1e-9)
        unit = base / np.linalg.norm(base, axis=1, keepdims=True)
        expected = [(u - model.mean_1) @ model.projection_1 for u in unit]
        assert np.array_equal(vectors[:, :m], expected)

    def test_missing_word_names_row(self, rng):
        t1, t2, lexicon = _aligned_tables(rng)
        kept = tuple(w for w in t1.words if w != "en3")
        t1 = VectorTable("en", kept, t1.rows(kept))
        model_lexicon = TranslationLexicon(
            ("en", "de"),
            tuple(r for r in lexicon.rows if r[0] != "en3"),
        )
        model = fit_cca_tables(t1, t2, model_lexicon)
        with pytest.raises(WordLookupError, match="row 3"):
            project_concat(t1, t2, lexicon, model)

    def test_repeated_first_language_word(self, rng):
        # as in a dict: the word keeps its first row and its last vector
        t1, t2, lexicon = _aligned_tables(rng)
        model = fit_cca_tables(t1, t2, lexicon, components=3)
        last_row = TranslationLexicon(("en", "de"), (("en0", "de5"),))
        repeated = TranslationLexicon(
            ("en", "de"), lexicon.rows[:3] + last_row.rows
        )
        table = project_concat(t1, t2, repeated, model)
        last = project_concat(t1, t2, last_row, model)
        assert table.words == ("en0", "en1", "en2")
        assert np.array_equal(table["en0"], last["en0"])

    def test_max_dim_cap_folds_into_projections(self, rng):
        t1, t2, lexicon = _aligned_tables(rng, n_words=30, d1=12, d2=10)
        model = fit_cca_tables(t1, t2, lexicon, max_dim=5)
        assert model.projection_1.shape[0] == 12
        assert model.projection_2.shape[0] == 10
        table = project_concat(t1, t2, lexicon, model)
        assert table.dimension == 2 * model.n_components


_CELLS = st.text(st.sampled_from(LINE_READER_CHARACTERS), min_size=1,
                 max_size=3)


@st.composite
def _cca_models(draw):
    """Models of up to 3 x 3 projections, empty or not, with any floats:
    NaN, infinities, -0.0 and subnormals, and a float or numpy eps."""
    d1, d2, m = (draw(st.integers(0, 3)) for _ in range(3))

    def array(*shape):
        values = draw(st.lists(st.floats(), min_size=int(np.prod(shape)),
                               max_size=int(np.prod(shape))))
        return np.array(values, dtype=float).reshape(shape)

    eps = draw(st.sampled_from([float, np.float64]))(draw(st.floats()))
    return CcaModel((draw(_CELLS), draw(_CELLS)), array(d1), array(d2),
                    array(d1, m), array(d2, m), array(m), eps)


class TestCcaModelIO:
    def test_roundtrip(self, tmp_path, rng):
        t1, t2, lexicon = _aligned_tables(rng)
        model = fit_cca_tables(t1, t2, lexicon)
        path = tmp_path / "model.txt"
        save_cca_model(model, path)
        again = load_cca_model(path)
        assert again.languages == model.languages
        assert np.array_equal(again.projection_1, model.projection_1)
        assert np.array_equal(again.projection_2, model.projection_2)
        assert np.array_equal(again.correlations, model.correlations)
        assert again.regularization == model.regularization

    def test_seventh_header_field_0_rejected(self, tmp_path, rng):
        t1, t2, lexicon = _aligned_tables(rng)
        path = tmp_path / "model.txt"
        save_cca_model(fit_cca_tables(t1, t2, lexicon), path)
        header, rest = path.read_text().split("\n", 1)
        assert header.endswith(" 1")
        path.write_text(header[:-1] + "0\n" + rest)
        with pytest.raises(FormatError, match=r"bad CCA model header.*:1\]"):
            load_cca_model(path)

    def test_six_field_header_projects_identically(self, tmp_path, rng):
        t1, t2, lexicon = _aligned_tables(rng)
        seven, six = tmp_path / "seven.txt", tmp_path / "six.txt"
        save_cca_model(fit_cca_tables(t1, t2, lexicon), seven)
        header, rest = seven.read_text().split("\n", 1)
        six.write_text(header.rsplit(" ", 1)[0] + "\n" + rest)
        before = project_concat(t1, t2, lexicon, load_cca_model(seven))
        after = project_concat(t1, t2, lexicon, load_cca_model(six))
        assert before.words == after.words
        assert after.matrix.tobytes() == before.matrix.tobytes()

    @pytest.mark.parametrize("languages", [("e n", "de"), ("", "de"),
                                           ("en", "d\te"), ("en", "")])
    def test_language_code_with_whitespace_rejected(self, tmp_path, rng,
                                                    languages):
        model = fit_cca(rng.normal(size=(20, 3)), rng.normal(size=(20, 3)),
                        languages=languages)
        path = tmp_path / "model.txt"
        with pytest.raises(FormatError, match="language code"):
            save_cca_model(model, path)
        assert not path.exists()

    @pytest.mark.parametrize("field", ["mean_1", "correlations",
                                       "projection_2", "regularization"])
    def test_non_finite_value_rejected(self, tmp_path, rng, field):
        # load_cca_model refuses the line holding it
        model = fit_cca(rng.normal(size=(20, 3)), rng.normal(size=(20, 3)))
        if field == "regularization":
            model.regularization = float("inf")
        else:
            getattr(model, field).flat[0] = np.nan
        path = tmp_path / "model.txt"
        with pytest.raises(FormatError, match="non-finite value"):
            save_cca_model(model, path)
        assert not path.exists()

    def test_model_without_a_component_rejected(self, tmp_path, rng):
        # its rows would be blank lines, which the reader skips
        model = fit_cca(rng.normal(size=(20, 3)), rng.normal(size=(20, 3)))
        model.projection_1 = model.projection_1[:, :0]
        model.projection_2 = model.projection_2[:, :0]
        model.correlations = model.correlations[:0]
        path = tmp_path / "model.txt"
        with pytest.raises(FormatError, match="needs a component"):
            save_cca_model(model, path)
        assert not path.exists()

    def test_numpy_eps_read_back(self, tmp_path, rng):
        model = fit_cca(rng.normal(size=(20, 3)), rng.normal(size=(20, 3)),
                        eps=np.float64(1e-8))
        path = tmp_path / "model.txt"
        save_cca_model(model, path)
        assert load_cca_model(path).regularization == 1e-8

    @settings(max_examples=100, deadline=None, suppress_health_check=[
        HealthCheck.function_scoped_fixture])
    @given(model=_cca_models())
    @example(model=CcaModel(("en", "de"), np.zeros(0), np.zeros(1),
                            np.zeros((0, 1)), np.zeros((1, 1)), np.zeros(1),
                            1e-8))
    def test_roundtrip_property(self, tmp_path, model):
        path = tmp_path / "model.txt"
        path.unlink(missing_ok=True)
        fields = ("mean_1", "mean_2", "projection_1", "projection_2",
                  "correlations")
        refused = (any(lang.split() != [lang] for lang in model.languages)
                   or 0 in model.projection_1.shape + model.projection_2.shape
                   or not all(np.isfinite(getattr(model, f)).all()
                              for f in fields)
                   or not np.isfinite(model.regularization))
        if refused:
            with pytest.raises(FormatError):
                save_cca_model(model, path)
            assert not path.exists()
            return
        save_cca_model(model, path)
        again = load_cca_model(path)
        assert again.languages == model.languages
        for f in fields:
            assert getattr(again, f).shape == getattr(model, f).shape
            assert getattr(again, f).tobytes() == getattr(model, f).tobytes()
        assert (np.float64(again.regularization).tobytes()
                == np.float64(model.regularization).tobytes())

    def test_ragged_row_rejected(self, tmp_path, rng):
        model = fit_cca(rng.normal(size=(20, 3)), rng.normal(size=(20, 3)))
        path = tmp_path / "model.txt"
        save_cca_model(model, path)
        lines = path.read_text().splitlines()
        lines[5] += " 0.5"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=r"expected 3 values.*:6\]"):
            load_cca_model(path)


@st.composite
def _lexicons(draw):
    row = st.tuples(*[_CELLS] * draw(st.integers(1, 3)))
    return TranslationLexicon(draw(row), tuple(draw(st.lists(row,
                                                             max_size=4))))


class TestLexiconIO:
    @settings(max_examples=60, deadline=None, suppress_health_check=[
        HealthCheck.function_scoped_fixture])
    @given(lexicon=_lexicons())
    @example(lexicon=TranslationLexicon(("en", "de"), (("#tag", "#etikett"),)))
    @example(lexicon=TranslationLexicon(("en", "de", "en"), ()))
    def test_roundtrip_property(self, tmp_path, lexicon):
        path = tmp_path / "lex.tsv"
        path.unlink(missing_ok=True)
        lines = [lexicon.languages, *lexicon.rows]
        broken = any(c in cell for row in lines for cell in row
                     for c in "\t\n\r")
        skipped = any(not "".join(row).strip() or row[0].startswith("#")
                      for row in lines)
        repeated = len(set(lexicon.languages)) < len(lexicon.languages)
        if broken or skipped or repeated:
            with pytest.raises(FormatError):
                save_lexicon(lexicon, path)
            assert not path.exists()
            return
        save_lexicon(lexicon, path)
        assert load_lexicon(path) == lexicon

    def test_roundtrip(self, tmp_path):
        lexicon = TranslationLexicon(
            ("en", "de"), (("cat", "katze"), ("dog", "hund"))
        )
        path = tmp_path / "lex.tsv"
        save_lexicon(lexicon, path)
        assert load_lexicon(path) == lexicon

    def test_empty_cell_rejected(self):
        with pytest.raises(AlignmentError):
            TranslationLexicon(("en", "de"), (("cat", ""),))


def _word_corpus(rng, words, n_sentences=300, length=8):
    sentences = tuple(
        tuple(rng.choice(words, size=length)) for _ in range(n_sentences)
    )
    return Corpus.from_sentences("en", sentences)


def _bow_builder(targets):
    from vsmeval.bow import build_bow_table
    from vsmeval.corpus import build_vocabulary

    def build(corpus):
        vocab = build_vocabulary(corpus)
        return build_bow_table(corpus, targets, vocab,
                               k=len(vocab), window=2)

    return build


class TestMonolingualBaseline:
    def _setup(self, rng):
        words = [f"w{i}" for i in range(12)]
        corpus = _word_corpus(rng, words)
        pairs = WordPairList(
            tuple((words[2 * i], words[2 * i + 1]) for i in range(6)),
            tuple(range(6)),
        )
        human = ScoreVector(
            {i: float(v) for i, v in enumerate(rng.uniform(0, 10, 6))},
        )
        return corpus, pairs, human, words

    def test_full_fraction_li_equals_single_model(self, rng):
        corpus, pairs, human, words = self._setup(rng)
        build = _bow_builder(words)
        result = monolingual_baseline(
            corpus, build, pairs, human, combiner="li",
            fraction=1.0, reps=1, seed=0,
        )
        table = build(corpus)
        single = score_pairs(table, pairs)
        common = sorted(single.scores)
        rho = spearman([single.scores[i] for i in common],
                       [human.scores[i] for i in common])
        assert result.rhos[0] == pytest.approx(rho, abs=1e-12)

    def test_five_reps_reported(self, rng):
        corpus, pairs, human, words = self._setup(rng)
        result = monolingual_baseline(
            corpus, _bow_builder(words), pairs, human,
            combiner="li", fraction=0.8, reps=5, seed=3,
        )
        assert len(result.rhos) + result.failures == 5

    def test_deterministic(self, rng):
        corpus, pairs, human, words = self._setup(rng)
        kwargs = dict(combiner="li", fraction=0.8, reps=3, seed=17)
        r1 = monolingual_baseline(corpus, _bow_builder(words), pairs,
                                  human, **kwargs)
        r2 = monolingual_baseline(corpus, _bow_builder(words), pairs,
                                  human, **kwargs)
        assert r1 == r2

    def test_cca_combiner_runs(self, rng):
        corpus, pairs, human, words = self._setup(rng)
        result = monolingual_baseline(
            corpus, _bow_builder(words), pairs, human,
            combiner="cca", fraction=0.8, reps=2, seed=5,
        )
        assert isinstance(result, BaselineResult)
        assert len(result.rhos) + result.failures == 2
