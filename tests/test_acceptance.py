"""Acceptance suite: one test per release criterion.

Each test prints a single ``ACCEPTANCE <name>: pass`` line after its
assertions, so a verbose run doubles as the acceptance report. Oracles
live in ``oracles.py`` and take independent computational routes from the
library code they check.
"""

import math
import time

import numpy as np
import pytest

from vsmeval.agreement import (
    detect_outliers,
    enumerate_subsets,
    significance_driver,
    quintile_agreement_analysis,
    within_language_agreement,
)
from vsmeval.bow import count_cooccurrences, ppmi_transform
from vsmeval.cli import main
from vsmeval.combine import fit_cca, interpolate_scores
from vsmeval.corpus import Corpus, build_vocabulary
from vsmeval.scoring import ScoreVector
from vsmeval.stats import (
    kendall_tau_b,
    pearson,
    spearman,
    student_t_sf,
    welch_t_test,
)

from conftest import (build_cli_workspace, dense_count_matrix,
                      synthetic_languages)
from oracles import (
    cca_correlations_eigen,
    cooccurrence_bruteforce,
    dense_counts,
    kendall_tau_b_bruteforce,
    pearson_formula,
    ppmi_scalar,
    spearman_bruteforce,
    t_sf_quadrature,
    welch_p_quadrature,
)

SEEDS = range(20)


def _report(name):
    print(f"ACCEPTANCE {name}: pass")


def test_structural_counts(ws353_shaped, sl999_shaped):
    start = time.monotonic()

    assert len(list(enumerate_subsets(13, 6))) == 1716

    assert len(ws353_shaped.pairs.pairs) == 350
    assert tuple(len(b) for b in ws353_shaped.batches) == (50,) * 7
    r353 = within_language_agreement(ws353_shaped)
    assert r353.sample_count + r353.degenerate_count == 1716 * 7 == 12012
    assert r353.degenerate_count == 0

    assert len(sl999_shaped.pairs.pairs) == 999
    assert tuple(len(b) for b in sl999_shaped.batches) == (50,) * 19 + (49,)
    r999 = within_language_agreement(sl999_shaped)
    assert r999.sample_count + r999.degenerate_count == 1716 * 20 == 34320
    assert r999.degenerate_count == 0

    sets = synthetic_languages(0, n_langs=4, n_batches=1)
    tests = significance_driver(sets)
    assert len(tests) == 4 * 6 == 24
    assert {k[0] for k in tests} == {"en", "de", "it", "ru"}

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"structural counts took {elapsed:.1f}s"
    _report("structural-counts")


def test_statistics_oracle_equivalence():
    rng = np.random.default_rng(2024)
    for trial in range(1000):
        n = int(rng.integers(3, 201))
        if trial % 2:  # heavy ties
            x = rng.integers(0, 6, size=n).astype(float)
            y = rng.integers(0, 6, size=n).astype(float)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
        else:
            x = rng.normal(size=n)
            y = rng.normal(size=n)
        assert abs(pearson(x, y) - pearson_formula(x, y)) <= 1e-10
        assert abs(spearman(x, y) - spearman_bruteforce(x, y)) <= 1e-10
        assert abs(
            kendall_tau_b(x, y) - kendall_tau_b_bruteforce(x, y)
        ) <= 1e-10

    for df in (1, 5, 30, 1000):
        for t in (0.0, 0.3, 1.0, 2.5, 5.0):
            p = 2.0 * student_t_sf(abs(t), df)
            expected = 2.0 * t_sf_quadrature(abs(t), df)
            assert abs(p - expected) <= 1e-8

    for _ in range(20):
        a = rng.normal(0.0, 1.0, size=int(rng.integers(5, 40)))
        b = rng.normal(0.4, 1.6, size=int(rng.integers(5, 40)))
        result = welch_t_test(a, b)
        assert abs(result.p_value - welch_p_quadrature(a, b)) <= 1e-8
    _report("statistics-oracles")


def test_ppmi_oracle_equivalence():
    rng = np.random.default_rng(77)
    words = [f"w{i}" for i in range(8)]
    for _ in range(200):
        sentences = tuple(
            tuple(rng.choice(words, size=int(rng.integers(2, 9))))
            for _ in range(int(rng.integers(2, 8)))
        )
        corpus = Corpus.from_sentences("en", sentences)
        vocab = build_vocabulary(corpus)
        window = int(rng.integers(1, 4))
        targets = set(rng.choice(words, size=4))
        m = count_cooccurrences(corpus, targets, vocab,
                                k=len(vocab), window=window)
        expected = cooccurrence_bruteforce(
            sentences, m.row_words, m.col_words, window
        )
        counts = dense_counts(m)
        for i, w in enumerate(m.row_words):
            for j, c in enumerate(m.col_words):
                assert counts[i, j] == expected.get((w, c), 0)

        if m.total == 0:
            continue
        table = ppmi_transform(m)
        row_sums = counts.sum(axis=1)
        col_sums = counts.sum(axis=0)
        for i, w in enumerate(m.row_words):
            for j in range(len(m.col_words)):
                want = ppmi_scalar(int(counts[i, j]), int(row_sums[i]),
                                   int(col_sums[j]), m.total)
                assert abs(table.vectors[w][j] - want) <= 1e-12

        scaled = dense_count_matrix(m.row_words, m.col_words, counts * 7)
        rescaled = ppmi_transform(scaled)
        for w in m.row_words:
            assert np.allclose(rescaled.vectors[w], table.vectors[w],
                               atol=1e-12)
    _report("ppmi-oracles")


def test_cca_oracle_equivalence():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(15, 61))
        d1 = int(rng.integers(2, 11))
        d2 = int(rng.integers(2, 11))
        X = rng.normal(size=(n, d1))
        Y = rng.normal(size=(n, d2))
        model = fit_cca(X, Y)
        expected = cca_correlations_eigen(X, Y)
        assert np.allclose(model.correlations, expected, atol=1e-8)
        c = model.correlations
        assert np.all(np.diff(c) <= 1e-12)
        assert np.all((0.0 <= c) & (c <= 1.0))

    X = rng.normal(size=(50, 6))
    self_model = fit_cca(X, X, eps=1e-12)
    assert np.allclose(self_model.correlations, 1.0, atol=1e-8)
    R = np.linalg.qr(rng.normal(size=(6, 6)))[0]
    rot_model = fit_cca(X, X @ R, eps=1e-12)
    assert np.allclose(rot_model.correlations, 1.0, atol=1e-8)
    _report("cca-oracles")


def test_agreement_direction_synthetic():
    start = time.monotonic()
    for seed in SEEDS:
        sets = synthetic_languages(seed, n_langs=4, n_batches=2)
        results = significance_driver(sets)
        within_means = {}
        cross_means = {}
        for s in sets:
            within_means[s.language] = within_language_agreement(s).mean
        from vsmeval.agreement import cross_language_agreement
        for i in range(4):
            for j in range(i + 1, 4):
                pair = (sets[i].language, sets[j].language)
                cross_means[pair] = cross_language_agreement(
                    sets[i], sets[j]
                ).mean
        assert min(within_means.values()) > max(cross_means.values()), (
            f"seed {seed}: within {within_means} vs cross {cross_means}"
        )
        for key, welch in results.items():
            assert welch.p_value < 1e-3, f"seed {seed} test {key}"
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"agreement direction took {elapsed:.1f}s"
    _report("agreement-direction")


def test_quintile_u_shape():
    for seed in SEEDS:
        sets = synthetic_languages(seed, n_langs=2, n_batches=2,
                                   extreme_consensus=True)
        overlap = quintile_agreement_analysis(sets[0], sets[1])
        f = overlap
        assert min(f[0], f[4]) > max(f[1], f[2], f[3]), (
            f"seed {seed}: f_scores {f}"
        )
    _report("quintile-u-shape")


def test_interpolation_efficacy():
    wins = 0
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        n = 100
        reference = rng.normal(size=n)
        # independent noise sized so each model correlates about 0.5
        noise = math.sqrt(3.0)
        m1 = reference + noise * rng.normal(size=n)
        m2 = reference + noise * rng.normal(size=n)
        s1 = ScoreVector(dict(enumerate(m1)))
        s2 = ScoreVector(dict(enumerate(m2)))
        combined = interpolate_scores(s1, s2, 0.5)
        idx = range(n)
        rho1 = spearman([s1.scores[i] for i in idx], reference)
        rho2 = spearman([s2.scores[i] for i in idx], reference)
        rho_c = spearman([combined.scores[i] for i in idx], reference)
        if rho_c > max(rho1, rho2):
            wins += 1
    assert wins >= 19, f"interpolation beat both models in {wins}/20 seeds"
    _report("interpolation-efficacy")


def test_qc_planted_outlier():
    # base scores in [0, 5]: the +5 shift stays inside the 0..10 scale
    base = np.array([(3 * i) % 11 for i in range(50)], dtype=float) / 2.0
    clean = np.tile(base[:, None], (1, 13))
    result = detect_outliers(clean, threshold=1.45)
    assert result.excluded == ()
    assert all(s == 0.0 for s in result.statistics)

    planted = clean.copy()
    planted[:, 12] += 5.0
    result = detect_outliers(planted, threshold=1.45)
    assert result.excluded == (12,)
    # hand arithmetic: a non-shifted annotator sees 11 others at the base
    # mean and one at base + 5, so the gap is 5/12 and the sample standard
    # deviation of the others' means is 5/sqrt(12)
    expected = (5.0 / 12.0) / (5.0 / math.sqrt(12.0))
    for j in range(12):
        assert abs(result.statistics[j] - expected) <= 1e-12
    assert math.isinf(result.statistics[12])

    # independent pure-Python arithmetic on a non-degenerate matrix
    rng = np.random.default_rng(8)
    scores = rng.uniform(0, 10, size=(50, 13))
    result = detect_outliers(scores, threshold=1.45)
    means = [sum(scores[:, j]) / 50.0 for j in range(13)]
    for j in range(13):
        others = [means[i] for i in range(13) if i != j]
        mu = sum(others) / len(others)
        var = sum((v - mu) ** 2 for v in others) / (len(others) - 1)
        want = abs(means[j] - mu) / math.sqrt(var)
        assert abs(result.statistics[j] - want) <= 1e-12
        assert (j in result.excluded) == (want > 1.45)
    _report("qc-planted-outlier")


def _run_twice(argv, outputs):
    assert main(argv) == 0
    first = {p: p.read_bytes() for p in outputs}
    assert main(argv) == 0
    for p in outputs:
        assert p.read_bytes() == first[p], f"nondeterministic output {p}"


def test_cli_determinism(tmp_path):
    ws = build_cli_workspace(tmp_path)
    commands = [
        (["build-bow", "--corpus", str(ws / "corpus.txt"),
          "--targets", str(ws / "targets.txt"), "--k", "10",
          "--out", str(ws / "bow.txt")], ["bow.txt"]),
        (["sample", "--corpus", str(ws / "corpus.txt"),
          "--fraction", "0.5", "--seed", "3",
          "--out", str(ws / "sample.txt")], ["sample.txt"]),
        (["score", "--vectors", str(ws / "vectors.txt"),
          "--pairs", str(ws / "evalset.tsv"),
          "--out", str(ws / "s1.tsv")], ["s1.tsv"]),
        (["score", "--vectors", str(ws / "vectors_de.txt"),
          "--pairs", str(ws / "evalset.tsv"),
          "--out", str(ws / "s2.tsv")], ["s2.tsv"]),
        (["eval", "--vectors", str(ws / "vectors.txt"),
          "--evalset", str(ws / "evalset.tsv"),
          "--out", str(ws / "eval.tsv")], ["eval.tsv"]),
        (["agree", "--mode", "within",
          "--evalset", f"en={ws / 'evalset.tsv'}",
          "--out", str(ws / "agree.tsv"),
          "--samples-out", str(ws / "samples.tsv")],
         ["agree.tsv", "samples.tsv"]),
        (["quintiles", "--mode", "cross",
          "--evalset", f"en={ws / 'evalset.tsv'}",
          "--evalset", f"de={ws / 'evalset.tsv'}",
          "--out", str(ws / "quint.tsv")], ["quint.tsv"]),
        (["combine", "--method", "li",
          "--scores", str(ws / "s1.tsv"), str(ws / "s2.tsv"),
          "--out", str(ws / "li.tsv")], ["li.tsv"]),
        (["combine", "--method", "cca",
          "--vectors", f"en={ws / 'vectors.txt'}",
          f"de={ws / 'vectors_de.txt'}",
          "--lexicon", str(ws / "lexicon.tsv"),
          "--out", str(ws / "cca.txt"),
          "--model-out", str(ws / "cca_model.txt"),
          "--report-out", str(ws / "cca_report.tsv")],
         ["cca.txt", "cca_model.txt", "cca_report.tsv"]),
        (["qc", "--scores", str(ws / "evalset.tsv"),
          "--out", str(ws / "clean.tsv"),
          "--log", str(ws / "qc_log.tsv")],
         ["clean.tsv", "qc_log.tsv"]),
        (["coverage", "--vectors", f"en={ws / 'vectors.txt'}",
          "--evalset", f"en={ws / 'evalset.tsv'}",
          "--out", str(ws / "coverage.tsv")], ["coverage.tsv"]),
        (["baseline", "--corpus", str(ws / "corpus.txt"),
          "--evalset", str(ws / "evalset.tsv"), "--seed", "11",
          "--reps", "2", "--k", "16",
          "--out", str(ws / "baseline.tsv")], ["baseline.tsv"]),
    ]
    for argv, outputs in commands:
        _run_twice(argv, [ws / name for name in outputs])
    _report("cli-determinism")
