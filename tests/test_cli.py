import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from vsmeval.agreement import (load_evaluation_set, save_evaluation_set,
                               significance_driver)
from vsmeval.cli import main
from vsmeval.combine import load_cca_model
from vsmeval.errors import ArgumentError, FormatError
from vsmeval.scoring import read_scores
from vsmeval.stats import quintile_block_sizes
from vsmeval.vectors import VectorTable, load_vectors, save_vectors

from conftest import build_cli_workspace, damaged, make_evalset
from oracles import quintile_fscores_sets, spearman_bruteforce


@pytest.fixture
def workspace(tmp_path):
    return build_cli_workspace(tmp_path)


def _run_twice_identical(argv, outputs):
    """Run a command twice and require byte-identical output files."""
    assert main(argv) == 0
    first = {p: p.read_bytes() for p in outputs}
    assert main(argv) == 0
    for p in outputs:
        assert p.read_bytes() == first[p], f"nondeterministic output {p}"


def test_build_bow_deterministic(workspace):
    out = workspace / "bow.txt"
    _run_twice_identical(
        ["build-bow", "--corpus", str(workspace / "corpus.txt"),
         "--language", "en", "--targets", str(workspace / "targets.txt"),
         "--k", "10", "--window", "2", "--out", str(out)],
        [out],
    )
    table = load_vectors(out, language="en")
    assert table.dimension == 10


def test_build_bow_clean_stems_a_long_y_run(tmp_path):
    # the recursive consonant test of the stemmer overflowed the stack here
    corpus, targets = tmp_path / "corpus.txt", tmp_path / "targets.txt"
    corpus.write_text("cat sat mat.\ncat b" + "y" * 1200 + "ed mat.\n")
    targets.write_text("cat\nmat\n")
    assert main(["build-bow", "--corpus", str(corpus), "--clean",
                 "--targets", str(targets), "--k", "3",
                 "--out", str(tmp_path / "bow.txt")]) == 0


def test_build_bow_missing_input_exit_2(workspace, capsys):
    code = main(["build-bow", "--corpus", str(workspace / "nope.txt"),
                 "--targets", str(workspace / "targets.txt"),
                 "--out", str(workspace / "x.txt")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_build_bow_k_too_large_exit_2(workspace):
    code = main(["build-bow", "--corpus", str(workspace / "corpus.txt"),
                 "--targets", str(workspace / "targets.txt"),
                 "--k", "100000", "--out", str(workspace / "x.txt")])
    assert code == 2


def test_sample_deterministic(workspace):
    out = workspace / "sample.txt"
    _run_twice_identical(
        ["sample", "--corpus", str(workspace / "corpus.txt"),
         "--fraction", "0.5", "--seed", "7", "--out", str(out)],
        [out],
    )
    assert len(out.read_text().splitlines()) == 100


def test_score_deterministic(workspace):
    out = workspace / "scores.tsv"
    _run_twice_identical(
        ["score", "--vectors", str(workspace / "vectors.txt"),
         "--pairs", str(workspace / "evalset.tsv"),
         "--language", "en", "--out", str(out)],
        [out],
    )
    lines = [ln for ln in out.read_text().splitlines()
             if not ln.startswith("#")]
    assert lines[0] == "pair_index\tword1\tword2\tscore"
    assert len(lines) == 9


def test_eval_perfect_model_rho_one(workspace, capsys):
    # vectors engineered so that pair cosines equal human means exactly in
    # rank: use 2-d vectors with angle proportional to score
    from vsmeval.agreement import human_mean_scores, load_evaluation_set

    evalset = load_evaluation_set(workspace / "evalset.tsv", language="en")
    human = human_mean_scores(evalset)
    vectors = {}
    for pos, (w1, w2) in enumerate(evalset.pairs.pairs):
        angle = np.arccos(np.clip(human.scores[pos] / 10.0, -1, 1))
        vectors[w1] = np.array([1.0, 0.0])
        vectors[w2] = np.array([np.cos(angle), np.sin(angle)])
    save_vectors(VectorTable("en", tuple(vectors),
                             np.array(list(vectors.values()))),
                 workspace / "perfect.txt")
    out = workspace / "eval.tsv"
    code = main(["eval", "--vectors", str(workspace / "perfect.txt"),
                 "--evalset", str(workspace / "evalset.tsv"),
                 "--correlation", "spearman", "--out", str(out)])
    assert code == 0
    line = [ln for ln in out.read_text().splitlines()
            if ln.startswith("spearman")][0]
    assert float(line.split("\t")[1]) == pytest.approx(1.0)


def test_eval_reversed_model_rho_minus_one(workspace):
    from vsmeval.agreement import human_mean_scores, load_evaluation_set

    evalset = load_evaluation_set(workspace / "evalset.tsv", language="en")
    human = human_mean_scores(evalset)
    vectors = {}
    for pos, (w1, w2) in enumerate(evalset.pairs.pairs):
        angle = np.arccos(np.clip(1.0 - human.scores[pos] / 10.0, -1, 1))
        vectors[w1] = np.array([1.0, 0.0])
        vectors[w2] = np.array([np.cos(angle), np.sin(angle)])
    save_vectors(VectorTable("en", tuple(vectors),
                             np.array(list(vectors.values()))),
                 workspace / "reversed.txt")
    out = workspace / "eval.tsv"
    assert main(["eval", "--vectors", str(workspace / "reversed.txt"),
                 "--evalset", str(workspace / "evalset.tsv"),
                 "--out", str(out)]) == 0
    line = [ln for ln in out.read_text().splitlines()
            if ln.startswith("spearman")][0]
    assert float(line.split("\t")[1]) == pytest.approx(-1.0)


def test_agree_within_deterministic(workspace):
    out = workspace / "agree.tsv"
    samples = workspace / "samples.tsv"
    _run_twice_identical(
        ["agree", "--mode", "within",
         "--evalset", f"en={workspace / 'evalset.tsv'}",
         "--out", str(out), "--samples-out", str(samples)],
        [out, samples],
    )
    body = [ln for ln in samples.read_text().splitlines()
            if not ln.startswith("#")]
    assert len(body) == 1 + 1716


def test_agree_self_cross_mean_one(workspace):
    out = workspace / "cross.tsv"
    code = main(["agree", "--mode", "cross",
                 "--evalset", f"en={workspace / 'evalset.tsv'}",
                 "--evalset", f"de={workspace / 'evalset.tsv'}",
                 "--out", str(out)])
    assert code == 0
    line = [ln for ln in out.read_text().splitlines()
            if ln.startswith("cross")][0]
    assert float(line.split("\t")[1]) == pytest.approx(1.0)


def test_quintiles_identical_sources_all_one(workspace):
    out = workspace / "quintiles.tsv"
    _run_twice_identical(
        ["quintiles", "--mode", "cross",
         "--evalset", f"en={workspace / 'evalset.tsv'}",
         "--evalset", f"de={workspace / 'evalset.tsv'}",
         "--out", str(out)],
        [out],
    )
    body = [ln for ln in out.read_text().splitlines()
            if not ln.startswith("#") and not ln.startswith("quintile")]
    assert len(body) == 5
    assert all(float(ln.split("\t")[1]) == 1.0 for ln in body)


def test_quintiles_model_human_mode(workspace):
    scores_out = workspace / "scores.tsv"
    assert main(["score", "--vectors", str(workspace / "vectors.txt"),
                 "--pairs", str(workspace / "evalset.tsv"),
                 "--out", str(scores_out)]) == 0
    out = workspace / "mh.tsv"
    code = main(["quintiles", "--mode", "model-human",
                 "--scores", str(scores_out),
                 "--evalset", f"en={workspace / 'evalset.tsv'}",
                 "--out", str(out)])
    assert code == 0


def test_combine_li_lambda_one_reproduces_model1(workspace):
    s1 = workspace / "s1.tsv"
    s2 = workspace / "s2.tsv"
    for vec, path in (("vectors.txt", s1), ("vectors_de.txt", s2)):
        assert main(["score", "--vectors", str(workspace / vec),
                     "--pairs", str(workspace / "evalset.tsv"),
                     "--out", str(path)]) == 0
    out = workspace / "combined.tsv"
    assert main(["combine", "--method", "li", "--scores", str(s1),
                 str(s2), "--lam", "1.0", "--out", str(out)]) == 0
    from vsmeval.scoring import read_scores
    combined = read_scores(out)
    original = read_scores(s1)
    assert combined.scores == original.scores


def test_combine_cca_self_all_correlations_one(workspace):
    out = workspace / "cca_vectors.txt"
    report = workspace / "cca_report.tsv"
    code = main(["combine", "--method", "cca",
                 "--vectors", f"en={workspace / 'vectors.txt'}",
                 f"de={workspace / 'vectors.txt'}",
                 "--lexicon", str(workspace / "lexicon.tsv"),
                 "--eps", "1e-12",
                 "--out", str(out), "--report-out", str(report)])
    assert code == 0
    body = [ln for ln in report.read_text().splitlines()
            if not ln.startswith("#") and not ln.startswith("component")]
    assert all(float(ln.split("\t")[1]) == pytest.approx(1.0, abs=1e-6)
               for ln in body)


def test_combine_cca_deterministic(workspace):
    out = workspace / "cca_vectors.txt"
    model = workspace / "cca_model.txt"
    _run_twice_identical(
        ["combine", "--method", "cca",
         "--vectors", f"en={workspace / 'vectors.txt'}",
         f"de={workspace / 'vectors_de.txt'}",
         "--lexicon", str(workspace / "lexicon.tsv"),
         "--out", str(out), "--model-out", str(model)],
        [out, model],
    )


def test_qc_clean_and_planted(workspace, capsys):
    rng = np.random.default_rng(4)
    scores = np.clip(4.0 + rng.normal(0, 0.4, size=(50, 13)), 0, 10)
    scores = scores - scores.mean(axis=0) + 4.0
    scores[:, 6] = np.clip(scores[:, 6] + 5.0, 0, 10)
    evalset = make_evalset(scores, language="en")
    raw = workspace / "raw.tsv"
    save_evaluation_set(evalset, raw)
    out = workspace / "cleaned.tsv"
    log = workspace / "qc_log.tsv"
    _run_twice_identical(
        ["qc", "--scores", str(raw), "--out", str(out),
         "--log", str(log)],
        [out, log],
    )
    log_lines = [ln for ln in log.read_text().splitlines()
                 if ln.endswith("excluded")]
    assert len(log_lines) == 1
    assert log_lines[0].split("\t")[1] == "a07"


def test_coverage_command(workspace):
    out = workspace / "coverage.tsv"
    code = main(["coverage",
                 "--vectors", f"en={workspace / 'vectors.txt'}",
                 "--evalset", f"en={workspace / 'evalset.tsv'}",
                 "--out", str(out)])
    assert code == 0
    lines = [ln for ln in out.read_text().splitlines()
             if not ln.startswith("#")]
    assert len(lines) == 9


def test_coverage_refuses_two_tables_of_one_language(workspace, capsys):
    v = workspace / "vectors.txt"
    full = load_vectors(v, language="en")
    (w1, _), = load_evaluation_set(workspace / "evalset.tsv").pairs.pairs[:1]
    keep = [i for i, w in enumerate(full.words) if w != w1]
    fewer = workspace / "fewer.txt"
    save_vectors(VectorTable("en", tuple(full.words[i] for i in keep),
                             full.matrix[keep]), fewer)
    out = workspace / "coverage.tsv"
    evalset = ["--evalset", f"en={workspace / 'evalset.tsv'}"]
    assert main(["coverage", "--vectors", f"en={fewer}", *evalset,
                 "--out", str(out)]) == 0
    assert "\texcluded\t" in out.read_text()
    capsys.readouterr()
    for first, second in ((v, fewer), (fewer, v)):
        code = main(["coverage", "--vectors", f"en={first}",
                     "--vectors", f"en={second}", *evalset,
                     "--out", str(out)])
        assert code == 2
        assert "'en'" in capsys.readouterr().err


def test_baseline_deterministic(workspace):
    out = workspace / "baseline.tsv"
    _run_twice_identical(
        ["baseline", "--corpus", str(workspace / "corpus.txt"),
         "--language", "en", "--evalset", str(workspace / "evalset.tsv"),
         "--method", "li", "--reps", "3", "--seed", "11",
         "--k", "16", "--out", str(out)],
        [out],
    )
    body = [ln for ln in out.read_text().splitlines()
            if not ln.startswith("#")]
    assert body[0] == "rep\trho"


def test_manifest_embedded_in_reports(workspace):
    out = workspace / "agree.tsv"
    assert main(["agree", "--mode", "within",
                 "--evalset", f"en={workspace / 'evalset.tsv'}",
                 "--out", str(out)]) == 0
    first = out.read_text().splitlines()[0]
    assert first.startswith("# manifest:")
    assert "sha256" not in first  # digests keyed by path
    assert "evalset.tsv" in first


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # one process cannot see an order that follows str hashing, which
    # PYTHONHASHSEED changes from process to process
    rng = np.random.default_rng(5)
    words = ["The", "the", "cat", "cats", "running", "runs", "ran", "42",
             "über", "a", "an", "dog", "dogs", "sat", "x-ray", "Mat"]
    (tmp_path / "corpus.txt").write_text("".join(
        " ".join(rng.choice(words, size=rng.integers(1, 9))) + ".\n"
        for _ in range(300)), encoding="utf-8")
    (tmp_path / "targets.txt").write_text("cat\ndog\nrun\nsat\nmat\n")
    pairs = (("cat", "dog"), ("run", "sat"), ("mat", "cat"), ("dog", "run"))
    save_evaluation_set(make_evalset(rng.uniform(0, 10, size=(4, 13)),
                                     words=pairs, batch_size=4),
                        tmp_path / "evalset.tsv")
    script = """if True:
        import sys
        from vsmeval.cli import main
        out = sys.argv[1]
        for argv in (
            ["build-bow", "--corpus", "corpus.txt", "--clean", "--targets",
             "targets.txt", "--k", "6", "--out", f"{out}/bow.txt"],
            ["sample", "--corpus", "corpus.txt", "--fraction", "0.7",
             "--seed", "3", "--out", f"{out}/sample.txt"],
            ["baseline", "--corpus", "corpus.txt", "--clean", "--evalset",
             "evalset.tsv", "--method", "li", "--reps", "3", "--seed", "2",
             "--k", "6",
             "--out", f"{out}/baseline.tsv"],
        ):
            assert main(argv) == 0, argv
    """
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"out{hash_seed}"
        out.mkdir()
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
        subprocess.run([sys.executable, "-c", script, out.name],
                       cwd=tmp_path, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert len(outputs[0]) == 3
    assert outputs[0] == outputs[1]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="on one CPU OpenBLAS gave the same bytes under "
                           "1 and 2 threads, so a fault cannot show")
def test_cca_outputs_do_not_depend_on_the_blas_thread_count(workspace):
    # OpenBLAS splits a long reduction over its threads, which changes
    # the order of the additions; thousands of lexicon rows make one
    rng = np.random.default_rng(11)
    n, d = 3000, 100
    words = [f"x{i}" for i in range(n)]
    en = rng.normal(size=(n, d))
    de = en @ np.linalg.qr(rng.normal(size=(d, d)))[0] \
        + rng.normal(size=(n, d))
    save_vectors(VectorTable("en", tuple(words), en), workspace / "en.txt")
    save_vectors(VectorTable("de", tuple(words), de), workspace / "de.txt")
    (workspace / "lexicon.tsv").write_text(
        "en\tde\n" + "".join(f"{w}\t{w}\n" for w in words))
    script = """if True:
        import sys
        from vsmeval.cli import main
        out = sys.argv[1]
        cca = ["combine", "--method", "cca", "--vectors", "en=en.txt",
               "de=de.txt", "--lexicon", "lexicon.tsv"]
        for argv in (
            cca + ["--out", f"{out}/cca.txt", "--model-out",
                   f"{out}/cca_model.txt", "--report-out", f"{out}/cca.tsv"],
            cca + ["--max-dim", "50", "--out", f"{out}/cut.txt",
                   "--model-out", f"{out}/cut_model.txt",
                   "--report-out", f"{out}/cut.tsv"],
            ["baseline", "--corpus", "corpus.txt", "--evalset",
             "evalset.tsv", "--method", "cca", "--reps", "2", "--seed", "3",
             "--k", "10", "--out", f"{out}/baseline.tsv"],
        ):
            assert main(argv) == 0, argv
    """
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for threads in ("1", "2"):
        out = workspace / f"out{threads}"
        out.mkdir()
        env = dict(os.environ, PYTHONPATH=str(src),
                   OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-c", script, out.name],
                       cwd=workspace, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert len(outputs[0]) == 7
    assert outputs[0] == outputs[1]


def test_cli_import_leaves_scipy_out():
    # bow keeps its counts as plain numpy triplets, not scipy.sparse, and
    # only the CCA fit and the Welch test import scipy, when they run
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run(
        [sys.executable, "-c",
         "import vsmeval.cli, sys; assert 'scipy' not in sys.modules"],
        env=env, check=True,
    )


_EVALSET_HEADER = "pair_index\tword1\tword2\tbatch\ta01\ta02\n"
_CCA_ROWS = "0.0\n0.0\n1.0\n1.0\n1.0\n"


@pytest.mark.parametrize("loader, text, line", [
    (load_evaluation_set, _EVALSET_HEADER + "0\ta\tb\t0\t1.0\t2.0\n"
     "x\tc\td\t0\t1.0\t2.0\n", 3),
    (load_evaluation_set, _EVALSET_HEADER + "0\ta\tb\t0\t1.0\tfive\n", 2),
    *[(load_evaluation_set, _EVALSET_HEADER + "0\ta\tb\t0\t1.0\t2.0\n"
       f"1\tc\td\t0\t\t{cell}\n", 3)
      for cell in ("inf", "-inf", "nan", "1e999")],
    (read_scores, "pair_index\tword1\tword2\tscore\n#OOV\t3\n", 2),
    (read_scores, "0\ta\tb\t0.5\n1\tc\td\thigh\n", 2),
    *[(read_scores, f"# note\n0\ta\tb\t0.5\n1\tc\td\t{cell}\n", 3)
      for cell in ("nan", "inf", "-inf")],
    (load_cca_model, "en de x 1 1 1e-08 1\n" + _CCA_ROWS, 1),
    (load_cca_model, "en de 1 1 1 small 1\n" + _CCA_ROWS, 1),
    (load_cca_model, "en de 1 1 1 inf 1\n" + _CCA_ROWS, 1),
    (load_cca_model, "en de 1 1 1 1e-08 1\n0.0\n0.0\nnan\n1.0\n1.0\n", 4),
    (load_cca_model, "en de 1 1 1 1e-08 1\n0.0\n0.0\n1.0\n1.0\n-inf\n", 6),
], ids=["evalset-index", "evalset-score", "evalset-inf", "evalset-minus-inf",
        "evalset-nan", "evalset-overflow", "scores-oov", "scores-score",
        "scores-nan", "scores-inf", "scores-minus-inf", "cca-dimension",
        "cca-eps", "cca-eps-inf", "cca-correlation-nan",
        "cca-projection-minus-inf"])
def test_malformed_numbers_are_located_format_errors(tmp_path, loader, text,
                                                     line):
    path = tmp_path / "input.tsv"
    path.write_text(text)
    with pytest.raises(FormatError, match=f"{path}:{line}]"):
        loader(path)


def _planted_qc_set(rng, path):
    """Save a 100x13 set whose annotator means are all 4.0 in each batch,
    until annotator 0 of batch 0 is shifted; return its pair words."""
    scores = np.clip(4.0 + rng.normal(0, 0.4, size=(100, 13)), 0, 10)
    for batch in (scores[:50], scores[50:]):
        batch += 4.0 - batch.mean(axis=0)
    scores[:50, 0] = np.clip(scores[:50, 0] + 5.0, 0, 10)
    words = tuple((f"w{i}a", f"w{i}b") for i in range(100))
    save_evaluation_set(make_evalset(scores, words=words), path)
    return words


def test_eval_and_quintiles_after_qc_use_present_judgments(tmp_path,
                                                           capsys):
    # qc keeps 12 and 13 annotators of the planted set, so batch 0's rows
    # of the cleaned set end in an empty cell
    rng = np.random.default_rng(4)
    words = _planted_qc_set(rng, tmp_path / "raw.tsv")
    flat = tuple(w for p in words for w in p)
    save_vectors(VectorTable("en", flat, rng.normal(size=(len(flat), 4))),
                 tmp_path / "vectors.txt")
    cleaned = tmp_path / "cleaned.tsv"
    model = tmp_path / "scores.tsv"
    for argv in (
        ["qc", "--scores", str(tmp_path / "raw.tsv"), "--out", str(cleaned)],
        ["score", "--vectors", str(tmp_path / "vectors.txt"),
         "--pairs", str(cleaned), "--out", str(model)],
        ["eval", "--vectors", str(tmp_path / "vectors.txt"),
         "--evalset", str(cleaned)],
        ["quintiles", "--mode", "model-human", "--scores", str(model),
         "--evalset", f"en={cleaned}", "--out", str(tmp_path / "q.tsv")],
    ):
        assert main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    cells = load_evaluation_set(cleaned).scores
    assert np.isnan(cells[:50]).sum() == 50
    assert not np.isnan(cells[50:]).any()
    human = [sum(c for c in row if not math.isnan(c))
             / sum(not math.isnan(c) for c in row) for row in cells.tolist()]
    model_scores = [read_scores(model).scores[i] for i in range(100)]

    statistic, value, covered, _ = printed[2].split("\t")
    assert (statistic, covered) == ("spearman", "100")
    assert float(value) == pytest.approx(
        spearman_bruteforce(model_scores, human), abs=1e-12)

    orders = [sorted(range(100), key=lambda i: (-v[i], i))
              for v in (model_scores, human)]
    expected = quintile_fscores_sets(*orders, quintile_block_sizes(100, 5))
    f_scores = [float(row.split("\t")[1]) for row in printed[3:]]
    assert f_scores == pytest.approx(expected)


def test_qc_on_qc_output_skips_padding_columns(tmp_path, capsys):
    # the first qc leaves batch 0 with 12 annotators and one empty column;
    # the second must screen those 12 only and keep all of their judgments
    _planted_qc_set(np.random.default_rng(4), tmp_path / "raw.tsv")
    once, twice = tmp_path / "once.tsv", tmp_path / "twice.tsv"
    log = tmp_path / "log.tsv"
    assert main(["qc", "--scores", str(tmp_path / "raw.tsv"),
                 "--out", str(once)]) == 0
    assert main(["qc", "--scores", str(once), "--out", str(twice),
                 "--log", str(log)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        "excluded 0 annotator/batch assignments"
    first, second = (load_evaluation_set(p).scores for p in (once, twice))
    assert np.array_equal(first, second, equal_nan=True)
    assert np.isfinite(second[:50, :12]).all()
    rows = [line.split("\t") for line in log.read_text().splitlines()
            if not line.startswith("#")][1:]
    assert len(rows) == 12 + 13
    assert all(stat != "nan" and verdict == "kept"
               for _, _, stat, verdict in rows)


def test_qc_on_an_iterated_output_names_the_short_batch(tmp_path, capsys):
    # annotator means spread evenly: --iterate keeps peeling the extremes
    # until batch 0 holds 2 annotators, which a second qc cannot screen
    rng = np.random.default_rng(4)
    scores = np.clip(rng.uniform(3, 7, size=(100, 1))
                     + np.linspace(-0.6, 0.6, 13)
                     + rng.normal(0, 0.1, size=(100, 13)), 0, 10)
    raw, once, twice = (tmp_path / name for name in ("raw.tsv", "once.tsv",
                                                     "twice.tsv"))
    save_evaluation_set(make_evalset(scores), raw)
    assert main(["qc", "--scores", str(raw), "--out", str(once),
                 "--iterate", "--threshold", "1.0"]) == 0
    capsys.readouterr()
    assert main(["qc", "--scores", str(once), "--out", str(twice)]) == 2
    assert "batch 0 holds 2 annotators" in capsys.readouterr().err
    assert not twice.exists()


def test_qc_screens_a_column_on_its_present_judgments(tmp_path, capsys):
    # one empty cell is one missing judgment: annotator 4 is screened on
    # its other 49 judgments, and its NaN must not reach the others'
    # statistics
    rng = np.random.default_rng(4)
    # annotator means spread evenly around each pair's level, so the
    # middle annotators, 4 among them, are kept
    scores = np.clip(rng.uniform(3, 7, size=(50, 1))
                     + np.linspace(-0.6, 0.6, 13)
                     + rng.normal(0, 0.1, size=(50, 13)), 0, 10)
    scores[7, 4] = np.nan
    raw, out, log = (tmp_path / name for name in ("raw.tsv", "out.tsv",
                                                  "log.tsv"))
    save_evaluation_set(make_evalset(scores), raw)
    assert main(["qc", "--scores", str(raw), "--out", str(out),
                 "--log", str(log)]) == 0
    rows = [line.split("\t") for line in log.read_text().splitlines()
            if not line.startswith("#")][1:]
    assert [annotator for _, annotator, _, _ in rows] == \
        [f"a{j + 1:02d}" for j in range(13)]
    assert all(stat != "nan" for _, _, stat, _ in rows)
    means = [sum(c for c in column if not math.isnan(c))
             / sum(not math.isnan(c) for c in column)
             for column in scores.T.tolist()]
    others = means[:4] + means[5:]
    centre = sum(others) / 12
    spread = math.sqrt(sum((m - centre) ** 2 for m in others) / 11)
    assert float(rows[4][2]) == pytest.approx(abs(means[4] - centre) / spread,
                                              rel=1e-12)
    kept = [j for j, (_, _, _, verdict) in enumerate(rows)
            if verdict == "kept"]
    assert 4 in kept
    assert np.array_equal(load_evaluation_set(out).scores, scores[:, kept],
                          equal_nan=True)


def _cca_argv(ws, *extra):
    return ["combine", "--method", "cca", "--vectors",
            f"en={ws / 'vectors.txt'}", f"de={ws / 'vectors_de.txt'}",
            "--lexicon", str(ws / "lexicon.tsv"), "--out", str(ws / "c.txt"),
            *extra]


def _baseline_argv(ws, *extra):
    return ["baseline", "--corpus", str(ws / "corpus.txt"),
            "--evalset", str(ws / "evalset.tsv"), "--k", "10",
            "--out", str(ws / "b.tsv"), *extra]


@pytest.mark.parametrize("make_argv", [
    lambda ws: ["build-bow", "--corpus", str(ws / "corpus.txt"),
                "--targets", str(ws / "targets.txt"), "--k", "-3",
                "--out", str(ws / "x.txt")],
    lambda ws: ["build-bow", "--corpus", str(ws / "corpus.txt"),
                "--targets", str(ws / "targets.txt"), "--k", "0",
                "--out", str(ws / "x.txt")],
    lambda ws: _cca_argv(ws, "--components", "-2"),
    lambda ws: _cca_argv(ws, "--components", "0"),
    lambda ws: _cca_argv(ws, "--eps", "-1"),
    lambda ws: _cca_argv(ws, "--eps", "nan"),
    lambda ws: _cca_argv(ws, "--max-dim", "-1"),
    lambda ws: _cca_argv(ws, "--max-dim", "0"),
    lambda ws: ["qc", "--scores", str(ws / "evalset.tsv"),
                "--threshold", "nan", "--out", str(ws / "q.tsv")],
    lambda ws: _baseline_argv(ws, "--reps", "0", "--seed", "1"),
    lambda ws: ["sample", "--corpus", str(ws / "corpus.txt"),
                "--fraction", "0.5", "--seed", "-1",
                "--out", str(ws / "s.txt")],
    lambda ws: _baseline_argv(ws, "--seed", "-1"),
    *[lambda ws, q=q: ["quintiles", "--mode", "within",
                       "--evalset", f"en={ws / 'evalset.tsv'}",
                       "--quantiles", q, "--out", str(ws / "q.tsv")]
      for q in ("0", "-1", "1", "20")],
], ids=["k-negative", "k-zero", "components-negative", "components-zero",
        "eps-negative", "eps-nan", "max-dim-negative", "max-dim-zero",
        "threshold-nan", "reps-zero", "sample-seed-negative",
        "baseline-seed-negative", "quantiles-0", "quantiles-negative",
        "quantiles-1", "quantiles-above-batch"])
def test_out_of_range_numeric_arguments_exit_2(workspace, capsys,
                                               make_argv):
    assert main(make_argv(workspace)) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("mode, batch_sizes, code, message", [
    ("within", (50,), 2,
     "batch 1 holds 49 pairs, fewer than the 50 quantile blocks"),
    ("cross", (50, 50), 2,
     "batch 1 holds 49 pairs, fewer than the 50 quantile blocks"),
    # the check on the sets' batch partitions still comes first
    ("cross", (50, 33), 3,
     "evaluation sets have different batch partitions"),
], ids=["within", "cross", "cross-partitions"])
def test_quintiles_above_the_smallest_batch_refused_after_set_checks(
        tmp_path, capsys, mode, batch_sizes, code, message):
    # 99 pairs: the last batch of 50 holds 49
    rng = np.random.default_rng(99)
    argv = ["quintiles", "--mode", mode, "--quantiles", "50",
            "--out", str(tmp_path / "q.tsv")]
    for lang, batch_size in zip(("en", "de"), batch_sizes):
        path = tmp_path / f"{lang}.tsv"
        save_evaluation_set(make_evalset(rng.uniform(0, 10, size=(99, 13)),
                                         batch_size=batch_size), path)
        argv += ["--evalset", f"{lang}={path}"]
    assert main(argv) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "q.tsv").exists()


def test_lexicon_without_a_vectors_language_exit_3(workspace, capsys):
    argv = _cca_argv(workspace)
    argv[5] = f"fr={workspace / 'vectors_de.txt'}"
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "'fr'" in err and "en, de" in err


@pytest.mark.parametrize("make_argv, options", [
    (lambda ws, x, y: ["agree", "--mode", "within", "--evalset",
                       f"en={ws / 'evalset.tsv'}", "--out", x,
                       "--samples-out", y], "--out and --samples-out"),
    (lambda ws, x, y: ["qc", "--scores", str(ws / "evalset.tsv"),
                       "--out", x, "--log", y], "--out and --log"),
    (lambda ws, x, y: _cca_argv(ws, "--model-out", x, "--report-out", y),
     "--model-out and --report-out"),
], ids=["agree", "qc", "combine-cca"])
def test_two_outputs_on_one_path_exit_2_before_any_write(workspace, capsys,
                                                         make_argv, options):
    # the second spelling of the path resolves to the first; the refusal
    # comes before any input is read or any output written
    target = workspace / "same.tsv"
    argv = make_argv(workspace, str(target),
                     str(workspace / "." / "same.tsv"))
    assert main(argv) == 2
    assert f"{options} name one file" in capsys.readouterr().err
    assert not target.exists()
    assert not (workspace / "c.txt").exists()


@pytest.mark.parametrize("make_argv, option", [
    (lambda ws, out, bad: ["agree", "--mode", "within", "--evalset",
                           f"en={ws / 'evalset.tsv'}", "--out", out,
                           "--samples-out", bad], "--samples-out"),
    (lambda ws, out, bad: ["qc", "--scores", str(ws / "evalset.tsv"),
                           "--out", out, "--log", bad], "--log"),
    (lambda ws, out, bad: _cca_argv(ws, "--model-out", bad), "--model-out"),
], ids=["agree", "qc", "combine-cca"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_output_path_exit_2_before_any_write(
        workspace, capsys, make_argv, option, where):
    # the refusal comes before any input is read, so --out is not left
    # behind by a later write into the bad path
    out = workspace / "c.txt"
    if where == "directory":
        bad = workspace
        message = f"{option} names a directory: {bad}"
    else:
        bad = workspace / "nodir" / "x.tsv"
        message = (f"{option} names a file in a directory that does not "
                   f"exist: {bad}")
    assert main(make_argv(workspace, str(out), str(bad))) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("mode", ["within", "cross"])
def test_agreement_without_a_defined_sample_exit_4_before_any_write(
        tmp_path, capsys, mode):
    # every annotator gives every pair 5: every split is constant
    out, samples = tmp_path / "a.tsv", tmp_path / "a.samples"
    argv = ["agree", "--mode", mode, "--out", str(out),
            "--samples-out", str(samples)]
    for lang in ("en", "de")[:1 if mode == "within" else 2]:
        path = tmp_path / f"{lang}.tsv"
        save_evaluation_set(make_evalset(np.full((10, 13), 5.0)), path)
        argv += ["--evalset", f"{lang}={path}"]
    assert main(argv) == 4
    label = "within:en" if mode == "within" else "cross:en-de"
    assert capsys.readouterr().err == (
        f"error: {label} has no samples: all 1716 splits are degenerate\n")
    assert not out.exists() and not samples.exists()


@pytest.mark.parametrize("entry, noun", [
    ("significance_driver", "evaluation set"),
    ("coverage", "vector table"),
    ("combine", "vector table"),
], ids=["significance_driver", "coverage", "combine"])
def test_one_input_per_language(workspace, capsys, entry, noun):
    # every entry point that keys its inputs by language refuses two
    # inputs of one language with the same words
    message = f"language 'en' names more than one {noun}"
    evalset = workspace / "evalset.tsv"
    if entry == "significance_driver":
        sets = [load_evaluation_set(evalset, language="en")] * 2
        with pytest.raises(ArgumentError) as refused:
            significance_driver(sets)
        assert str(refused.value) == message
        return
    vectors = [f"en={workspace / name}"
               for name in ("vectors.txt", "vectors_de.txt")]
    argv = {
        "coverage": ["coverage", "--vectors", vectors[0], "--vectors",
                     vectors[1], "--evalset", f"en={evalset}"],
        "combine": ["combine", "--method", "cca", "--vectors", *vectors,
                    "--lexicon", str(workspace / "lexicon.tsv")],
    }[entry] + ["--out", str(workspace / "c.txt")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (workspace / "c.txt").exists()


def test_missing_lexicon_word_message_is_unquoted(workspace, capsys):
    lex = workspace / "lexicon.tsv"
    rows = len(lex.read_text().splitlines()) - 1
    with lex.open("a") as f:
        f.write("zzznotaword\tw0\n")
    assert main(_cca_argv(workspace)) == 3
    assert capsys.readouterr().err == (
        f"error: word 'zzznotaword' (lexicon row {rows}) missing from en "
        "table\n")


def test_oov_policy_error_message_is_unquoted(workspace, capsys):
    pairs = workspace / "pairs.tsv"
    pairs.write_text("0\tw0\tw1\n1\tw2\tzzz\\notaword\n")
    assert main(["score", "--vectors", str(workspace / "vectors.txt"),
                 "--pairs", str(pairs), "--oov-policy", "error",
                 "--out", str(workspace / "s.tsv")]) == 3
    assert capsys.readouterr().err == (
        "error: word 'zzz\\\\notaword' of pair 1 not in table\n")


def test_lexicon_naming_a_language_twice_exit_3(workspace, capsys):
    lex = workspace / "lexicon.tsv"
    lines = lex.read_text().splitlines()
    lex.write_text("\n".join(f"{line}\t{line.split()[0]}"
                             for line in lines) + "\n")
    assert lines[0] == "en\tde"
    assert main(_cca_argv(workspace)) == 3
    assert f"a language heads more than one column [{lex}:1]" in \
        capsys.readouterr().err
    assert not (workspace / "c.txt").exists()


@pytest.mark.parametrize("command", ["score", "build-bow"])
@pytest.mark.parametrize("bad_line", [1, 3])
def test_undecodable_pair_file_exit_3_with_line(workspace, capsys, command,
                                                bad_line):
    lines = [b"pair_index\tword1\tword2", b"0\tw0\tw1", b"1\tw2\tw3"]
    lines[bad_line - 1] += b"\xe4"
    pairs = workspace / "pairs.tsv"
    pairs.write_bytes(b"\n".join(lines) + b"\n")
    if command == "score":
        argv = ["score", "--vectors", str(workspace / "vectors.txt"),
                "--pairs", str(pairs), "--out", str(workspace / "s.tsv")]
    else:
        argv = ["build-bow", "--corpus", str(workspace / "corpus.txt"),
                "--targets", str(pairs), "--k", "10",
                "--out", str(workspace / "v.txt")]
    assert main(argv) == 3
    assert f"[{pairs}:{bad_line}]" in capsys.readouterr().err


def test_qc_excluding_every_annotator_exit_2(workspace, capsys):
    out = workspace / "q.tsv"
    assert main(["qc", "--scores", str(workspace / "evalset.tsv"),
                 "--threshold", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "threshold -1.0" in err and "batch 0" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "text", ["", "\n \n\t\n", "pair_index\tword1\tword2\n"],
    ids=["empty", "blank-lines", "pair-header-only"])
def test_build_bow_without_target_words_exit_3(workspace, capsys, text):
    targets = workspace / "no_targets.txt"
    targets.write_text(text)
    assert main(["build-bow", "--corpus", str(workspace / "corpus.txt"),
                 "--targets", str(targets), "--k", "10",
                 "--out", str(workspace / "v.txt")]) == 3
    assert f"no target word [{targets}]" in capsys.readouterr().err


def _fuzz_cases(ws):
    """Per command: its argv without --out, and the input files that
    the property damages."""
    ev, ev_de = ws / "evalset.tsv", ws / "evalset_de.tsv"
    v, v_de = ws / "vectors.txt", ws / "vectors_de.txt"
    lex = ws / "lexicon.tsv"
    s1, s2 = ws / "s1.tsv", ws / "s2.tsv"
    cross = ["--evalset", f"en={ev}", "--evalset", f"de={ev_de}"]
    return {
        "score": (["score", "--vectors", str(v), "--pairs", str(ev)], [v, ev]),
        "eval": (["eval", "--vectors", str(v), "--evalset", str(ev)],
                 [v, ev]),
        "agree-within": (["agree", "--mode", "within", "--evalset",
                          f"en={ev}"], [ev]),
        "agree-cross": (["agree", "--mode", "cross", *cross], [ev, ev_de]),
        "quintiles-within": (["quintiles", "--mode", "within", "--evalset",
                              f"en={ev}"], [ev]),
        "quintiles-cross": (["quintiles", "--mode", "cross", *cross],
                            [ev, ev_de]),
        "quintiles-model-human": (["quintiles", "--mode", "model-human",
                                   "--scores", str(s1), "--evalset",
                                   f"en={ev}"], [s1, ev]),
        "combine-li": (["combine", "--method", "li", "--scores", str(s1),
                        str(s2)], [s1, s2]),
        "combine-cca": (["combine", "--method", "cca", "--vectors", f"en={v}",
                         f"de={v_de}", "--lexicon", str(lex)],
                        [v, v_de, lex]),
        "qc": (["qc", "--scores", str(ev), "--log", str(ws / "log.tsv")],
               [ev]),
        "coverage": (["coverage", "--vectors", f"en={v}", "--evalset",
                      f"en={ev}"], [v, ev]),
    }


def _add_score_files(ws):
    """Add a copy of the evaluation set as evalset_de.tsv, and s1.tsv and
    s2.tsv, the scores of its pairs under the two vector tables."""
    ev = ws / "evalset.tsv"
    (ws / "evalset_de.tsv").write_bytes(ev.read_bytes())
    for vectors, scores in (("vectors.txt", "s1.tsv"),
                            ("vectors_de.txt", "s2.tsv")):
        assert main(["score", "--vectors", str(ws / vectors),
                     "--pairs", str(ev), "--out", str(ws / scores)]) == 0


@st.composite
def _one_damaged_file(draw, originals):
    """The position of one input file and its damaged bytes."""
    i = draw(st.integers(0, len(originals) - 1))
    return i, draw(damaged(originals[i]))


@pytest.mark.parametrize("command", sorted(_fuzz_cases(Path("."))))
def test_cli_on_a_damaged_input_exits_0_2_3_or_4(workspace, command):
    _add_score_files(workspace)
    argv, inputs = _fuzz_cases(workspace)[command]
    out = str(workspace / "out.tsv")
    originals = [path.read_bytes() for path in inputs]

    @settings(max_examples=40, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    # one-byte damage of the workspace never makes a negative vector header,
    # one that declares more than any memory holds, or an empty table
    # wider than numpy can shape
    @example(damage=(0, b"0 -1\n"))
    @example(damage=(0, b"0 100000000000000000000\n"))
    @example(damage=(0, b"100000000000000000000 100000000000000000000\n"
                        b"w 1.0\n"))
    @given(damage=_one_damaged_file(originals))
    def check(damage):
        i, data = damage
        inputs[i].write_bytes(data)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # duplicate vector words
                assert main([*argv, "--out", out]) in (0, 2, 3, 4)
        finally:
            inputs[i].write_bytes(originals[i])

    check()


def _replace_last_cell(path, line, value):
    """Set the last tab-separated cell of physical line ``line``."""
    lines = path.read_text().splitlines()
    lines[line - 1] = lines[line - 1].rsplit("\t", 1)[0] + "\t" + value
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("command", ["qc", "agree", "eval"])
def test_non_finite_judgment_exit_3_with_line(workspace, capsys, command,
                                              cell):
    ev = workspace / "evalset.tsv"
    _replace_last_cell(ev, 3, cell)
    out, log = workspace / "out.tsv", workspace / "log.tsv"
    argv = {
        "qc": ["qc", "--scores", str(ev), "--log", str(log)],
        "agree": ["agree", "--mode", "within", "--evalset", f"en={ev}"],
        "eval": ["eval", "--vectors", str(workspace / "vectors.txt"),
                 "--evalset", str(ev)],
    }[command]
    assert main([*argv, "--out", str(out)]) == 3
    assert f"non-finite score [{ev}:3]" in capsys.readouterr().err
    assert not out.exists() and not log.exists()


@pytest.mark.parametrize("command", ["combine-li", "quintiles-model-human"])
def test_non_finite_model_score_exit_3_with_line(workspace, capsys,
                                                 command):
    _add_score_files(workspace)
    s1 = workspace / "s1.tsv"
    # line 4 follows the manifest, the header and the first pair
    _replace_last_cell(s1, 4, "nan")
    out = workspace / "out.tsv"
    argv, _ = _fuzz_cases(workspace)[command]
    assert main([*argv, "--out", str(out)]) == 3
    assert f"non-finite score [{s1}:4]" in capsys.readouterr().err
    assert not out.exists()


def _repeat_pair_index(path, line):
    """Give physical line ``line`` the pair index of the line before it;
    returns that index."""
    lines = path.read_text().splitlines()
    index = lines[line - 2].split("\t")[0]
    lines[line - 1] = "\t".join([index, *lines[line - 1].split("\t")[1:]])
    path.write_text("\n".join(lines) + "\n")
    return index


@pytest.mark.parametrize("command, name", [
    ("score", "evalset.tsv"), ("build-bow", "evalset.tsv"),
    ("eval", "evalset.tsv"), ("agree-within", "evalset.tsv"),
    ("qc", "evalset.tsv"), ("combine-li", "s1.tsv"),
    ("quintiles-model-human", "s1.tsv")])
def test_repeated_pair_index_exit_3_with_line(workspace, capsys, command,
                                              name):
    _add_score_files(workspace)
    if command == "build-bow":
        argv = ["build-bow", "--corpus", str(workspace / "corpus.txt"),
                "--targets", str(workspace / "evalset.tsv")]
    else:
        argv, _ = _fuzz_cases(workspace)[command]
    # line 3 holds the second pair of the evaluation set, and the first
    # of a score file, which starts with its manifest
    path = workspace / name
    index = _repeat_pair_index(path, 4)
    out = workspace / "out.tsv"
    assert main([*argv, "--out", str(out)]) == 3
    assert (f"repeated pair index {index}, first on line 3 [{path}:4]"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("cell", ["10.5", "-0.5", "1e3"])
@pytest.mark.parametrize("command", ["qc", "agree", "eval"])
def test_judgment_outside_0_10_exit_3_with_line(workspace, capsys, command,
                                                cell):
    ev = workspace / "evalset.tsv"
    _replace_last_cell(ev, 3, cell)
    out = workspace / "out.tsv"
    argv = {
        "qc": ["qc", "--scores", str(ev)],
        "agree": ["agree", "--mode", "within", "--evalset", f"en={ev}"],
        "eval": ["eval", "--vectors", str(workspace / "vectors.txt"),
                 "--evalset", str(ev)],
    }[command]
    assert main([*argv, "--out", str(out)]) == 3
    assert f"score outside [0, 10] [{ev}:3]" in capsys.readouterr().err
    assert not out.exists()


def test_lexicon_row_with_an_empty_cell_exit_3_with_line(workspace, capsys):
    lex = workspace / "lexicon.tsv"
    lines = lex.read_text().splitlines()
    lines[4] = lines[4].split("\t")[0] + "\t"
    lex.write_text("\n".join(lines) + "\n")
    out = workspace / "out.txt"
    argv, _ = _fuzz_cases(workspace)["combine-cca"]
    assert main([*argv, "--out", str(out)]) == 3
    assert f"empty cell [{lex}:5]" in capsys.readouterr().err
    assert not out.exists()


def _report_cases(ws):
    """Per command that writes a report: its argv, which writes the report
    to report.tsv, and the inputs that the report's manifest must name."""
    ev, ev_de = ws / "evalset.tsv", ws / "evalset_de.tsv"
    v, v_de = ws / "vectors.txt", ws / "vectors_de.txt"
    lex, corpus = ws / "lexicon.tsv", ws / "corpus.txt"
    s1, s2 = ws / "s1.tsv", ws / "s2.tsv"
    out = ws / "report.tsv"
    return {
        "score": (["score", "--vectors", v, "--pairs", ev, "--out", out],
                  [v, ev]),
        "eval": (["eval", "--vectors", v, "--evalset", ev, "--out", out],
                 [v, ev]),
        "agree-samples": (["agree", "--mode", "within", "--evalset",
                           f"en={ev}", "--out", ws / "agree.tsv",
                           "--samples-out", out], [ev]),
        "quintiles": (["quintiles", "--mode", "cross", "--evalset",
                       f"en={ev}", "--evalset", f"de={ev_de}",
                       "--out", out], [ev, ev_de]),
        "combine-li": (["combine", "--method", "li", "--scores", s1, s2,
                        "--out", out], [s1, s2]),
        "combine-cca": (["combine", "--method", "cca", "--vectors",
                         f"en={v}", f"de={v_de}", "--lexicon", lex,
                         "--out", ws / "c.txt", "--report-out", out],
                        [v, v_de, lex]),
        "qc-log": (["qc", "--scores", ev, "--out", ws / "q.tsv",
                    "--log", out], [ev]),
        "coverage": (["coverage", "--vectors", f"en={v}", "--vectors",
                      f"de={v_de}", "--evalset", f"en={ev}", "--evalset",
                      f"de={ev_de}", "--out", out], [v, v_de, ev, ev_de]),
        "baseline": (["baseline", "--corpus", corpus, "--evalset", ev,
                      "--k", "10", "--reps", "2", "--seed", "3",
                      "--out", out], [corpus, ev]),
    }


@pytest.mark.parametrize("case", sorted(_report_cases(Path("."))))
def test_every_report_starts_with_its_manifest(workspace, case):
    _add_score_files(workspace)
    argv, inputs = _report_cases(workspace)[case]
    assert main([str(a) for a in argv]) == 0
    first = (workspace / "report.tsv").read_text().splitlines()[0]
    assert first.startswith("# manifest: ")
    manifest = json.loads(first[len("# manifest: "):])
    assert manifest["command"] == argv[0]
    assert manifest["inputs"] == {
        str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in inputs}


def _numeric_cases(ws):
    """Per command: its argv without numeric options or --out, and its
    numeric options, each marked required or not."""
    ev, s1, s2 = ws / "evalset.tsv", ws / "s1.tsv", ws / "s2.tsv"
    corpus = ["--corpus", str(ws / "corpus.txt")]
    return {
        "build-bow": (["build-bow", *corpus, "--targets",
                       str(ws / "targets.txt")],
                      {"--k": False, "--window": False}),
        "sample": (["sample", *corpus], {"--fraction": True, "--seed": True}),
        "agree": (["agree", "--mode", "within", "--evalset", f"en={ev}"],
                  {"--subset-size": False}),
        "quintiles": (["quintiles", "--mode", "within", "--evalset",
                       f"en={ev}"],
                      {"--subset-size": False, "--quantiles": False}),
        "combine-li": (["combine", "--method", "li", "--scores", str(s1),
                        str(s2)], {"--lam": False}),
        "combine-cca": (["combine", "--method", "cca", "--vectors",
                         f"en={ws / 'vectors.txt'}",
                         f"de={ws / 'vectors_de.txt'}",
                         "--lexicon", str(ws / "lexicon.tsv")],
                        {"--eps": False, "--components": False,
                         "--max-dim": False}),
        "qc": (["qc", "--scores", str(ev)], {"--threshold": False}),
        "baseline": (["baseline", *corpus, "--evalset", str(ev)],
                     {"--seed": True, "--fraction": False, "--reps": False,
                      "--k": False, "--window": False}),
    }


# integers, floats, +-inf and nan, as the command line spells them; small
# ones most often, so that many draws pass the options' own checks
_NUMBERS = st.one_of(
    st.integers(-3, 40).map(str),
    st.integers(1, 12).map(str),
    st.floats(-2.0, 2.0).map(repr),
    st.sampled_from(["1000000000", "-1000000000", "inf", "-inf", "nan",
                     "-0.0", "0.5", "1e308", "1e-320"]),
    st.floats().map(repr),
)
# every repetition builds two models: keep the run short
_REPS = st.one_of(st.integers(-2, 3).map(str),
                  st.sampled_from(["inf", "nan", "1.5"]))


@st.composite
def _numeric_arguments(draw, options):
    """Option/value pairs: every required option, and any of the others."""
    argv = []
    for option, required in options.items():
        if required or draw(st.booleans()):
            numbers = _REPS if option == "--reps" else _NUMBERS
            argv += [option, draw(numbers)]
    return argv


def _exit_code(argv) -> int:
    """The exit status of one command; argparse exits 2 by SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("command", sorted(_numeric_cases(Path("."))))
def test_cli_on_any_numeric_argument_exits_0_2_3_or_4(workspace, command,
                                                      capsys):
    for vectors, scores in (("vectors.txt", "s1.tsv"),
                            ("vectors_de.txt", "s2.tsv")):
        assert main(["score", "--vectors", str(workspace / vectors),
                     "--pairs", str(workspace / "evalset.tsv"),
                     "--out", str(workspace / scores)]) == 0
    argv, options = _numeric_cases(workspace)[command]
    out = str(workspace / "out.tsv")

    @settings(max_examples=20, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(numbers=_numeric_arguments(options))
    def check(numbers):
        assert _exit_code([*argv, *numbers, "--out", out]) in (0, 2, 3, 4)
        capsys.readouterr()

    check()


@pytest.mark.parametrize("lang", ["e n", ""])
@pytest.mark.parametrize("command", ["agree-within", "agree-cross",
                                     "quintiles-within", "quintiles-cross",
                                     "quintiles-model-human", "combine-cca",
                                     "coverage"])
def test_language_code_with_whitespace_exit_2_before_any_read(
        workspace, capsys, command, lang):
    # a code a written file could not give back: no input is read and no
    # output is written
    _add_score_files(workspace)
    argv, _ = _fuzz_cases(workspace)[command]
    argv = [lang + arg[2:] if arg.startswith("en=") else arg for arg in argv]
    out, model = workspace / "out.txt", workspace / "model.txt"
    assert main([*argv, "--out", str(out), "--model-out", str(model)]
                if command == "combine-cca" else
                [*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: language code {lang!r} is empty or contains whitespace\n")
    assert not out.exists() and not model.exists()


def _replace_first_cell(path, line, value):
    """Set the first tab-separated cell of physical line ``line``."""
    lines = path.read_text().splitlines()
    lines[line - 1] = "\t".join([value, *lines[line - 1].split("\t")[1:]])
    path.write_text("\n".join(lines) + "\n")


def _write_number(ws, place, cell):
    """Write ``cell`` where ``place`` reads a number. Returns the call
    (argv without --out, or a loader), the file and line that hold the
    cell, and the refusal."""
    ev, s1, model = ws / "evalset.tsv", ws / "s1.tsv", ws / "model.txt"
    if place in ("score-pairs", "build-bow-targets"):
        _replace_first_cell(ev, 3, cell)  # pair 1
        argv = (_fuzz_cases(ws)["score"][0] if place == "score-pairs" else
                ["build-bow", "--corpus", str(ws / "corpus.txt"),
                 "--targets", str(ev), "--k", "10"])
        return argv, ev, 3, "non-integer pair index"
    if place == "score-vectors-header":
        v = ws / "v.txt"
        body = (ws / "vectors.txt").read_text().splitlines(True)
        v.write_text(f"{cell} 4\n" + "".join(body[1:1 + int(cell)]))
        return (["score", "--vectors", str(v), "--pairs", str(ev)], v, 1,
                "non-integer header fields")
    if place == "cca-model-header":
        model.write_text(f"en de 1 1 1 {cell} 1\n" + _CCA_ROWS)
        return load_cca_model, model, 1, "non-numeric CCA model header field"
    if place == "cca-model-value":
        model.write_text(f"en de 1 1 1 1e-08 1\n0.0\n0.0\n{cell}\n1.0\n1.0\n")
        return load_cca_model, model, 4, "non-numeric value"
    # line 4 of a score file, after its manifest and header, holds pair 1
    command, _, field = place.rpartition("-")
    (_replace_first_cell if field == "index" else _replace_last_cell)(
        s1, 4, cell)
    return (_fuzz_cases(ws)[command][0], s1, 4,
            "non-numeric pair index or score")


# int and float read "1_0" as 10 and "\u0661" (Arabic-Indic one) as 1, so
# each file below loads whole if the cell is read as a number
@pytest.mark.parametrize("cell", ["1_0", "\u0661"])
@pytest.mark.parametrize("place", [
    "score-pairs", "build-bow-targets", "score-vectors-header",
    "combine-li-index", "combine-li-score", "quintiles-model-human-index",
    "quintiles-model-human-score", "cca-model-header", "cca-model-value"])
def test_number_with_underscore_or_non_ascii_digit_exit_3_with_line(
        workspace, capsys, place, cell):
    _add_score_files(workspace)
    call, path, line, message = _write_number(workspace, place, cell)
    if callable(call):
        with pytest.raises(FormatError) as info:
            call(path)
        assert str(info.value) == f"{message} [{path}:{line}]"
        return
    out = workspace / "out.tsv"
    assert main([*call, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {message} [{path}:{line}]\n"
    assert not out.exists()


@pytest.mark.parametrize("extra", [[], ["--document-mode"]])
def test_build_bow_reads_a_crlf_corpus_as_its_lf_copy(workspace, extra):
    lf, crlf = workspace / "corpus.txt", workspace / "crlf.txt"
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    for corpus in (lf, crlf):
        assert main(["build-bow", "--corpus", str(corpus), "--targets",
                     str(workspace / "targets.txt"), "--k", "10",
                     "--out", f"{corpus}.vec", *extra]) == 0
    assert (Path(f"{crlf}.vec").read_bytes()
            == Path(f"{lf}.vec").read_bytes())


@pytest.mark.parametrize("command", ["build-bow", "sample", "baseline"])
def test_undecodable_corpus_exit_3_with_line(workspace, capsys, command):
    corpus = workspace / "corpus.txt"
    lines = corpus.read_bytes().split(b"\n")
    lines[2] += b"\xff"
    corpus.write_bytes(b"\n".join(lines))
    out = workspace / "out.txt"
    argv = {
        "build-bow": ["build-bow", "--corpus", str(corpus), "--targets",
                      str(workspace / "targets.txt"), "--k", "10"],
        "sample": ["sample", "--corpus", str(corpus), "--fraction", "0.5",
                   "--seed", "1"],
        "baseline": ["baseline", "--corpus", str(corpus), "--evalset",
                     str(workspace / "evalset.tsv"), "--k", "10",
                     "--seed", "1"],
    }[command]
    assert main([*argv, "--out", str(out)]) == 3
    assert (capsys.readouterr().err
            == f"error: malformed UTF-8 [{corpus}:3]\n")
    assert not out.exists()
