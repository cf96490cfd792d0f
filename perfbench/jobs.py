"""The job list of each workload, its unit of work, and the checks that
its reports are correct.

A job is one ``vsmeval`` CLI invocation, run in process through
``vsmeval.cli.main``, or one direct library call where no command exists
(``agreement.significance_driver``). Checks run outside the timed region,
on the reports the passes left on disk, against the independent oracles
in ``tests/oracles.py``.
"""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
import oracles

from gen import ANNOTATORS, BATCH, LANGUAGES

K = 6
CLI_COMMANDS = ("build-bow", "score", "eval", "agree", "quintiles", "qc",
                "combine", "baseline")


class Job:
    def __init__(self, argv=None, outputs=(), call=None, label=None):
        self.argv = argv
        self.outputs = tuple(outputs)
        self.call = call
        self.label = label or argv[0]
        self.span = f"cli.{argv[0]}" if argv else f"bench.{self.label}"

    def run(self, modules) -> tuple[int, str]:
        """Exit code and any in-memory report of one execution."""
        if self.call is not None:
            return 0, self.call(modules)
        return modules["cli"].main(list(self.argv)), ""


def _read_tsv(path):
    with open(path, encoding="utf-8") as fh:
        return [ln.rstrip("\n").split("\t") for ln in fh
                if ln.strip() and not ln.startswith("#")]


def _read_floats(path):
    return np.array([float(r[0]) for r in _read_tsv(path)[1:]])


def _close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(b))


# -- bow_build -------------------------------------------------------------

class BowBuild:
    """build-bow --clean on a Zipf corpus, then score and eval on the
    vectors it wrote."""

    unit = "raw corpus tokens"

    def __init__(self, inputs, seed):
        self.inputs = inputs
        s = inputs["sizes"]
        common = ["--language", "en"]
        self.jobs = [
            Job(["build-bow", "--corpus", "corpus.txt", "--clean",
                 "--targets", "evalset.tsv", "--k", str(s["k"]),
                 "--window", str(s["window"]), "--out", "vectors.txt"]
                + common, ["vectors.txt"]),
            Job(["score", "--vectors", "vectors.txt", "--pairs",
                 "evalset.tsv", "--out", "scores.tsv"] + common,
                ["scores.tsv"]),
            Job(["eval", "--vectors", "vectors.txt", "--evalset",
                 "evalset.tsv", "--correlation", "spearman",
                 "--out", "eval.tsv"] + common, ["eval.tsv"]),
        ]
        self.units = s["tokens"]  # raw corpus tokens read per pass

    def check(self, counts):
        model = {int(r[0]): float(r[3]) for r in _read_tsv("scores.tsv")[1:]}
        stat, value, covered, _ = _read_tsv("eval.tsv")[1]
        human = self.inputs["human"]
        common = sorted(model)
        expect = oracles.spearman_bruteforce([model[i] for i in common],
                                             [human[i] for i in common])
        return [
            ("eval spearman = spearman_bruteforce",
             stat == "spearman" and int(covered) == len(common)
             and _close(float(value), expect), f"{value} vs {expect!r}"),
            ("no zero target rows", counts["scoring.degenerate"] == 0,
             f"scoring.degenerate={counts['scoring.degenerate']}"),
        ]


# -- agreement_protocol ----------------------------------------------------

class AgreementProtocol:
    """agree and quintiles within x4 and cross x6, qc x4, and the 24-test
    significance driver, on four SL999-shaped evaluation sets."""

    unit = "K-subset splits"

    def __init__(self, inputs, seed):
        self.inputs = inputs
        self.files = {lang: f"evalset_{lang}.tsv" for lang in LANGUAGES}
        pairs = list(itertools.combinations(LANGUAGES, 2))
        jobs = []
        for lang in LANGUAGES:
            jobs.append(Job(
                ["agree", "--mode", "within", "--evalset", self._tag(lang),
                 "--out", f"within_{lang}.tsv",
                 "--samples-out", f"within_{lang}.samples"],
                [f"within_{lang}.tsv", f"within_{lang}.samples"]))
        for a, b in pairs:
            jobs.append(Job(
                ["agree", "--mode", "cross", "--evalset", self._tag(a),
                 "--evalset", self._tag(b), "--out", f"cross_{a}_{b}.tsv",
                 "--samples-out", f"cross_{a}_{b}.samples"],
                [f"cross_{a}_{b}.tsv", f"cross_{a}_{b}.samples"]))
        for lang in LANGUAGES:
            jobs.append(Job(["quintiles", "--mode", "within", "--evalset",
                             self._tag(lang), "--out", f"qw_{lang}.tsv"],
                            [f"qw_{lang}.tsv"]))
        for a, b in pairs:
            jobs.append(Job(["quintiles", "--mode", "cross",
                             "--evalset", self._tag(a),
                             "--evalset", self._tag(b),
                             "--out", f"qx_{a}_{b}.tsv"], [f"qx_{a}_{b}.tsv"]))
        for lang in LANGUAGES:
            jobs.append(Job(["qc", "--scores", self.files[lang],
                             "--out", f"qc_{lang}.tsv",
                             "--log", f"qclog_{lang}.tsv"],
                            [f"qc_{lang}.tsv", f"qclog_{lang}.tsv"]))
        jobs.append(Job(call=self._significance, label="significance"))
        self.jobs = jobs
        batches = inputs["sizes"]["batches"]
        # K-subset splits per pass: 20 agree/quintiles jobs plus the
        # driver's own 4 within and 6 cross reports.
        self.units = 30 * batches * math.comb(ANNOTATORS, K)
        self.results = None

    def _tag(self, lang):
        return f"{lang}={self.files[lang]}"

    def _significance(self, modules):
        agreement = modules["agreement"]
        sets = [agreement.load_evaluation_set(self.files[lang], language=lang)
                for lang in LANGUAGES]
        self.results = agreement.significance_driver(sets)
        return "".join(f"{k}\t{r.t_statistic!r}\t{r.degrees_of_freedom!r}\t"
                       f"{r.p_value!r}\n"
                       for k, r in sorted(self.results.items()))

    def _batch_zero(self):
        """Within-language rho of batch 0 re-derived split by split."""
        rows = _read_tsv(self.files["en"])[1:]
        scores = np.array([[float(v) for v in r[4:]] for r in rows[:BATCH]])
        subsets = list(itertools.combinations(range(ANNOTATORS), K))
        member = np.zeros((len(subsets), ANNOTATORS))
        for i, s in enumerate(subsets):
            member[i, list(s)] = 1.0
        sums = scores @ member.T
        sub = sums / K
        comp = (scores.sum(axis=1, keepdims=True) - sums) / (ANNOTATORS - K)
        constant = (np.ptp(sub, axis=0) == 0) | (np.ptp(comp, axis=0) == 0)
        samples = _read_floats("within_en.samples")
        position = np.cumsum(~constant) - 1
        bad = []
        for i in range(0, len(subsets), 13):
            if constant[i]:
                continue
            expect = oracles.spearman_bruteforce(sub[:, i].tolist(),
                                                 comp[:, i].tolist())
            if not _close(samples[position[i]], expect):
                bad.append((subsets[i], samples[position[i]], expect))
        return not bad, f"{len(bad)} splits differ {bad[:2]}"

    def _welch(self):
        """p against quadrature, and t and df against the textbook
        formula: with ~34k samples a side most p-values are 0, so t and
        df carry the check where p cannot."""
        bad = []
        for (lang, a, b), result in sorted(self.results.items()):
            within = _read_floats(f"within_{lang}.samples")
            cross = _read_floats(f"cross_{a}_{b}.samples")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                p = oracles.welch_p_quadrature(within, cross)
            sa = within.var(ddof=1) / len(within)
            sb = cross.var(ddof=1) / len(cross)
            t = (within.mean() - cross.mean()) / math.sqrt(sa + sb)
            df = (sa + sb) ** 2 / (sa ** 2 / (len(within) - 1)
                                   + sb ** 2 / (len(cross) - 1))
            if abs(result.p_value - p) > 1e-9 + 1e-6 * p or not (
                    _close(result.t_statistic, t, 1e-8)
                    and _close(result.degrees_of_freedom, df, 1e-8)):
                bad.append(((lang, a, b), result, p, t, df))
        return len(self.results) == 24 and not bad, \
            f"{len(self.results)} tests, differing {bad[:2]}"

    def _planted(self):
        missed = []
        for lang, planted in self.inputs["planted"].items():
            excluded = {(int(r[0]), int(r[1][1:]) - 1)
                        for r in _read_tsv(f"qclog_{lang}.tsv")[1:]
                        if r[3] == "excluded"}
            missed += [(lang, o) for o in planted if o not in excluded]
        return not missed, f"missed {missed}"

    def check(self, counts):
        return [("agreement batch 0 = spearman_bruteforce",
                 *self._batch_zero()),
                ("welch t, df = formula; p = welch_p_quadrature",
                 *self._welch()),
                ("qc excludes the planted outliers", *self._planted())]


# -- resample_combine -----------------------------------------------------

class ResampleCombine:
    """baseline li and cca on 80% resamples, then combine cca over two
    dense lexicon-aligned tables and combine li over two score files."""

    unit = "corpus tokens fed to BOW builds (nominal)"

    def __init__(self, inputs, seed):
        self.inputs = inputs
        s = inputs["sizes"]
        self.max_dim = s["max_dim"]
        base = ["baseline", "--corpus", "corpus.txt", "--language", "en",
                "--evalset", "evalset.tsv", "--reps", str(s["reps"]),
                "--seed", str(seed), "--k", str(s["k"]),
                "--window", str(s["window"])]
        self.jobs = [
            Job(base + ["--method", "li", "--out", "baseline_li.tsv"],
                ["baseline_li.tsv"]),
            Job(base + ["--method", "cca", "--out", "baseline_cca.tsv"],
                ["baseline_cca.tsv"]),
            Job(["combine", "--method", "cca",
                 "--vectors", "en=emb_en.txt", "de=emb_de.txt",
                 "--lexicon", "lexicon.tsv", "--max-dim", str(self.max_dim),
                 "--out", "combined.txt", "--report-out", "cca_report.tsv"],
                ["combined.txt", "cca_report.tsv"]),
            Job(["combine", "--method", "li",
                 "--scores", "scores_1.tsv", "scores_2.tsv", "--lam", "0.5",
                 "--out", "li.tsv"], ["li.tsv"]),
        ]
        # Nominal corpus tokens fed to BOW builds per pass: two methods,
        # two builds per repetition, each on an 80% sentence resample.
        self.units = 2 * 2 * s["reps"] * 0.8 * s["tokens"]

    def _pca(self, M):
        M = M / np.linalg.norm(M, axis=1, keepdims=True)
        M = M - M.mean(axis=0)
        if M.shape[1] <= self.max_dim:
            return M
        _, _, vt = np.linalg.svd(M, full_matrices=False)
        return M @ vt[:self.max_dim].T

    def check(self, counts):
        got = np.array([float(r[1]) for r in _read_tsv("cca_report.tsv")[1:]])
        X, Y = (self._pca(M) for M in self.inputs["lexicon_rows"])
        expect = oracles.cca_correlations_eigen(X, Y)
        ok = got.shape == expect.shape and np.allclose(got, expect,
                                                       rtol=0, atol=1e-6)
        return [("cca report = cca_correlations_eigen", ok,
                 f"max diff {np.max(np.abs(got - expect)) if ok else got}")]


WORKLOADS = {
    "bow_build": BowBuild,
    "agreement_protocol": AgreementProtocol,
    "resample_combine": ResampleCombine,
}
