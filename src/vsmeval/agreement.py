"""Annotator quality control and the K-subset agreement protocol.

An evaluation set is a word-pair list with a pairs x annotators score
matrix on the 0-10 scale, partitioned into batches (blocks of 50 pairs,
the last possibly 49) each scored by the same 13 annotators. Agreement is
measured by averaging scores over every 6-annotator subset and
correlating against the complement (within-language) or against the
corresponding subset of another language (cross-language).

``_split_means`` is the one walk over K-subset means: it checks the sets
once, then maps one function over the batches on a thread pool made for
the call, one worker per CPU the process may use, and returns the
results in batch order. Each call gets, set by set, the pairs x subsets
matrix of subset means and, where a within report or within-mode
quintiles need it, of complement means. A set whose judgments are all
integers gets the subset and complement sums instead, as int16: on the
0-10 scale they are exact integers of at most 120, and dividing by the
subset size keeps their order and ties, so every rank, rho and quintile
F is the same, while both kernels take their integer paths (a counting
rank and a radix sort). ``_agreement_reports`` ranks
each set's subset means once per batch and builds the within reports
and the cross report of every pair of sets from those ranks;
``within_language_agreement``, ``cross_language_agreement`` and
``significance_driver`` all call it, and ``quintile_agreement_analysis``
reads the same walk. Batches share no state and numpy releases the GIL
in the sorts and products a batch spends its time in; the reports are
assembled on the calling thread, so they do not depend on the number of
workers. The rank kernels ``centred_ranks`` and ``ranked_spearman`` and
the quintile block overlaps ``quintile_overlaps`` live in ``stats``,
whose docstring says why every rho is exact.

``qc`` (``apply_outlier_filter``) screens each batch's annotators in one
loop: the single-pass screen is its first step, and ``iterate`` goes on
re-screening the kept columns.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    AlignmentError,
    ArgumentError,
    DegenerateError,
    FormatError,
    ValidationError,
)
from .scoring import (ScoreVector, WordPairList, check_aligned,
                      check_one_per_language, record_pair_index)
from .stats import (
    WelchResult,
    centred_ranks,
    quintile_overlaps,
    ranked_spearman,
    welch_t_test,
)
from .textfile import check_cells, numeric, read_rows, write_lines

ANNOTATORS_PER_BATCH = 13
DEFAULT_SUBSET_SIZE = 6
OUTLIER_THRESHOLD = 1.45


@dataclass
class EvaluationSet:
    language: str
    pairs: WordPairList
    scores: np.ndarray  # pairs x annotators, values in [0, 10]
    batches: tuple[tuple[int, ...], ...]  # row positions per batch

    def __post_init__(self):
        n = len(self.pairs)
        if self.scores.shape[0] != n:
            raise AlignmentError(
                f"{self.scores.shape[0]} score rows for {n} pairs"
            )
        present = self.scores[~np.isnan(self.scores)]
        if present.size and (present.min() < 0 or present.max() > 10):
            raise ValidationError("scores must lie in [0, 10]")
        seen = [p for batch in self.batches for p in batch]
        if sorted(seen) != list(range(n)):
            raise AlignmentError("batches must partition the pair positions")

    @property
    def n_annotators(self) -> int:
        return self.scores.shape[1]

    def batch_matrix(self, b: int) -> np.ndarray:
        return self.scores[list(self.batches[b]), :]

    def require_complete(self):
        if self.n_annotators != ANNOTATORS_PER_BATCH:
            raise ArgumentError(
                f"expected {ANNOTATORS_PER_BATCH} annotator columns, "
                f"got {self.n_annotators}"
            )
        if not np.all(np.isfinite(self.scores)):
            raise ValidationError("incomplete scores (missing cells)")


@dataclass
class AgreementReport:
    label: str
    samples: np.ndarray  # per-subset Spearman correlations
    degenerate_count: int = 0

    @property
    def mean(self) -> float:
        return float(self._nonempty().mean())

    @property
    def std(self) -> float:
        # population std over the correlation samples
        return float(self._nonempty().std(ddof=0))

    def _nonempty(self) -> np.ndarray:
        """The samples; refused when every split was degenerate."""
        if not len(self.samples):
            raise DegenerateError(
                f"{self.label} has no samples: all {self.degenerate_count} "
                "splits are degenerate")
        return self.samples

    @property
    def sample_count(self) -> int:
        return len(self.samples)


@dataclass
class OutlierResult:
    kept: tuple[int, ...]
    excluded: tuple[int, ...]
    statistics: np.ndarray  # outlier statistic of each screened column
    screened: tuple[int, ...]  # the column of each statistic


def detect_outliers(
    batch_scores: np.ndarray, threshold: float = OUTLIER_THRESHOLD
) -> OutlierResult:
    """Single-pass outlier screen over one batch.

    For annotator j the statistic is |mean_j - mean(means of the others)|
    divided by the sample standard deviation of the others' means; j is
    excluded iff the statistic strictly exceeds the threshold. All
    statistics are computed on the original matrix before any exclusion.
    When the others' means have zero spread the statistic is +inf if the
    annotator's mean differs from theirs and 0 otherwise.
    """
    if np.isnan(threshold):
        raise ArgumentError("the outlier threshold is NaN")
    # C order whatever the caller's layout: the column means then sum in
    # the same order, bit for bit
    batch_scores = np.ascontiguousarray(batch_scores, dtype=float)
    m = batch_scores.shape[1]
    if m < 3:
        raise ArgumentError("outlier detection needs at least 3 annotators")
    # each column's mean over the judgments present: one empty cell must
    # not make every statistic NaN
    means = np.nanmean(batch_scores, axis=0)
    # zero-spread cutoff relative to the score scale; the statistic is a
    # ratio of spreads, so exact agreement must not amplify rounding noise
    tol = 1e-9 * max(1.0, float(np.abs(means).max()))
    # row j holds the means of every column but j, in column order
    others = np.tile(means, (m, 1))[~np.eye(m, dtype=bool)].reshape(m, m - 1)
    spread = others.std(axis=1, ddof=1)
    diff = np.abs(means - others.mean(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        stats = np.where(spread <= tol, np.where(diff > tol, np.inf, 0.0),
                         diff / spread)
    excluded = tuple(np.flatnonzero(stats > threshold).tolist())
    kept = tuple(np.flatnonzero(stats <= threshold).tolist())
    return OutlierResult(kept=kept, excluded=excluded, statistics=stats,
                         screened=tuple(range(m)))


def enumerate_subsets(n: int = 13, k: int = DEFAULT_SUBSET_SIZE):
    """All C(n, k) index subsets in lexicographic order."""
    if not 0 < k < n:
        raise ArgumentError(f"need 0 < k < n, got n={n}, k={k}")
    return list(itertools.combinations(range(n), k))


def _subset_membership(n: int, k: int) -> np.ndarray:
    """C(n, k) x n 0/1 matrix; row i marks the i-th subset's members."""
    subsets = np.array(enumerate_subsets(n, k))
    member = np.zeros((len(subsets), n))
    np.put_along_axis(member, subsets, 1.0, axis=1)
    return member


def _check_sets(sets: list[EvaluationSet]) -> None:
    """Every set complete, with the pair indices and batches of the
    first."""
    for s in sets:
        s.require_complete()
    check_aligned(sets)
    if any(s.batches != sets[0].batches for s in sets):
        raise AlignmentError("evaluation sets have different batch partitions")


def _worker_count(batches: int) -> int:
    """One worker per CPU this process may run on, at most one per batch."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, batches))


def _split_means(sets: list[EvaluationSet], K: int, complement: bool,
                 per_batch):
    """``per_batch`` of each batch, in batch order, after checking the
    sets. ``per_batch`` gets a generator over ``sets`` of (subset means,
    complement means or None), each a pairs x subsets matrix; a set's
    means are built only when ``per_batch`` reaches it; for a set whose
    judgments are all integers they are the int16 sums. Batches run on a
    pool of ``_worker_count`` threads that is shut down before returning,
    and an exception in a batch reaches the caller after the batches not
    yet started are cancelled. Complement means average the complement's
    own columns, so a complement of constant annotators is exactly
    constant.
    """
    _check_sets(sets)
    member = _subset_membership(ANNOTATORS_PER_BATCH, K)
    rest = 1.0 - member
    # integer judgments in [0, 10] give exact integer sums of at most
    # 120, which order and tie as the means do
    integral = [np.array_equal(s.scores, np.rint(s.scores)) for s in sets]

    def split(scores, exact):
        def means(subsets, size):
            sums = scores @ subsets.T
            return sums.astype(np.int16) if exact else sums / size
        return (means(member, K),
                means(rest, ANNOTATORS_PER_BATCH - K) if complement else None)

    def batch_means(b):
        return per_batch(split(s.batch_matrix(b), exact)
                         for s, exact in zip(sets, integral))

    n = len(sets[0].batches)
    pool = ThreadPoolExecutor(_worker_count(n))
    try:
        return list(pool.map(batch_means, range(n)))
    finally:
        pool.shutdown(cancel_futures=True)


def _report(label: str, rhos) -> AgreementReport:
    """Concatenate per-batch rho arrays, dropping and counting the
    degenerate (NaN) samples rather than imputing them."""
    rho = np.concatenate(rhos)
    bad = np.isnan(rho)
    return AgreementReport(label=label, samples=rho[~bad],
                           degenerate_count=int(bad.sum()))


def _agreement_reports(sets: list[EvaluationSet], K: int, within: bool):
    """Within reports of ``sets`` (none unless ``within``) and cross
    reports of every pair, in ``itertools.combinations`` order. Each
    batch's subset means are ranked once per set; complement means are
    built only for within reports and their ranks dropped at once, so
    only the subset ranks of all sets are held together."""
    pairs = list(itertools.combinations(range(len(sets)), 2))

    def batch_rhos(batch):
        within_rhos, subset_ranks = [], []
        for sub, comp in batch:
            sub = centred_ranks(sub)
            if within:
                within_rhos.append(ranked_spearman(sub, centred_ranks(comp)))
            subset_ranks.append(sub)
        cross_rhos = [ranked_spearman(subset_ranks[i], subset_ranks[j])
                      for i, j in pairs]
        return within_rhos, cross_rhos

    per_batch = _split_means(sets, K, within, batch_rhos)
    within_reports = [
        _report(f"within:{s.language}", [w[i] for w, _ in per_batch])
        for i, s in enumerate(sets)
    ] if within else []
    cross_reports = [
        _report(f"cross:{sets[i].language}-{sets[j].language}",
                [c[p] for _, c in per_batch])
        for p, (i, j) in enumerate(pairs)
    ]
    return within_reports, cross_reports


def within_language_agreement(
    evaluation_set: EvaluationSet, K: int = DEFAULT_SUBSET_SIZE
) -> AgreementReport:
    """Per batch and per K-subset: Spearman between the subset's averaged
    pair scores and the complement's. Degenerate (constant) samples are
    dropped and counted rather than imputed."""
    (report,), _ = _agreement_reports([evaluation_set], K, within=True)
    return report


def cross_language_agreement(
    set1: EvaluationSet, set2: EvaluationSet, K: int = DEFAULT_SUBSET_SIZE
) -> AgreementReport:
    """Per batch and per K-subset S of annotator column indices: Spearman
    between set1's S-averaged scores and set2's scores averaged over the
    corresponding (same-index) subset."""
    _, (report,) = _agreement_reports([set1, set2], K, within=False)
    return report


def agreement_significance(
    within: AgreementReport, cross: AgreementReport
) -> WelchResult:
    """Welch's t-test over the raw per-subset correlation samples; a
    report without samples is refused."""
    return welch_t_test(within._nonempty(), cross._nonempty())


def significance_driver(
    sets: list[EvaluationSet], K: int = DEFAULT_SUBSET_SIZE
) -> dict[tuple[str, str, str], WelchResult]:
    """Welch test of every language's within-agreement samples against
    every language pair's cross-agreement samples.

    Four languages give 4 within reports x 6 unordered pairs = 24 tests.
    Keys are (within_language, pair_language_1, pair_language_2), so two
    sets of one language are refused, after the checks on the data and
    before any batch is ranked.
    """
    if not sets:
        return {}
    _check_sets(sets)
    check_one_per_language(sets, "evaluation set")
    within_reports, cross_reports = _agreement_reports(sets, K, within=True)
    cross = [((s1.language, s2.language), r) for (s1, s2), r in
             zip(itertools.combinations(sets, 2), cross_reports)]
    return {
        (s.language, *pair): agreement_significance(w_report, c_report)
        for s, w_report in zip(sets, within_reports)
        for pair, c_report in cross
    }


def quintile_agreement_analysis(
    set1: EvaluationSet,
    set2: EvaluationSet | None = None,
    K: int = DEFAULT_SUBSET_SIZE,
    q: int = 5,
) -> tuple[float, ...]:
    """Average per-quintile relative F over all K-subset splits.

    Within-language mode (``set2`` omitted or identical) ranks subset vs
    complement averages; cross-language mode ranks corresponding subset
    averages. Rankings are descending with ties broken by stable pair
    position.
    """
    within_mode = set2 is None or set2 is set1
    sets = [set1] if within_mode else [set1, set2]
    # the walk's checks on the sets and on K come first; an oversized q
    # is then refused before any batch is walked
    _check_sets(sets)
    enumerate_subsets(ANNOTATORS_PER_BATCH, K)
    size, b = min((len(batch), b) for b, batch in enumerate(set1.batches))
    if size < q:
        raise ArgumentError(
            f"batch {b} holds {size} pairs, fewer than the {q} quantile "
            "blocks")

    def batch_overlaps(batch):
        # within mode: one set's subset and complement means; cross mode:
        # the subset means of both sets
        m1, m2 = (m for split in batch for m in split if m is not None)
        return quintile_overlaps(m1, m2, q).sum(axis=1), m1.shape[1]

    # a scalar start leaves the check q >= 2 to the kernel; summing on
    # this thread, in batch order, keeps the float sums' order
    f_sums, count = 0.0, 0
    for f, m in _split_means(sets, K, within_mode, batch_overlaps):
        f_sums += f
        count += m
    return tuple((f_sums / count).tolist())


def human_mean_scores(evaluation_set: EvaluationSet) -> ScoreVector:
    """Per-pair arithmetic mean over the judgments present (the human
    reference for model evaluation); the empty cells of a ``qc`` output
    are left out. A pair without any judgment is refused."""
    empty = np.flatnonzero(np.isnan(evaluation_set.scores).all(axis=1))
    if empty.size:
        raise ValidationError(
            f"pair {evaluation_set.pairs.source_ids[empty[0]]} has no "
            "judgment"
        )
    means = np.nanmean(evaluation_set.scores, axis=1)
    scores = {
        idx: float(means[pos])
        for pos, idx in enumerate(evaluation_set.pairs.source_ids)
    }
    return ScoreVector(scores=scores)


def load_evaluation_set(path, language: str | None = None) -> EvaluationSet:
    """TSV with header ``pair_index word1 word2 batch a01..aNN``; empty
    score cells load as NaN (only QC inputs/outputs may contain them),
    and any other cell must be a finite number in [0, 10]."""
    lines = read_rows(path)
    lineno, header = next(lines, (None, None))
    if header is None:
        raise FormatError("empty evaluation set", path=path)
    if header[:4] != ["pair_index", "word1", "word2", "batch"]:
        raise FormatError(
            "header must start with pair_index, word1, word2, batch",
            path=path, line=lineno,
        )
    if len(header) < 5:
        raise FormatError("no annotator columns", path=path, line=lineno)
    ids, pairs, rows = {}, [], []  # ids: pair index -> line number
    batches: dict[str, list[int]] = {}  # label -> positions, first seen first
    for lineno, fields in lines:
        if len(fields) != len(header):
            raise FormatError(
                f"expected {len(header)} fields, got {len(fields)}",
                path=path, line=lineno,
            )
        cells = fields[4:]
        try:
            numeric(fields[0] + "".join(cells))
            index = int(fields[0])
            row = [float(v) if v != "" else np.nan for v in cells]
        except ValueError:
            raise FormatError("non-numeric pair index or score",
                              path=path, line=lineno)
        # only an empty cell may load as NaN; no cell loads as inf
        if sum(map(math.isfinite, row)) + cells.count("") != len(cells):
            raise FormatError("non-finite score", path=path, line=lineno)
        record_pair_index(ids, index, path, lineno)
        rows.append(row)
        batches.setdefault(fields[3], []).append(len(pairs))
        pairs.append((fields[1], fields[2]))
    if not ids:
        raise FormatError("evaluation set without pairs", path=path)
    scores = np.array(rows, dtype=float)
    # NaN, the empty cell, compares False
    outside = np.flatnonzero(((scores < 0) | (scores > 10)).any(axis=1))
    if outside.size:
        raise FormatError("score outside [0, 10]", path=path,
                          line=list(ids.values())[outside[0]])
    return EvaluationSet(
        language=language or "und",
        pairs=WordPairList(pairs=tuple(pairs), source_ids=tuple(ids)),
        scores=scores,
        batches=tuple(tuple(positions) for positions in batches.values()),
    )


def save_evaluation_set(evaluation_set: EvaluationSet, path,
                        header_lines=()) -> None:
    if evaluation_set.n_annotators == 0:
        raise FormatError("an evaluation set needs an annotator column",
                          path=path)
    for pair in evaluation_set.pairs.pairs:
        check_cells(pair, path)
    n_annot = evaluation_set.n_annotators
    batch_of = {}
    for b, positions in enumerate(evaluation_set.batches):
        for pos in positions:
            batch_of[pos] = b
    cols = "\t".join(f"a{j + 1:02d}" for j in range(n_annot))
    lines = [f"pair_index\tword1\tword2\tbatch\t{cols}"]
    for pos, row in enumerate(
            evaluation_set.scores.astype(float, copy=False).tolist()):
        idx = evaluation_set.pairs.source_ids[pos]
        w1, w2 = evaluation_set.pairs.pairs[pos]
        # v != v only for NaN, the empty cell
        cells = "\t".join("" if v != v else repr(v) for v in row)
        lines.append(f"{idx}\t{w1}\t{w2}\t{batch_of[pos]}\t{cells}")
    write_lines(path, lines, header_lines)


def apply_outlier_filter(
    evaluation_set: EvaluationSet,
    threshold: float = OUTLIER_THRESHOLD,
    iterate: bool = False,
) -> tuple[EvaluationSet, dict[int, OutlierResult]]:
    """Run the outlier screen per batch and drop excluded annotators.

    Default is the single-pass mode (statistics computed before any
    exclusion); ``iterate`` re-screens the kept columns until a fixpoint
    or fewer than 3 remain. The cleaned set keeps each batch's surviving
    columns left-packed; shorter batches are NaN-padded so the table
    stays rectangular. A column with no judgment in a batch is such
    padding, not an annotator, and is not screened.
    """
    results: dict[int, OutlierResult] = {}
    cleaned = np.full(evaluation_set.scores.shape, np.nan)
    for b, positions in enumerate(evaluation_set.batches):
        matrix = evaluation_set.batch_matrix(b)
        present = np.flatnonzero(~np.isnan(matrix).all(axis=0)).tolist()
        if len(present) < 3:
            raise ArgumentError(f"batch {b} holds {len(present)} annotators;"
                                " outlier detection needs at least 3")
        first = detect_outliers(matrix[:, present], threshold)
        kept = [present[j] for j in first.kept]
        while iterate and len(kept) >= 3:
            again = detect_outliers(matrix[:, kept], threshold)
            if not again.excluded:
                break
            kept = [kept[j] for j in again.kept]
        if not kept:
            raise ValidationError(
                f"threshold {threshold!r} keeps no annotator of batch {b}")
        results[b] = OutlierResult(
            kept=tuple(kept),
            excluded=tuple(j for j in present if j not in kept),
            statistics=first.statistics, screened=tuple(present))
        cleaned[np.ix_(positions, range(len(kept)))] = matrix[:, kept]
    width = max(len(r.kept) for r in results.values())
    return replace(evaluation_set, scores=cleaned[:, :width]), results
