"""Multilingual model combination: score-level linear interpolation and
CCA projection into a shared subspace with concatenated halves, plus the
monolingual 80%-resample baseline used to control for smoothing effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .corpus import Corpus, sample_corpus
from .errors import (
    AlignmentError,
    ArgumentError,
    DegenerateError,
    FormatError,
    WordLookupError,
)
from .scoring import ScoreVector, WordPairList, align_scores, score_pairs
from .stats import spearman
from .textfile import check_cells, numeric, read_lines, read_rows, write_lines
from .vectors import VectorTable


@dataclass(frozen=True)
class TranslationLexicon:
    languages: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]  # one aligned word per language

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.languages):
                raise AlignmentError(
                    f"lexicon row {row!r} does not cover all languages"
                )
            if any(not w for w in row):
                raise AlignmentError(f"lexicon row {row!r} has an empty cell")

    def column(self, language: str) -> tuple[str, ...]:
        if language not in self.languages:
            raise AlignmentError(
                f"lexicon has no {language!r} column; its languages are "
                f"{', '.join(self.languages)}"
            )
        j = self.languages.index(language)
        return tuple(row[j] for row in self.rows)


@dataclass
class CcaModel:
    languages: tuple[str, str]
    mean_1: np.ndarray
    mean_2: np.ndarray
    projection_1: np.ndarray  # d1 x m
    projection_2: np.ndarray  # d2 x m
    correlations: np.ndarray  # m values in [0, 1], non-increasing
    regularization: float

    @property
    def n_components(self) -> int:
        return self.projection_1.shape[1]


def interpolate_scores(
    s1: ScoreVector, s2: ScoreVector, lam: float = 0.5
) -> ScoreVector:
    """Per pair: lam * s1 + (1 - lam) * s2 over identical index sets."""
    if not 0.0 <= lam <= 1.0:
        raise ArgumentError(f"lambda must lie in [0, 1], got {lam}")
    if set(s1.scores) != set(s2.scores):
        raise AlignmentError("score vectors cover different pair indices")
    combined = {
        idx: lam * s1.scores[idx] + (1.0 - lam) * s2.scores[idx]
        for idx in s1.scores
    }
    return ScoreVector(scores=combined)


def fit_cca(
    X: np.ndarray,
    Y: np.ndarray,
    eps: float = 1e-8,
    components: int | None = None,
    max_dim: int | None = None,
    languages: tuple[str, str] = ("l1", "l2"),
) -> CcaModel:
    """Canonical correlation analysis: each view is whitened through its
    thin SVD U S Vt, and the whitened cross-covariance is factored by SVD.

    Columns are mean-centered; both covariance matrices get ``eps`` added
    to the diagonal so rank-deficient inputs stay well-posed: row i of Vt
    is weighted by 1 / sqrt(s_i**2 / (n - 1) + eps), and no d x d matrix
    is formed. ``max_dim`` keeps only each view's leading ``max_dim``
    singular directions, its principal axes; the projections still act on
    the full width. The min(n, d1, d2, max_dim) canonical correlations are
    the singular values clipped to [0, 1].

    LAPACK's U, which depends on the BLAS thread count, is not used, and
    the sums over rows and over singular directions run in ``einsum``,
    whose order of addition threads do not change. The SVD of a large
    view, and the product that forms the scores of a very wide one, can
    still depend on the thread count.
    """
    if components is not None and components < 1:
        raise ArgumentError(f"components must be >= 1, got {components}")
    if max_dim is not None and max_dim < 1:
        raise ArgumentError(f"max_dim must be >= 1, got {max_dim}")
    if not 0.0 <= eps < np.inf:
        raise ArgumentError(f"eps must be finite and >= 0, got {eps}")
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ArgumentError("X and Y must be 2-d with equal row counts")
    n = X.shape[0]
    if n < 2:
        raise DegenerateError("CCA needs at least 2 aligned rows")
    mean_x = X.mean(axis=0)
    mean_y = Y.mean(axis=0)
    Xc = X - mean_x
    Yc = Y - mean_y
    if not (np.any(Xc) and np.any(Yc)):
        raise DegenerateError("rank-0 input: a view is constant")
    import scipy.linalg
    denom = n - 1
    tiny = np.finfo(float).tiny
    _, sx, vxt = scipy.linalg.svd(Xc, full_matrices=False)
    _, sy, vyt = scipy.linalg.svd(Yc, full_matrices=False)
    sx, vxt, sy, vyt = sx[:max_dim], vxt[:max_dim], sy[:max_dim], vyt[:max_dim]
    wx = 1.0 / np.sqrt(np.maximum(sx * sx / denom + eps, tiny))
    wy = 1.0 / np.sqrt(np.maximum(sy * sy / denom + eps, tiny))
    # Xc Vt.T is U S, the scores of the view
    core = np.einsum("ij,ik->jk", Xc @ vxt.T, Yc @ vyt.T)
    u, s, vt = scipy.linalg.svd(wx[:, None] * core * wy / denom,
                                full_matrices=False)
    m = len(s) if components is None else min(components, len(s))
    return CcaModel(
        languages=languages,
        mean_1=mean_x,
        mean_2=mean_y,
        projection_1=np.einsum("ij,jk->ik", vxt.T * wx, u[:, :m]),
        projection_2=np.einsum("ij,jk->ik", vyt.T * wy, vt[:m].T),
        correlations=np.clip(s[:m], 0.0, 1.0),
        regularization=eps,
    )


def _gather(table: VectorTable, words: tuple[str, ...]) -> np.ndarray:
    """The rows of one lexicon column; a miss names its lexicon row."""
    try:
        return table.rows(words)
    except KeyError as exc:
        word = exc.args[0]
        raise WordLookupError(
            f"word {word!r} (lexicon row {words.index(word)}) missing from "
            f"{table.language} table"
        ) from None


def aligned_matrices(
    t1: VectorTable, t2: VectorTable, lexicon: TranslationLexicon
) -> tuple[np.ndarray, np.ndarray]:
    """(X, Y): the two tables' rows of the lexicon's words, row by row,
    each row unit-normalised."""
    w1, w2 = lexicon.column(t1.language), lexicon.column(t2.language)
    return _unit_rows(_gather(t1, w1)), _unit_rows(_gather(t2, w2))


def _unit_rows(M: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(M, axis=1, keepdims=True)
    return M / np.where(norms == 0, 1.0, norms)


def fit_cca_tables(
    t1: VectorTable,
    t2: VectorTable,
    lexicon: TranslationLexicon,
    eps: float = 1e-8,
    components: int | None = None,
    max_dim: int | None = None,
) -> CcaModel:
    """fit_cca over the lexicon-aligned rows of ``aligned_matrices``; a
    ``max_dim`` cap cuts each view's SVD inside fit_cca, so projecting raw
    vectors stays a single centering + matrix product."""
    X, Y = aligned_matrices(t1, t2, lexicon)
    return fit_cca(X, Y, eps=eps, components=components, max_dim=max_dim,
                   languages=(t1.language, t2.language))


def project_concat(
    t1: VectorTable,
    t2: VectorTable,
    lexicon: TranslationLexicon,
    model: CcaModel,
    side: str | None = None,
) -> VectorTable:
    """Multilingual vectors: per lexicon row, center and project each
    language's unit-normalised vector and concatenate the halves
    (dimension 2m). With ``side`` set to "l1" or "l2" only that
    projection is used (dimension m).

    The result is keyed by the first language's word. A word in several
    rows keeps the position of its first row and the vector of its last.
    """
    if side not in (None, "l1", "l2"):
        raise ArgumentError(f"side must be None, 'l1' or 'l2', got {side!r}")
    X, Y = aligned_matrices(t1, t2, lexicon)
    halves = []
    if side != "l2":
        halves.append((X, model.mean_1, model.projection_1))
    if side != "l1":
        halves.append((Y, model.mean_2, model.projection_2))
    last_row = {w: i for i, w in enumerate(lexicon.column(t1.language))}
    rows = list(last_row.values())
    # a 1 x d product per row: a matrix product changes the last bits
    matrix = np.hstack([((M - mean)[:, None, :] @ projection)[rows, 0, :]
                        for M, mean, projection in halves])
    return VectorTable(t1.language, tuple(last_row), matrix)


@dataclass
class BaselineResult:
    mean_rho: float
    rhos: tuple[float, ...]
    failures: int


def monolingual_baseline(
    corpus: Corpus,
    build,
    pairs: WordPairList,
    human: ScoreVector,
    combiner: str = "li",
    fraction: float = 0.8,
    reps: int = 5,
    seed: int = 0,
) -> BaselineResult:
    """Combine two models trained on independent ``fraction`` resamples of
    the same corpus and correlate with human scores, averaged over reps.
    "li" interpolates with lambda 0.5; "cca" regularises with eps 1e-8.

    ``build`` maps a Corpus to a VectorTable. Repetitions whose coverage
    collapses (fewer than 2 common covered pairs, or a constant score
    vector) are recorded as failures and excluded from the mean.
    """
    if combiner not in ("li", "cca"):
        raise ArgumentError(f"unknown combiner {combiner!r}")
    if reps < 1:
        raise ArgumentError(f"reps must be >= 1, got {reps}")
    if seed < 0:
        raise ArgumentError(f"seed must be >= 0, got {seed}")
    seeds = np.random.SeedSequence(seed).generate_state(2 * reps)
    rhos = []
    failures = 0
    for rep in range(reps):
        c1 = sample_corpus(corpus, fraction, int(seeds[2 * rep]))
        c2 = sample_corpus(corpus, fraction, int(seeds[2 * rep + 1]))
        m1 = build(c1)
        m2 = build(c2)
        try:
            if combiner == "li":
                s1, s2 = align_scores(
                    score_pairs(m1, pairs, oov_policy="skip"),
                    score_pairs(m2, pairs, oov_policy="skip"),
                )
                combined = interpolate_scores(s1, s2, 0.5)
            else:
                words = sorted(
                    {w for p in pairs.pairs for w in p
                     if w in m1 and w in m2}
                )
                lexicon = TranslationLexicon(
                    languages=(m1.language, m2.language),
                    rows=tuple((w, w) for w in words),
                )
                model = fit_cca_tables(m1, m2, lexicon, eps=1e-8)
                table = project_concat(m1, m2, lexicon, model)
                combined = score_pairs(table, pairs, oov_policy="skip")
            combined, covered_human = align_scores(combined, human)
            if len(combined.scores) < 2:
                raise DegenerateError("coverage collapse")
            rhos.append(spearman(combined.as_array(),
                                 covered_human.as_array()))
        except DegenerateError:
            failures += 1
    if not rhos:
        raise DegenerateError("all baseline repetitions failed")
    return BaselineResult(
        mean_rho=float(np.mean(rhos)), rhos=tuple(rhos), failures=failures
    )


def save_cca_model(model: CcaModel, path) -> None:
    """Text dump: header ``l1 l2 d1 d2 m eps 1`` (the 1: rows are
    unit-normalised before projecting) then means, correlations and the
    two projection matrices row by row. A model without a component or
    without a dimension in a view, or with a value that is not finite,
    which ``load_cca_model`` refuses, is refused before the file is
    opened."""
    for language in model.languages:
        if language.split() != [language]:
            raise FormatError(f"language code {language!r} is empty or "
                              "contains whitespace", path=path)
    if model.n_components == 0:
        raise FormatError("a CCA model needs a component", path=path)
    d1 = model.projection_1.shape[0]
    d2 = model.projection_2.shape[0]
    if 0 in (d1, d2):
        # its mean row would be a blank line, which the reader skips
        raise FormatError("a CCA model needs a dimension in each view",
                          path=path)
    arrays = (model.mean_1, model.mean_2, model.correlations,
              model.projection_1, model.projection_2, model.regularization)
    if not all(np.isfinite(a).all() for a in arrays):
        raise FormatError("non-finite value in the CCA model", path=path)
    eps = float(model.regularization)
    header = (f"{model.languages[0]} {model.languages[1]} "
              f"{d1} {d2} {model.n_components} {eps!r} 1")
    vectors = chain((model.mean_1, model.mean_2, model.correlations),
                    model.projection_1, model.projection_2)
    rows = (" ".join(repr(float(v)) for v in vec) for vec in vectors)
    write_lines(path, chain([header], rows))


def load_cca_model(path) -> CcaModel:
    """Inverse of save_cca_model; the header may omit its last field."""
    lines = read_lines(path)
    lineno, first = next(lines, (1, ""))
    header = first.split()
    if len(header) not in (6, 7) or header[6:] not in ([], ["1"]):
        raise FormatError("bad CCA model header", path=path, line=lineno)
    try:
        d1, d2, m = (int(numeric(field)) for field in header[2:5])
        eps = float(numeric(header[5]))
    except ValueError:
        raise FormatError("non-numeric CCA model header field",
                          path=path, line=lineno)
    if not np.isfinite(eps):
        raise FormatError("non-finite eps", path=path, line=lineno)
    body = list(lines)
    if len(body) != 3 + d1 + d2:
        raise FormatError(
            f"expected {3 + d1 + d2} data rows, got {len(body)}", path=path
        )
    rows = []
    for (lineno, line), width in zip(body, chain((d1, d2, m), repeat(m))):
        fields = line.split()
        if len(fields) != width:
            raise FormatError(f"expected {width} values, got {len(fields)}",
                              path=path, line=lineno)
        try:
            row = np.array([numeric(f) for f in fields], dtype=float)
        except ValueError:
            raise FormatError("non-numeric value", path=path, line=lineno)
        if not np.all(np.isfinite(row)):
            raise FormatError("non-finite value", path=path, line=lineno)
        rows.append(row)
    return CcaModel(
        languages=(header[0], header[1]),
        mean_1=rows[0],
        mean_2=rows[1],
        correlations=rows[2],
        projection_1=np.stack(rows[3:3 + d1]),
        projection_2=np.stack(rows[3 + d1:]),
        regularization=eps,
    )


def load_lexicon(path) -> TranslationLexicon:
    """TSV with a header row of language codes and one aligned tuple per
    line."""
    lines = read_rows(path)
    lineno, languages = next(lines, (None, None))
    if languages is None:
        raise FormatError("empty lexicon", path=path)
    if len(set(languages)) < len(languages):
        raise FormatError("a language heads more than one column",
                          path=path, line=lineno)
    rows = []
    for lineno, row in lines:
        if len(row) != len(languages):
            raise FormatError(f"expected {len(languages)} columns",
                              path=path, line=lineno)
        if not all(row):
            raise FormatError("empty cell", path=path, line=lineno)
        rows.append(tuple(row))
    return TranslationLexicon(languages=tuple(languages), rows=tuple(rows))


def save_lexicon(lexicon: TranslationLexicon, path) -> None:
    if len(set(lexicon.languages)) < len(lexicon.languages):
        raise FormatError("a language heads more than one column", path=path)
    for row in (lexicon.languages, *lexicon.rows):
        check_cells(row, path)
        if not "".join(row).strip() or row[0].startswith("#"):
            raise FormatError(f"row {row!r} would read as a blank line or "
                              "a comment", path=path)
    write_lines(path, map("\t".join, (lexicon.languages, *lexicon.rows)))
