"""Independent brute-force oracles used to cross-check the library.

Everything here deliberately takes the slow, obvious route: explicit pair
enumeration, scalar formula evaluation, numerical quadrature, and the
generalized eigenproblem form of CCA. ``load_vectors_linewise`` reads
word2vec text with one ``str.split`` per line into a dict of vectors;
``load_vectors`` must load what it loads and refuse what it refuses.
``porter_stem_reference`` is the Porter stemmer as first written, one
recursive consonant test per letter and every table entry tried in turn.
``ppmi_dense_reference`` is PPMI as first written, over the dense count
matrix with every cell's log taken. ``outlier_statistics_bruteforce`` is
the annotator outlier statistic as first written, one ``np.delete`` per
column. ``centred_ranks_reference`` and ``ranked_spearman_reference`` are
the agreement walk's Spearman as first written, on float64 half-integer
centred ranks.
"""

import math
import warnings

import numpy as np
import scipy.integrate
import scipy.linalg

from vsmeval.errors import DegenerateError, FormatError
from vsmeval.textfile import read_lines
from vsmeval.vectors import VectorTable


def average_ranks_bruteforce(values):
    """O(n^2) average ranks (ascending): 1 + #smaller + (#equal - 1) / 2."""
    values = list(values)
    ranks = []
    for v in values:
        smaller = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        ranks.append(1.0 + smaller + (equal - 1) / 2.0)
    return ranks


def pearson_formula(x, y):
    """Textbook product-moment formula evaluated with plain sums."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    den = math.sqrt(
        sum((a - mx) ** 2 for a in x) * sum((b - my) ** 2 for b in y)
    )
    return num / den


def spearman_bruteforce(x, y):
    return pearson_formula(average_ranks_bruteforce(x),
                           average_ranks_bruteforce(y))


def kendall_tau_b_bruteforce(x, y):
    """Explicit O(n^2) concordant/discordant/tie counting."""
    n = len(x)
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx == 0:
                ties_x += 1
            if dy == 0:
                ties_y += 1
            if dx * dy > 0:
                concordant += 1
            elif dx * dy < 0:
                discordant += 1
    n0 = n * (n - 1) // 2
    return (concordant - discordant) / math.sqrt(
        (n0 - ties_x) * (n0 - ties_y)
    )


def t_density(x, df):
    logc = (
        math.lgamma((df + 1) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )
    return math.exp(logc - (df + 1) / 2.0 * math.log1p(x * x / df))


def t_sf_quadrature(t, df):
    """P(T > t) by numerical integration of the t density."""
    if t < 0:
        return 1.0 - t_sf_quadrature(-t, df)
    tail, _ = scipy.integrate.quad(
        t_density, t, np.inf, args=(df,), epsabs=1e-13, epsrel=1e-12
    )
    return tail


def welch_p_quadrature(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    sa = a.var(ddof=1) / len(a)
    sb = b.var(ddof=1) / len(b)
    t = (a.mean() - b.mean()) / math.sqrt(sa + sb)
    df = (sa + sb) ** 2 / (sa**2 / (len(a) - 1) + sb**2 / (len(b) - 1))
    return 2.0 * t_sf_quadrature(abs(t), df)


def outlier_statistics_bruteforce(batch_scores):
    """The annotator outlier statistic of each column, one column at a
    time: |mean_j - mean of the others' means| over the sample standard
    deviation of the others' means, +inf or 0 when their spread is zero
    (the same zero-spread cutoff as ``detect_outliers``)."""
    batch_scores = np.ascontiguousarray(batch_scores, dtype=float)
    means = np.nanmean(batch_scores, axis=0)
    tol = 1e-9 * max(1.0, float(np.abs(means).max()))
    stats = np.empty(len(means))
    for j in range(len(means)):
        others = np.delete(means, j)
        spread = others.std(ddof=1)
        diff = abs(means[j] - others.mean())
        if spread <= tol:
            stats[j] = np.inf if diff > tol else 0.0
        else:
            stats[j] = diff / spread
    return stats


def centred_ranks_reference(x):
    """Average ranks of each column less their mean, (n + 1) / 2, and
    each column's sum of squares: half-integers and their exact sums."""
    from scipy.stats import rankdata
    r = rankdata(x, axis=0)
    r -= (len(r) + 1) / 2
    return r, np.einsum("ij,ij->j", r, r)


def ranked_spearman_reference(a, b):
    """Spearman rho per column from two ``centred_ranks_reference``
    results; NaN where a side is constant."""
    (ra, ssa), (rb, ssb) = a, b
    denom = np.sqrt(ssa * ssb)
    num = np.einsum("ij,ij->j", ra, rb)
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = np.where(denom > 0, num / np.maximum(denom, 1e-300), np.nan)
    return np.clip(rho, -1.0, 1.0)


def cooccurrence_bruteforce(sentences, targets, contexts, window):
    """Count every position pair (i, j), 0 < |i - j| <= window, in-sentence."""
    targets = set(targets)
    contexts = list(contexts)
    counts = {}
    for sent in sentences:
        for i, w in enumerate(sent):
            if w not in targets:
                continue
            for j, c in enumerate(sent):
                if j == i or abs(i - j) > window:
                    continue
                if c in contexts:
                    counts[(w, c)] = counts.get((w, c), 0) + 1
    return counts


def ppmi_scalar(count, row_sum, col_sum, total):
    if count == 0 or row_sum == 0 or col_sum == 0:
        return 0.0
    return max(0.0, math.log(count * total / (row_sum * col_sum)))


def dense_counts(m):
    """The dense |rows| x k int64 array of a CountMatrix's triplets; the
    inverse of ``conftest.dense_count_matrix``."""
    dense = np.zeros((len(m.row_words), len(m.col_words)), np.int64)
    dense[m.rows, m.cols] = m.values
    return dense


def ppmi_dense_reference(m):
    """entry(w, c) = max(0, ln(n(w,c) * total / (row_sum(w) * col_sum(c)))).

    Marginals come from the matrix itself; rows that never co-occur with
    any context become zero vectors. Natural log; the choice of base only
    rescales the whole table and leaves cosine untouched. Dense throughout:
    ``ppmi_transform`` must return what this returns, bit for bit.
    """
    total = m.total
    if total == 0:
        raise DegenerateError("PPMI of an all-zero count matrix is undefined")
    counts = dense_counts(m).astype(float)
    row_sums = counts.sum(axis=1, keepdims=True)
    col_sums = counts.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        pmi = np.log(counts * total) - np.log(row_sums * col_sums)
    ppmi = np.where(counts > 0, np.maximum(pmi, 0.0), 0.0)
    return VectorTable(m.language, m.row_words, ppmi)


def cca_correlations_eigen(X, Y, eps=1e-8):
    """Canonical correlations from the generalized eigenproblem
    Cxy Cyy^-1 Cyx a = rho^2 Cxx a, on the same eps-regularized
    covariances the implementation uses."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    Xc = X - X.mean(axis=0)
    Yc = Y - Y.mean(axis=0)
    n = X.shape[0] - 1
    cxx = Xc.T @ Xc / n + eps * np.eye(X.shape[1])
    cyy = Yc.T @ Yc / n + eps * np.eye(Y.shape[1])
    cxy = Xc.T @ Yc / n
    lhs = cxy @ np.linalg.solve(cyy, cxy.T)
    evals = scipy.linalg.eigh(lhs, cxx, eigvals_only=True)
    evals = np.clip(evals, 0.0, None)
    rho = np.sqrt(np.sort(evals)[::-1])
    m = min(X.shape[1], Y.shape[1])
    return np.clip(rho[:m], 0.0, 1.0)


def quintile_fscores_sets(order1, order2, sizes):
    """Set-intersection F per corresponding block of two orderings."""
    f = []
    start = 0
    for size in sizes:
        a = set(order1[start:start + size])
        b = set(order2[start:start + size])
        f.append(2 * len(a & b) / (len(a) + len(b)))
        start += size
    return f


def load_vectors_linewise(path, language: str) -> VectorTable:
    """The line loop: reads any spelling of the format, and is the one
    place that refuses a malformed file or warns of a duplicate word."""
    vectors: dict[str, np.ndarray] = {}
    lines = read_lines(path)
    lineno, header = next(lines, (1, ""))
    parts = header.split()
    if len(parts) != 2:
        raise FormatError("expected header '<vocab_size> <dimension>'",
                          path=path, line=lineno)
    numbers = "".join(parts)
    try:
        if "_" in numbers or not numbers.isascii():
            raise ValueError(numbers)
        vocab_size, dimension = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError("non-integer header fields", path=path, line=lineno)
    if vocab_size < 0 or dimension < 0:
        raise FormatError("negative header field", path=path, line=lineno)
    for lineno, line in lines:
        fields = line.split()
        if len(fields) != dimension + 1:
            raise FormatError(
                f"expected {dimension + 1} fields, got {len(fields)}",
                path=path, line=lineno,
            )
        word = fields[0]
        numbers = "".join(fields[1:])
        try:
            if "_" in numbers or not numbers.isascii():
                raise ValueError(numbers)
            vec = np.fromiter(map(float, fields[1:]), float, count=dimension)
        except ValueError:
            raise FormatError("unparseable float", path=path, line=lineno)
        if not np.all(np.isfinite(vec)):
            raise FormatError(
                f"non-finite value in vector for {word!r}",
                path=path, line=lineno,
            )
        if word in vectors:
            warnings.warn(
                f"duplicate word {word!r} at line {lineno}; "
                "keeping the last occurrence"
            )
        vectors[word] = vec
        if len(vectors) > vocab_size:
            raise FormatError(
                f"more than the declared {vocab_size} words",
                path=path, line=lineno,
            )
    if len(vectors) != vocab_size:
        raise FormatError(
            f"header declares {vocab_size} words but body has {len(vectors)}",
            path=path,
        )
    matrix = np.array(list(vectors.values()), dtype=float)
    return VectorTable(language, tuple(vectors),
                       matrix.reshape(len(vectors), dimension))


_VOWELS = "aeiou"


def _is_consonant(word, i):
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem):
    # number of VC alternations in the c*(VC)^m v* decomposition
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        vowel = not _is_consonant(stem, i)
        if prev_vowel and not vowel:
            m += 1
        prev_vowel = vowel
    return m


def _contains_vowel(stem):
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word):
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word):
    if len(word) < 3:
        return False
    if not (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
    ):
        return False
    return word[-1] not in "wxy"


def _replace(word, suffix, repl, min_measure):
    stem = word[: len(word) - len(suffix)]
    if _measure(stem) > min_measure:
        return stem + repl
    return word


def _step1a(w):
    if w.endswith("sses"):
        return w[:-2]
    if w.endswith("ies"):
        return w[:-2]
    if w.endswith("ss"):
        return w
    if w.endswith("s"):
        return w[:-1]
    return w


def _step1b(w):
    if w.endswith("eed"):
        stem = w[:-3]
        if _measure(stem) > 0:
            return w[:-1]
        return w
    flag = False
    if w.endswith("ed") and _contains_vowel(w[:-2]):
        w, flag = w[:-2], True
    elif w.endswith("ing") and _contains_vowel(w[:-3]):
        w, flag = w[:-3], True
    if flag:
        if w.endswith(("at", "bl", "iz")):
            return w + "e"
        if _ends_double_consonant(w) and w[-1] not in "lsz":
            return w[:-1]
        if _measure(w) == 1 and _ends_cvc(w):
            return w + "e"
    return w


def _step1c(w):
    if w.endswith("y") and _contains_vowel(w[:-1]):
        return w[:-1] + "i"
    return w


_STEP2 = [
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
]

_STEP3 = [
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
]

_STEP4 = [
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
]


def _step2(w):
    for suffix, repl in _STEP2:
        if w.endswith(suffix):
            return _replace(w, suffix, repl, 0)
    return w


def _step3(w):
    for suffix, repl in _STEP3:
        if w.endswith(suffix):
            return _replace(w, suffix, repl, 0)
    return w


def _step4(w):
    for suffix in _STEP4:
        if w.endswith(suffix):
            stem = w[: len(w) - len(suffix)]
            if suffix == "ion" and not stem.endswith(("s", "t")):
                return w
            if _measure(stem) > 1:
                return stem
            return w
    return w


def _step5(w):
    if w.endswith("e"):
        stem = w[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            w = stem
    if _ends_double_consonant(w) and w.endswith("l") and _measure(w[:-1]) > 1:
        w = w[:-1]
    return w


def porter_stem_reference(word: str) -> str:
    """Porter (1980) with a recursive consonant test and a scan of every
    table entry: ``porter_stem`` must return what this returns."""
    w = word.lower()
    if len(w) <= 2:
        return w
    for step in (_step1a, _step1b, _step1c, _step2, _step3, _step4, _step5):
        w = step(w)
    return w
