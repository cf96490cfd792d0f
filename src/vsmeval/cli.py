"""Command-line pipelines from corpora and score tables to report files.

Every command is deterministic given its manifest; stochastic commands
require an explicit --seed. Exit codes: 0 success, 2 usage/validation
error, 3 data/format error, 4 numerical degeneracy.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain

from . import __version__, floattext
from .agreement import (
    apply_outlier_filter,
    cross_language_agreement,
    human_mean_scores,
    load_evaluation_set,
    quintile_agreement_analysis,
    save_evaluation_set,
    within_language_agreement,
)
from .bow import build_bow_table
from .combine import (
    fit_cca_tables,
    interpolate_scores,
    load_lexicon,
    monolingual_baseline,
    project_concat,
    save_cca_model,
)
from .corpus import (
    build_vocabulary,
    clean_tokens,
    read_corpus,
    read_wordlist,
    sample_corpus,
    write_corpus,
)
from .errors import (
    AlignmentError,
    ArgumentError,
    DegenerateError,
    FormatError,
    ValidationError,
    WordLookupError,
)
from .manifest import manifest_lines
from .scoring import (
    align_scores,
    check_one_per_language,
    read_pair_list,
    read_scores,
    score_pairs,
    vocabulary_coverage,
    write_coverage,
    write_scores,
)
from .stats import kendall_tau_b, pearson, quintile_fscore, spearman
from .textfile import read_rows, write_lines
from .vectors import load_vectors, save_vectors

USAGE_EXIT = 2
DATA_EXIT = 3
DEGENERATE_EXIT = 4

_CORRELATIONS = {
    "spearman": spearman,
    "pearson": pearson,
    "kendall": kendall_tau_b,
}


def _fmt(x) -> str:
    """Round-tripping text form of a scalar statistic."""
    return repr(float(x))


def _parse_tagged(value: str) -> tuple[str, str]:
    """'lang=path' -> (lang, path); a language code is one word, as
    every file that records one needs."""
    lang, sep, path = value.partition("=")
    if not sep:
        raise ArgumentError(f"expected LANG=PATH, got {value!r}")
    if lang.split() != [lang]:
        raise ArgumentError(f"language code {lang!r} is empty or contains "
                            "whitespace")
    return lang, path


def _load_tagged(values, loader):
    """The paths of 'LANG=PATH' arguments and ``loader(path,
    language=LANG)`` of each; every argument is parsed before any load."""
    tagged = [_parse_tagged(v) for v in values or []]
    return ([path for _, path in tagged],
            [loader(path, language=lang) for lang, path in tagged])


def _target_words(path):
    """Target list for BOW rows: a plain wordlist, or a pair file, whose
    first line that is not blank or a # comment has more than one cell."""
    _, first_row = next(read_rows(path), (None, []))
    if len(first_row) > 1:
        words = sorted({w for p in read_pair_list(path).pairs for w in p})
    else:
        words = list(read_wordlist(path))
    if not words:
        raise FormatError("no target word", path=path)
    return words


def cmd_build_bow(args) -> int:
    corpus = read_corpus(args.corpus, args.language,
                         sentence_per_line=not args.document_mode)
    if args.clean:
        stopwords = (
            set(read_wordlist(args.stopwords)) if args.stopwords else None
        )
        corpus = clean_tokens(corpus, stopwords=stopwords)
    vocab = build_vocabulary(corpus)
    targets = _target_words(args.targets)
    table = build_bow_table(corpus, targets, vocab,
                            k=args.k, window=args.window)
    save_vectors(table, args.out)
    return 0


def cmd_sample(args) -> int:
    corpus = read_corpus(args.corpus, args.language)
    sampled = sample_corpus(corpus, args.fraction, args.seed)
    write_corpus(sampled, args.out)
    return 0


def cmd_score(args) -> int:
    table = load_vectors(args.vectors, language=args.language)
    pairs = read_pair_list(args.pairs)
    if not pairs:
        raise FormatError("empty pair file", path=args.pairs)
    scores = score_pairs(table, pairs, oov_policy=args.oov_policy)
    manifest = manifest_lines(
        "score",
        {"oov_policy": args.oov_policy, "language": args.language},
        [args.vectors, args.pairs],
    )
    write_scores(scores, pairs, args.out, header_lines=manifest)
    return 0


def cmd_eval(args) -> int:
    table = load_vectors(args.vectors, language=args.language)
    evaluation_set = load_evaluation_set(args.evalset)
    human = human_mean_scores(evaluation_set)
    model = score_pairs(table, evaluation_set.pairs, oov_policy="skip")
    covered, human = align_scores(model, human)
    if len(covered.scores) < 2:
        raise DegenerateError("fewer than 2 covered pairs")
    corr = _CORRELATIONS[args.correlation]
    value = corr(covered.as_array(), human.as_array())
    manifest = manifest_lines(
        "eval", {"correlation": args.correlation},
        [args.vectors, args.evalset],
    )
    lines = ["statistic\tvalue\tcovered_pairs\tskipped_pairs",
             f"{args.correlation}\t{_fmt(value)}\t{len(covered.scores)}\t"
             f"{len(model.skipped)}"]
    if args.out:
        write_lines(args.out, lines, manifest)
    print(*lines, sep="\n")
    return 0


def _mode_sets(args):
    """Paths and sets of a within (one set) or cross (two sets) command;
    the count is checked before any file is read."""
    count = len(args.evalset or [])
    if args.mode == "within" and count != 1:
        raise ArgumentError("within mode takes exactly one evaluation set")
    if args.mode == "cross" and count != 2:
        raise ArgumentError("cross mode takes exactly two evaluation sets")
    return _load_tagged(args.evalset, load_evaluation_set)


def cmd_agree(args) -> int:
    paths, sets = _mode_sets(args)
    if args.mode == "within":
        report = within_language_agreement(*sets, K=args.subset_size)
    else:
        report = cross_language_agreement(*sets, K=args.subset_size)
    manifest = manifest_lines(
        "agree", {"mode": args.mode, "K": args.subset_size}, paths,
    )
    row = (f"{report.label}\t{_fmt(report.mean)}\t{_fmt(report.std)}\t"
           f"{report.sample_count}\t{report.degenerate_count}")
    write_lines(args.out, ["label\tmean\tstd\tsamples\tdegenerate", row],
                manifest)
    if args.samples_out:
        write_lines(args.samples_out,
                    chain(["rho"], floattext.lines(report.samples[:, None])),
                    manifest)
    print(row)
    return 0


def cmd_quintiles(args) -> int:
    if args.mode in ("within", "cross"):
        inputs, sets = _mode_sets(args)
        f_scores = quintile_agreement_analysis(*sets, K=args.subset_size,
                                              q=args.quantiles)
    else:  # model-human
        if not (args.scores and args.evalset and len(args.evalset) == 1):
            raise ArgumentError(
                "model-human mode needs --scores and one evaluation set"
            )
        paths, (evaluation_set,) = _load_tagged(args.evalset,
                                                load_evaluation_set)
        model, human = align_scores(
            read_scores(args.scores),
            human_mean_scores(evaluation_set),
        )
        if len(model.scores) < args.quantiles:
            raise DegenerateError("too few covered pairs for quantile split")
        f_scores = quintile_fscore(model.as_array(), human.as_array(),
                                   q=args.quantiles)
        inputs = [args.scores, *paths]
    manifest = manifest_lines(
        "quintiles",
        {"mode": args.mode, "q": args.quantiles, "K": args.subset_size},
        inputs,
    )
    rows = [f"{i + 1}\t{_fmt(f)}" for i, f in enumerate(f_scores)]
    write_lines(args.out, ["quintile\tf_score", *rows], manifest)
    print(*rows, sep="\n")
    return 0


def cmd_combine(args) -> int:
    if args.method == "li":
        if not args.scores:
            raise ArgumentError("li needs exactly two --scores files")
        s1, s2 = align_scores(
            read_scores(args.scores[0]),
            read_scores(args.scores[1]),
        )
        if not s1.scores:
            raise AlignmentError("score files share no pair indices")
        combined = interpolate_scores(s1, s2, args.lam)
        manifest = manifest_lines(
            "combine", {"method": "li", "lambda": args.lam}, args.scores
        )
        write_scores(combined, read_pair_list(args.scores[0]), args.out,
                     header_lines=manifest)
        return 0
    # cca
    if not args.vectors or not args.lexicon:
        raise ArgumentError("cca needs two --vectors (LANG=PATH) and "
                            "--lexicon")
    (path1, path2), (t1, t2) = _load_tagged(args.vectors, load_vectors)
    check_one_per_language((t1, t2), "vector table")
    lexicon = load_lexicon(args.lexicon)
    model = fit_cca_tables(
        t1, t2, lexicon, eps=args.eps, components=args.components,
        max_dim=args.max_dim,
    )
    combined = project_concat(t1, t2, lexicon, model, side=args.side)
    save_vectors(combined, args.out)
    if args.model_out:
        save_cca_model(model, args.model_out)
    if args.report_out:
        manifest = manifest_lines(
            "combine",
            {"method": "cca", "eps": args.eps,
             "components": args.components, "side": args.side,
             "max_dim": args.max_dim},
            [path1, path2, args.lexicon],
        )
        rows = [f"{i + 1}\t{_fmt(c)}"
                for i, c in enumerate(model.correlations)]
        write_lines(args.report_out, ["component\tcorrelation", *rows],
                    manifest)
    return 0


def cmd_qc(args) -> int:
    evaluation_set = load_evaluation_set(args.scores)
    cleaned, results = apply_outlier_filter(
        evaluation_set, threshold=args.threshold, iterate=args.iterate
    )
    manifest = manifest_lines(
        "qc", {"threshold": args.threshold, "iterate": args.iterate},
        [args.scores],
    )
    save_evaluation_set(cleaned, args.out, header_lines=manifest)
    if args.log:
        lines = ["batch\tannotator\tstatistic\tverdict"]
        for b in sorted(results):
            result = results[b]
            for j, stat in zip(result.screened, result.statistics):
                verdict = "excluded" if j in result.excluded else "kept"
                lines.append(f"{b}\ta{j + 1:02d}\t{_fmt(stat)}\t{verdict}")
        write_lines(args.log, lines, manifest)
    n_excluded = sum(len(r.excluded) for r in results.values())
    print(f"excluded {n_excluded} annotator/batch assignments")
    return 0


def cmd_coverage(args) -> int:
    vector_paths, tables = _load_tagged(args.vectors, load_vectors)
    evalset_paths, sets = _load_tagged(args.evalset, load_evaluation_set)
    report = vocabulary_coverage(tables, sets)
    manifest = manifest_lines("coverage", {},
                              [*vector_paths, *evalset_paths])
    write_coverage(report, sets[0], args.out, header_lines=manifest)
    print(f"covered {len(report.covered)} / excluded {len(report.excluded)}")
    return 0


def cmd_baseline(args) -> int:
    corpus = read_corpus(args.corpus, args.language)
    if args.clean:
        corpus = clean_tokens(corpus)
    evaluation_set = load_evaluation_set(args.evalset)
    human = human_mean_scores(evaluation_set)
    targets = sorted({w for p in evaluation_set.pairs.pairs for w in p})

    def build(c):
        vocab = build_vocabulary(c)
        k = min(args.k, len(vocab))
        return build_bow_table(c, targets, vocab, k=k, window=args.window)

    result = monolingual_baseline(
        corpus, build, evaluation_set.pairs, human,
        combiner=args.method, fraction=args.fraction,
        reps=args.reps, seed=args.seed,
    )
    manifest = manifest_lines(
        "baseline",
        {"method": args.method, "fraction": args.fraction,
         "reps": args.reps, "seed": args.seed, "k": args.k,
         "window": args.window},
        [args.corpus, args.evalset],
    )
    rows = [f"{i + 1}\t{_fmt(rho)}" for i, rho in enumerate(result.rhos)]
    write_lines(args.out, ["rep\trho", *rows,
                           f"mean\t{_fmt(result.mean_rho)}",
                           f"failures\t{result.failures}"], manifest)
    print(f"mean rho {_fmt(result.mean_rho)} over {len(result.rhos)} reps")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vsmeval",
        description=__doc__,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-bow", help="PPMI bag-of-words vectors")
    p.add_argument("--corpus", required=True)
    p.add_argument("--language", default="und")
    p.add_argument("--targets", required=True,
                   help="wordlist or pair/evalset TSV for the matrix rows")
    p.add_argument("--k", type=int, default=10000)
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--clean", action="store_true")
    p.add_argument("--stopwords")
    p.add_argument("--document-mode", action="store_true",
                   help="split sentences on punctuation, not one per line")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_bow)

    p = sub.add_parser("sample", help="reproducible sentence subsample")
    p.add_argument("--corpus", required=True)
    p.add_argument("--language", default="und")
    p.add_argument("--fraction", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("score", help="cosine scores for word pairs")
    p.add_argument("--vectors", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--language", default="und")
    p.add_argument("--oov-policy", choices=["skip", "error"],
                   default="skip")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval", help="model vs human-mean correlation")
    p.add_argument("--vectors", required=True)
    p.add_argument("--evalset", required=True)
    p.add_argument("--language", default="und", help="training language")
    p.add_argument("--correlation", choices=sorted(_CORRELATIONS),
                   default="spearman")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("agree", help="K-subset agreement statistics")
    p.add_argument("--mode", choices=["within", "cross"], required=True)
    p.add_argument("--evalset", action="append", required=True,
                   metavar="LANG=PATH")
    p.add_argument("--subset-size", type=int, default=6)
    p.add_argument("--out", required=True)
    p.add_argument("--samples-out")
    p.set_defaults(func=cmd_agree)

    p = sub.add_parser("quintiles", help="per-quintile relative F overlap")
    p.add_argument("--mode", choices=["within", "cross", "model-human"],
                   required=True)
    p.add_argument("--evalset", action="append", metavar="LANG=PATH")
    p.add_argument("--scores", help="model score TSV (model-human mode)")
    p.add_argument("--subset-size", type=int, default=6)
    p.add_argument("--quantiles", type=int, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_quintiles)

    p = sub.add_parser("combine", help="linear interpolation or CCA")
    p.add_argument("--method", choices=["li", "cca"], required=True)
    p.add_argument("--scores", nargs=2, help="two score TSVs (li)")
    p.add_argument("--lam", type=float, default=0.5)
    p.add_argument("--vectors", nargs=2, metavar="LANG=PATH",
                   help="two vector tables (cca)")
    p.add_argument("--lexicon", help="aligned word tuples TSV (cca)")
    p.add_argument("--eps", type=float, default=1e-8)
    p.add_argument("--components", type=int)
    p.add_argument("--max-dim", type=int)
    p.add_argument("--side", choices=["l1", "l2"],
                   help="projected-only variant")
    p.add_argument("--out", required=True)
    p.add_argument("--model-out")
    p.add_argument("--report-out")
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("qc", help="annotator outlier screening")
    p.add_argument("--scores", required=True, help="raw evaluation set TSV")
    p.add_argument("--threshold", type=float, default=1.45)
    p.add_argument("--iterate", action="store_true",
                   help="repeat exclusion to a fixpoint")
    p.add_argument("--out", required=True)
    p.add_argument("--log")
    p.set_defaults(func=cmd_qc)

    p = sub.add_parser("coverage", help="cross-language pair coverage")
    p.add_argument("--vectors", action="append", required=True,
                   metavar="LANG=PATH")
    p.add_argument("--evalset", action="append", required=True,
                   metavar="LANG=PATH")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("baseline", help="monolingual 80%-resample baseline")
    p.add_argument("--corpus", required=True)
    p.add_argument("--language", default="und")
    p.add_argument("--evalset", required=True)
    p.add_argument("--method", choices=["li", "cca"], default="li")
    p.add_argument("--fraction", type=float, default=0.8)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--k", type=int, default=10000)
    p.add_argument("--window", type=int, default=2)
    p.add_argument("--clean", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_baseline)

    return parser


def _check_distinct_outputs(args) -> None:
    """Refuse, before any input is read, an output path that names a
    directory or lies in a directory that does not exist, and two output
    options that name one file: the second write would replace the
    first."""
    seen = {}
    for name in ("out", "samples_out", "log", "model_out", "report_out"):
        path = getattr(args, name, None)
        if path is None:
            continue
        option = "--" + name.replace("_", "-")
        if os.path.isdir(path):
            raise ArgumentError(f"{option} names a directory: {path}")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ArgumentError(f"{option} names a file in a directory that "
                                f"does not exist: {path}")
        real = os.path.realpath(path)
        if real in seen:
            raise ArgumentError(f"{seen[real]} and {option} name one file: "
                                f"{path}")
        seen[real] = option


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_distinct_outputs(args)
        return args.func(args)
    except (ArgumentError, ValidationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (FormatError, AlignmentError, WordLookupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except DegenerateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DEGENERATE_EXIT


if __name__ == "__main__":
    sys.exit(main())
