"""Span tracer that wraps vsmeval's public functions from outside.

Each wrapped function is replaced, in every module namespace the CLI or
the library looks it up from, by a wrapper that records a span (name,
start, end, parent) and updates named counters from the call's arguments
and result. Nothing under ``src/`` changes; ``restore`` puts every
original back. Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Spans whose own (self) time the tracer cannot break down further: the
# CLI command bodies and the library's orchestration functions. Their self
# time is what ``trace.coverage`` counts as unattributed.
DRIVERS = ("cli.", "bench.", "bow.build", "agreement.significance",
           "combine.fit_cca_tables", "combine.baseline")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.seen: defaultdict = defaultdict(set)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index] = (name, start, time.perf_counter(), parent)
            self._stack.pop()

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        for seen in self.seen.values():
            seen.clear()

    # -- patching -----------------------------------------------------

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            old = owner[key]
            owner[key] = value
        else:
            old = getattr(owner, key)
            setattr(owner, key, value)
        self._patched.append((owner, key, old))

    def wrap(self, owner, key, name, on_result=None):
        """Record a span ``name`` around ``owner.key`` (or ``owner[key]``
        for a dict), then call ``on_result(self, args, kwargs, result)``
        outside the span."""
        original = owner[key] if isinstance(owner, dict) else \
            getattr(owner, key)
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        self._set(owner, key, traced)

    def count_calls(self, owner, key, counter):
        """Count calls and distinct first arguments, without spans, for
        functions called once per token."""
        original = getattr(owner, key)
        counts, seen = self.counts, self.seen[counter]

        def counted(arg, *rest, **kwargs):
            counts[counter] += 1
            seen.add(arg)
            return original(arg, *rest, **kwargs)

        self._set(owner, key, counted)

    def restore(self):
        for owner, key, old in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._patched.clear()


# -- counters taken from arguments and results ---------------------------

def _corpus_read(t, args, kwargs, corpus):
    t.counts["corpus.tokens"] += corpus.token_count
    t.counts["corpus.types"] += corpus.type_count
    t.counts["corpus.sentences"] += len(corpus.sentences)


def _bow_count(t, args, kwargs, matrix):
    t.counts["bow.builds"] += 1


def _bow_ppmi(t, args, kwargs, table):
    t.counts["bow.nnz"] += sum(int((v != 0).sum())
                               for v in table.vectors.values())
    t.counts["bow.cells"] += len(table) * table.dimension


def _file_bytes(counter, path_arg=0, per_file=None):
    def hook(t, args, kwargs, result):
        path = args[path_arg]
        t.counts[counter] += os.path.getsize(path)
        if per_file:
            t.counts[per_file] += 1
            t.seen[per_file].add(str(path))
    return hook


def _scored(t, args, kwargs, scores):
    t.counts["scoring.pairs_scored"] += len(scores.scores)
    t.counts["scoring.oov_skipped"] += len(scores.skipped)
    t.counts["scoring.degenerate"] += len(scores.degenerate)


def _stat_call(t, args, kwargs, result):
    t.counts["stats.calls"] += 1


def _agreement(t, args, kwargs, report):
    t.counts["agreement.splits"] += report.sample_count + \
        report.degenerate_count
    t.counts["agreement.degenerate"] += report.degenerate_count


def _quintile(t, args, kwargs, overlap):
    k = kwargs.get("K", args[2] if len(args) > 2 else 6)
    t.counts["agreement.splits"] += len(args[0].batches) * math.comb(13, k)


def _evalset_load(t, args, kwargs, evaluation_set):
    t.counts["agreement.parses"] += 1
    t.seen["agreement.parses"].add(str(args[0]))


def _qc(t, args, kwargs, result):
    t.counts["agreement.excluded"] += sum(
        len(r.excluded) for r in result[1].values())


def _baseline(t, args, kwargs, result):
    t.counts["combine.baseline_reps"] += len(result.rhos) + result.failures
    t.counts["combine.baseline_failures"] += result.failures


def install(tracer: Tracer, modules) -> None:
    """Wrap every public function a workload reaches, at each place the
    CLI or the library looks it up."""
    cli, corpus, bow, agreement, combine, manifest = (
        modules[m] for m in ("cli", "corpus", "bow", "agreement",
                             "combine", "manifest"))
    w = tracer.wrap
    w(cli, "read_corpus", "corpus.read", _corpus_read)
    w(cli, "clean_tokens", "corpus.clean")
    w(cli, "build_vocabulary", "corpus.vocab")
    w(cli, "sample_corpus", "corpus.sample")
    w(combine, "sample_corpus", "corpus.sample")
    tracer.count_calls(corpus, "porter_stem", "stemming.calls")

    w(cli, "build_bow_table", "bow.build")
    w(bow, "count_cooccurrences", "bow.count", _bow_count)
    w(bow, "ppmi_transform", "bow.ppmi", _bow_ppmi)

    w(cli, "save_vectors", "vectors.save",
      _file_bytes("vectors.bytes_written", 1))
    w(cli, "load_vectors", "vectors.load",
      _file_bytes("vectors.bytes_read", 0, "vectors.loads"))

    for owner in (cli, combine):
        w(owner, "score_pairs", "scoring.score", _scored)
    for name in ("read_pair_list", "write_scores", "read_scores"):
        w(cli, name, "scoring.io")

    for key in list(cli._CORRELATIONS):
        w(cli._CORRELATIONS, key, f"stats.{key}", _stat_call)
    w(cli, "quintile_fscore", "stats.quintile_fscore", _stat_call)
    w(combine, "spearman", "stats.spearman", _stat_call)
    w(agreement, "welch_t_test", "stats.welch", _stat_call)

    for owner in (cli, agreement):
        w(owner, "within_language_agreement", "agreement.within",
          _agreement)
        w(owner, "cross_language_agreement", "agreement.cross", _agreement)
        w(owner, "load_evaluation_set", "agreement.load", _evalset_load)
    w(agreement, "significance_driver", "agreement.significance")
    w(cli, "quintile_agreement_analysis", "agreement.quintile", _quintile)
    w(cli, "apply_outlier_filter", "agreement.qc", _qc)
    w(cli, "save_evaluation_set", "agreement.save")
    w(cli, "human_mean_scores", "agreement.human_mean")

    w(cli, "fit_cca_tables", "combine.fit_cca_tables")
    w(combine, "fit_cca_tables", "combine.fit_cca_tables")
    w(combine, "aligned_matrices", "combine.align")
    w(combine, "fit_cca", "combine.fit_cca")
    for owner in (cli, combine):
        w(owner, "project_concat", "combine.project")
        w(owner, "interpolate_scores", "combine.interpolate")
    w(cli, "load_lexicon", "combine.lexicon")
    w(cli, "monolingual_baseline", "combine.baseline", _baseline)

    w(manifest, "file_digest", "manifest.digest",
      _file_bytes("manifest.bytes_hashed"))


# -- per-layer metrics of one traced pass --------------------------------

def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, pass_s: float, commands) -> dict:
    """Per-layer numbers of one traced pass of ``pass_s`` seconds."""
    total: Counter = Counter()
    self_s: Counter = Counter()
    for name, start, end, parent in tracer.spans:
        total[name] += end - start
        self_s[name] += end - start
        if parent >= 0:
            self_s[tracer.spans[parent][0]] -= end - start
    c = tracer.counts

    def seconds(*names):
        return sum(total[n] for n in names)

    unattributed = {n: s for n, s in self_s.items() if n.startswith(DRIVERS)}
    top_level = sum(end - start for _, start, end, parent in tracer.spans
                    if parent < 0)
    outside = max(pass_s - top_level, 0.0)
    m = {
        "corpus.read_s": seconds("corpus.read"),
        "corpus.clean_s": seconds("corpus.clean"),
        "corpus.vocab_s": seconds("corpus.vocab"),
        "corpus.sample_s": seconds("corpus.sample"),
        "corpus.tokens": c["corpus.tokens"],
        "corpus.types": c["corpus.types"],
        "corpus.sentences": c["corpus.sentences"],
        "stemming.calls": c["stemming.calls"],
        "stemming.distinct_ratio": _ratio(len(tracer.seen["stemming.calls"]),
                                          c["stemming.calls"]),
        "bow.count_s": seconds("bow.count"),
        "bow.ppmi_s": seconds("bow.ppmi"),
        "bow.builds": c["bow.builds"],
        "bow.nnz": c["bow.nnz"],
        "bow.density": _ratio(c["bow.nnz"], c["bow.cells"]),
        "vectors.save_s": seconds("vectors.save"),
        "vectors.bytes_written": c["vectors.bytes_written"],
        "vectors.save_mb_per_s": _ratio(c["vectors.bytes_written"] / 1e6,
                                        seconds("vectors.save")),
        "vectors.load_s": seconds("vectors.load"),
        "vectors.bytes_read": c["vectors.bytes_read"],
        "vectors.load_mb_per_s": _ratio(c["vectors.bytes_read"] / 1e6,
                                        seconds("vectors.load")),
        "vectors.loads_per_file": _ratio(c["vectors.loads"],
                                         len(tracer.seen["vectors.loads"])),
        "scoring.score_s": seconds("scoring.score"),
        "scoring.io_s": seconds("scoring.io"),
        "scoring.pairs_scored": c["scoring.pairs_scored"],
        "scoring.oov_skipped": c["scoring.oov_skipped"],
        "scoring.degenerate": c["scoring.degenerate"],
        "stats.s": sum(s for n, s in total.items()
                       if n.startswith("stats.")),
        "stats.calls": c["stats.calls"],
        "agreement.within_s": seconds("agreement.within"),
        "agreement.cross_s": seconds("agreement.cross"),
        "agreement.quintile_s": seconds("agreement.quintile"),
        "agreement.significance_s": seconds("agreement.significance"),
        "agreement.qc_s": seconds("agreement.qc"),
        "agreement.load_s": seconds("agreement.load"),
        "agreement.parses_per_file": _ratio(
            c["agreement.parses"], len(tracer.seen["agreement.parses"])),
        "agreement.splits": c["agreement.splits"],
        "agreement.degenerate": c["agreement.degenerate"],
        "agreement.excluded": c["agreement.excluded"],
        "combine.align_s": seconds("combine.align"),
        "combine.fit_cca_s": seconds("combine.fit_cca"),
        "combine.project_s": seconds("combine.project"),
        "combine.baseline_self_s": self_s["combine.baseline"],
        "combine.baseline_reps": c["combine.baseline_reps"],
        "combine.baseline_failures": c["combine.baseline_failures"],
        "manifest.digest_s": seconds("manifest.digest"),
        "manifest.bytes_hashed": c["manifest.bytes_hashed"],
        "cli.self_s": sum(s for n, s in self_s.items()
                          if n.startswith("cli.")),
    }
    for command in commands:
        m[f"cli.{command.replace('-', '_')}_s"] = seconds(f"cli.{command}")
    m["trace.coverage"] = 1.0 - _ratio(
        sum(unattributed.values()) + outside, pass_s)
    m["unattributed"] = dict(sorted(unattributed.items(),
                                    key=lambda kv: -kv[1])[:6],
                             outside_spans=outside)
    return m


def median_metrics(per_pass: list[dict]) -> dict:
    """Median of each numeric metric over passes."""
    return {k: statistics.median(p[k] for p in per_pass)
            for k, v in per_pass[0].items() if not isinstance(v, dict)}
