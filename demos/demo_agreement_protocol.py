"""The K-subset agreement protocol on synthetic annotator data.

Four synthetic "languages" rate the same 100 word pairs. All four share
one latent similarity vector, but each language adds its own bias and
each annotator adds noise, so raters agree more with compatriots than
across languages. The protocol splits the 13 annotators of every batch
into all C(13,6) = 1716 subsets, correlates subset averages, and then
asks whether within-language agreement beats cross-language agreement.

Run from the repository root:

    python3 demos/demo_agreement_protocol.py
"""

import itertools

import numpy as np

from vsmeval.agreement import (
    EvaluationSet,
    agreement_significance,
    cross_language_agreement,
    within_language_agreement,
)
from vsmeval.scoring import WordPairList

rng = np.random.default_rng(42)
N_PAIRS, N_ANNOTATORS = 100, 13
latent = rng.uniform(0.0, 10.0, size=N_PAIRS)
languages = ["en", "de", "it", "ru"]

sets = {}
for lang in languages:
    bias = rng.normal(0.0, 1.2, size=N_PAIRS)
    noise = rng.normal(0.0, 1.0, size=(N_PAIRS, N_ANNOTATORS))
    raw = latent[:, None] + bias[:, None] + noise
    raw = 10.0 * (raw - raw.min()) / (raw.max() - raw.min())
    sets[lang] = EvaluationSet(
        language=lang,
        pairs=WordPairList(tuple((f"w{i}a", f"w{i}b") for i in range(N_PAIRS)),
                           tuple(range(N_PAIRS))),
        scores=raw,
        batches=(tuple(range(50)), tuple(range(50, 100))),
    )

print("within-language agreement (mean rho over 2 x 1716 subset splits):")
within = {}
for lang in languages:
    within[lang] = within_language_agreement(sets[lang])
    print(f"  {lang}: {within[lang].mean:.3f} "
          f"(std {within[lang].std:.3f})")

print("\ncross-language agreement:")
cross = {}
for l1, l2 in itertools.combinations(languages, 2):
    cross[(l1, l2)] = cross_language_agreement(sets[l1], sets[l2])
    print(f"  {l1}-{l2}: {cross[(l1, l2)].mean:.3f}")

worst_within = min(within.values(), key=lambda r: r.mean)
best_cross = max(cross.values(), key=lambda r: r.mean)
print(f"\nlowest within mean  {worst_within.mean:.3f}")
print(f"highest cross mean  {best_cross.mean:.3f}")

welch = agreement_significance(worst_within, best_cross)
print(f"Welch t = {welch.t_statistic:.2f}, "
      f"df = {welch.degrees_of_freedom:.1f}, "
      f"p = {welch.p_value:.3g}")
