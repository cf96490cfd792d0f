"""Combining two vector spaces: linear interpolation and CCA projection.

Two synthetic embedding tables see noisy views of the same latent space.
Score-level interpolation averages their cosine scores per pair; CCA
aligns the spaces through a translation lexicon and concatenates the
projected views. Both combinations should track the latent similarities
better than either table alone.

Run from the repository root:

    python3 demos/demo_multilingual_combine.py
"""

import numpy as np

from vsmeval.combine import (
    TranslationLexicon,
    fit_cca_tables,
    interpolate_scores,
    project_concat,
)
from vsmeval.scoring import WordPairList, score_pairs
from vsmeval.stats import spearman
from vsmeval.vectors import VectorTable

rng = np.random.default_rng(7)
N_WORDS, DIM = 60, 12

latent = rng.normal(size=(N_WORDS, DIM))
en_words = [f"en{i}" for i in range(N_WORDS)]
de_words = [f"de{i}" for i in range(N_WORDS)]

def noisy_view(base, noise):
    return base + noise * rng.normal(size=base.shape)

t_en = VectorTable("en", tuple(en_words), noisy_view(latent, 0.9))
t_de = VectorTable("de", tuple(de_words), noisy_view(latent, 0.9))
lexicon = TranslationLexicon(("en", "de"), tuple(zip(en_words, de_words)))

pairs_idx = [(2 * i, 2 * i + 1) for i in range(N_WORDS // 2)]
pairs = WordPairList(
    tuple((en_words[a], en_words[b]) for a, b in pairs_idx),
    tuple(range(len(pairs_idx))),
)

def cos(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

reference = [cos(latent[a], latent[b]) for a, b in pairs_idx]

s_en = score_pairs(t_en, pairs)
de_pairs = WordPairList(
    tuple((de_words[a], de_words[b]) for a, b in pairs_idx),
    tuple(range(len(pairs_idx))),
)
s_de = score_pairs(t_de, de_pairs)

idx = sorted(s_en.scores)
rho_en = spearman([s_en.scores[i] for i in idx], reference)
rho_de = spearman([s_de.scores[i] for i in idx], reference)
print(f"monolingual rho vs latent: en {rho_en:.3f}, de {rho_de:.3f}")

print("\nscore-level interpolation:")
for lam in (0.25, 0.5, 0.75):
    mixed = interpolate_scores(s_en, s_de, lam)
    rho = spearman([mixed.scores[i] for i in idx], reference)
    print(f"  lambda {lam:.2f}: rho {rho:.3f}")

model = fit_cca_tables(t_en, t_de, lexicon)
print(f"\nCCA: {model.n_components} components, leading correlations "
      + ", ".join(f"{c:.3f}" for c in model.correlations[:4]))

combined = project_concat(t_en, t_de, lexicon, model)
s_cca = score_pairs(combined, pairs)
rho_cca = spearman([s_cca.scores[i] for i in idx], reference)
print(f"concatenated projection: rho {rho_cca:.3f}")
