"""End-to-end walk from a tiny raw corpus to word-pair similarity scores.

The pipeline is: tokenize, clean, build a PPMI co-occurrence table over
the top-k frequent contexts, then score word pairs by cosine. Everything
here runs in well under a second; the same calls scale to a full corpus.

Run from the repository root:

    python3 demos/demo_ppmi_pipeline.py
"""

import numpy as np

from vsmeval.bow import build_bow_table
from vsmeval.corpus import build_vocabulary, clean_tokens, tokenize_corpus
from vsmeval.scoring import WordPairList, score_pairs

RAW = """
The cat sat on the mat. The cat chased the mouse.
A dog chased the cat across the yard. The dog barked at the mouse.
The mouse ate the cheese. A cat likes cheese too, sometimes.
Dogs and cats are animals. Mice are small animals.
The small dog sat near the big cat. The big dog ate near the mat.
Cheese sat on the mat and the mouse ate it.
"""

corpus = tokenize_corpus(RAW, language="en", sentence_per_line=False)
print(f"raw corpus: {corpus.token_count} tokens, "
      f"{corpus.type_count} types in {len(corpus.sentences)} sentences")

cleaned = clean_tokens(corpus)
print(f"after cleaning: {cleaned.token_count} tokens, "
      f"{cleaned.type_count} types")

vocab = build_vocabulary(cleaned)
print("most frequent stems:", ", ".join(list(vocab)[:6]))

targets = ["cat", "dog", "mous", "chees", "mat", "anim"]
table = build_bow_table(cleaned, targets, vocab,
                        k=len(vocab), window=2)
print(f"\nPPMI table: {len(table)} rows x {table.dimension} contexts")
for word in targets:
    nnz = int(np.count_nonzero(table.vectors[word]))
    print(f"  {word:>6}: {nnz} nonzero PPMI entries")

pairs = WordPairList(
    (("cat", "dog"), ("cat", "mous"), ("mous", "chees"), ("cat", "mat"),
     ("dog", "anim"), ("mat", "chees")),
    tuple(range(6)),
)
scores = score_pairs(table, pairs)
print("\ncosine similarity per pair:")
for idx in sorted(scores.scores, key=scores.scores.get, reverse=True):
    w1, w2 = pairs.pairs[idx]
    print(f"  {w1:>6} / {w2:<6} {scores.scores[idx]:+.3f}")
