"""Porter stemmer (the classic 1980 algorithm): the English stemmer that
corpus cleaning applies. No parameter takes another stemmer.
"""

__all__ = ["porter_stem"]


def _form(word):
    """One ``c`` or ``v`` per letter: a, e, i, o and u are vowels, y is a
    vowel iff it follows a consonant, and every other letter is a
    consonant."""
    form = []
    consonant = False
    for ch in word:
        consonant = ch not in "aeiou" and (ch != "y" or not consonant)
        form.append("c" if consonant else "v")
    return "".join(form)


def _measure(stem):
    # number of VC alternations in the c*(VC)^m v* decomposition
    return _form(stem).count("vc")


def _contains_vowel(stem):
    return "v" in _form(stem)


def _ends_double_consonant(word):
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _form(word).endswith("c")
    )


def _ends_cvc(word):
    return _form(word).endswith("cvc") and word[-1] not in "wxy"


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

_STEP4 = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)

_STEP2_ENDINGS = tuple(suffix for suffix, _ in _STEP2)
_STEP3_ENDINGS = tuple(suffix for suffix, _ in _STEP3)

# Every ending some step acts on: "s" (1a), "ed" and "ing" (1b; "ed"
# covers "eed"), "y" (1c), the tables of steps 2-4, and "e" and "ll" (5).
# A word ending in none of them is left unchanged by every step.
_ENDINGS = (("s", "ed", "ing", "y", "e", "ll")
            + _STEP2_ENDINGS + _STEP3_ENDINGS + _STEP4)


def _step2(w):
    if not w.endswith(_STEP2_ENDINGS):
        return w
    for suffix, repl in _STEP2:
        if w.endswith(suffix):
            return _replace(w, suffix, repl, 0)
    return w


def _step3(w):
    if not w.endswith(_STEP3_ENDINGS):
        return w
    for suffix, repl in _STEP3:
        if w.endswith(suffix):
            return _replace(w, suffix, repl, 0)
    return w


def _step4(w):
    if not w.endswith(_STEP4):
        return w
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


def porter_stem(word: str) -> str:
    """Stem an English word. The word is lower-cased first; words of
    length <= 2 come back lower-cased and otherwise unchanged."""
    w = word.lower()
    if len(w) <= 2 or not w.endswith(_ENDINGS):
        return w
    for step in (_step1a, _step1b, _step1c, _step2, _step3, _step4, _step5):
        w = step(w)
    return w
