import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vsmeval.stemming import (
    _ENDINGS,
    _STEP2,
    _STEP3,
    _STEP4,
    _step1a,
    _step1b,
    _step1c,
    _step2,
    _step3,
    _step4,
    _step5,
    porter_stem,
)

from oracles import porter_stem_reference

# The 75 examples of Porter (1980), "An algorithm for suffix stripping",
# Program 14(3), one table per step; step 1b lists its follow-up rules
# with the whole word, so "conflat(ed)" is given as "conflated".
PORTER_1980 = {
    _step1a: [("caresses", "caress"), ("ponies", "poni"), ("ties", "ti"),
              ("caress", "caress"), ("cats", "cat")],
    _step1b: [("feed", "feed"), ("agreed", "agree"),
              ("plastered", "plaster"), ("bled", "bled"),
              ("motoring", "motor"), ("sing", "sing"),
              ("conflated", "conflate"), ("troubled", "trouble"),
              ("sized", "size"), ("hopping", "hop"), ("tanned", "tan"),
              ("falling", "fall"), ("hissing", "hiss"), ("fizzed", "fizz"),
              ("failing", "fail"), ("filing", "file")],
    _step1c: [("happy", "happi"), ("sky", "sky")],
    _step2: [("relational", "relate"), ("conditional", "condition"),
             ("rational", "rational"), ("valenci", "valence"),
             ("hesitanci", "hesitance"), ("digitizer", "digitize"),
             ("conformabli", "conformable"), ("radicalli", "radical"),
             ("differentli", "different"), ("vileli", "vile"),
             ("analogousli", "analogous"), ("vietnamization", "vietnamize"),
             ("predication", "predicate"), ("operator", "operate"),
             ("feudalism", "feudal"), ("decisiveness", "decisive"),
             ("hopefulness", "hopeful"), ("callousness", "callous"),
             ("formaliti", "formal"), ("sensitiviti", "sensitive"),
             ("sensibiliti", "sensible")],
    _step3: [("triplicate", "triplic"), ("formative", "form"),
             ("formalize", "formal"), ("electriciti", "electric"),
             ("electrical", "electric"), ("hopeful", "hope"),
             ("goodness", "good")],
    _step4: [("revival", "reviv"), ("allowance", "allow"),
             ("inference", "infer"), ("airliner", "airlin"),
             ("gyroscopic", "gyroscop"), ("adjustable", "adjust"),
             ("defensible", "defens"), ("irritant", "irrit"),
             ("replacement", "replac"), ("adjustment", "adjust"),
             ("dependent", "depend"), ("adoption", "adopt"),
             ("homologou", "homolog"), ("communism", "commun"),
             ("activate", "activ"), ("angulariti", "angular"),
             ("homologous", "homolog"), ("effective", "effect"),
             ("bowdlerize", "bowdler")],
    _step5: [("probate", "probat"), ("rate", "rate"), ("cease", "ceas"),
             ("controll", "control"), ("roll", "roll")],
}


@pytest.mark.parametrize(
    "step, word, stem",
    [(step, word, stem) for step, pairs in PORTER_1980.items()
     for word, stem in pairs],
    ids=lambda value: getattr(value, "__name__", value))
def test_porter_1980_step_examples(step, word, stem):
    assert step(word) == stem


def test_long_y_run_stems_without_recursion():
    # b is a consonant, so the y's alternate vowel, consonant, ...: 1b
    # drops "ed" and the last y of the double consonant "yy", 1c turns
    # the new last y into i, and no later step applies
    assert porter_stem("b" + "y" * 1200 + "ed") == "b" + "y" * 1198 + "i"


# vowels, y, consonants that rules 1b and 5 and *o name, and one capital
_LETTERS = st.sampled_from("aeiouybltswzY")
_SUFFIXES = st.sampled_from(
    ["sses", "ies", "ss", "s", "eed", "ed", "ing", "at", "bl", "iz", "y",
     "e", "ll", *(suffix for suffix, _ in _STEP2 + _STEP3), *_STEP4])
_WORDS = st.builds(lambda base, suffixes: base + "".join(suffixes),
                   st.text(_LETTERS, max_size=8),
                   st.lists(_SUFFIXES, max_size=2))


@settings(max_examples=300, deadline=None)
@given(word=_WORDS)
@example(word="b" + "y" * 300 + "ed")
@example(word="y" * 300)
@example(word="a" + "y" * 299 + "ing")
@example(word="Y" * 150 + "y" * 150 + "s")
@example(word="t" + "y" * 298 + "ll")
def test_porter_stem_equals_the_reference(word):
    assert porter_stem(word) == porter_stem_reference(word)


@settings(max_examples=200, deadline=None)
@given(word=st.builds(lambda word, tail: word + tail, _WORDS,
                      st.sampled_from("aioubltwz")))  # not s, e or y
def test_a_word_with_no_step_ending_is_its_own_stem(word):
    assume(not word.lower().endswith(_ENDINGS))
    assert porter_stem_reference(word) == porter_stem(word) == word.lower()
