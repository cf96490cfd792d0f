import os
import re
import tempfile
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vsmeval.errors import (AlignmentError, ArgumentError, EmptyInputError,
                            FormatError)
from vsmeval.floattext import BLOCK
from vsmeval.scoring import vocabulary_coverage, write_coverage
from vsmeval.vectors import (
    VectorTable,
    _parse_row,
    load_vectors,
    save_vectors,
)

from conftest import make_evalset
from oracles import load_vectors_linewise, save_vectors_reference


def _table(words, dim=3, language="en", rng=None):
    rng = rng or np.random.default_rng(0)
    words = tuple(dict.fromkeys(words))
    return VectorTable(language, words, rng.normal(size=(len(words), dim)))


def test_load_simple_file(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("2 3\na 1 0 0\nb 0 1 0\n")
    table = load_vectors(path)
    assert len(table) == 2
    assert table.dimension == 3
    assert np.array_equal(table["a"], [1, 0, 0])


def test_roundtrip_is_exact(tmp_path, rng):
    table = _table(["alpha", "beta", "gamma"], dim=5, rng=rng)
    path = tmp_path / "v.txt"
    save_vectors(table, path)
    again = load_vectors(path, language="en")
    assert again.language == "en"
    assert again.dimension == table.dimension
    assert set(again.vectors) == set(table.vectors)
    for w in table.vectors:
        assert np.array_equal(again[w], table[w])


def test_header_body_mismatch(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("3 2\na 1 0\nb 0 1\n")
    with pytest.raises(FormatError, match="declares 3"):
        load_vectors(path)


@pytest.mark.parametrize("text", ["0 -1\n", "-1 0\n", "-2 3\na 1 0 0\n"],
                         ids=["dimension", "vocabulary", "with-body"])
def test_negative_header_field_names_line(tmp_path, text):
    path = tmp_path / "v.txt"
    path.write_text(text)
    with pytest.raises(FormatError,
                       match=f"negative header field \\[{path}:1]"):
        load_vectors(path)


def test_empty_table_wider_than_numpy_shapes_names_line(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text(f"0 {2**60 - 1}\n")
    assert load_vectors(path).matrix.shape == (0, 2**60 - 1)
    for dimension in (2**60, 10**20):
        path.write_text(f"0 {dimension}\n")
        with pytest.raises(FormatError, match=re.escape(
                f"dimension too large for an array [{path}:1]")):
            load_vectors(path)


def test_nonfinite_value_rejected(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("1 2\na nan 0\n")
    with pytest.raises(FormatError, match="non-finite"):
        load_vectors(path)


def test_wrong_field_count_names_line(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("2 3\na 1 0 0\nb 0 1\n")
    with pytest.raises(FormatError, match=":3"):
        load_vectors(path)


def test_duplicate_word_last_wins(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("2 2\na 1 0\nb 0 1\na 5 5\n")
    with pytest.warns(UserWarning, match="duplicate"):
        table = load_vectors(path)
    assert np.array_equal(table["a"], [5, 5])


def test_save_empty_table_refused(tmp_path):
    table = VectorTable("en", (), np.zeros((0, 3)))
    with pytest.raises(EmptyInputError):
        save_vectors(table, tmp_path / "v.txt")


def test_save_whitespace_word_refused(tmp_path):
    table = VectorTable("en", ("new york",), np.ones((1, 2)))
    path = tmp_path / "v.txt"
    with pytest.raises(FormatError, match="'new york'"):
        save_vectors(table, path)
    assert not path.exists()



@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_non_finite_value_refused_naming_its_word(tmp_path, bad):
    # load_vectors refuses the cell, so the file would not read back
    table = VectorTable("en", ("a", "b", "c"),
                        np.array([[1.0, 0.0], [bad, 0.0], [np.nan, 2.0]]))
    path = tmp_path / "v.txt"
    with pytest.raises(FormatError) as info:
        save_vectors(table, path)
    assert str(info.value) == f"non-finite value in vector for 'b' [{path}]"
    assert not path.exists()


_CELLS = st.one_of(
    st.just(0.0), st.just(-0.0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e6, 1e6, allow_nan=False).map(float.__round__),
    st.sampled_from([5e-324, -1.5e-323, 2.2250738585072014e-308, 1e-310]),
)


@st.composite
def _mixed_tables(draw):
    """A matrix whose rows are dense, mostly zero or any mix."""
    dim = draw(st.integers(0, 12))
    row = st.one_of(
        st.lists(_CELLS, min_size=dim, max_size=dim),
        st.lists(st.one_of(st.just(0.0), st.just(0.0), st.just(0.0),
                           _CELLS), min_size=dim, max_size=dim))
    rows = draw(st.lists(row, min_size=1, max_size=6))
    return np.array(rows, float).reshape(len(rows), dim)


def _same_bytes_as_the_reference(matrix, tmp):
    table = VectorTable("en", tuple(f"w{i}" for i in range(len(matrix))),
                        matrix)
    path = os.path.join(tmp, "v.txt")
    want = os.path.join(tmp, "want.txt")
    save_vectors(table, path)
    save_vectors_reference(table, want)
    with open(path, "rb") as got, open(want, "rb") as ref:
        assert got.read() == ref.read()


@settings(deadline=None)
@given(_mixed_tables())
@example(np.array([[0.0, -0.0, 1.0], [2.0, -0.0, 5e-324]]))
def test_save_writes_the_reference_bytes_property(matrix):
    # dense rows in bulk, mostly zero rows cell by cell, in file order
    with tempfile.TemporaryDirectory() as tmp:
        _same_bytes_as_the_reference(matrix, tmp)


@pytest.mark.parametrize("rows, dim", [
    (BLOCK // 100 - 1, 100), (BLOCK // 100, 100), (BLOCK // 100 + 1, 100),
    (2 * (BLOCK // 100) + 1, 100), (2, BLOCK - 1), (2, BLOCK + 1),
])
def test_save_writes_the_reference_bytes_across_blocks(tmp_path, rows, dim):
    # a row a block either side of a block boundary, and a cell either
    # side; every third row mostly zero
    rng = np.random.default_rng(rows * dim)
    matrix = rng.standard_normal((rows, dim)) * 10.0 ** rng.integers(
        -6, 6, (rows, dim))
    matrix[::3, 1:] = 0.0
    matrix[::5, ::4] = -0.0
    _same_bytes_as_the_reference(matrix, tmp_path)


_WORDS = st.text(st.characters(exclude_categories=("Cs",)), min_size=1) \
    .filter(lambda w: w.split() == [w])


@st.composite
def _vector_lines(draw):
    """(dimension, [(word, vector), ...]) with words often repeated."""
    dim = draw(st.integers(1, 4))
    words = draw(st.lists(_WORDS, min_size=1, max_size=4, unique=True))
    vector = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                      min_size=dim, max_size=dim)
    lines = st.lists(st.tuples(st.sampled_from(words), vector),
                     min_size=1, max_size=8)
    return dim, draw(lines)


@settings(deadline=None)
@given(_vector_lines())
def test_file_roundtrip_property(case):
    # floats include +-0 and subnormals; a repeated word keeps its first
    # position and its last vector, and values survive bit for bit
    dim, lines = case
    expected = dict(lines)
    want = np.array(list(expected.values()), dtype=float).tobytes()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "v.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{len(expected)} {dim}\n")
            for word, vec in lines:
                fh.write(word + " " + " ".join(map(repr, vec)) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            loaded = load_vectors(path)
        save_vectors(loaded, path)
        again = load_vectors(path)
    for table in (loaded, again):
        assert table.words == tuple(expected)
        assert table.matrix.tobytes() == want


@st.composite
def _zero_heavy_rows(draw):
    """(dimension, rows): most cells +-0.0, the rest any finite float."""
    dim = draw(st.integers(5, 40))
    cell = st.one_of(
        st.just(0.0), st.just(0.0), st.just(0.0), st.just(-0.0),
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([5e-324, -2.2250738585072e-308, 1e-310]))
    rows = st.lists(st.lists(cell, min_size=dim, max_size=dim),
                    min_size=1, max_size=5)
    return dim, draw(rows)


@settings(deadline=None, max_examples=60)
@given(_zero_heavy_rows(), st.sampled_from(["nan", "x"]),
       st.integers(0, 39))
@example((5, [[-0.0, 0.0, 0.0, 1.5, -0.0], [0.0] * 5]), "nan", 0)
def test_zero_heavy_file_roundtrip_property(case, bad, position):
    # a mostly zero row is written as the dense repr join, and reloads
    # bit for bit, -0.0 included; a bad cell among zeros is still refused
    dim, rows = case
    words = tuple(f"w{i}" for i in range(len(rows)))
    matrix = np.array(rows, dtype=float).reshape(len(rows), dim)
    dense = "".join(w + " " + " ".join(map(repr, row)) + "\n"
                    for w, row in zip(words, rows))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "v.txt")
        save_vectors(VectorTable("en", words, matrix), path)
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == f"{len(rows)} {dim}\n" + dense
        loaded = load_vectors(path)
        save_vectors(loaded, path)
        again = load_vectors(path)
        for table in (loaded, again):
            assert table.words == words
            assert table.matrix.tobytes() == matrix.tobytes()
        cells = ["0.0"] * dim
        cells[position % dim] = bad
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"2 {dim}\nok {' '.join(['0.0'] * dim)}\n"
                     f"bad {' '.join(cells)}\n")
        with pytest.raises(FormatError, match=f"{path}:3]"):
            load_vectors(path)


def _nth(pattern, template):
    """An edit that replaces the ``at``-th match of ``pattern``, counted
    round, by ``template`` expanded on it."""
    def edit(text, at):
        found = list(re.finditer(pattern, text))
        if not found:
            return text
        m = found[at % len(found)]
        return text[:m.start()] + m.expand(template) + text[m.end():]
    return edit


def _repeat_a_word(text, at):
    """Append a copy of one body line and declare one more word."""
    header, _, body = text.partition("\n")
    count, _, dimension = header.partition(" ")
    lines = body.split("\n")
    if not count.isdigit() or not body:
        return text
    return f"{int(count) + 1} {dimension}\n{body}{lines[at % len(lines)]}\n"


_CELL = r"(?<= )[^ \n]+"
_WORD = r"(?m)^[^ \n]+"
# Each edit but the first turns a saved file into a spelling save_vectors
# never writes. On every one, load_vectors must load what the line loop
# of oracles.py loads, or refuse with the same text at the same line.
_EDITS = {
    "as-saved": lambda text, at: text,
    "tab-separator": _nth(" ", "\t"),
    "double-space": _nth(" ", "  "),
    "nbsp-separator": _nth(" ", "\xa0"),
    "no-separator": _nth(" ", ""),
    "crlf": _nth("\n", "\r\n"),
    "cr": _nth("\n", "\r"),
    "blank-line": _nth("\n", "\n\n"),
    "whitespace-line": _nth("\n", "\n \t\n"),
    "leading-space": _nth("\n", "\n "),
    "trailing-space": _nth("\n", " \n"),
    "joined-lines": _nth("\n", " "),
    "no-final-break": _nth("\n\\Z", ""),
    **{f"cell={cell!r}": _nth(_CELL, cell) for cell in
       ["nan", "inf", "1e999", "1_0", "+1.5", "-0.0", "0.0", "00.0", "0.00",
        "5e-324", "-2.225e-308", "x", "\u0661.5", "1.5\x1c", "", "0.0 0.0",
        r"\g<0>\r", r"\t\g<0>"]},
    **{f"word+{c!r}": _nth(_WORD, r"\g<0>" + c) for c in
       ["\x1c", "\x1d", "\x1e", "\x1f", "\xa0", "\x85", "\u2028", "\xdf",
        "\u732b"]},
    "no-word": _nth(r"(?m)^[^ \n]+ ", ""),
    "repeated-line": _nth(r"(?m)^.*\n", r"\g<0>\g<0>"),
    "duplicate-word": _repeat_a_word,
    "one-word-declared": _nth(r"\A[0-9]+", "1"),
    "more-words-declared": _nth(r"\A[0-9]+", r"1\g<0>"),
    "dimension-1": _nth(r"\A([0-9]+) [0-9]+", r"\1 1"),
    "dimension-x10": _nth(r"\A([0-9]+) ([0-9]+)", r"\1 \g<2>0"),
    # more than any memory holds: neither may reach an allocation
    "huge-word-count": _nth(r"\A[0-9]+", "1" + "0" * 20),
    "huge-dimension": _nth(r"\A([0-9]+) [0-9]+", r"\1 1" + "0" * 20),
    # int reads these as 10 and 1
    **{f"word-count={count!r}": _nth(r"\A[0-9]+", count)
       for count in ["1_0", "\u0661"]},
}


@st.composite
def _saved_tables(draw):
    """A table as ``save_vectors`` takes it: rows dense or mostly zero,
    with +-0.0, subnormals and any word ``str.split`` leaves whole."""
    dim = draw(st.integers(1, 12))
    words = draw(st.lists(_WORDS, min_size=1, max_size=4, unique=True))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    zero_heavy = st.one_of(st.just(0.0), st.just(0.0), st.just(-0.0),
                           finite, st.sampled_from([5e-324, -1e-310]))
    rows = [draw(st.lists(draw(st.sampled_from([finite, zero_heavy])),
                          min_size=dim, max_size=dim)) for _ in words]
    return VectorTable("en", tuple(words),
                       np.array(rows, dtype=float).reshape(len(words), dim))


def _parsed_rows(path):
    """Load ``path``; for each line that reached ``_parse_row``, whether
    it gave a vector."""
    parsed = []

    def spy(cells, dimension):
        vec = _parse_row(cells, dimension)
        parsed.append(vec is not None)
        return vec

    with mock.patch("vsmeval.vectors._parse_row", spy):
        load_vectors(path)
    return parsed


def _outcome(load, path):
    """Words, matrix bytes and shape and warnings, or the refusal text."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            table = load(path, "en")
        except FormatError as exc:
            return str(exc)
    return (table.words, table.matrix.tobytes(), table.matrix.shape,
            [str(w.message) for w in caught])


@pytest.mark.parametrize("name", list(_EDITS))
@settings(deadline=None, max_examples=15)
@given(table=_saved_tables(), at=st.integers(0, 2**16),
       more=st.lists(st.tuples(st.sampled_from(list(_EDITS)),
                               st.integers(0, 2**16)), max_size=1))
@example(table=VectorTable("en", ("a", "b"), np.array([[1.5], [2.5]])),
         at=0, more=[("no-word", 1)])
def test_one_pass_reader_equals_the_line_loop_property(name, table, at, more):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "v.txt")
        save_vectors(table, path)
        assert _parsed_rows(path) == [True] * len(table)
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
        for edit, position in [(name, at)] + more:
            text = _EDITS[edit](text, position)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert (_outcome(load_vectors, path)
                == _outcome(load_vectors_linewise, path))


def test_non_ascii_words_take_the_one_pass_reader(tmp_path):
    words = ("кошка", "Käse", "猫", "cat")
    matrix = np.array([[0.5, -1.25, 3.0, 0.0], [0.0, 0.0, 0.0, 2.5],
                       [-0.0, 0.0, 0.0, 0.0], [1e-310, 7.0, -8.5, 1.0]])
    path = tmp_path / "v.txt"
    save_vectors(VectorTable("en", words, matrix), path)
    assert _parsed_rows(path) == [True] * len(words)
    table = load_vectors(path)
    assert table.words == words
    assert table.matrix.tobytes() == matrix.tobytes()


@pytest.mark.parametrize("cell", ["1_0", "1.5_5", "\u0661.5", "1.\u0665"])
def test_underscore_or_non_ascii_digit_refused(tmp_path, cell):
    # float reads these as 10.0, 1.55, 1.5 and 1.5; no writer spells them so
    path = tmp_path / "v.txt"
    path.write_text(f"2 2\na 0.5 0.0\nb {cell} 2.0\n", encoding="utf-8")
    with pytest.raises(FormatError,
                       match=re.escape(f"unparseable float [{path}:3]")):
        load_vectors(path)


def test_mostly_zero_load_peaks_near_its_matrix(tmp_path):
    # a k=10000 PPMI-like table at 1% non-zero; a per-word array and dict
    # before the final matrix peaked at about twice the matrix bytes
    rng = np.random.default_rng(0)
    matrix = np.zeros((300, 10_000))
    hit = rng.random(matrix.shape) < 0.01
    matrix[hit] = rng.exponential(2.0, size=hit.sum())
    path = tmp_path / "v.txt"
    save_vectors(VectorTable("en", tuple(f"w{i}" for i in range(300)),
                             matrix), path)
    tracemalloc.start()
    try:
        table = load_vectors(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.matrix.tobytes() == matrix.tobytes()
    assert peak <= 1.5 * matrix.nbytes


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_load_from_a_named_pipe(tmp_path):
    # a pipe's size reads as 0, so its rows are allocated as they come
    table = _table([f"w{i}" for i in range(9)], dim=2)
    saved, path = tmp_path / "v.txt", tmp_path / "v.fifo"
    save_vectors(table, saved)
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes,
                              args=(saved.read_bytes(),))
    writer.start()
    try:
        loaded = load_vectors(path)
    finally:
        writer.join()
    assert loaded.words == table.words
    assert loaded.matrix.tobytes() == table.matrix.tobytes()


def test_save_line_count(tmp_path):
    table = _table([f"w{i}" for i in range(100)], dim=2)
    path = tmp_path / "v.txt"
    save_vectors(table, path)
    assert len(path.read_text().splitlines()) == 101


def _two_language_sets(n=5):
    en_words = tuple((f"e{i}a", f"e{i}b") for i in range(n))
    de_words = tuple((f"d{i}a", f"d{i}b") for i in range(n))
    rng = np.random.default_rng(1)
    en = make_evalset(rng.uniform(0, 10, size=(n, 13)), language="en",
                      words=en_words, batch_size=n)
    de = make_evalset(rng.uniform(0, 10, size=(n, 13)), language="de",
                      words=de_words, batch_size=n)
    return en, de


def test_full_coverage_excludes_nothing():
    en, de = _two_language_sets()
    t_en = _table([w for p in en.pairs.pairs for w in p], language="en")
    t_de = _table([w for p in de.pairs.pairs for w in p], language="de")
    report = vocabulary_coverage([t_en, t_de], [en, de])
    assert report.excluded == ()
    assert report.covered == tuple(range(5))


def test_missing_word_excludes_pair_everywhere():
    en, de = _two_language_sets()
    en_words = [w for p in en.pairs.pairs for w in p]
    t_en = _table([w for w in en_words if w != "e2a"], language="en")
    t_de = _table([w for p in de.pairs.pairs for w in p], language="de")
    report = vocabulary_coverage([t_en, t_de], [en, de])
    assert report.excluded == (2,)
    assert report.missing_words[2] == (("e2a", "en"),)


def test_word_in_two_pairs_excludes_both():
    words = ((f"a", f"b"), (f"a", f"c"), (f"d", f"e"))
    rng = np.random.default_rng(2)
    es = make_evalset(rng.uniform(0, 10, size=(3, 13)), language="en",
                      words=words, batch_size=3)
    table = _table(["b", "c", "d", "e"], language="en")
    report = vocabulary_coverage([table], [es])
    assert report.excluded == (0, 1)
    assert report.covered == (2,)


def test_sl999_arithmetic():
    # 999 pairs with 23 missing somewhere leaves 976 covered
    n = 999
    words = tuple((f"w{i}a", f"w{i}b") for i in range(n))
    rng = np.random.default_rng(3)
    es = make_evalset(rng.uniform(0, 10, size=(n, 13)), language="en",
                      words=words)
    vocab = [w for p in words for w in p]
    missing = {f"w{i}a" for i in range(23)}
    table = _table([w for w in vocab if w not in missing], language="en")
    report = vocabulary_coverage([table], [es])
    assert len(report.excluded) == 23
    assert len(report.covered) == 976


def test_coverage_monotone_in_table_growth():
    en, de = _two_language_sets()
    all_en = [w for p in en.pairs.pairs for w in p]
    t_de = _table([w for p in de.pairs.pairs for w in p], language="de")
    small = _table(all_en[:-2], language="en")
    big = _table(all_en, language="en")
    covered_small = set(vocabulary_coverage([small, t_de], [en, de]).covered)
    covered_big = set(vocabulary_coverage([big, t_de], [en, de]).covered)
    assert covered_small <= covered_big


def test_misaligned_sets_rejected():
    en, _ = _two_language_sets()
    rng = np.random.default_rng(4)
    short = make_evalset(rng.uniform(0, 10, size=(3, 13)), language="de",
                         batch_size=3)
    with pytest.raises(AlignmentError, match="different pair indices"):
        vocabulary_coverage([], [en, short])


def test_coverage_without_sets_refused():
    with pytest.raises(ArgumentError, match="no evaluation set"):
        vocabulary_coverage([_table(["a"])], [])


def test_coverage_tsv_dump(tmp_path):
    en, de = _two_language_sets()
    t_en = _table([w for p in en.pairs.pairs for w in p][1:], language="en")
    t_de = _table([w for p in de.pairs.pairs for w in p], language="de")
    report = vocabulary_coverage([t_en, t_de], [en, de])
    path = tmp_path / "coverage.tsv"
    write_coverage(report, en, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "pair_index\tword1\tword2\tstatus\tmissing_in"
    assert any("excluded" in ln for ln in lines[1:])
