import warnings

import pytest
from hypothesis import HealthCheck, given, settings

from vsmeval.agreement import load_evaluation_set
from vsmeval.combine import load_cca_model, load_lexicon
from vsmeval.corpus import read_corpus, read_wordlist
from vsmeval.errors import FormatError, VsmevalError
from vsmeval.scoring import read_pair_list, read_scores
from vsmeval.textfile import read_lines, read_text
from vsmeval.vectors import load_vectors

from conftest import damaged

# one valid file per reader, with non-ASCII words where the format has words
READERS = {
    "vectors": (load_vectors,
                "2 3\ncat 1.0 2.0 3.0\nкошка 0.5 -1.0 2.5\n"),
    "evalset": (load_evaluation_set,
                "# note\npair_index\tword1\tword2\tbatch\ta01\ta02\n"
                "0\tcat\tdog\t0\t1.0\t\n1\tkäse\tdog\t1\t2.0\t3.5\n"),
    "pairs": (read_pair_list,
              "pair_index\tword1\tword2\n0\tcat\tdog\n1\tcat\tkatze\n"),
    "scores": (read_scores,
               "# note\npair_index\tword1\tword2\tscore\n0\tcat\tdog\t0.5\n"
               "#OOV\t1\tcat\tgatto\tgatto\n"),
    "cca": (load_cca_model,
            "en de 2 2 1 1e-08 1\n0.5 0.5\n0.0 1.0\n0.9\n1.0\n-2.0\n0.5\n"
            "0.25\n"),
    "lexicon": (load_lexicon, "en\tde\ncat\tkatze\ncheese\tkäse\n"),
    "wordlist": (read_wordlist, "cat\n#hashtag\nсобака\n"),
    "corpus": (lambda path: read_corpus(path, "en"),
               "the cat sat.\nкошка сидела\n"),
}


def test_read_lines_numbers_physical_lines_and_skips_blank(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"a b\r\n \t\r\n\nc\rd\n\xd0\x96 ")
    assert list(read_lines(path)) == [(1, "a b"), (4, "c"), (5, "d"),
                                      (6, "Ж ")]


def test_read_text_keeps_line_breaks(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"a\r\nb\rc\n")
    assert read_text(path) == "a\r\nb\rc\n"


@pytest.mark.parametrize("name", sorted(READERS))
def test_undecodable_byte_is_a_located_format_error(tmp_path, name):
    reader, text = READERS[name]
    lines = text.encode("utf-8").split(b"\n")
    lines[1] += b"\xff"
    path = tmp_path / "input.txt"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(FormatError, match="malformed UTF-8") as info:
        reader(path)
    assert f"[{path}:2]" in str(info.value)


@pytest.mark.parametrize("name", ["vectors", "pairs", "scores", "cca"])
def test_whitespace_only_lines_are_skipped(tmp_path, name):
    reader, text = READERS[name]
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    expected = reader(path)
    path.write_text(" \t\n" + text.replace("\n", "\n  \n"), encoding="utf-8")
    assert repr(reader(path)) == repr(expected)


def test_lexicon_error_names_the_physical_line(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("en\tde\n# comment\n\ncat\tkatze\ndog\n")
    with pytest.raises(FormatError, match=r"expected 2 columns.*:5\]"):
        load_lexicon(path)


@pytest.mark.parametrize("name", sorted(READERS))
def test_readers_return_or_raise_toolkit_errors(tmp_path, name):
    reader, text = READERS[name]
    path = tmp_path / "input.txt"

    @settings(max_examples=40, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(damaged(text.encode("utf-8")))
    def check(data):
        path.write_bytes(data)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # duplicate vector words
            try:
                reader(path)
            except FormatError as exc:
                assert exc.path == path
            except VsmevalError:
                pass

    check()
