import ast
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import vsmeval
from vsmeval.agreement import load_evaluation_set
from vsmeval.combine import load_cca_model, load_lexicon
from vsmeval.corpus import read_corpus, read_wordlist
from vsmeval.errors import FormatError, VsmevalError
from vsmeval.scoring import read_pair_list, read_scores
from vsmeval.textfile import read_lines, write_lines
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


_LINE = st.text(st.characters(codec="utf-8", exclude_characters="\n\r"))


@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(comments=st.lists(_LINE, max_size=4), lines=st.lists(_LINE))
def test_write_lines_reads_back_comments_then_non_blank_lines(
        tmp_path, comments, lines):
    path = tmp_path / "out.txt"
    write_lines(path, iter(lines), comments)
    written = [f"# {c}" for c in comments] + lines
    assert path.read_bytes() == "".join(
        line + "\n" for line in written).encode("utf-8")
    assert list(read_lines(path)) == [
        (n, line) for n, line in enumerate(written, start=1) if line.strip()]


def _opens(path):
    """``(function, mode)`` of each ``open(...)`` call in ``path``: the
    innermost function that makes it (None at module level) and its mode,
    ``"r"`` if none is given and None if it is not a constant."""
    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if (isinstance(child, ast.Call)
                    and getattr(child.func, "id", None) == "open"):
                modes = child.args[1:2] + [k.value for k in child.keywords
                                           if k.arg == "mode"]
                yield function, next(
                    (getattr(m, "value", None) for m in modes), "r")
            yield from visit(child, function)

    return sorted(visit(ast.parse(path.read_text(encoding="utf-8")), None),
                  key=repr)


def test_only_textfile_opens_a_file():
    # but for the SHA-256 of an input, which reads its bytes
    package = Path(vsmeval.__file__).parent
    opens = {p.name: calls for p in sorted(package.glob("*.py"))
             if p.name != "textfile.py" and (calls := _opens(p))}
    assert opens == {"manifest.py": [("file_digest", "rb")]}


def _unused_imports(path):
    """Names that ``path`` imports and never uses, as a name or as the
    base of an attribute; ``from __future__`` imports do not count."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    # the base of ``np.zeros`` is the name ``np``
    return imported - {node.id for node in ast.walk(tree)
                       if isinstance(node, ast.Name)}


def test_every_import_is_used():
    package = Path(vsmeval.__file__).parent
    unused = {p.name: names for p in sorted(package.glob("*.py"))
              if (names := _unused_imports(p))}
    assert unused == {}


# each is one half of a persisted format whose other half the program uses
_UNREACHED_BY_DESIGN = {"load_cca_model", "save_lexicon"}


def test_every_public_name_is_reached_by_the_program():
    # a name counts as reached when a module of the package or of the
    # benchmark spells it as a name, an attribute or a string (the
    # benchmark's tracer wraps functions by name); tests and demos do not
    # count
    package = Path(vsmeval.__file__).parent
    sources = [*package.glob("*.py"),
               *(Path(__file__).parents[1] / "perfbench").glob("*.py")]
    spelled = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                spelled.add(node.id)
            elif isinstance(node, ast.Attribute):
                spelled.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                spelled.add(node.value)
    public = {}  # qualified name -> the name a caller spells
    for path in package.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            public[node.name] = node.name
            if isinstance(node, ast.ClassDef):
                public.update((f"{node.name}.{item.name}", item.name)
                              for item in node.body
                              if isinstance(item, ast.FunctionDef)
                              and not item.name.startswith("_"))
    unreached = {qualified for qualified, name in public.items()
                 if name not in spelled}
    assert unreached == _UNREACHED_BY_DESIGN
