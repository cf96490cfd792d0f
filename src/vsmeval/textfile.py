"""The one reader and the one writer of vsmeval text files.

Every format is UTF-8. ``read_lines`` streams the non-blank lines of a
file with their physical line numbers and raises a ``FormatError`` naming
path:line on bytes that are not UTF-8. ``read_rows`` gives the cells of
the TSV lines that are not ``#`` comments (score files, whose ``#OOV``
lines are data, use ``read_lines``). ``numeric`` is the one rule for the
text of a number. ``write_lines`` writes every format; ``check_cells``
refuses a TSV cell holding a tab or a line break.
"""

import re

from .errors import FormatError

_UNDECODABLE = re.compile("[\udc80-\udcff]")  # surrogateescape's escapes


def read_lines(path):
    """Yield ``(line number, line without its break)`` for every line
    that holds more than whitespace. Lines end at universal newlines."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii() and _UNDECODABLE.search(line):
                raise FormatError("malformed UTF-8", path=path, line=lineno)
            if not line.isspace():
                yield lineno, line.rstrip("\n")


def read_rows(path):
    """Yield ``(line number, cells)`` for every tab-separated line that
    is neither blank nor a ``#`` comment."""
    for lineno, line in read_lines(path):
        if not line.startswith("#"):
            yield lineno, line.split("\t")


def write_lines(path, lines, comments=()) -> None:
    """Write ``# `` + each comment, then each line, every one ending in a
    line break, as UTF-8; ``lines`` is consumed as it is written."""
    with open(path, "w", encoding="utf-8") as fh:
        for comment in comments:
            fh.write(f"# {comment}\n")
        for line in lines:  # one write per line: faster than writelines
            fh.write(line + "\n")


def numeric(text: str) -> str:
    """``text``, or ValueError if it holds ``_`` or a non-ASCII character,
    which ``int`` and ``float`` read: ``1_0`` as 10, ``\u0661`` as 1."""
    if "_" in text or not text.isascii():
        raise ValueError(text)
    return text


def check_cells(cells, path) -> None:
    """Refuse a cell that a tab-separated line cannot give back: one
    holding a tab or a line break."""
    for cell in cells:
        if "\t" in cell or "\n" in cell or "\r" in cell:
            raise FormatError(f"cell {cell!r} holds a tab or a line break",
                              path=path)
