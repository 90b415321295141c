"""The per-line matrix text parser and the per-block subspace reader,
kept as the oracles of the bulk readers.

parse_matrix_text is the loop that gf2.parse_matrix_text ran before the
parse moved to numpy (gf2.parse_matrix_rows).  The bulk parser must
return the same matrices, or raise FormatError with the same message, on
every input.  parse_subspaces is the reader that built one Subspace per
block before subspace.parse_subspaces reduced every block at once.
"""

from __future__ import annotations

from qsteiner.gf2 import MAX_WIDTH, BitMatrix, FormatError
from qsteiner.subspace import Subspace, span


def numbered_matrices(text: str) -> list[tuple[int, BitMatrix]]:
    """Every matrix block in text with the line of its first row;
    FormatError carries line numbers."""
    matrices: list[tuple[int, BitMatrix]] = []
    cur_rows: list[int] = []
    cur_width = 0
    cur_line = 0

    def flush() -> None:
        nonlocal cur_rows, cur_width
        if cur_rows:
            matrices.append((cur_line, BitMatrix(tuple(cur_rows), cur_width)))
        cur_rows = []
        cur_width = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            if "#" not in raw:
                flush()
            continue
        if any(c not in "01" for c in line):
            raise FormatError(f"line {lineno}: expected a row of 0/1 characters")
        if cur_rows and len(line) != cur_width:
            raise FormatError(
                f"line {lineno}: row width {len(line)} != matrix width {cur_width}"
            )
        if len(line) > MAX_WIDTH:
            raise FormatError(f"line {lineno}: width {len(line)} exceeds {MAX_WIDTH}")
        if not cur_rows:
            cur_line = lineno
        cur_width = len(line)
        cur_rows.append(sum((1 << j) for j, c in enumerate(line) if c == "1"))
    flush()
    return matrices


def parse_matrix_text(text: str) -> list[BitMatrix]:
    """Parse every matrix block in text; FormatError carries line numbers."""
    return [m for _, m in numbered_matrices(text)]


def parse_subspaces(text: str) -> list[Subspace]:
    """One span per matrix, each of its own width and dimension, and a
    FormatError at the first basis with dependent rows."""
    subs = []
    for line, m in numbered_matrices(text):
        u = span(m.rows, m.ncols)
        if u.dim < m.nrows:
            raise FormatError(
                f"line {line}: block rows are linearly dependent "
                f"(rank {u.dim} < {m.nrows})"
            )
        subs.append(u)
    return subs
