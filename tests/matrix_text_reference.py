"""The per-line matrix text parser, kept as the oracle of the bulk parser.

This is the loop that gf2.parse_matrix_text ran before the parse moved to
numpy (gf2.parse_matrix_rows).  The bulk parser must return the same
matrices, or raise FormatError with the same message, on every input.
"""

from __future__ import annotations

from qsteiner.gf2 import MAX_WIDTH, BitMatrix, FormatError


def parse_matrix_text(text: str) -> list[BitMatrix]:
    """Parse every matrix block in text; FormatError carries line numbers."""
    matrices: list[BitMatrix] = []
    cur_rows: list[int] = []
    cur_width = 0

    def flush() -> None:
        nonlocal cur_rows, cur_width
        if cur_rows:
            matrices.append(BitMatrix(tuple(cur_rows), cur_width))
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
        cur_width = len(line)
        cur_rows.append(sum((1 << j) for j, c in enumerate(line) if c == "1"))
    flush()
    return matrices
