"""Kramer-Mesner orbit incidence systems.

The matrix A has one row per t-subspace orbit and one column per
k-subspace orbit; entry a(T, K) counts how many subspaces in K's orbit
contain a fixed representative of T's orbit.  It is computed by the
transpose count b(K, T) = #{t-subspaces of rep(K) in orbit T} and the
double-counting identity a(T, K) * |orbit T| = b(K, T) * |orbit K|.
A 0/1 selection x of columns with A x = (lambda, ..., lambda) is
exactly a t-(n, k, lambda) design over GF(2).

A is held as one dense uint8 array, rows by columns: the paper's system
is 105 x 30,705, about 3 MB, with entries at most 5.  Row sums, pruning,
the file's E lines and the cover options are numpy expressions over it.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .gf2 import FormatError, reading
from .groups import OrbitTable, group_hash
from .subspace import gaussian_binomial, subspaces_of_bulk

CHECKSUM_MOD = 1 << 32


@dataclass
class KMInstance:
    """A Kramer-Mesner system held as one dense uint8 matrix.

    matrix[i, j] is the entry of row id row_ids[i] and column id
    col_ids[j]; both id lists ascend.  Row and column ids are orbit ids
    in their tables and survive pruning unchanged, so a column id always
    names the same k-orbit.
    """

    n: int
    t: int
    k: int
    lam: int
    row_ids: list[int]
    row_lengths: list[int]
    col_ids: list[int]
    col_lengths: list[int]
    matrix: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def row_sums(self) -> dict[int, int]:
        return dict(zip(self.row_ids, self.matrix.sum(axis=1).tolist()))

    def nonzero(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row ids, column ids, values) of the nonzero entries as int64
        arrays, ordered by (column, row) like the E lines of a KM file:
        one scan of a column-major copy of matrix, freed before the ids
        are split out of the flat positions."""
        by_col = np.ascontiguousarray(self.matrix.T).reshape(-1)
        flat = np.flatnonzero(by_col)
        vals = by_col[flat].astype(np.int64)
        del by_col
        cols, rows = np.divmod(
            flat, max(1, self.matrix.shape[0]), out=(np.empty_like(flat), flat)
        )
        return (
            np.asarray(self.row_ids, dtype=np.int64)[rows],
            np.asarray(self.col_ids, dtype=np.int64)[cols],
            vals,
        )

    @property
    def entries(self) -> dict:
        """{(row id, column id): value} of the nonzero entries: a new
        dict built from matrix on each read, so editing it edits nothing.
        bench/workload.py is its only caller."""
        rids, cids, vals = self.nonzero()
        return dict(zip(zip(rids.tolist(), cids.tolist()), vals.tolist()))


def build_km(t_table: OrbitTable, k_table: OrbitTable, lam: int = 1) -> KMInstance:
    """Build the Kramer-Mesner matrix from two orbit tables.

    For every k-orbit representative K, each of its t-subspaces is
    located in the t-orbit table; the multiset of hits gives b(K, T)
    and the double-counting identity turns it into a(T, K), whose
    divisibility is checked exactly.  The tables' group_hash values must
    agree, else ValueError: the hash is of the generator list in order,
    so tables of one group built from different or reordered generators
    are refused too, as the group itself is not compared.  An entry above
    255 does not fit the uint8 matrix and raises OverflowError.
    """
    if t_table.n != k_table.n:
        raise ValueError("orbit tables live in different ambient spaces")
    if group_hash(t_table.group) != group_hash(k_table.group):
        raise ValueError(
            "orbit tables were built from different generator lists "
            "(group hashes differ)"
        )
    if not 0 < t_table.k < k_table.k:
        raise ValueError("need 0 < t < k between the two tables")
    n, t, k = k_table.n, t_table.k, k_table.k
    per_col = gaussian_binomial(k, t, 2)

    # lift every t-subspace of every representative, then label in bulk
    all_rows = subspaces_of_bulk(k_table.rows, t).reshape(-1, t)
    if all_rows.shape[0] != k_table.num_orbits * per_col:
        raise AssertionError("t-subspace count per representative is off")
    hit_ids = t_table.lookup_rows_bulk(all_rows)

    # b(K, T) for every (column, row) pair that occurs, ascending in (col, row)
    col_of = np.repeat(np.arange(k_table.num_orbits, dtype=np.int64), per_col)
    pairs, b = np.unique(
        col_of * t_table.num_orbits + hit_ids, return_counts=True
    )
    cols, rids = np.divmod(pairs, t_table.num_orbits)
    num = b * np.array(k_table.lengths, dtype=np.int64)[cols]
    den = np.array(t_table.lengths, dtype=np.int64)[rids]
    bad = np.nonzero(num % den)[0]
    if bad.size:
        i = int(bad[0])
        raise ArithmeticError(
            "double counting identity failed: orbit lengths are "
            f"inconsistent at row {int(rids[i])}, column {int(cols[i])} "
            f"(b={int(b[i])}); one of the orbit tables is corrupt"
        )
    vals = num // den
    if vals.max() > 255:
        i = vals.argmax()
        raise OverflowError(
            f"entry at row {rids[i]}, column {cols[i]} is {vals[i]}, "
            "above the uint8 limit 255"
        )
    matrix = np.zeros((t_table.num_orbits, k_table.num_orbits), dtype=np.uint8)
    matrix[rids, cols] = vals
    return KMInstance(
        n=n,
        t=t,
        k=k,
        lam=lam,
        row_ids=list(range(t_table.num_orbits)),
        row_lengths=list(t_table.lengths),
        col_ids=list(range(k_table.num_orbits)),
        col_lengths=list(k_table.lengths),
        matrix=matrix,
    )


def prune(inst: KMInstance) -> KMInstance:
    """Drop columns with any entry above lambda; they can join no solution.

    Returns a new instance with the kept columns.
    """
    keep = inst.matrix.max(axis=0, initial=0) <= inst.lam
    return replace(
        inst,
        col_ids=np.asarray(inst.col_ids)[keep].tolist(),
        col_lengths=np.asarray(inst.col_lengths)[keep].tolist(),
        matrix=inst.matrix[:, keep],
    )


# ---------------------------------------------------------------------------
# file format
#
#   KM n t k lambda rows cols
#   R id orbit-length          (one per row, ascending id)
#   C id orbit-length          (one per column, ascending id)
#   E row col value            (nonzero entries, sorted by (col, row))
#   X checksum                 (sum of all integers above, mod 2^32)

# record tags by type code, and each record's fields with its tag
_TAGS = ("KM", "R", "C", "E", "X")
_WIDTHS = np.array([7, 3, 3, 4, 2])
_WRITE_SLICE = 1 << 16  # lines per string when records are written


def checksum(inst: KMInstance) -> int:
    """The X line of inst's file: the sum of every integer above it, mod 2^32."""
    total = inst.n + inst.t + inst.k + inst.lam + len(inst.row_ids) + len(inst.col_ids)
    total += sum(inst.row_ids) + sum(inst.row_lengths)
    total += sum(inst.col_ids) + sum(inst.col_lengths)
    # each id once per nonzero entry of its row or column, and each value;
    # int64 products and sums wrap mod 2^64, which keeps them exact mod 2^32
    nonzero = inst.matrix != 0
    total += int(nonzero.sum(axis=1) @ np.asarray(inst.row_ids, dtype=np.int64))
    total += int(nonzero.sum(axis=0) @ np.asarray(inst.col_ids, dtype=np.int64))
    return (total + int(inst.matrix.sum())) % CHECKSUM_MOD


def _km_lines(inst: KMInstance) -> Iterator[str]:
    yield (
        f"KM {inst.n} {inst.t} {inst.k} {inst.lam} "
        f"{len(inst.row_ids)} {len(inst.col_ids)}\n"
    )
    for tag, columns in (
        ("R", (inst.row_ids, inst.row_lengths)),
        ("C", (inst.col_ids, inst.col_lengths)),
        ("E", inst.nonzero()),
    ):
        line = tag + " %d" * len(columns) + "\n"
        for a in range(0, len(columns[0]), _WRITE_SLICE):  # one % per slice
            flat = np.stack([c[a : a + _WRITE_SLICE] for c in columns], axis=1)
            yield line * len(flat) % tuple(flat.ravel().tolist())
    yield f"X {checksum(inst)}\n"


def format_km(inst: KMInstance) -> str:
    return "".join(_km_lines(inst))


def export_km(inst: KMInstance, path: str) -> None:
    """Write the KM file a slice of lines at a time, never all of its text."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_km_lines(inst))


def _reject(records: np.ndarray, bad: np.ndarray, message: str) -> None:
    """FormatError at the first (line, fields...) record where bad holds;
    message formats that record's fields, {1} onwards."""
    if bad.any():
        raise FormatError(("line {0}: " + message).format(*records[bad.argmax()]))


# a KM text exactly as _km_lines writes it, with the R, C and E lines as
# groups 1-3; possessive repeats keep no backtracking state per line
_FIELD = " [0-9]{1,18}"
_KM_LAYOUT = re.compile(
    f"KM(?:{_FIELD}){{6}}\n((?:R{_FIELD * 2}\n)*+)((?:C{_FIELD * 2}\n)*+)"
    f"((?:E{_FIELD * 3}\n)*+)X{_FIELD}\n"
)
_BLANK_TAGS = bytes.maketrans(b"KMRCEX", b"      ")


def _layout_records(text: str) -> tuple[list, list] | None:
    """The line numbers and the fields of each record type of a KM text
    laid out as _km_lines writes it, else None: one conversion in all."""
    layout = _KM_LAYOUT.fullmatch(text)
    if layout is None:
        return None
    counts = np.array([1, *(text.count("\n", *layout.span(g)) for g in (1, 2, 3)), 1])
    values = np.fromstring(text.encode().translate(_BLANK_TAGS), np.int64, sep=" ")
    lines = np.split(np.arange(1, counts.sum() + 1), np.cumsum(counts)[:-1])
    return lines, np.split(values, np.cumsum(counts * (_WIDTHS - 1))[:-1])


def _line_records(text: str) -> tuple[list, list]:
    """The line numbers and the fields of each record type of any KM text,
    read line by line in the two passes that parse_km describes."""
    lines: list[list[int]] = [[] for _ in _TAGS]
    fields: list[list[str]] = [[] for _ in _TAGS]
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        kind = _TAGS.index(parts[0]) if parts[0] in _TAGS else -1
        if kind < 0:
            raise FormatError(f"line {lineno}: unknown record '{parts[0]}'")
        if kind == 0 and lines[0]:
            raise FormatError(f"line {lineno}: duplicate header")
        if len(parts) != _WIDTHS[kind]:
            need = f"{parts[0]} record needs" if kind else "header needs"
            raise FormatError(f"line {lineno}: {need} {_WIDTHS[kind] - 1} integers")
        if kind == 0:
            _to_int64(parts[1:], [lineno] * 6)
        lines[kind].append(lineno)
        fields[kind] += parts[1:]
    return [np.array(ln, dtype=np.int64) for ln in lines], [
        _to_int64(f, np.repeat(ln, w - 1)) for ln, f, w in zip(lines, fields, _WIDTHS)
    ]


def _to_int64(fields: list[str], lines) -> np.ndarray:
    """The fields as int64, read as int() reads them; FormatError names the
    line of the first field that int() refuses, that does not fit int64,
    or that holds a non-ASCII digit."""
    if "".join(fields).isascii():
        try:
            return np.array(fields, dtype=np.int64)
        except (ValueError, OverflowError):
            pass
    for field, line in zip(fields, lines):
        try:
            np.array([field], dtype=np.int64)
        except (ValueError, OverflowError) as exc:
            raise FormatError(f"line {line}: {exc}") from exc
        if not field.isascii():
            raise FormatError(f"line {line}: non-ASCII digits in {field!r}")
    raise AssertionError("no field at fault")


def parse_km(text: str) -> KMInstance:
    """Parse and validate a KM file; FormatError names the offending line.

    A line's fields are its text before any '#', split at whitespace as
    str.split splits; fields take ASCII digits only.  The first fault is
    named by three passes in turn, each by line: unknown or repeated tags,
    wrong field counts and bad header fields; bad fields of the R, then C,
    E and X records; then the value checks below.  A text laid out
    exactly as format_km writes it is converted at once; any other is read
    line by line.
    """
    lines, fields = _layout_records(text) or _line_records(text)
    header, rows, cols, ents, xs = (
        np.column_stack([ln, f.reshape(len(ln), w - 1)])
        for ln, f, w in zip(lines, fields, _WIDTHS)
    )
    _reject(ents, ents[:, 3] <= 0, "entries must be positive")
    _reject(ents, ents[:, 3] > 255, "entry {3} is above 255")
    _reject(xs, np.arange(len(xs)) > 0, "duplicate X line")
    if not len(header):
        raise FormatError("missing KM header")
    n, t, k, lam, nrows, ncols = header[0, 1:].tolist()
    for recs, count, noun, name in (
        (rows, nrows, "rows", "row"),
        (cols, ncols, "cols", "column"),
    ):
        _reject(recs, recs[:, 2] <= 0, "orbit lengths must be positive")
        if len(recs) != count:
            raise FormatError(f"header promises {count} {noun}, file has {len(recs)}")
        if (np.diff(recs[:, 1]) <= 0).any():
            raise FormatError(f"{name} ids must be unique and ascending")
    known = np.isin(ents[:, 1], rows[:, 1]) & np.isin(ents[:, 2], cols[:, 1])
    _reject(ents, ~known, "entry ({1},{2}) references an unknown id")
    ri = np.searchsorted(rows[:, 1], ents[:, 1])
    ci = np.searchsorted(cols[:, 1], ents[:, 2])
    key = ci * nrows + ri
    if (np.diff(key) <= 0).any():  # not in file order, so maybe repeated
        repeat = np.ones(len(ents), dtype=bool)
        repeat[np.unique(key, return_index=True)[1]] = False
        _reject(ents, repeat, "duplicate entry ({1},{2})")
    matrix = np.zeros((nrows, ncols), dtype=np.uint8)
    matrix[ri, ci] = ents[:, 3]
    inst = KMInstance(
        n=n,
        t=t,
        k=k,
        lam=lam,
        row_ids=rows[:, 1].tolist(),
        row_lengths=rows[:, 2].tolist(),
        col_ids=cols[:, 1].tolist(),
        col_lengths=cols[:, 2].tolist(),
        matrix=matrix,
    )
    if not len(xs):
        raise FormatError("missing X checksum line")
    actual = checksum(inst)
    if actual != xs[0, 1]:
        raise FormatError(
            f"checksum mismatch: file says {xs[0, 1]}, content sums to {actual}"
        )
    return inst


def import_km(path: str) -> KMInstance:
    with reading(path) as text:
        return parse_km(text)
