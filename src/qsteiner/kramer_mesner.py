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
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from .gf2 import FormatError
from .groups import OrbitTable, group_hash
from .subspace import gaussian_binomial, subspaces_of_bulk

CHECKSUM_MOD = 1 << 32


@dataclass
class KMInstance:
    """A Kramer-Mesner system held as one dense uint8 matrix.

    matrix[i, j] is the entry of row id row_ids[i] and column id
    col_ids[j]; both id lists ascend.  Row and column ids are orbit ids
    in their tables and survive pruning unchanged, so a column id always
    names the same k-orbit.  pruned records (col_id, row_id, value)
    witnesses for removed columns.
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
    pruned: list[tuple[int, int, int]] = field(default_factory=list)

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
        dict built from matrix on each read, so editing it edits nothing."""
        rids, cids, vals = self.nonzero()
        return dict(zip(zip(rids.tolist(), cids.tolist()), vals.tolist()))


def build_km(t_table: OrbitTable, k_table: OrbitTable, lam: int = 1) -> KMInstance:
    """Build the Kramer-Mesner matrix from two orbit tables.

    For every k-orbit representative K, each of its t-subspaces is
    located in the t-orbit table; the multiset of hits gives b(K, T)
    and the double-counting identity turns it into a(T, K), whose
    divisibility is checked exactly.  When both tables carry a group,
    their group_hash values must agree, else ValueError: the hash is of
    the generator list in order, so tables of one group built from
    different or reordered generators are refused too, as the group
    itself is not compared.  An entry above 255 does not fit the uint8
    matrix and raises OverflowError.
    """
    if t_table.n != k_table.n:
        raise ValueError("orbit tables live in different ambient spaces")
    if (
        t_table.group is not None
        and k_table.group is not None
        and group_hash(t_table.group) != group_hash(k_table.group)
    ):
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

    Returns a new instance; removed columns are recorded with their
    first violating (row, value) witness, the one of lowest row id.
    """
    # over-lambda entries by (column, row): a column's first is its witness
    rids, cids, vals = inst.nonzero()
    over = vals > inst.lam
    dropped, first = np.unique(cids[over], return_index=True)
    keep = ~np.isin(inst.col_ids, dropped)
    witnesses = zip(
        dropped.tolist(), rids[over][first].tolist(), vals[over][first].tolist()
    )
    return replace(
        inst,
        col_ids=np.asarray(inst.col_ids)[keep].tolist(),
        col_lengths=np.asarray(inst.col_lengths)[keep].tolist(),
        matrix=inst.matrix[:, keep],
        pruned=inst.pruned + list(witnesses),
    )


# ---------------------------------------------------------------------------
# file format
#
#   KM n t k lambda rows cols
#   R id orbit-length          (one per row, ascending id)
#   C id orbit-length          (one per column, ascending id)
#   E row col value            (nonzero entries, sorted by (col, row))
#   X checksum                 (sum of all integers above, mod 2^32)

# fields per record, the tag included
_FIELDS = {"R": 3, "C": 3, "E": 4, "X": 2}


def _checksum(inst: KMInstance) -> int:
    total = inst.n + inst.t + inst.k + inst.lam + len(inst.row_ids) + len(inst.col_ids)
    total += sum(inst.row_ids) + sum(inst.row_lengths)
    total += sum(inst.col_ids) + sum(inst.col_lengths)
    # int64 sums wrap mod 2^64, which keeps them exact mod 2^32
    total += sum(int(a.sum()) for a in inst.nonzero())
    return total % CHECKSUM_MOD


def _km_lines(inst: KMInstance) -> Iterator[str]:
    yield (
        f"KM {inst.n} {inst.t} {inst.k} {inst.lam} "
        f"{len(inst.row_ids)} {len(inst.col_ids)}\n"
    )
    for rid, length in zip(inst.row_ids, inst.row_lengths):
        yield f"R {rid} {length}\n"
    for cid, length in zip(inst.col_ids, inst.col_lengths):
        yield f"C {cid} {length}\n"
    rids, cids, vals = inst.nonzero()
    for rid, cid, val in zip(rids.tolist(), cids.tolist(), vals.tolist()):
        yield f"E {rid} {cid} {val}\n"
    yield f"X {_checksum(inst)}\n"


def format_km(inst: KMInstance) -> str:
    return "".join(_km_lines(inst))


def export_km(inst: KMInstance, path: str) -> None:
    """Write the KM file a line at a time, never holding all of its text."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_km_lines(inst))


def _ints(flat: list, width: int) -> np.ndarray:
    """Records of (line number, integer fields...) as an int64 array; a
    field that is no integer or does not fit 64 bits names its line."""
    try:
        return np.array(flat, dtype=np.int64).reshape(-1, width)
    except (ValueError, OverflowError):
        for i in range(0, len(flat), width):
            try:
                np.array(flat[i : i + width], dtype=np.int64)
            except (ValueError, OverflowError) as exc:
                raise FormatError(f"line {flat[i]}: {exc}") from exc
        raise


def _reject(records: np.ndarray, bad: np.ndarray, message: str) -> None:
    """FormatError at the first (line, fields...) record where bad holds;
    message formats that record's fields, {1} onwards."""
    if bad.any():
        raise FormatError(("line {0}: " + message).format(*records[bad.argmax()]))


def parse_km(text: str) -> KMInstance:
    """Parse and validate a KM file; FormatError names the offending line."""
    header = None
    # per record type, one flat run of (line number, fields...) per line;
    # the fields stay text until one bulk conversion
    records: dict[str, list] = {tag: [] for tag in _FIELDS}
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        tag = parts[0]
        parts[0] = lineno
        if tag == "KM":
            if header is not None:
                raise FormatError(f"line {lineno}: duplicate header")
            if len(parts) != 7:
                raise FormatError(f"line {lineno}: header needs 6 integers")
            header = _ints(parts, 7)[0, 1:].tolist()
        elif tag not in _FIELDS:
            raise FormatError(f"line {lineno}: unknown record '{tag}'")
        elif len(parts) != _FIELDS[tag]:
            raise FormatError(
                f"line {lineno}: {tag} record needs {_FIELDS[tag] - 1} integers"
            )
        else:
            records[tag] += parts
    rows, cols, ents, xs = (_ints(records[tag], _FIELDS[tag]) for tag in "RCEX")
    _reject(ents, ents[:, 3] <= 0, "entries must be positive")
    _reject(ents, ents[:, 3] > 255, "entry {3} is above 255")
    _reject(xs, np.arange(len(xs)) > 0, "duplicate X line")
    if header is None:
        raise FormatError("missing KM header")
    n, t, k, lam, nrows, ncols = header
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
    repeat = np.ones(len(ents), dtype=bool)
    repeat[np.unique(ri * ncols + ci, return_index=True)[1]] = False
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
    actual = _checksum(inst)
    if actual != xs[0, 1]:
        raise FormatError(
            f"checksum mismatch: file says {xs[0, 1]}, content sums to {actual}"
        )
    return inst


def import_km(path: str) -> KMInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_km(fh.read())
