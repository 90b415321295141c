"""The dict-based Kramer-Mesner code, kept as a test oracle.

This is the sparse form `qsteiner.kramer_mesner` used before it held the
system as one dense uint8 matrix: entries live in a dict keyed by
(row id, column id), and every operation walks that dict in Python.  The
dense code must agree with it on entries, row sums, pruned columns,
file bytes, parsed instances and cover options.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from qsteiner.exact_cover import CoverProblem
from qsteiner.gf2 import FormatError
from qsteiner.groups import OrbitTable
from qsteiner.subspace import gaussian_binomial, subspaces_of_bulk

CHECKSUM_MOD = 1 << 32


@dataclass
class KMInstance:
    """A Kramer-Mesner system with sparse nonzero entries.

    Row and column ids are orbit ids in their tables and survive
    pruning unchanged, so a column id always names the same k-orbit.
    """

    n: int
    t: int
    k: int
    lam: int
    row_ids: list[int]
    row_lengths: list[int]
    col_ids: list[int]
    col_lengths: list[int]
    entries: dict[tuple[int, int], int]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_ids), len(self.col_ids))

    def row_sums(self) -> dict[int, int]:
        sums = {rid: 0 for rid in self.row_ids}
        for (rid, _cid), val in self.entries.items():
            sums[rid] += val
        return sums


def build_km(t_table: OrbitTable, k_table: OrbitTable, lam: int = 1) -> KMInstance:
    """Build the Kramer-Mesner matrix from two orbit tables.

    For every k-orbit representative K, each of its t-subspaces is
    located in the t-orbit table; the multiset of hits gives b(K, T)
    and the double-counting identity turns it into a(T, K), whose
    divisibility is checked exactly.
    """
    if t_table.n != k_table.n:
        raise ValueError("orbit tables live in different ambient spaces")
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
    entries: dict[tuple[int, int], int] = dict(
        zip(zip(rids.tolist(), cols.tolist()), (num // den).tolist())
    )
    return KMInstance(
        n=n,
        t=t,
        k=k,
        lam=lam,
        row_ids=list(range(t_table.num_orbits)),
        row_lengths=list(t_table.lengths),
        col_ids=list(range(k_table.num_orbits)),
        col_lengths=list(k_table.lengths),
        entries=entries,
    )


def prune(inst: KMInstance) -> KMInstance:
    """Drop columns with any entry above lambda; they can join no solution.

    Returns a new instance with the kept columns.
    """
    bad = {cid for (_rid, cid), val in inst.entries.items() if val > inst.lam}
    keep = [cid for cid in inst.col_ids if cid not in bad]
    keep_set = set(keep)
    return KMInstance(
        n=inst.n,
        t=inst.t,
        k=inst.k,
        lam=inst.lam,
        row_ids=list(inst.row_ids),
        row_lengths=list(inst.row_lengths),
        col_ids=keep,
        col_lengths=[
            l for cid, l in zip(inst.col_ids, inst.col_lengths) if cid in keep_set
        ],
        entries={
            (rid, cid): val
            for (rid, cid), val in inst.entries.items()
            if cid in keep_set
        },
    )


# ---------------------------------------------------------------------------
# file format
#
#   KM n t k lambda rows cols
#   R id orbit-length          (one per row, ascending id)
#   C id orbit-length          (one per column, ascending id)
#   E row col value            (nonzero entries, sorted by (col, row))
#   X checksum                 (sum of all integers above, mod 2^32)


def _checksum(inst: KMInstance) -> int:
    total = inst.n + inst.t + inst.k + inst.lam + len(inst.row_ids) + len(inst.col_ids)
    total += sum(inst.row_ids) + sum(inst.row_lengths)
    total += sum(inst.col_ids) + sum(inst.col_lengths)
    for (rid, cid), val in inst.entries.items():
        total += rid + cid + val
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
    # sorting the keys alone, not (key, value) pairs, halves the transient
    for rid, cid in sorted(inst.entries, key=lambda rc: (rc[1], rc[0])):
        yield f"E {rid} {cid} {inst.entries[rid, cid]}\n"
    yield f"X {_checksum(inst)}\n"


def format_km(inst: KMInstance) -> str:
    return "".join(_km_lines(inst))


def export_km(inst: KMInstance, path: str) -> None:
    """Write the KM file a line at a time, never holding all of its text."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_km_lines(inst))


def parse_km(text: str) -> KMInstance:
    """Parse and validate a KM file; FormatError names the offending line."""
    header = None
    rows: list[tuple[int, int]] = []
    cols: list[tuple[int, int]] = []
    entries: dict[tuple[int, int], int] = {}
    checksum = None
    # line by line: a list of all lines, one per entry, would take about
    # as much memory as the entries dict being built from them
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "KM":
                if header is not None:
                    raise FormatError(f"line {lineno}: duplicate header")
                if len(parts) != 7:
                    raise FormatError(f"line {lineno}: header needs 6 integers")
                header = tuple(int(x) for x in parts[1:])
            elif parts[0] == "R":
                rows.append((int(parts[1]), int(parts[2])))
            elif parts[0] == "C":
                cols.append((int(parts[1]), int(parts[2])))
            elif parts[0] == "E":
                rid, cid, val = int(parts[1]), int(parts[2]), int(parts[3])
                if val <= 0:
                    raise FormatError(f"line {lineno}: entries must be positive")
                if (rid, cid) in entries:
                    raise FormatError(f"line {lineno}: duplicate entry ({rid},{cid})")
                entries[(rid, cid)] = val
            elif parts[0] == "X":
                checksum = int(parts[1])
            else:
                raise FormatError(f"line {lineno}: unknown record '{parts[0]}'")
        except (ValueError, IndexError) as exc:
            if isinstance(exc, FormatError):
                raise
            raise FormatError(f"line {lineno}: {exc}") from exc
    if header is None:
        raise FormatError("missing KM header")
    n, t, k, lam, nrows, ncols = header
    if len(rows) != nrows:
        raise FormatError(f"header promises {nrows} rows, file has {len(rows)}")
    if len(cols) != ncols:
        raise FormatError(f"header promises {ncols} cols, file has {len(cols)}")
    row_ids = [r for r, _ in rows]
    col_ids = [c for c, _ in cols]
    if sorted(row_ids) != row_ids or len(set(row_ids)) != len(row_ids):
        raise FormatError("row ids must be unique and ascending")
    if sorted(col_ids) != col_ids or len(set(col_ids)) != len(col_ids):
        raise FormatError("column ids must be unique and ascending")
    known_r, known_c = set(row_ids), set(col_ids)
    for rid, cid in entries:
        if rid not in known_r or cid not in known_c:
            raise FormatError(f"entry ({rid},{cid}) references an unknown id")
    inst = KMInstance(
        n=n,
        t=t,
        k=k,
        lam=lam,
        row_ids=row_ids,
        row_lengths=[l for _, l in rows],
        col_ids=col_ids,
        col_lengths=[l for _, l in cols],
        entries=entries,
    )
    if checksum is None:
        raise FormatError("missing X checksum line")
    actual = _checksum(inst)
    if actual != checksum:
        raise FormatError(
            f"checksum mismatch: file says {checksum}, content sums to {actual}"
        )
    return inst


def from_km(inst: KMInstance, lam: int | None = None) -> CoverProblem:
    """Cover problem from a Kramer-Mesner instance: items are t-orbits,
    one option per column covering the rows with entry 1."""
    lam = inst.lam if lam is None else lam
    by_col: dict[int, list[int]] = {cid: [] for cid in inst.col_ids}
    for (rid, cid), val in inst.entries.items():
        if val > 1:
            raise ValueError(
                f"column {cid} meets a row {val} times (> 1) and cannot be a "
                "0/1 exact cover option; prune the instance first"
            )
        by_col[cid].append(rid)
    options = [(cid, sorted(by_col[cid])) for cid in inst.col_ids]
    options = [(cid, items) for cid, items in options if items]
    problem = CoverProblem.from_options(list(inst.row_ids), options, lam)
    problem.checksum = _checksum(inst)
    return problem
