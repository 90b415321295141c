"""Subspaces of GF(2)^n: keys, enumeration, counting and the text format.

A subspace is held as the reduced row echelon form of any spanning set,
packed row-wise into ints (see gf2); many of them are an (N, k) unsigned
array of such rows, uint64 or, in a block set, gf2.row_dtype(n).  The
canonical integer key orders subspaces by (pivot columns, free entries),
which makes orbit representatives and enumeration order reproducible.
This module alone packs and unpacks that key (pack_keys_bulk, key_rows).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

import numpy as np

from .gf2 import (
    RREF_CHUNK_ROWS,
    FormatError,
    LimitError,
    parse_matrix_rows,
    reading,
    rref_bulk,
    rref_checked,
    rref_rows,
    span_vectors_bulk,
)

ENUMERATION_GUARD = 10**8


@dataclass(frozen=True)
class Subspace:
    """A subspace of GF(2)^ambient held as its RREF basis rows.

    bench/probes.py is its only caller: every stage works on arrays of
    rows instead.
    """

    ambient: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.ambient <= 64:
            raise ValueError(f"ambient dimension {self.ambient} out of range")
        object.__setattr__(self, "rows", tuple(self.rows))
        if rref_rows(self.rows)[0] != self.rows:
            raise ValueError("rows are not in reduced row echelon form")
        if self.rows and self.rows[-1].bit_length() > self.ambient:
            raise ValueError("basis row exceeds ambient width")

    @property
    def dim(self) -> int:
        return len(self.rows)


def span(vectors: Iterable[int], n: int) -> Subspace:
    """Subspace spanned by packed vectors inside GF(2)^n; bench/probes.py
    is its only caller."""
    red, _ = rref_rows(vectors)
    return Subspace(n, red)


def gaussian_binomial(n: int, k: int, q: int = 2) -> int:
    """Number of k-dim subspaces of an n-dim space over GF(q), exactly."""
    if q < 2:
        raise ValueError("q must be a prime power >= 2")
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    if num % den:
        raise ArithmeticError("gaussian binomial did not divide evenly")
    return num // den


def spread_size(n: int, k: int) -> int:
    """Number of blocks in a k-spread of GF(2)^n; requires k | n."""
    if k <= 0 or n % k:
        raise ValueError(f"a {k}-spread of a {n}-dim space requires {k} | {n}")
    return (2**n - 1) // (2**k - 1)


def key_bits(n: int, k: int) -> int:
    """Width of the key of a k-dim subspace of GF(2)^n (see pack_keys_bulk)."""
    return k * (n - k) + n + k.bit_length()


def _drop_columns(r, bits):
    """r with the columns of bits removed: ascending single-bit masks, each
    0 in r.  Highest first, the part of r above a column moves down by one.
    Works in place on a uint64 array."""
    for b in reversed(bits):
        r -= (r & -b) >> 1
    return r


def key_chunks(n: int, k: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Keys and RREF rows of all k-dim subspaces of GF(2)^n in ascending
    key order, one chunk per pivot mask: a uint64 key array and the (M, k)
    uint64 rows beside it; requires the key to fit in 64 bits."""
    if key_bits(n, k) > 64:
        raise ValueError("packed keys do not fit in 64 bits for this (n, k)")
    width = n - k
    one = np.uint64(1)
    masks = sorted(sum(1 << p for p in ps) for ps in combinations(range(n), k))
    for pivmask in masks:
        pivots = [j for j in range(n) if (pivmask >> j) & 1]
        nonpivot = [j for j in range(n) if not (pivmask >> j) & 1]
        free = [
            (i * width + pos, j)
            for i, p in enumerate(pivots)
            for pos, j in enumerate(nonpivot)
            if j > p
        ]
        prefix = np.uint64(((k << n) | pivmask) << (k * width))
        c = np.arange(1 << len(free), dtype=np.uint64)
        val = np.zeros_like(c)
        rows = np.tile(np.array([1 << p for p in pivots], dtype=np.uint64), (c.size, 1))
        for b, (pos, col) in enumerate(free):
            bit = (c >> np.uint64(b)) & one
            val |= bit << np.uint64(pos)
            rows[:, pos // width] |= bit << np.uint64(col)
        yield prefix | val, rows


def enumerate_keys_bulk(n: int, k: int, guard: int = ENUMERATION_GUARD) -> np.ndarray:
    """All keys of k-dim subspaces of GF(2)^n as a sorted uint64 array:
    the chunks of key_chunks, joined."""
    total = gaussian_binomial(n, k, 2)
    if total > guard:
        raise LimitError(
            f"{total} subspaces exceed the enumeration guard {guard}"
        )
    out = np.concatenate([keys for keys, _ in key_chunks(n, k)])
    if out.size != total:
        raise AssertionError("enumeration produced a wrong subspace count")
    return out


def pack_keys_bulk(rows: np.ndarray, n: int) -> np.ndarray:
    """Keys for many RREF bases at once; rows is (N, k) unsigned.

    A key is (dim, pivot mask) above, then each row with its k pivot
    columns removed, row i at bit offset i*(n-k); key_rows inverts it.
    Keys are injective and ascend in the order of key_chunks for fixed
    (n, dim).  Built in blocks of RREF_CHUNK_ROWS bases, each widened to
    uint64, whose temporaries stay in cache.
    """
    rows = np.asarray(rows)
    num, k = rows.shape
    if key_bits(n, k) > 64:
        raise ValueError("packed keys do not fit in 64 bits for this (n, k)")
    out = np.empty(num, dtype=np.uint64)
    for start in range(0, num, RREF_CHUNK_ROWS):
        part = rows[start : start + RREF_CHUNK_ROWS].astype(np.uint64, copy=False).T
        key = out[start : start + RREF_CHUNK_ROWS]
        piv = [r & (np.uint64(0) - r) for r in part]  # each row's lowest set bit
        key[...] = k << n
        for b in piv:
            key |= b
        for i in reversed(range(k)):
            key <<= np.uint64(n - k)
            key |= _drop_columns(part[i] ^ piv[i], piv)
    return out


def key_order(rows: np.ndarray) -> np.ndarray:
    """Indices that sort (N, k) unsigned RREF rows into ascending key order.

    Keys that fit in 64 bits are packed (see pack_keys_bulk) with n the
    widest row's bit length, which leaves their order as it is for any
    larger n, and sorted as integers.  Wider keys are sorted by pivot
    mask, then by the rows from the last one up, whose pivot columns
    agree wherever the masks do.  Only equal rows have equal keys, so the
    sorted rows do not depend on how a sort breaks ties, and the integer
    sort need not be stable (a stable one takes three times as long).
    """
    rows = np.asarray(rows)
    k = rows.shape[1]
    n = max(k, int(rows.max()).bit_length() if rows.size else 0)
    if key_bits(n, k) <= 64:
        return np.argsort(pack_keys_bulk(rows, n))
    pivots = np.bitwise_or.reduce(rows & (rows.dtype.type(0) - rows), axis=1)
    return np.lexsort((*rows.T, pivots))


def key_rows(key: int, n: int, k: int) -> tuple[int, ...]:
    """The RREF rows of a k-dim subspace of GF(2)^n from its key: the
    inverse of pack_keys_bulk, for one key of any width."""
    width = n - k
    head = key >> (k * width)
    pivmask = head & ((1 << n) - 1)
    if head >> n != k or pivmask.bit_count() != k:
        raise ValueError("key does not decode to the given dimension")
    bits = [1 << p for p in range(n) if pivmask >> p & 1]
    rows = []
    for i, b in enumerate(bits):
        r = key >> (i * width) & ((1 << width) - 1)
        for p in bits:  # put the pivot columns back, lowest first
            r += r & -p
        rows.append(r | b)
    return tuple(rows)


def subspaces_of_bulk(rows: np.ndarray, t: int) -> np.ndarray:
    """All t-dim subspaces of many subspaces at once, as RREF rows.

    rows is (N, k) unsigned, one RREF basis per subspace.  Returns
    (N, [k t]_2, t) uint64: entry [i, j] is the j-th subspace, in key
    order of its coordinates in basis i.  A coordinate row wr of a subspace
    of GF(2)^k lifts to span vector wr - 1 of the basis (the XOR of the
    rows it selects), then all lifts are reduced in one rref_bulk call.
    """
    rows = np.ascontiguousarray(rows, dtype=np.uint64)
    num, k = rows.shape
    if not 0 <= t <= k:
        raise ValueError(f"need 0 <= t <= {k}")
    coords = np.concatenate([rows for _, rows in key_chunks(k, t)]).astype(np.int64)
    lifted = span_vectors_bulk(rows)[:, coords - 1]
    red, ranks = rref_bulk(lifted.reshape(num * len(coords), t))
    if not np.all(ranks == t):
        raise ValueError("basis rows are linearly dependent")
    return red.reshape(num, len(coords), t)


# ---------------------------------------------------------------------------
# text format: a subspace is a matrix block whose rows are its RREF basis


def parse_subspaces(
    text: str, n: int | None = None, k: int | None = None, blocks: int | None = None
) -> tuple[int, np.ndarray, np.ndarray]:
    """Read matrix blocks as k-dim subspaces of GF(2)^n, in bulk.

    Returns n, the (N, k) RREF rows of the blocks, in row_dtype(n) for a
    text laid out as save writes it and else in uint64, and the 1-based
    line of each block's first row.  Every block needs width n and k rows,
    the caller's or else the first block's, and rows of full rank; blocks,
    when given, is the block count a header states.  Each fault is a
    FormatError naming its line.  Blocks already in RREF, as save
    writes them, are not row-reduced (see rref_checked).
    """
    parsed = parse_matrix_rows(text)
    num = parsed.widths.size
    if not num:
        raise FormatError("no blocks found")
    if blocks is not None and blocks != num:
        raise FormatError(f"header says blocks={blocks}, file has {num}")
    counts = np.diff(parsed.starts)
    n = int(parsed.widths[0]) if n is None else n
    k = int(counts[0]) if k is None else k
    for name, have, want in (("n", parsed.widths, n), ("k", counts, k)):
        wrong = np.flatnonzero(have != want)
        if wrong.size:
            i = wrong[0]
            raise FormatError(
                f"line {parsed.lines[i]}: block has {name}={have[i]}, "
                f"expected {name}={want}"
            )
    rows, fault = rref_checked(parsed.values.reshape(num, k))
    if fault is not None:
        i, rank = fault
        raise FormatError(
            f"line {parsed.lines[i]}: block rows are linearly dependent "
            f"(rank {rank} < {k})"
        )
    return n, rows, parsed.lines


def load_subspace_file(path: str) -> np.ndarray:
    """The (N, k) RREF rows of a file of subspaces; see parse_subspaces."""
    with reading(path) as text:
        return parse_subspaces(text)[1]
