"""Subspaces of GF(2)^n: canonical forms, enumeration, and counting.

A subspace is identified by the reduced row echelon form of any spanning
set, packed row-wise into ints (see gf2).  The canonical integer key
orders subspaces by (pivot columns, free entries), which makes orbit
representatives and enumeration order reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator

import numpy as np

from .gf2 import (
    BitMatrix,
    FormatError,
    format_matrix,
    parse_matrix_rows,
    popcount_u64,
    rref_bulk,
    rref_rows,
    span_vectors_bulk,
)

ENUMERATION_GUARD = 10**8


class EnumerationGuardError(RuntimeError):
    """Enumeration would visit more subspaces than the guard allows."""


@dataclass(frozen=True)
class Subspace:
    """A subspace of GF(2)^ambient held as its RREF basis rows."""

    ambient: int
    rows: tuple[int, ...]
    key: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.ambient <= 64:
            raise ValueError(f"ambient dimension {self.ambient} out of range")
        object.__setattr__(self, "rows", tuple(self.rows))
        red, pivots = rref_rows(self.rows)
        if red != self.rows:
            raise ValueError("rows are not in reduced row echelon form")
        if self.rows and self.rows[-1].bit_length() > self.ambient:
            raise ValueError("basis row exceeds ambient width")
        object.__setattr__(self, "key", _pack_key(self.ambient, self.rows, pivots))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def vectors(self) -> list[int]:
        """All 2^dim elements, in XOR-subset counter order."""
        out = [0]
        for r in self.rows:
            out += [v ^ r for v in out]
        return out

    def __repr__(self) -> str:
        return f"Subspace(n={self.ambient}, dim={self.dim}, key={self.key})"


def _pack_key(n: int, rows: tuple[int, ...], pivots: tuple[int, ...]) -> int:
    """Canonical key: (dim, pivot mask) above, free entries below.

    Free entries of row i sit at bit offset i*(n-k), one bit per
    non-pivot column in increasing column order.  Keys are injective
    and ascending in enumeration order for fixed (n, dim).
    """
    k = len(rows)
    pivmask = 0
    for p in pivots:
        pivmask |= 1 << p
    packed = 0
    width = n - k
    for i, r in enumerate(rows):
        pos = 0
        for j in range(n):
            if (pivmask >> j) & 1:
                continue
            packed |= ((r >> j) & 1) << (i * width + pos)
            pos += 1
    return ((k << n) | pivmask) << (k * width) | packed


def subspace_from_key(n: int, k: int, key: int) -> Subspace:
    """Inverse of the key packing for a known (n, k) context."""
    width = n - k
    packed = key & ((1 << (k * width)) - 1)
    head = key >> (k * width)
    pivmask = head & ((1 << n) - 1)
    if head >> n != k or pivmask.bit_count() != k:
        raise ValueError("key does not decode to the given dimension")
    nonpivot = [j for j in range(n) if not (pivmask >> j) & 1]
    rows = []
    pivots = [j for j in range(n) if (pivmask >> j) & 1]
    for i in range(k):
        r = 1 << pivots[i]
        chunk = (packed >> (i * width)) & ((1 << width) - 1)
        for pos, j in enumerate(nonpivot):
            r |= ((chunk >> pos) & 1) << j
        rows.append(r)
    return Subspace(n, tuple(rows))


def canonicalize(m: BitMatrix) -> Subspace:
    """Subspace spanned by the rows of m, in canonical form."""
    red, _ = rref_rows(m.rows)
    return Subspace(m.ncols, red)


def span(vectors: Iterable[int], n: int) -> Subspace:
    """Subspace spanned by packed vectors inside GF(2)^n."""
    red, _ = rref_rows(vectors)
    return Subspace(n, red)


def contains(u: Subspace, v: int) -> bool:
    """Membership of the packed vector v in u."""
    if v < 0 or v.bit_length() > u.ambient:
        raise ValueError("vector does not live in the ambient space")
    for r in u.rows:
        if (v >> ((r & -r).bit_length() - 1)) & 1:
            v ^= r
    return v == 0


def contains_subspace(u: Subspace, w: Subspace) -> bool:
    """Whether w is a subspace of u."""
    if u.ambient != w.ambient:
        raise ValueError("ambient dimensions differ")
    return all(contains(u, r) for r in w.rows)


def intersection_dim(u: Subspace, w: Subspace) -> int:
    if u.ambient != w.ambient:
        raise ValueError("ambient dimensions differ")
    stacked, _ = rref_rows(u.rows + w.rows)
    return u.dim + w.dim - len(stacked)


def subspace_distance(u: Subspace, w: Subspace) -> int:
    """Graph distance in the subspace lattice: dim u + dim w - 2 dim(u & w)."""
    return u.dim + w.dim - 2 * intersection_dim(u, w)


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


def spread_size(n: int, k: int, q: int = 2) -> int:
    """Number of blocks in a k-spread of GF(q)^n; requires k | n."""
    if k <= 0 or n % k:
        raise ValueError(f"a {k}-spread of a {n}-dim space requires {k} | {n}")
    return (q**n - 1) // (q**k - 1)


def enumerate_subspaces(n: int, k: int, guard: int = ENUMERATION_GUARD) -> Iterator[Subspace]:
    """Yield every k-dim subspace of GF(2)^n in ascending key order."""
    total = gaussian_binomial(n, k, 2)
    if total > guard:
        raise EnumerationGuardError(
            f"{total} subspaces exceed the enumeration guard {guard}; "
            "raise the guard explicitly"
        )
    for _, rows in key_chunks(n, k):
        for r in rows.tolist():
            yield Subspace(n, tuple(r))


def key_chunks(n: int, k: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Keys and RREF rows of all k-dim subspaces of GF(2)^n in ascending
    key order, one chunk per pivot mask: a uint64 key array and the (M, k)
    uint64 rows beside it; requires the key to fit in 64 bits."""
    if k * (n - k) + n + k.bit_length() > 64:
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
    """All keys of k-dim subspaces of GF(2)^n as a sorted uint64 array.

    Same order as enumerate_subspaces: the chunks of key_chunks, joined.
    """
    total = gaussian_binomial(n, k, 2)
    if total > guard:
        raise EnumerationGuardError(
            f"{total} subspaces exceed the enumeration guard {guard}"
        )
    out = np.concatenate([keys for keys, _ in key_chunks(n, k)])
    if out.size != total:
        raise AssertionError("enumeration produced a wrong subspace count")
    return out


def pack_keys_bulk(rows: np.ndarray, n: int) -> np.ndarray:
    """Keys for many RREF bases at once; rows is (N, k) uint64."""
    rows = np.ascontiguousarray(rows, dtype=np.uint64)
    num, k = rows.shape
    width = n - k
    if k * width + n + k.bit_length() > 64:
        raise ValueError("packed keys do not fit in 64 bits for this (n, k)")
    zero = np.uint64(0)
    pivmask = np.zeros(num, dtype=np.uint64)
    for i in range(k):
        pivmask |= rows[:, i] & (zero - rows[:, i])
    packed = np.zeros(num, dtype=np.uint64)
    one = np.uint64(1)
    for j in range(n):
        below = np.uint64((1 << j) - 1)
        nonpiv_here = ((pivmask >> np.uint64(j)) & one) == zero
        pos = np.uint64(j) - popcount_u64(pivmask & below)
        for i in range(k):
            bit = (rows[:, i] >> np.uint64(j)) & one
            shift = np.uint64(i * width) + pos
            packed |= np.where(nonpiv_here, bit << shift, zero)
    head = (np.uint64(k) << np.uint64(n)) | pivmask
    return (head << np.uint64(k * width)) | packed


def subspaces_of_bulk(rows: np.ndarray, t: int) -> np.ndarray:
    """All t-dim subspaces of many subspaces at once, as RREF rows.

    rows is (N, k) uint64, one RREF basis per subspace.  Returns
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


def format_subspace(u: Subspace) -> str:
    if u.dim == 0:
        raise ValueError("cannot serialize the zero subspace as a matrix block")
    return format_matrix(BitMatrix(u.rows, u.ambient))


def parse_subspaces(
    text: str, n: int | None = None, k: int | None = None, blocks: int | None = None
) -> tuple[int, np.ndarray, np.ndarray]:
    """Read matrix blocks as k-dim subspaces of GF(2)^n, in bulk.

    Returns n, the (N, k) uint64 RREF rows of the blocks and the 1-based
    line of each block's first row.  Every block needs width n and k rows,
    the caller's or else the first block's, and rows of full rank; blocks,
    when given, is the block count a header states.  Each fault is a
    FormatError naming its line.
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
    rows, ranks = rref_bulk(parsed.values.reshape(num, k))
    low = np.flatnonzero(ranks < k)
    if low.size:
        i = low[0]
        raise FormatError(
            f"line {parsed.lines[i]}: block rows are linearly dependent "
            f"(rank {ranks[i]} < {k})"
        )
    return n, rows, parsed.lines


def load_subspace_file(path: str) -> np.ndarray:
    """The (N, k) RREF rows of a file of subspaces; see parse_subspaces."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_subspaces(fh.read())[1]
