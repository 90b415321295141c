"""The subspace key packed one column at a time, kept as the test oracle of
`Subspace.key`, `pack_keys_bulk` and `subspace_from_key`.

A key is (dim, pivot mask) above the free entries: the entries of row i
at the non-pivot columns, in increasing column order, from bit offset
i*(n-k).  Both oracles walk the n columns and place each non-pivot entry
at its position; the kernels must give the same integers.
"""

from __future__ import annotations

import numpy as np

from gf2_reference import popcount_u64


def key_per_column(n: int, rows: tuple[int, ...]) -> int:
    """The key of one RREF basis, of any width n."""
    k = len(rows)
    pivmask = 0
    for r in rows:
        pivmask |= r & -r
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


def keys_per_column_bulk(rows: np.ndarray, n: int) -> np.ndarray:
    """The keys of (N, k) uint64 RREF bases whose keys fit in 64 bits."""
    rows = np.ascontiguousarray(rows, dtype=np.uint64)
    num, k = rows.shape
    width = n - k
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
