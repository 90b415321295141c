"""The row-major numpy GF(2) kernels, kept as test oracles of
`qsteiner.gf2.rref_bulk` and `qsteiner.gf2.mat_vec_bulk`, and the
multiplicative order of a matrix by iteration.

`rref_bulk` below is how the library row-reduced many bases before its
kernel went branch-free: a selection sort of the (N, k) columns by pivot
with `np.where` keys and boolean-masked swaps, then elimination by
boolean-masked XOR.  `mat_vec_bulk` computed each output bit as the
parity of one row AND the vector, with `popcount_u64`.  The library must
give the same arrays.
"""

from __future__ import annotations

import numpy as np

from qsteiner.gf2 import BitMatrix, SingularMatrixError, identity, mat_mul, rank

_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)


def popcount_u64(x: np.ndarray) -> np.ndarray:
    """Per-element population count of a uint64 array."""
    x = x - ((x >> np.uint64(1)) & _M1)
    x = (x & _M2) + ((x >> np.uint64(2)) & _M2)
    x = (x + (x >> np.uint64(4))) & _M4
    return (x * _H01) >> np.uint64(56)


def mat_vec_bulk(m: BitMatrix, vecs: np.ndarray) -> np.ndarray:
    """Apply v -> m @ v to a uint64 array of packed vectors, row by row."""
    vecs = vecs.astype(np.uint64, copy=False)
    out = np.zeros_like(vecs)
    one = np.uint64(1)
    for i, row in enumerate(m.rows):
        bit = popcount_u64(vecs & np.uint64(row)) & one
        out |= bit << np.uint64(i)
    return out


def rref_bulk(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rref, ranks) of (N, k) uint64 bases, as qsteiner.gf2.rref_bulk."""
    r = np.ascontiguousarray(rows, dtype=np.uint64).copy()
    n, k = r.shape
    top = np.uint64(0xFFFFFFFFFFFFFFFF)
    zero = np.uint64(0)
    for i in range(k):
        for j in range(i + 1, k):
            a = r[:, i]
            b = r[:, j]
            ka = np.where(a == zero, top, a & (zero - a))
            kb = np.where(b == zero, top, b & (zero - b))
            swap = kb < ka
            if swap.any():
                tmp = a[swap].copy()
                r[swap, i] = b[swap]
                r[swap, j] = tmp
        piv = r[:, i] & (zero - r[:, i])
        for j in range(k):
            if j == i:
                continue
            hit = (r[:, j] & piv) != zero
            if hit.any():
                r[hit, j] ^= r[hit, i]
    ranks = (r != zero).sum(axis=1).astype(np.int64)
    return r, ranks


def matrix_order(m: BitMatrix, bound: int = 10**7) -> int:
    """Multiplicative order of an invertible matrix, by iteration.

    Raises SingularMatrixError for singular input and RuntimeError when
    the order exceeds bound.
    """
    if m.nrows != m.ncols:
        raise ValueError("order of a non-square matrix")
    if rank(m) != m.ncols:
        raise SingularMatrixError("singular matrix has no multiplicative order")
    ident = identity(m.ncols)
    cur = m
    k = 1
    while cur != ident:
        cur = mat_mul(cur, m)
        k += 1
        if k > bound:
            raise RuntimeError(f"matrix order exceeds bound {bound}")
    return k
