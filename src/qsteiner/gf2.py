"""Bit-packed linear algebra over GF(2).

A vector in GF(2)^n is a Python int whose bit i is coordinate i, so the
int 0b110 = 6 encodes the vector (0, 1, 1).  A matrix is a tuple of row
ints.  Matrices act on column vectors from the left: mat_vec(M, v) is
M @ v, and bit j of a text row is column j.  Widths up to 64 bits.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

MAX_WIDTH = 64


def row_dtype(n: int) -> np.dtype:
    """The smallest unsigned dtype that holds n bits, 0 <= n <= MAX_WIDTH:
    uint8, uint16, uint32 or uint64, the dtype of arrays of n-bit rows."""
    if not 0 <= n <= MAX_WIDTH:
        raise ValueError(f"row width must be in 0..{MAX_WIDTH}, got {n}")
    return np.min_scalar_type((1 << n) - 1)


class FormatError(ValueError):
    """Malformed input; the message names the 1-based line or the orbit at
    fault and, for a file read by reading(path), starts with "{path}: "."""


class LimitError(RuntimeError):
    """A closure, orbit traversal, enumeration or recount would pass its cap."""


class SingularMatrixError(ValueError):
    """Inverse requested for a non-invertible matrix."""


@dataclass(frozen=True)
class BitMatrix:
    """Immutable GF(2) matrix: rows[i] packs row i, bit j = column j."""

    rows: tuple[int, ...]
    ncols: int

    def __post_init__(self) -> None:
        if not 1 <= self.ncols <= MAX_WIDTH:
            raise ValueError(f"ncols must be in 1..{MAX_WIDTH}, got {self.ncols}")
        object.__setattr__(self, "rows", tuple(self.rows))
        mask = (1 << self.ncols) - 1
        for i, r in enumerate(self.rows):
            if not isinstance(r, int) or r < 0 or r > mask:
                raise ValueError(f"row {i} does not fit in {self.ncols} columns")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def column(self, j: int) -> int:
        """Column j packed as an int (bit i = entry in row i)."""
        if not 0 <= j < self.ncols:
            raise IndexError(j)
        out = 0
        for i, r in enumerate(self.rows):
            out |= ((r >> j) & 1) << i
        return out

    def __repr__(self) -> str:
        return f"BitMatrix({self.nrows}x{self.ncols})"


def identity(n: int) -> BitMatrix:
    return BitMatrix(tuple(1 << i for i in range(n)), n)


def transpose(m: BitMatrix) -> BitMatrix:
    return BitMatrix(tuple(m.column(j) for j in range(m.ncols)), max(m.nrows, 1))


def mat_vec(m: BitMatrix, v: int) -> int:
    """M @ v for a column vector v: bit i of the result is <row i, v>."""
    out = 0
    for i, r in enumerate(m.rows):
        out |= ((r & v).bit_count() & 1) << i
    return out


def mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product a @ b."""
    if a.ncols != b.nrows:
        raise ValueError(f"shape mismatch: {a.nrows}x{a.ncols} @ {b.nrows}x{b.ncols}")
    rows = []
    for r in a.rows:
        acc = 0
        x = r
        while x:
            low = x & -x
            acc ^= b.rows[low.bit_length() - 1]
            x ^= low
        rows.append(acc)
    return BitMatrix(tuple(rows), b.ncols)


def rref_rows(rows: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reduced row echelon form of packed rows.

    Returns (rows, pivots) with zero rows dropped, rows ordered by pivot
    column, each pivot being the lowest set bit of its row, and every
    pivot column cleared in all other rows.
    """
    basis: list[int] = []  # kept fully reduced, sorted by pivot
    for r in rows:
        for b in basis:
            if (r >> (b & -b).bit_length() - 1) & 1:
                r ^= b
        if r == 0:
            continue
        piv = r & -r
        for i, b in enumerate(basis):
            if b & piv:
                basis[i] = b ^ r
        basis.append(r)
        basis.sort(key=lambda x: x & -x)
    return tuple(basis), tuple((b & -b).bit_length() - 1 for b in basis)


def rank(m: BitMatrix) -> int:
    return len(rref_rows(m.rows)[0])


def mat_inverse(m: BitMatrix) -> BitMatrix:
    """Inverse of a square invertible matrix; SingularMatrixError otherwise.

    Gauss-Jordan on [M | I]; the augmented rows live in plain Python ints,
    so the doubled width needs no special casing.
    """
    n = m.ncols
    if m.nrows != n:
        raise ValueError("inverse of a non-square matrix")
    aug = [m.rows[i] | (1 << (n + i)) for i in range(n)]
    red, pivots = rref_rows(aug)
    if any(p != i for i, p in enumerate(pivots[:n])) or len(red) != n:
        raise SingularMatrixError("matrix is singular")
    return BitMatrix(tuple(r >> n for r in red), n)


# ---------------------------------------------------------------------------
# polynomials over GF(2)


def poly_mulmod(a: int, b: int, mod: int) -> int:
    """(a * b) mod `mod` for packed GF(2)[x] polynomials."""
    deg = mod.bit_length() - 1
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if (a >> deg) & 1:
            a ^= mod
    top = out.bit_length() - 1
    while top >= deg:
        out ^= mod << (top - deg)
        top = out.bit_length() - 1
    return out


def poly_powmod(a: int, e: int, mod: int) -> int:
    """a**e mod `mod` in GF(2)[x], by square and multiply."""
    out = 1
    while e:
        if e & 1:
            out = poly_mulmod(out, a, mod)
        a = poly_mulmod(a, a, mod)
        e >>= 1
    return out


# one primitive polynomial per degree (low-weight classics); each entry is
# checked for primitivity by the test suite, so a typo here cannot survive
PRIMITIVE_POLYNOMIALS: dict[int, int] = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100000000101011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
    17: 0b100000000000001001,
    18: 0b1000000000000100111,
    19: 0b10000000000000100111,
    20: 0b100000000000000001001,
    21: 0b1000000000000000000101,
    22: 0b10000000000000000000011,
    23: 0b100000000000000000100001,
    24: 0b1000000000000000010000111,
    25: 0b10000000000000000000001001,
    26: 0b100000000000000000001000111,
    27: 0b1000000000000000000000100111,
    28: 0b10000000000000000000000001001,
    29: 0b100000000000000000000000000101,
    30: 0b1000000100000000000000000000111,
    31: 0b10000000000000000000000000001001,
    32: 0b100000000010000000000000000000111,
}


def primitive_polynomial(n: int) -> int:
    """A primitive polynomial of degree n over GF(2), for 2 <= n <= 32;
    bit i is the coefficient of x^i."""
    if n not in PRIMITIVE_POLYNOMIALS:
        raise ValueError(f"no primitive polynomial tabulated for degree {n}")
    return PRIMITIVE_POLYNOMIALS[n]


def companion_matrix(bits: int) -> BitMatrix:
    """Companion matrix of a monic polynomial p, packed as bits, acting on
    column vectors.

    Column j is the image of basis vector e_j: multiplication by x in
    GF(2)[x]/(p), so e_j -> e_{j+1} for j < n-1 and e_{n-1} -> p - x^n.
    """
    n = bits.bit_length() - 1
    if n < 1:
        raise ValueError("polynomial must have degree >= 1")
    low = bits & ((1 << n) - 1)
    rows = []
    for i in range(n):
        r = (1 << (i - 1)) if i >= 1 else 0
        r |= ((low >> i) & 1) << (n - 1)
        rows.append(r)
    return BitMatrix(tuple(rows), n)


def frobenius_matrix(bits: int) -> BitMatrix:
    """Matrix of the squaring map y -> y^2 on GF(2)[x]/(p), column
    convention, for a polynomial p packed as bits.

    Column j holds x^(2j) mod p.  For primitive p of degree n the result
    has multiplicative order n and conjugates the companion matrix C to
    C^2: F C F^-1 = C^2.
    """
    n = bits.bit_length() - 1
    if n < 1:
        raise ValueError("polynomial must have degree >= 1")
    cols = [poly_powmod(0b10, 2 * j, bits) for j in range(n)]
    rows = []
    for i in range(n):
        r = 0
        for j in range(n):
            r |= ((cols[j] >> i) & 1) << j
        rows.append(r)
    return BitMatrix(tuple(rows), n)


# ---------------------------------------------------------------------------
# text format: one matrix = consecutive lines of 0/1 characters, leftmost
# character is column 0; '#' starts a comment; a blank line ends a matrix.
# Lines end as in str.splitlines and are stripped as by str.strip.


@contextmanager
def reading(path: str) -> Iterator[str]:
    """The UTF-8 text of the file at path, with line ends as open() reads
    them: the one reader of every input file.  A byte that is not UTF-8,
    or a FormatError raised in the with body, becomes a FormatError that
    starts with "{path}: "; an unreadable path is the OSError naming it.
    """
    with open(path, "rb") as fh:
        try:
            text = fh.read().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: byte {exc.start} is not UTF-8") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        yield text
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def format_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """The text of unsigned rows as an (..., n + 1) uint8 array: character j
    of a row is 1 where bit j is set, else 0, and a line end follows."""
    # byte i holds bits 8i..8i+7; bits at or above n are not shown
    rows = np.ascontiguousarray(rows, dtype=row_dtype(n).newbyteorder("<"))
    text = np.full(rows.shape + (n + 1,), ord("\n"), dtype=np.uint8)
    octets = rows[..., None].view(np.uint8)
    text[..., :n] = np.unpackbits(octets, axis=-1, count=n, bitorder="little")
    text[..., :n] += ord("0")
    return text


def format_matrix(m: BitMatrix) -> str:
    return format_rows(np.array(m.rows, dtype=np.uint64), m.ncols).tobytes().decode()


# Characters per piece of the line reader; no result depends on it.
_PIECE_CHARS = 1 << 20


@dataclass(frozen=True)
class MatrixRows:
    """Every matrix of a text, as flat arrays.

    Matrix i has the rows values[starts[i]:starts[i + 1]] (bit j = column
    j), widths[i] columns, and its first row on 1-based line lines[i].
    """

    values: np.ndarray  # (R,) unsigned, row_dtype(W) or wider
    starts: np.ndarray  # (M + 1,) int64
    widths: np.ndarray  # (M,) int64
    lines: np.ndarray  # (M,) int64


def _layout_rows(text: str) -> MatrixRows | None:
    """The matrices of a text laid out as BlockSet.save writes it, else None.

    That layout is an optional single '#' line, then matrices of one
    height H and one width W <= MAX_WIDTH: each row is W characters 0/1
    and a line end, and a line end follows each matrix.  Such a text is
    reshaped to (B, H, W + 1) characters and read one column at a time
    into rows of dtype row_dtype(W).
    """
    start = text.find("\n") + 1 if text.startswith("#") else 0
    if not text.isascii() or len(text[:start].splitlines()) > 1:
        return None  # a '#' line that str.splitlines would split
    width = text.find("\n", start) - start
    height = (text.find("\n\n", start) + 1 - start) // (max(width, 0) + 1)
    size = height * (width + 1) + 1  # characters per matrix
    if not 0 < width <= MAX_WIDTH or height < 1 or (len(text) - start) % size:
        return None
    chars = np.frombuffer(text.encode(), dtype=np.uint8)[start:].reshape(-1, size)
    grid = chars[:, :-1].reshape(len(chars), height, width + 1)
    if np.any(chars[:, -1] != 10) or np.any(grid[:, :, width] != 10):
        return None
    dtype = row_dtype(width).newbyteorder("<")  # bit j: byte j // 8
    octets = np.zeros((len(chars), height, dtype.itemsize), dtype=np.uint8)
    for j in range(width):
        column = grid[:, :, j]
        if np.any((column ^ 0x30) > 1):  # neither '0' (0x30) nor '1' (0x31)
            return None
        octets[:, :, j >> 3] |= (column & 1) << (j & 7)
    del chars, grid, column  # free the encoded text before the index arrays
    index = np.arange(len(octets) + 1, dtype=np.int64)
    return MatrixRows(
        octets.view(dtype).reshape(-1),
        index * height,
        np.full(len(octets), width, dtype=np.int64),
        index[:-1] * (height + 1) + (2 if start else 1),
    )


def _line_rows(text: str) -> MatrixRows:
    """The matrices of any text by the rules of the text format above,
    read a piece of whole lines at a time: no object is held per line of
    the whole text.  FormatError names the first bad line."""
    rows = [np.zeros(0, dtype=np.uint64)]
    matrices = [np.zeros((3, 0), dtype=np.int64)]  # first row, width, line
    width = line = num_rows = pos = 0  # width of the open matrix, 0 if none
    while pos < len(text):
        end = text.find("\n", pos + _PIECE_CHARS) + 1 or len(text)
        values, heads = [], []
        for raw in text[pos:end].splitlines():
            line += 1
            row, comment, _ = raw.partition("#")
            row = row.strip()
            if not row:
                if not comment:
                    width = 0
                continue
            if row.strip("01"):
                raise FormatError(f"line {line}: expected a row of 0/1 characters")
            if width and len(row) != width:
                raise FormatError(
                    f"line {line}: row width {len(row)} != matrix width {width}"
                )
            if len(row) > MAX_WIDTH:
                raise FormatError(f"line {line}: width {len(row)} exceeds {MAX_WIDTH}")
            if not width:
                width = len(row)
                heads.append((num_rows + len(values), width, line))
            values.append(int(row[::-1], 2))
        num_rows += len(values)
        rows.append(np.array(values, dtype=np.uint64))
        matrices.append(np.array(heads, dtype=np.int64).reshape(-1, 3).T)
        pos = end
    heads, widths, lines = np.concatenate(matrices, axis=1)
    return MatrixRows(np.concatenate(rows), np.append(heads, num_rows), widths, lines)


def parse_matrix_rows(text: str) -> MatrixRows:
    """Every matrix of text (see parse_matrix_text) as flat arrays: a text
    laid out as BlockSet.save writes it is converted whole (see _layout_rows),
    any other read line by line.  FormatError names the first bad line."""
    rows = _layout_rows(text)
    return _line_rows(text) if rows is None else rows


def parse_matrix_text(text: str) -> list[BitMatrix]:
    """Parse every matrix block in text; FormatError carries line numbers."""
    parsed = parse_matrix_rows(text)
    values, bounds = parsed.values.tolist(), parsed.starts.tolist()
    return [
        BitMatrix(tuple(values[a:b]), width)
        for a, b, width in zip(bounds, bounds[1:], parsed.widths.tolist())
    ]


# ---------------------------------------------------------------------------
# numpy bulk kernels, shared by the orbit and verification machinery


def xor_tables(rows: np.ndarray, width: int) -> np.ndarray:
    """XOR tables of many matrices at once, to apply them width bits at a
    time.

    rows is (N, r) unsigned, the rows of N matrices.  Returns (N, B, 2^width)
    in the rows' dtype, B = ceil(r / width): entry [i, b, v] is the XOR of
    the rows width * b + j of matrix i at the set bits j of v, rows at or
    above r counting as zero.  Built by doubling, as in span_vectors_bulk:
    entries 2^j .. 2^(j+1) - 1 are the earlier ones XOR row width * b + j.
    """
    num, r = rows.shape
    padded = np.zeros((num, -(-r // width), width), dtype=rows.dtype)
    padded.reshape(num, -1)[:, :r] = rows
    tables = np.zeros((num, padded.shape[1], 1 << width), dtype=rows.dtype)
    for j in range(width):
        np.bitwise_xor(
            tables[:, :, : 1 << j], padded[:, :, j, None], out=tables[:, :, 1 << j : 2 << j]
        )
    return tables


def vec_mat_bulk(m: BitMatrix, vecs: np.ndarray) -> np.ndarray:
    """Apply v -> v @ m to a uint64 array of packed row vectors: the XOR of
    the rows of m at the set bits of v, bits at or above m.nrows ignored.
    Byte b of v picks one of the 256 XOR combinations of rows 8b..8b+7
    (see xor_tables): one gather per byte."""
    out = np.zeros(np.shape(vecs), dtype=np.uint64)
    flat = out.reshape(-1)
    octets = np.ascontiguousarray(vecs, dtype="<u8").view(np.uint8).reshape(-1, 8)
    tables = xor_tables(np.array([m.rows], dtype=np.uint64), 8)[0]
    step = 1 << 16  # vectors per gather, for small temporaries; no result depends on it
    part = np.empty(min(flat.size, step), dtype=np.uint64)
    for start in range(0, flat.size, step):
        dest = flat[start : start + step]
        got = part[: dest.size]
        for b, table in enumerate(tables):
            # octets < 256 index the table; "clip" only skips numpy's bounds pass
            np.take(table, octets[start : start + step, b], out=got, mode="clip")
            dest ^= got
    return out


def mat_vec_bulk(m: BitMatrix, vecs: np.ndarray) -> np.ndarray:
    """Apply v -> m @ v to a uint64 array of packed vectors."""
    return vec_mat_bulk(transpose(m), vecs)


def matrix_powers(g: BitMatrix, cap: int, start: tuple[int, ...] | None = None) -> np.ndarray:
    """start @ g^a for a = 0, 1, ..., m - 1, where m is the least a > 0 with
    start @ g^a = start, as (m, len(start)) rows in row_dtype(n).  start
    defaults to the identity rows, for g^0 .. g^(m-1) and the order m of g.
    Doubling: the rows for a = s .. 2s - 1 are the first s times g^s, and
    the first return to start among them ends the list.  A LimitError past
    cap powers, with at most cap + 1 built."""
    rows = identity(g.ncols).rows if start is None else start
    first = np.array(rows, dtype=row_dtype(g.ncols))
    powers, step = first[None], g  # step is g^len(powers)
    while len(powers) <= cap:
        # row r of A @ B is A_r @ B
        block = vec_mat_bulk(step, powers[: cap + 1 - len(powers)]).astype(first.dtype)
        back = np.flatnonzero(np.all(block == first, axis=1))
        if back.size:
            return np.concatenate([powers, block[: back[0]]])
        powers = np.concatenate([powers, block])
        step = mat_mul(step, step)
    raise LimitError(f"group closure exceeded the cap of {cap} elements")


def span_vectors_bulk(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Every nonzero vector of many spans at once.

    rows is (N, k), of any unsigned dtype.  Returns (N, 2^k - 1) whose
    column m-1 is the XOR of the rows at the set bits of m.  The vectors
    are built column-major into out, a (2^k - 1, N) integer array of any
    dtype wide enough for them (a new uint64 one if None), and the result
    is out.T.  Built by doubling: row 2^i - 1 of out is basis row i, and
    the 2^i - 1 rows after it are the earlier rows XOR it.
    """
    rows = np.asarray(rows)
    num, k = rows.shape
    if out is None:
        out = np.empty(((1 << k) - 1, num), dtype=np.uint64)
    for i in range(k):
        lo = (1 << i) - 1
        out[lo] = rows[:, i]
        np.bitwise_xor(out[:lo], out[lo], out=out[lo + 1 : 2 * lo + 1])
    return out.T


# Bases per block of rref_bulk, pack_keys_bulk and rref_checked: a block's
# working set stays in a 4 MiB L2 cache.  No result depends on it.
RREF_CHUNK_ROWS = 1 << 14


def rref_bulk(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-reduce many small bases at once.

    rows is (N, k) unsigned, one k-row basis per entry.  Returns (rref,
    ranks) where rref[i], uint64, holds the reduced rows sorted by pivot
    with zero rows sunk to the end, and ranks[i] counts the nonzero rows.
    Branch-free on a (k, M) copy of each block of RREF_CHUNK_ROWS bases,
    in the narrowest dtype that holds the widest row (row_dtype): step i
    swaps the row of lowest pivot into slot i, then clears that pivot
    from every other slot, by masked XORs on whole slots.
    """
    rows = np.asarray(rows)
    num, k = rows.shape
    out = np.empty((num, k), dtype=np.uint64)
    ranks = np.empty(num, dtype=np.int64)
    # a signed array's negative entries wrap to wide rows
    bits = 64 if rows.dtype.kind != "u" else int(rows.max(initial=0)).bit_length()
    dtype = row_dtype(bits)
    one = dtype.type(1)
    # one set of block buffers for every block: fresh ones per block cost
    # a third more time at k = 3
    width = min(num, RREF_CHUNK_ROWS)
    block = np.empty((k, width), dtype=dtype)
    keys = np.empty((k, width), dtype=dtype)
    diffs = np.empty(width, dtype=dtype)
    hits = np.empty(width, dtype=bool)
    for start in range(0, num, RREF_CHUNK_ROWS):
        part = rows[start : start + RREF_CHUNK_ROWS]
        m = len(part)
        r, key, diff, hit = block[:, :m], keys[:, :m], diffs[:m], hits[:m]
        r[...] = part.T
        # key x ^ (x - 1) is the bits up to the lowest set one, all of the
        # dtype's for a zero row, so it orders rows by pivot with zero rows
        # last; only the row of the dtype's top bit alone ties with a zero
        # row, and bases of rank below k sink their zero rows at the end
        for i in range(k):
            np.subtract(r[i:], one, out=key[i:])
            np.bitwise_xor(key[i:], r[i:], out=key[i:])
            a, ka = r[i], key[i]
            for b, kb in zip(r[i + 1 :], key[i + 1 :]):
                np.less(kb, ka, out=hit)
                np.bitwise_xor(a, b, out=diff)
                np.multiply(diff, hit, out=diff)
                a ^= diff
                b ^= diff
                np.minimum(ka, kb, out=ka)
            piv = np.bitwise_and(ka, a, out=ka)  # the lowest set bit of a
            for j, b in enumerate(r):
                if j != i:
                    np.bitwise_and(b, piv, out=diff)
                    np.not_equal(diff, 0, out=hit)
                    np.multiply(a, hit, out=diff)
                    b ^= diff
        rank = np.count_nonzero(r, axis=0)
        low = np.flatnonzero(rank < k)  # where a zero row can precede the top bit
        if low.size:
            sub = r[:, low]
            order = np.argsort(sub == 0, axis=0, kind="stable")
            r[:, low] = np.take_along_axis(sub, order, axis=0)
        out[start : start + m] = r.T
        ranks[start : start + m] = rank
    return out, ranks


def in_rref(rows: np.ndarray) -> bool:
    """Whether every row of rows, (N, k) unsigned, is a k-row basis in
    reduced row echelon form: its rows nonzero, their pivots (lowest set
    bits) strictly ascending, and no row holding a later row's pivot
    bit.  That is rref_bulk returning rows unchanged with rank k."""
    pivots = rows & (rows.dtype.type(0) - rows)  # in the rows' own dtype
    if not pivots.all() or np.any(pivots[:, 1:] <= pivots[:, :-1]):
        return False
    return not any(
        np.any(rows[:, :j] & pivots[:, j : j + 1]) for j in range(1, rows.shape[1])
    )


def rref_checked(rows: np.ndarray) -> tuple[np.ndarray, tuple[int, int] | None]:
    """rows, (N, k) unsigned bases, in RREF, and (i, rank) of the first
    basis i of rank below k, or None.

    rref_bulk runs only on chunks of RREF_CHUNK_ROWS bases that in_rref
    refuses, so rows itself comes back when every basis is in RREF, and a
    copy in its dtype otherwise.  After a rank fault the rows are not all
    reduced.
    """
    out = rows
    for start in range(0, rows.shape[0], RREF_CHUNK_ROWS):
        part = rows[start : start + RREF_CHUNK_ROWS]
        if in_rref(part):
            continue
        red, ranks = rref_bulk(part)
        low = np.flatnonzero(ranks < rows.shape[1])
        if low.size:
            return out, (start + int(low[0]), int(ranks[low[0]]))
        if out is rows:
            out = rows.copy()
        out[start : start + len(part)] = red
    return out, None


def pack_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """(N, k) unsigned rows with entries of n bits as (N, W) uint64 words.

    Each row's k entries are packed end to end into W = ceil(k n / 64)
    words (at least one), so two rows are equal exactly when their words
    are.  The rows are widened to uint64 RREF_CHUNK_ROWS at a time: numpy
    before 2.0 shifts a narrow array by a uint64 scalar in the array's
    own dtype.
    """
    num, k = rows.shape
    words = np.zeros((num, max(1, -(-k * n // 64))), dtype=np.uint64)
    for start in range(0, num, RREF_CHUNK_ROWS):
        part = rows[start : start + RREF_CHUNK_ROWS].astype(np.uint64)
        dest = words[start : start + RREF_CHUNK_ROWS]
        for i in range(k):
            w, off = divmod(i * n, 64)
            dest[:, w] |= part[:, i] << np.uint64(off)
            if off + n > 64:
                dest[:, w + 1] |= part[:, i] >> np.uint64(64 - off)
    return words


def first_duplicate(rows: np.ndarray, n: int) -> tuple[int, int] | None:
    """(i, j) with i < j for the first row j that equals an earlier row i.

    rows is (N, k) unsigned with entries of n bits, compared as packed
    words (see pack_rows).  For k n <= 64 one unstable in-place sort of
    the words answers "no duplicate"; the stable sort only names a witness.
    """
    words = pack_rows(rows, n)
    if words.shape[1] == 1:
        srt = words.reshape(-1)
        srt.sort()  # in place: the words are packed again to name a witness
        if not np.any(srt[1:] == srt[:-1]):
            return None
        words = pack_rows(rows, n)
    # a stable lexicographic sort makes equal rows neighbours in input order
    order = np.lexsort(words.T)
    srt = words[order]
    same = np.flatnonzero(np.all(srt[1:] == srt[:-1], axis=1))
    if not same.size:
        return None
    later = order[same + 1]
    p = int(np.argmin(later))
    return int(order[same[p]]), int(later[p])
