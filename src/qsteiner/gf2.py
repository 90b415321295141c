"""Bit-packed linear algebra over GF(2).

A vector in GF(2)^n is a Python int whose bit i is coordinate i, so the
int 0b110 = 6 encodes the vector (0, 1, 1).  A matrix is a tuple of row
ints.  Matrices act on column vectors from the left: mat_vec(M, v) is
M @ v, and bit j of a text row is column j.  Widths up to 64 bits.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

MAX_WIDTH = 64


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
    """The text of uint64 rows as an (..., n + 1) uint8 array: character j
    of a row is 1 where bit j is set, else 0, and a line end follows."""
    rows = np.ascontiguousarray(rows, dtype="<u8")  # byte i holds bits 8i..8i+7
    text = np.full(rows.shape + (n + 1,), ord("\n"), dtype=np.uint8)
    octets = rows[..., None].view(np.uint8)
    text[..., :n] = np.unpackbits(octets, axis=-1, count=n, bitorder="little")
    text[..., :n] += ord("0")
    return text


def format_matrix(m: BitMatrix) -> str:
    return format_rows(np.array(m.rows, dtype=np.uint64), m.ncols).tobytes().decode()


# Least characters per slice of the bulk parse; the result does not depend
# on it, only the size of the temporaries does.
PARSE_CHUNK_CHARS = 1 << 20
_EMPTY_LINE = re.compile("\n\r?\n")  # a line end, then an empty line

# ASCII character classes: line end (str.splitlines), space (str.strip), 0/1
_BREAK, _SPACE, _BIT = 1, 2, 4
_ASCII_CLASS = np.zeros(128, dtype=np.uint8)
_ASCII_CLASS[[0x09, 0x1F, 0x20]] = _SPACE
_ASCII_CLASS[[0x0A, 0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E]] = _BREAK | _SPACE
_ASCII_CLASS[[ord("0"), ord("1")]] = _BIT
_UNICODE_BREAKS = (0x85, 0x2028, 0x2029)


@dataclass(frozen=True)
class MatrixRows:
    """Every matrix of a text, as flat arrays.

    Matrix i has the rows values[starts[i]:starts[i + 1]] (bit j = column
    j), widths[i] columns, and its first row on 1-based line lines[i].
    """

    values: np.ndarray  # (R,) uint64
    starts: np.ndarray  # (M + 1,) int64
    widths: np.ndarray  # (M,) int64
    lines: np.ndarray  # (M,) int64


def _char_classes(text: str) -> tuple[np.ndarray, np.ndarray]:
    """(code points, class bits) of every character of text."""
    if text.isascii():
        codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        return codes, _ASCII_CLASS[codes]
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    classes = _ASCII_CLASS[np.minimum(codes, 0x7F)]  # DEL (0x7F) has no class
    wide = np.unique(codes[codes > 0x7F]).tolist()
    classes[np.isin(codes, [c for c in wide if chr(c).isspace()])] = _SPACE
    classes[np.isin(codes, _UNICODE_BREAKS)] |= _BREAK
    return codes, classes


def _parse_slice(text: str, base: int) -> tuple:
    """The matrices of one slice of whole lines, which follows base lines
    of the text and continues no matrix of theirs.

    A line's row is its text up to the first '#', stripped; a blank line
    without '#' ends a matrix.  Returns the number of lines, the row
    values, and for each matrix its first row's index into them, its
    width and its 1-based line.  FormatError names the first bad line.
    """
    # "\r\n" is one line end; as "\n" every line end is one character
    codes, classes = _char_classes(text.replace("\r\n", "\n"))
    size = codes.size
    ends = np.flatnonzero(classes & _BREAK)
    starts = np.concatenate(([0], ends + 1))
    if starts[-1] == size:
        starts = starts[:-1]
    else:  # text after the last line end is a line too
        ends = np.append(ends, size)
    hashes = np.flatnonzero(codes == ord("#"))
    hash_at = np.append(hashes, size)[np.searchsorted(hashes, starts)]
    cut = np.minimum(hash_at, ends)
    solid = np.flatnonzero((classes & _SPACE) == 0)
    solid_end = np.append(solid, size)
    first = solid_end[np.searchsorted(solid, starts)]
    has_row = first < cut
    blank = np.flatnonzero(~has_row & (hash_at >= ends))
    row = np.flatnonzero(has_row)
    first = first[row]
    last = solid_end[np.searchsorted(solid, cut[row]) - 1]
    other = np.flatnonzero((classes & _BIT) == 0)
    bad = np.append(other, size)[np.searchsorted(other, first)] <= last
    width = last - first + 1
    ones = codes == ord("1")
    value = np.zeros(row.size, dtype=np.uint64)
    for j in range(min(int(width.max(initial=0)), MAX_WIDTH)):
        bit = ones[np.minimum(first + j, size - 1)] & (width > j)
        value |= bit.astype(np.uint64) << np.uint64(j)
    # a row opens a matrix when a blank line lies between it and the row before
    gaps = np.searchsorted(blank, row)
    opens = np.ones(row.size, dtype=bool)
    opens[1:] = gaps[1:] != gaps[:-1]
    heads = np.flatnonzero(opens)
    matrix_width = width[heads][np.cumsum(opens) - 1]
    wrong = width != matrix_width
    wide = width > MAX_WIDTH
    errors = np.flatnonzero(bad | wrong | wide)
    if errors.size:
        i = errors[0]
        where = f"line {base + row[i] + 1}"
        if bad[i]:
            raise FormatError(f"{where}: expected a row of 0/1 characters")
        if wrong[i]:
            raise FormatError(
                f"{where}: row width {width[i]} != matrix width {matrix_width[i]}"
            )
        raise FormatError(f"{where}: width {width[i]} exceeds {MAX_WIDTH}")
    return starts.size, value, heads, width[heads], base + row[heads] + 1


def parse_matrix_rows(text: str) -> MatrixRows:
    """Parse every matrix block in text at once; see parse_matrix_text.

    The text is read in slices of at least PARSE_CHUNK_CHARS characters,
    each cut just before an empty line, so no matrix spans two slices and
    each slice is reduced to its matrices before the next is scanned.  No
    per-line Python object is built.  FormatError names the first bad
    line, with the message the per-line rules give it.
    """
    parts = []
    pos = base = num_rows = 0  # the slice's first character, lines and rows before it
    while True:
        found = _EMPTY_LINE.search(text, pos + PARSE_CHUNK_CHARS)
        end = found.start() + 1 if found else len(text)
        num_lines, value, head, width, line = _parse_slice(text[pos:end], base)
        parts.append((value, head + num_rows, width, line))
        base += num_lines
        num_rows += value.size
        if end == len(text):
            break
        pos = end
    values, heads, widths, lines = (np.concatenate(p) for p in zip(*parts))
    return MatrixRows(values, np.append(heads, num_rows), widths, lines)


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


def vec_mat_bulk(m: BitMatrix, vecs: np.ndarray) -> np.ndarray:
    """Apply v -> v @ m to a uint64 array of packed row vectors: the XOR of
    the rows of m at the set bits of v (bits at or above m.nrows are
    ignored), one masked XOR per row, out ^= row * ((v >> i) & 1)."""
    vecs = vecs.astype(np.uint64, copy=False)
    out = np.zeros_like(vecs)
    bit = np.empty_like(vecs)
    for i, row in enumerate(m.rows):
        np.right_shift(vecs, np.uint64(i), out=bit)
        np.bitwise_and(bit, np.uint64(1), out=bit)
        np.multiply(bit, np.uint64(row), out=bit)
        out ^= bit
    return out


def mat_vec_bulk(m: BitMatrix, vecs: np.ndarray) -> np.ndarray:
    """Apply v -> m @ v to a uint64 array of packed vectors."""
    return vec_mat_bulk(transpose(m), vecs)


def span_vectors_bulk(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Every nonzero vector of many spans at once.

    rows is (N, k) uint64.  Returns (N, 2^k - 1) whose column m-1 is the
    XOR of the rows at the set bits of m.  The vectors are built
    column-major into out, a (2^k - 1, N) integer array of any dtype wide
    enough for them (a new uint64 one if None), and the result is out.T.
    Built by doubling: row 2^i - 1 of out is basis row i, and the 2^i - 1
    rows after it are the earlier rows XOR it.
    """
    rows = np.asarray(rows, dtype=np.uint64)
    num, k = rows.shape
    if out is None:
        out = np.empty(((1 << k) - 1, num), dtype=np.uint64)
    for i in range(k):
        lo = (1 << i) - 1
        out[lo] = rows[:, i]
        np.bitwise_xor(out[:lo], out[lo], out=out[lo + 1 : 2 * lo + 1])
    return out.T


def rref_bulk(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-reduce many small bases at once.

    rows is (N, k) uint64, one k-row basis per entry.  Returns (rref, ranks)
    where rref[i] holds the reduced rows sorted by pivot with zero rows
    sunk to the end, and ranks[i] counts the nonzero rows.  Branch-free on
    a (k, N) copy: step i swaps the row of lowest pivot into slot i, then
    clears that pivot from every other slot, by masked XORs on whole slots.
    """
    r = np.asarray(rows, dtype=np.uint64).T.copy()
    k, n = r.shape
    # key x ^ (x - 1) is the bits up to the lowest set one, all 64 for a
    # zero row, so it orders rows by pivot with zero rows last
    key = np.empty((k, n), dtype=np.uint64)
    diff = np.empty(n, dtype=np.uint64)
    hit = np.empty(n, dtype=bool)
    for i in range(k):
        np.subtract(r[i:], np.uint64(1), out=key[i:])
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
    return np.ascontiguousarray(r.T), (r != 0).sum(axis=0, dtype=np.int64)


def in_rref(rows: np.ndarray) -> bool:
    """Whether every row of rows, (N, k) uint64, is a k-row basis in
    reduced row echelon form: its rows nonzero, their pivots (lowest set
    bits) strictly ascending, and no row holding a later row's pivot
    bit.  That is rref_bulk returning rows unchanged with rank k."""
    pivots = rows & (np.uint64(0) - rows)
    if not pivots.all() or np.any(pivots[:, 1:] <= pivots[:, :-1]):
        return False
    return not any(
        np.any(rows[:, :j] & pivots[:, j : j + 1]) for j in range(1, rows.shape[1])
    )


# Bases per chunk of rref_checked; the result does not depend on it.
RREF_CHUNK_ROWS = 1 << 16


def rref_checked(rows: np.ndarray) -> tuple[np.ndarray, tuple[int, int] | None]:
    """rows, (N, k) uint64 bases, in RREF, and (i, rank) of the first basis
    i of rank below k, or None.

    rref_bulk runs only on chunks of RREF_CHUNK_ROWS bases that in_rref
    refuses, so rows itself comes back when every basis is in RREF, and a
    copy otherwise.  After a rank fault the rows are not all reduced.
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
    """(N, k) uint64 rows with entries of n bits as (N, W) uint64 words.

    Each row's k entries are packed end to end into W = ceil(k n / 64)
    words (at least one), so two rows are equal exactly when their words
    are.
    """
    num, k = rows.shape
    words = np.zeros((num, max(1, -(-k * n // 64))), dtype=np.uint64)
    for i in range(k):
        w, off = divmod(i * n, 64)
        words[:, w] |= rows[:, i] << np.uint64(off)
        if off + n > 64:
            words[:, w + 1] |= rows[:, i] >> np.uint64(64 - off)
    return words


def first_duplicate(rows: np.ndarray, n: int) -> tuple[int, int] | None:
    """(i, j) with i < j for the first row j that equals an earlier row i.

    rows is (N, k) uint64 with entries of n bits, compared as packed
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
