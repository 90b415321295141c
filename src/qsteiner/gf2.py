"""Bit-packed linear algebra over GF(2).

A vector in GF(2)^n is a Python int whose bit i is coordinate i, so the
int 0b110 = 6 encodes the vector (0, 1, 1).  A matrix is a tuple of row
ints.  Matrices act on column vectors from the left: mat_vec(M, v) is
M @ v, and bit j of a text row is column j.  Widths up to 64 bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

MAX_WIDTH = 64


class FormatError(ValueError):
    """Malformed text input; message carries a 1-based line number."""


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


def format_matrix(m: BitMatrix) -> str:
    lines = []
    for r in m.rows:
        lines.append("".join("1" if (r >> j) & 1 else "0" for j in range(m.ncols)))
    return "\n".join(lines) + "\n"


# Characters per slice of the bulk parse; every slice ends at a line end.
# The result does not depend on it, only the size of the temporaries does.
PARSE_CHUNK_CHARS = 1 << 20

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


def _scan_lines(text: str) -> tuple:
    """Classify the lines of text, which holds whole lines only.

    A line's row is its text up to the first '#', stripped.  Returns the
    number of lines; for the lines with a nonempty row, their 0-based
    index, the row width, whether a row character is not 0/1, and the row
    value (meaningful for valid rows of width <= MAX_WIDTH); and the
    0-based index of each blank line without '#', which ends a matrix.
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
    return starts.size, row, width, bad, value, blank


def parse_matrix_rows(text: str) -> MatrixRows:
    """Parse every matrix block in text at once; see parse_matrix_text.

    The text is scanned in slices of about PARSE_CHUNK_CHARS characters,
    so no per-line Python object is built.  FormatError names the first
    bad line, with the message the per-line rules give it.
    """
    scans = []
    base = 0  # 0-based index of the slice's first line
    pos = 0
    while True:
        end = len(text)
        if end - pos > PARSE_CHUNK_CHARS:
            end = (
                text.rfind("\n", pos, pos + PARSE_CHUNK_CHARS) + 1
                or text.find("\n", pos + PARSE_CHUNK_CHARS) + 1
                or end
            )
        num_lines, row, width, bad, value, blank = _scan_lines(text[pos:end])
        scans.append((row + base + 1, width, bad, value, blank + base + 1))
        base += num_lines
        if end == len(text):
            break
        pos = end
    line, width, bad, value, blank = (np.concatenate(parts) for parts in zip(*scans))
    # a row opens a matrix when a blank line lies between it and the row before
    gaps = np.searchsorted(blank, line)
    opens = np.ones(line.size, dtype=bool)
    opens[1:] = gaps[1:] != gaps[:-1]
    heads = np.flatnonzero(opens)
    matrix_width = width[heads][np.cumsum(opens) - 1]
    wrong = width != matrix_width
    wide = width > MAX_WIDTH
    errors = np.flatnonzero(bad | wrong | wide)
    if errors.size:
        i = errors[0]
        where = f"line {line[i]}"
        if bad[i]:
            raise FormatError(f"{where}: expected a row of 0/1 characters")
        if wrong[i]:
            raise FormatError(
                f"{where}: row width {width[i]} != matrix width {matrix_width[i]}"
            )
        raise FormatError(f"{where}: width {width[i]} exceeds {MAX_WIDTH}")
    return MatrixRows(
        values=value,
        starts=np.append(heads, line.size),
        widths=width[heads],
        lines=line[heads],
    )


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
    words (see pack_rows).  For k n <= 64 one unstable sort of the words
    answers "no duplicate"; the stable sort only names a witness.
    """
    words = pack_rows(rows, n)
    if words.shape[1] == 1:
        srt = np.sort(words[:, 0])
        if not np.any(srt[1:] == srt[:-1]):
            return None
    # a stable lexicographic sort makes equal rows neighbours in input order
    order = np.lexsort(words.T)
    srt = words[order]
    same = np.flatnonzero(np.all(srt[1:] == srt[:-1], axis=1))
    if not same.size:
        return None
    later = order[same + 1]
    p = int(np.argmin(later))
    return int(order[same[p]]), int(later[p])
