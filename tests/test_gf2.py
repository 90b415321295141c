"""Bit-packed GF(2) linear algebra against naive integer-matrix oracles."""

import random

import numpy as np
import pytest
import sympy

import gf2_reference
import matrix_text_reference
from gf2_reference import matrix_order
from qsteiner import gf2
from qsteiner.gf2 import (
    BitMatrix,
    FormatError,
    PRIMITIVE_POLYNOMIALS,
    SingularMatrixError,
    companion_matrix,
    format_matrix,
    frobenius_matrix,
    identity,
    mat_inverse,
    mat_mul,
    mat_vec,
    mat_vec_bulk,
    parse_matrix_rows,
    parse_matrix_text,
    poly_mulmod,
    poly_powmod,
    primitive_polynomial,
    rank,
    rref_bulk,
    rref_rows,
    span_vectors_bulk,
    transpose,
    vec_mat_bulk,
)
from qsteiner.fixtures import generator_f, generator_s
from qsteiner.subspace import span
from subspace_reference import vectors


def naive_mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    n = a.ncols
    rows = []
    for i in range(n):
        v = 0
        for j in range(n):
            s = 0
            for l in range(n):
                s ^= ((a.rows[i] >> l) & 1) & ((b.rows[l] >> j) & 1)
            v |= s << j
        rows.append(v)
    return BitMatrix(rows=tuple(rows), ncols=n)


def random_matrix(rng: random.Random, n: int) -> BitMatrix:
    return BitMatrix(
        rows=tuple(rng.getrandbits(n) for _ in range(n)), ncols=n
    )


def test_mat_mul_matches_naive_oracle():
    rng = random.Random(11)
    for n in (1, 2, 5, 8, 13):
        for _ in range(10):
            a = random_matrix(rng, n)
            b = random_matrix(rng, n)
            assert mat_mul(a, b) == naive_mat_mul(a, b)


def test_generator_products_frozen():
    f = generator_f()
    s = generator_s()
    fs = mat_mul(f, s)
    sf = mat_mul(s, f)
    assert fs == naive_mat_mul(f, s)
    assert sf == naive_mat_mul(s, f)
    assert fs.rows == (
        5120, 3136, 4161, 3200, 3266, 320, 6532,
        640, 4872, 1280, 1552, 2560, 3104,
    )
    assert sf.rows == (
        6208, 4161, 6272, 6338, 320, 6532, 640,
        4872, 1280, 1552, 2560, 3104, 5120,
    )


def test_mat_vec_matches_column_convention():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randrange(1, 14)
        m = random_matrix(rng, n)
        v = rng.getrandbits(n)
        out = mat_vec(m, v)
        expect = 0
        for i in range(n):
            s = 0
            for j in range(n):
                s ^= ((m.rows[i] >> j) & 1) & ((v >> j) & 1)
            expect |= s << i
        assert out == expect


def test_identity_and_transpose():
    e = identity(5)
    assert e.rows == (1, 2, 4, 8, 16)
    rng = random.Random(4)
    m = random_matrix(rng, 7)
    tt = transpose(transpose(m))
    assert tt == m
    t = transpose(m)
    for i in range(7):
        for j in range(7):
            assert (t.rows[i] >> j) & 1 == (m.rows[j] >> i) & 1


def test_rref_worked_example():
    # rows span a 2-dim space; unique reduced basis has pivots 0 and 1
    rows = (0b110, 0b011, 0b101)
    red, pivots = rref_rows(rows)
    assert pivots == (0, 1)
    assert red == (0b101, 0b110)
    # every original row is reproducible from the reduced basis
    for r in rows:
        x = r
        for b in red:
            low = b & (-b)
            if x & low:
                x ^= b
        assert x == 0


def test_rref_idempotent_and_rank_property():
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randrange(1, 16)
        k = rng.randrange(1, n + 1)
        rows = tuple(rng.getrandbits(n) for _ in range(k))
        red, piv = rref_rows(rows)
        again, piv2 = rref_rows(red)
        assert red == again and piv == piv2
        assert len(red) == len(piv) <= min(n, k)
        # pivot of each row is not present in any other row
        for i, r in enumerate(red):
            for j, other in enumerate(red):
                if i != j:
                    assert not (other >> piv[i]) & 1


def test_rank_of_matrix():
    m = BitMatrix(rows=(0b11, 0b11), ncols=2)
    assert rank(m) == 1
    assert rank(identity(13)) == 13
    assert rref_rows(identity(6).rows) == (identity(6).rows, tuple(range(6)))


def test_inverse_round_trip_and_singular():
    rng = random.Random(21)
    found = 0
    while found < 25:
        n = rng.randrange(1, 14)
        m = random_matrix(rng, n)
        try:
            inv = mat_inverse(m)
        except SingularMatrixError:
            assert rank(m) < n
            continue
        found += 1
        assert mat_mul(m, inv) == identity(n)
        assert mat_mul(inv, m) == identity(n)
    with pytest.raises(SingularMatrixError):
        mat_inverse(BitMatrix(rows=(1, 1), ncols=2))


def test_generator_orders():
    assert matrix_order(generator_s()) == 2**13 - 1
    assert matrix_order(generator_f()) == 13


def test_companion_satisfies_its_polynomial():
    for deg in (2, 3, 5, 8, 13):
        p = primitive_polynomial(deg)
        c = companion_matrix(p)
        # evaluate p at c over GF(2): sum of c^i for set bits i
        acc = BitMatrix(rows=(0,) * deg, ncols=deg)
        power = identity(deg)
        for i in range(deg + 1):
            if (p >> i) & 1:
                acc = BitMatrix(
                    rows=tuple(a ^ b for a, b in zip(acc.rows, power.rows)),
                    ncols=deg,
                )
            power = mat_mul(power, c)
        assert all(r == 0 for r in acc.rows)


def test_frobenius_conjugation_squares_companion():
    for deg in (3, 5, 8, 13):
        p = primitive_polynomial(deg)
        c = companion_matrix(p)
        f = frobenius_matrix(p)
        lhs = mat_mul(mat_mul(f, c), mat_inverse(f))
        assert lhs == mat_mul(c, c)
        assert matrix_order(f) == deg


def test_tabulated_polynomials_are_primitive():
    """Independent certification: x has full order 2^d - 1 mod each entry."""
    for deg, p in PRIMITIVE_POLYNOMIALS.items():
        assert p >> deg == 1 and p & 1, f"degree {deg}: not monic with unit term"
        order = 2**deg - 1
        assert poly_powmod(2, order, p) == 1, f"degree {deg}: x^(2^d-1) != 1"
        for q in sympy.factorint(order):
            assert poly_powmod(2, order // q, p) != 1, (
                f"degree {deg}: order divides (2^d-1)/{q}"
            )


def test_poly_mulmod_matches_sympy():
    rng = random.Random(5)
    x = sympy.symbols("x")
    for _ in range(30):
        deg = rng.randrange(2, 12)
        p = primitive_polynomial(deg)
        a = rng.getrandbits(deg)
        b = rng.getrandbits(deg)
        got = poly_mulmod(a, b, p)

        def to_poly(bits):
            return sympy.Poly(
                [(bits >> i) & 1 for i in range(deg + 1)][::-1], x, modulus=2
            )

        want = (to_poly(a) * to_poly(b)) % to_poly(p)
        want_bits = 0
        for i, coef in enumerate(reversed(want.all_coeffs())):
            want_bits |= (int(coef) % 2) << i
        assert got == want_bits


def test_format_parse_round_trip():
    rng = random.Random(8)
    mats = [random_matrix(rng, rng.randrange(1, 20)) for _ in range(5)]
    text = "\n".join(format_matrix(m) for m in mats)
    parsed = parse_matrix_text(text)
    assert parsed == mats


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FormatError, match="line 2"):
        parse_matrix_text("101\n1x1\n")
    with pytest.raises(FormatError, match="line 3"):
        parse_matrix_text("101\n110\n1101\n")


def random_matrix_text(rng: random.Random) -> str:
    """Matrix text with comments, odd line ends and spacing, and faults."""
    lines = []
    for _ in range(rng.randrange(0, 6)):
        width = rng.choice([1, 2, 5, 13, 13, 64, 65])
        for _ in range(rng.randrange(1, 5)):
            w = width if rng.random() < 0.95 else rng.randrange(1, 20)
            row = "".join(rng.choice("01") for _ in range(w))
            if rng.random() < 0.03:
                i = rng.randrange(w)
                row = row[:i] + rng.choice("2x \t.") + row[i + 1 :]
            row = rng.choice(["", "", " ", "\t", "\u3000"]) + row
            row += rng.choice(["", "", " ", "  \t", "\xa0"])
            if rng.random() < 0.2:
                row += rng.choice(["#", "# note 1x", " # 0101", "#\u00e9"])
            lines.append(row)
            if rng.random() < 0.15:
                lines.append(rng.choice(["#", "# comment", "   # 1111 x"]))
        lines.extend(rng.choice(["", " ", "\t"]) for _ in range(rng.randrange(0, 4)))
    ends = rng.choice(["\n", "\r\n", "mixed"])
    if ends == "mixed":
        seps = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
        text = "".join(line + rng.choice(seps) for line in lines)
    else:
        text = ends.join(lines) + (ends if rng.random() < 0.7 else "")
    return text


def _parse_or_error(parse, text):
    try:
        return parse(text)
    except FormatError as exc:
        return f"FormatError: {exc}"


def test_bulk_parse_matches_per_line_parser(monkeypatch):
    rng = random.Random(2024)
    outcomes = set()
    for case in range(1500):
        text = random_matrix_text(rng)
        # slices of every size, down to one character, split the text
        # anywhere a line ends
        chunk = rng.choice([1, 3, 17, 64, gf2.PARSE_CHUNK_CHARS])
        with monkeypatch.context() as m:
            m.setattr(gf2, "PARSE_CHUNK_CHARS", chunk)
            got = _parse_or_error(parse_matrix_text, text)
        want = _parse_or_error(matrix_text_reference.parse_matrix_text, text)
        assert got == want, (case, chunk, text)
        if isinstance(got, str):
            got = got.rsplit(": ", 1)[1].split()[0]  # the fault's first word
        outcomes.add(got if isinstance(got, str) else "ok")
    # valid texts and all three faults (bad character, ragged, too wide)
    assert outcomes == {"ok", "expected", "row", "width"}


def test_bulk_parse_reports_spans_widths_and_lines():
    text = "# head\n101\n011\n\n\n  11 # c\n#\n10\n\n1\n"
    parsed = parse_matrix_rows(text)
    assert parsed.values.tolist() == [0b101, 0b110, 0b11, 0b01, 1]
    assert parsed.starts.tolist() == [0, 2, 4, 5]
    assert parsed.widths.tolist() == [3, 2, 1]
    assert parsed.lines.tolist() == [2, 6, 10]
    empty = parse_matrix_rows("# nothing\n\n")
    assert empty.values.size == 0 and empty.starts.tolist() == [0]


def test_popcount_and_rref_bulk_match_scalar():
    rng = np.random.default_rng(12)
    vals = rng.integers(0, 2**63, size=1000, dtype=np.uint64)
    counts = gf2_reference.popcount_u64(vals.copy())
    assert all(
        int(c) == bin(int(v)).count("1") for c, v in zip(counts, vals)
    )
    rows = rng.integers(0, 2**13, size=(500, 3), dtype=np.uint64)
    red, ranks = rref_bulk(rows)
    for i in range(rows.shape[0]):
        scalar_red, piv = rref_rows(tuple(int(x) for x in rows[i]))
        assert int(ranks[i]) == len(piv)
        padded = tuple(scalar_red) + (0,) * (3 - len(scalar_red))
        assert tuple(int(x) for x in red[i]) == padded


def _bases(rng: np.random.Generator, num: int, k: int, width: int) -> np.ndarray:
    """(num, k) bases of width-bit rows with zero, repeated and dependent
    rows mixed in, and bit width - 1 set in some rows."""
    rows = rng.integers(0, 1 << width, size=(num, k), dtype=np.uint64, endpoint=False)
    if k:
        top = np.uint64(1) << np.uint64(width - 1)
        rows[rng.random((num, k)) < 0.2] |= top
        rows[rng.random((num, k)) < 0.15] = 0
        for i in range(num):
            if k >= 2 and i % 3 == 0:  # a repeated row
                rows[i, rng.integers(k)] = rows[i, rng.integers(k)]
            if k >= 3 and i % 3 == 1:  # a sum of two other rows
                a, b, c = rng.permutation(k)[:3]
                rows[i, c] = rows[i, a] ^ rows[i, b]
    return rows


def _check_rref_bulk(rows: np.ndarray) -> None:
    before = rows.copy()
    red, ranks = rref_bulk(rows)
    want_red, want_ranks = gf2_reference.rref_bulk(rows)
    assert np.array_equal(rows, before)  # the input is left alone
    assert red.dtype == np.uint64 and ranks.dtype == np.int64
    assert red.shape == rows.shape and ranks.shape == rows.shape[:1]
    assert red.flags.c_contiguous
    assert np.array_equal(red, want_red) and np.array_equal(ranks, want_ranks)
    k = rows.shape[1]
    for got, rank, basis in zip(red.tolist(), ranks.tolist(), rows.tolist()):
        scalar, _ = rref_rows(basis)
        assert rank == len(scalar)
        assert tuple(got) == scalar + (0,) * (k - len(scalar))


def test_rref_bulk_matches_row_major_oracle_and_scalar():
    rng = np.random.default_rng(15)
    for k in range(9):
        for width in (1, 2, 5, 13, 32, 63, 64):
            rows = _bases(rng, 40, k, width)
            _check_rref_bulk(rows)
            _check_rref_bulk(rows[::3])  # strided rows
            _check_rref_bulk(rows[:, ::-1])  # reversed columns
            _check_rref_bulk(rows[rng.permutation(40)[:17]])  # a fancy slice
            _check_rref_bulk(np.ascontiguousarray(rows.T).T)  # a transposed view
    for shape in ((0, 3), (5, 0), (0, 0), (1, 1)):
        _check_rref_bulk(np.ones(shape, dtype=np.uint64))
    top = np.uint64(1 << 63)
    red, ranks = rref_bulk(np.array([[top, top | np.uint64(1)]], dtype=np.uint64))
    assert red.tolist() == [[1, 1 << 63]] and ranks.tolist() == [2]


def test_mat_vec_bulk_matches_scalar_on_non_square_matrices():
    rng = random.Random(16)
    nprng = np.random.default_rng(16)
    for nrows, ncols in ((1, 1), (3, 7), (7, 3), (13, 13), (64, 5), (5, 64), (64, 64)):
        m = BitMatrix(tuple(rng.getrandbits(ncols) for _ in range(nrows)), ncols)
        # the vectors carry bits at and above ncols, which must be ignored
        vecs = nprng.integers(0, 2**64, size=(6, 50), dtype=np.uint64, endpoint=False)
        vecs[0, :5] = [0, 2**64 - 1, 1 << 63, (1 << ncols) - 1, 1 << (ncols - 1)]
        got = mat_vec_bulk(m, vecs)
        assert got.dtype == np.uint64 and got.shape == vecs.shape
        mask = (1 << ncols) - 1
        for got_row, row in zip(got.tolist(), vecs.tolist()):
            assert got_row == [mat_vec(m, v) for v in row]
            assert got_row == [mat_vec(m, v & mask) for v in row]
        assert np.array_equal(got, gf2_reference.mat_vec_bulk(m, vecs))
        assert np.array_equal(vec_mat_bulk(transpose(m), vecs), got)
    assert mat_vec_bulk(identity(3), np.zeros(0, dtype=np.uint64)).shape == (0,)


def test_span_vectors_bulk_matches_subspace_vectors():
    rng = random.Random(21)
    for k in range(6):
        subs = []
        while len(subs) < 40:
            u = span([rng.getrandbits(9) for _ in range(k)], 9)
            if u.dim == k:
                subs.append(u)
        rows = np.array([u.rows for u in subs], dtype=np.uint64).reshape(40, k)
        vecs = span_vectors_bulk(rows)
        assert vecs.shape == (40, 2**k - 1) and vecs.dtype == np.uint64
        for u, got in zip(subs, vecs.tolist()):
            assert got == vectors(u)[1:], k
        # any rows, reduced or not: column m-1 is the XOR of the rows at
        # the set bits of m
        raw = [[rng.getrandbits(13) for _ in range(k)] for _ in range(20)]
        got = span_vectors_bulk(np.array(raw, dtype=np.uint64).reshape(20, k))
        for r, g in zip(raw, got.tolist()):
            expect = []
            for m in range(1, 2**k):
                v = 0
                for i in range(k):
                    if m >> i & 1:
                        v ^= r[i]
                expect.append(v)
            assert g == expect
        # into a caller's column-major buffer of another dtype, here the
        # first columns of a wider one: the result is its transpose
        buf = np.zeros((2**k - 1, 25), dtype=np.uint32)
        got32 = span_vectors_bulk(rows[:20], out=buf[:, :20])
        assert got32.base is buf and got32.dtype == np.uint32
        assert np.array_equal(got32, vecs[:20]) and not buf[:, 20:].any()
