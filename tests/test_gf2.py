"""Bit-packed GF(2) linear algebra against naive integer-matrix oracles."""

import random
import tracemalloc

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
    format_rows,
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
from qsteiner.verify import BlockSet
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


def test_bulk_parse_matches_per_line_parser():
    rng = random.Random(2024)
    outcomes = set()
    for case in range(1500):
        text = random_matrix_text(rng)
        got = _parse_or_error(parse_matrix_text, text)
        want = _parse_or_error(matrix_text_reference.parse_matrix_text, text)
        assert got == want, (case, text)
        if isinstance(got, str):
            got = got.rsplit(": ", 1)[1].split()[0]  # the fault's first word
        outcomes.add(got if isinstance(got, str) else "ok")
    # valid texts and all three faults (bad character, ragged, too wide)
    assert outcomes == {"ok", "expected", "row", "width"}
    # line ends of every kind around an empty line, blank lines that are
    # not empty, comments beside one, and a fault on either side of one
    edges = [
        "101\r\n011\r\n\r\n11\r\n10\r\n\r\n\r\n1\r\n",
        "101\r\n\n011\n\r\n\r\n11\r\r\n10\n\n",
        "101\n \n011\n\t\n\n11\n  \t \n10\n",
        "101\n#\n\n011\n# c\n\n\n#x\n11\n\n#\n10",
        "101\n110\n\n1x1\n\n11\n",
        "101\n\n011\n0111\n\n1\n",
        "1\n\n" + "0" * 65 + "\n\n" + "1" * 64 + "\n",
        "\n\n\n",
        "\r\n\r\n",
    ]
    for text in edges:
        want = _parse_or_error(matrix_text_reference.parse_matrix_text, text)
        assert _parse_or_error(parse_matrix_text, text) == want, text


def test_format_rows_writes_each_bit_and_stays_near_its_output():
    rng = np.random.default_rng(13)
    for n in (1, 5, 13, 20, 63, 64):
        rows = rng.integers(0, 1 << n, size=(40, 3), dtype=np.uint64)
        want = "".join(
            "".join("1" if r >> j & 1 else "0" for j in range(n)) + "\n"
            for r in rows.ravel().tolist()
        )
        for case in (rows, rows[:, ::-1][:, ::-1], rows.astype(">u8")):
            text = format_rows(case, n)
            assert text.shape == (40, 3, n + 1) and text.dtype == np.uint8
            assert text.tobytes().decode() == want, n
    assert format_rows(np.uint64(6), 3).tobytes() == b"011\n"
    # one batch of BlockSet.save: the text (2.6 MiB) and one byte per bit,
    # not eight (41.6 MiB traced when the bits were built in uint64)
    rows = rng.integers(0, 1 << 13, size=(1 << 16, 3), dtype=np.uint64)
    tracemalloc.start()
    try:
        format_rows(rows, 13)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak < 8


def test_bulk_parse_memory_stays_near_its_output():
    # a text as BlockSet.save lays it out is read one character column at
    # a time, so the traced peak is set by the outputs, not by per-row
    # arrays of the whole text
    rng = np.random.default_rng(3)
    values = rng.integers(0, 1 << 13, size=(100_000, 3), dtype=np.uint64)
    rows = format_rows(values, 13).reshape(100_000, -1)
    blank = np.full((100_000, 1), ord("\n"), dtype=np.uint8)
    text = np.concatenate([rows, blank], axis=1).tobytes().decode()
    assert len(text) >= 4 * 10**6
    tracemalloc.start()
    try:
        parsed = parse_matrix_rows(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed.starts.size == 100_001
    out = parsed.values.nbytes + parsed.starts.nbytes
    out += parsed.widths.nbytes + parsed.lines.nbytes
    assert peak <= 3 * out, (peak, out)


def test_bulk_parse_reports_spans_widths_and_lines():
    text = "# head\n101\n011\n\n\n  11 # c\n#\n10\n\n1\n"
    parsed = parse_matrix_rows(text)
    assert parsed.values.tolist() == [0b101, 0b110, 0b11, 0b01, 1]
    assert parsed.starts.tolist() == [0, 2, 4, 5]
    assert parsed.widths.tolist() == [3, 2, 1]
    assert parsed.lines.tolist() == [2, 6, 10]
    empty = parse_matrix_rows("# nothing\n\n")
    assert empty.values.size == 0 and empty.starts.tolist() == [0]


def saved_block_text(tmp_path, rng, n, k, num):
    """The text BlockSet.save writes for num random k-subspaces of GF(2)^n."""
    rows = rng.integers(0, 2**64 - 1, (4 * num, k), dtype=np.uint64, endpoint=True)
    rows >>= np.uint64(64 - n)
    red, ranks = rref_bulk(rows)
    red = np.unique(red[ranks == k], axis=0)[:num]
    BlockSet(n, k, red).save(tmp_path / "blocks.txt")
    return (tmp_path / "blocks.txt").read_text()


def numbered_matrices(text):
    """parse_matrix_rows as the oracle's (first line, matrix) pairs."""
    parsed = parse_matrix_rows(text)
    values, bounds = parsed.values.tolist(), parsed.starts.tolist()
    return [
        (line, BitMatrix(tuple(values[a:b]), width))
        for line, a, b, width in zip(
            parsed.lines.tolist(), bounds, bounds[1:], parsed.widths.tolist()
        )
    ]


def same_as_reference(text):
    """Whether both readers give text the same matrices, lines or fault."""
    want = _parse_or_error(matrix_text_reference.numbered_matrices, text)
    return _parse_or_error(numbered_matrices, text) == want


@pytest.mark.parametrize("n,k", [(1, 1), (13, 1), (13, 3), (64, 1), (64, 3)])
def test_saved_block_text_takes_the_layout_path(tmp_path, monkeypatch, n, k):
    # a layout path that never fired would pass every comparison below
    text = saved_block_text(tmp_path, np.random.default_rng(n + k), n, k, 40)
    cases = (text, text.split("\n", 1)[1])  # with and without the header
    want = [matrix_text_reference.numbered_matrices(case) for case in cases]
    monkeypatch.setattr(gf2, "_line_rows", None)  # the line path cannot run
    assert [numbered_matrices(case) for case in cases] == want


def test_row_dtype_is_the_least_unsigned_dtype_of_n_bits():
    for n in range(gf2.MAX_WIDTH + 1):
        dtype = gf2.row_dtype(n)
        assert dtype.kind == "u" and 8 * dtype.itemsize >= n, n
        assert dtype.itemsize == 1 or 4 * dtype.itemsize < n, n
    for n in (-1, gf2.MAX_WIDTH + 1):
        with pytest.raises(ValueError, match="row width"):
            gf2.row_dtype(n)


@pytest.mark.parametrize("n", [1, 8, 9, 16, 17, 33, 64])
def test_layout_reader_reads_rows_in_the_least_dtype(tmp_path, n):
    # each row is packed into row_dtype(n) octets; the line reader keeps
    # uint64, and both read the same values, the top bit included
    k = 1 if n == 1 else 2
    text = saved_block_text(tmp_path, np.random.default_rng(n), n, k, 50)
    layout, lines = gf2._layout_rows(text), gf2._line_rows(text)
    assert layout.values.dtype == gf2.row_dtype(n)
    assert lines.values.dtype == np.uint64
    assert int(lines.values.max()).bit_length() == n
    for field in ("values", "starts", "widths", "lines"):
        assert np.array_equal(getattr(layout, field), getattr(lines, field)), field


def test_edited_block_texts_read_as_the_per_line_rules_read_them(tmp_path):
    rng = random.Random(30)
    nrng = np.random.default_rng(30)
    texts = [
        saved_block_text(tmp_path, nrng, n, k, 6)
        for n, k in ((1, 1), (3, 2), (13, 3), (64, 2))
    ]
    layouts = 0
    for case in range(1500):
        text = rng.choice(texts)
        if rng.random() < 0.3:
            text = text.split("\n", 1)[1]
        j = rng.randrange(len(text) + 1)
        char = rng.choice("01\n \t#\r\x0b\x0c\x1c\x85x2")
        edits = (char + text[j:], char + text[j + 1 :], text[j + 1 :])
        text = text[:j] + rng.choice(edits)
        layouts += gf2._layout_rows(text) is not None
        assert same_as_reference(text), (case, text)
    assert 20 <= layouts <= 1480, layouts
    # head lines that are not one '#' line, and no blank line at the end
    for text in texts:
        body = text.split("\n", 1)[1]
        for case in (
            "#\x0b1\n" + body,
            "# a\x0b\n" + body,
            "# one\n# two\n" + body,
            text[:-1],
            body[:-1],
        ):
            assert gf2._layout_rows(case) is None
            assert same_as_reference(case), case


def test_line_reader_carries_matrices_and_lines_across_its_pieces(tmp_path):
    # CRLF line ends take the line path; at over 2 MiB the text is read in
    # several pieces, whose cuts must not split a matrix or its numbering
    text = saved_block_text(tmp_path, np.random.default_rng(9), 13, 3, 60_000)
    crlf = text.replace("\n", "\r\n")
    assert len(crlf) > 2 * 2**20 and gf2._layout_rows(crlf) is None
    want, got = parse_matrix_rows(text), parse_matrix_rows(crlf)
    for field in ("values", "starts", "widths", "lines"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    last = crlf.rindex("0")
    line = crlf.count("\n", 0, last) + 1
    with pytest.raises(FormatError, match=rf"^line {line}: expected a row"):
        parse_matrix_rows(crlf[:last] + "x" + crlf[last + 1 :])


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
    # rref_bulk works in the narrowest dtype that holds the widest row:
    # widths on both sides of each dtype's top bit, in uint64 and in
    # row_dtype(width)
    rng = np.random.default_rng(15)
    for k in range(9):
        for width in (1, 2, 5, 7, 8, 9, 13, 15, 16, 17, 31, 32, 33, 63, 64):
            rows = _bases(rng, 40, k, width)
            _check_rref_bulk(rows)
            _check_rref_bulk(rows.astype(gf2.row_dtype(width)))
            _check_rref_bulk(rows[::3])  # strided rows
            _check_rref_bulk(rows[:, ::-1])  # reversed columns
            _check_rref_bulk(rows[rng.permutation(40)[:17]])  # a fancy slice
            _check_rref_bulk(np.ascontiguousarray(rows.T).T)  # a transposed view
    for shape in ((0, 3), (5, 0), (0, 0), (1, 1)):
        _check_rref_bulk(np.ones(shape, dtype=np.uint64))
    for bit in (7, 15, 31, 63):
        top = np.uint64(1 << bit)
        red, ranks = rref_bulk(np.array([[top, top | np.uint64(1)]], dtype=np.uint64))
        assert red.tolist() == [[1, 1 << bit]] and ranks.tolist() == [2]
        # a zero row and the row of the work dtype's top bit share the
        # all-ones sort key
        for basis in ([0, top], [0, 0, top], [top, top, 0]):
            _check_rref_bulk(np.array([basis], dtype=np.uint64))
            _check_rref_bulk(np.array([basis], dtype=gf2.row_dtype(bit + 1)))
        red, ranks = rref_bulk(np.array([[0, top]], dtype=np.uint64))
        assert red.tolist() == [[1 << bit, 0]] and ranks.tolist() == [1]


def test_rref_bulk_works_in_the_rows_width():
    # one block of random 7-row bases of 13 bits: the uint64 result and
    # ranks are 1.0 MiB, and the (7, M) block and key buffers add 0.4 MiB
    # in uint16 (1.8 MiB traced, against 3.2 MiB in uint64)
    rng = np.random.default_rng(34)
    rows = rng.integers(0, 1 << 13, size=(gf2.RREF_CHUNK_ROWS, 7), dtype=np.uint64)
    for kept in (rows, rows.astype(np.uint16)):
        tracemalloc.start()
        try:
            rref_bulk(kept)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak < 2.5, peak


def test_rref_bulk_does_not_depend_on_the_block_size(monkeypatch):
    # blocks of 1 and 7 bases, and the default, on empty and one-row
    # input and on input that ends in a part block
    rng = np.random.default_rng(33)
    cases = [_bases(rng, 100, k, 13) for k in (1, 3, 6, 7)]
    cases += [np.ones((0, 3), dtype=np.uint64), _bases(rng, 1, 3, 13)]
    many = _bases(rng, 2 * gf2.RREF_CHUNK_ROWS + 5, 3, 13)
    want = gf2_reference.rref_bulk(many)
    for size in (1, 7, gf2.RREF_CHUNK_ROWS):
        monkeypatch.setattr(gf2, "RREF_CHUNK_ROWS", size)
        for rows in cases:
            _check_rref_bulk(rows)
        if size > 1:  # 2^15 blocks of one basis each take too long
            red, ranks = rref_bulk(many)
            assert np.array_equal(red, want[0]) and np.array_equal(ranks, want[1])


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


def test_vec_mat_bulk_byte_tables_match_the_masked_xor_oracle():
    # row counts around the 8-row groups of the byte tables, on non-square
    # matrices, with vector bits at and above nrows that must be ignored
    rng = random.Random(17)
    nprng = np.random.default_rng(17)
    for nrows in (0, 1, 7, 8, 9, 13, 16, 17, 24):
        for ncols in (1, 5, 13, 64):
            m = BitMatrix(tuple(rng.getrandbits(ncols) for _ in range(nrows)), ncols)
            vecs = nprng.integers(0, 2**64, size=(3, 40), dtype=np.uint64)
            vecs[0, :4] = [0, 2**64 - 1, 1 << 63, (1 << nrows) - 1]
            vecs[1] >>= np.uint64(64 - max(nrows, 1))  # mostly below nrows
            got = vec_mat_bulk(m, vecs)
            assert got.dtype == np.uint64 and got.shape == vecs.shape
            assert np.array_equal(got, gf2_reference.vec_mat_bulk(m, vecs))
            mask = np.uint64((1 << nrows) - 1)
            assert np.array_equal(got, vec_mat_bulk(m, vecs & mask))
            # m acts on row vectors as its transpose acts on columns
            want = gf2_reference.mat_vec_bulk(transpose(m), vecs & mask)
            assert np.array_equal(got, want)
            assert np.array_equal(vec_mat_bulk(m, vecs[:, ::3]), got[:, ::3])
            empty = vec_mat_bulk(m, np.zeros((0, 4), dtype=np.uint64))
            assert empty.shape == (0, 4) and empty.dtype == np.uint64
    # more vectors than one gather of 2^16 takes
    m = BitMatrix(tuple(rng.getrandbits(13) for _ in range(13)), 13)
    vecs = nprng.integers(0, 2**64, size=(3, 50000), dtype=np.uint64)
    assert np.array_equal(vec_mat_bulk(m, vecs), gf2_reference.vec_mat_bulk(m, vecs))


def test_xor_tables_match_the_masked_xor_oracle():
    # entry [i, b, v] is v @ matrix i restricted to the rows of group b,
    # for every width and row counts around the groups, in the rows' dtype
    nprng = np.random.default_rng(23)
    for dtype, ncols in ((np.uint8, 5), (np.uint16, 13), (np.uint64, 64)):
        for nrows in (1, 4, 7, 8, 13):
            rows = nprng.integers(0, 2**ncols, size=(3, nrows), dtype=np.uint64)
            for width in range(1, 9):
                tables = gf2.xor_tables(rows.astype(dtype), width)
                parts = -(-nrows // width)
                assert tables.dtype == dtype
                assert tables.shape == (3, parts, 1 << width)
                for i, matrix in enumerate(rows.tolist()):
                    m = BitMatrix(tuple(matrix), ncols)
                    vecs = np.arange(1 << width, dtype=np.uint64)
                    for b in range(parts):
                        want = gf2_reference.vec_mat_bulk(m, vecs << np.uint64(width * b))
                        assert np.array_equal(tables[i, b], want)


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
