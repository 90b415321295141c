"""Subspace keys, enumeration, counting and the text reader, against oracles."""

import random
from itertools import combinations

import numpy as np
import pytest

import matrix_text_reference
from qsteiner import gf2
from qsteiner.gf2 import (
    BitMatrix,
    FormatError,
    LimitError,
    format_matrix,
    rref_bulk,
    span_vectors_bulk,
)
from qsteiner.subspace import (
    Subspace,
    enumerate_keys_bulk,
    gaussian_binomial,
    key_chunks,
    key_order,
    key_rows,
    pack_keys_bulk,
    parse_subspaces,
    span,
    spread_size,
    subspaces_of_bulk,
)
from qsteiner.verify import BlockSet, _Ranking
from subspace_reference import (
    enumerate_subspaces,
    key_per_column,
    keys_per_column_bulk,
    vectors,
)
from verify_reference import subspaces_of


def brute_subspaces(n: int, k: int) -> set[frozenset]:
    """All k-subspaces of GF(2)^n as vector sets, by spanning every tuple."""
    out = set()
    for vecs in combinations(range(1, 1 << n), k):
        s = {0}
        for v in vecs:
            s |= {x ^ v for x in s}
        if len(s) == 1 << k:
            out.add(frozenset(s))
    return out


def test_enumeration_matches_spanning_oracle():
    for n in range(1, 6):
        for k in range(0, n + 1):
            rows = np.concatenate([rows for _, rows in key_chunks(n, k)])
            assert len(rows) == gaussian_binomial(n, k, 2)
            if 0 < k <= n <= 5 and k <= 3:
                oracle = brute_subspaces(n, k)
                vecs = span_vectors_bulk(rows).tolist()
                got = {frozenset([0, *v]) for v in vecs}
                assert len(got) == len(rows) and got == oracle


def test_gaussian_binomial_pascal_recurrence():
    # [n k]_q = [n-1 k-1]_q + q^k [n-1 k]_q
    for q in (2, 3):
        for n in range(1, 12):
            for k in range(0, n + 1):
                lhs = gaussian_binomial(n, k, q)
                rhs = gaussian_binomial(n - 1, k - 1, q) + q**k * gaussian_binomial(
                    n - 1, k, q
                )
                assert lhs == rhs
    assert gaussian_binomial(13, 2, 2) == 11180715
    assert gaussian_binomial(13, 3, 2) == 3269560515
    assert gaussian_binomial(11, 1, 2) == 2047


def test_span_and_canonicalize_agree():
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randrange(1, 12)
        k = rng.randrange(0, min(n, 4) + 1)
        vecs = [rng.getrandbits(n) for _ in range(k)]
        s1 = span(vecs, n)
        raw = np.array(vecs, dtype=np.uint64).reshape(1, k)
        assert set(vectors(s1)) == {0, *span_vectors_bulk(raw)[0].tolist()}
        # well-defined: any basis of the same space canonicalizes identically
        mixed = list(vecs)
        rng.shuffle(mixed)
        if len(mixed) >= 2:
            mixed[0] ^= mixed[1]
        assert span(mixed, n) == s1


def test_keys_are_injective_and_ordered():
    for n, k in ((4, 2), (5, 2), (5, 3), (6, 1)):
        subs = list(enumerate_subspaces(n, k))
        keys = [key_per_column(n, s.rows) for s in subs]
        assert len(set(keys)) == len(keys)
        assert keys == sorted(keys), "enumeration must ascend by key"


def random_rref_rows(rng, num, n, k):
    """Up to num random (k-row, full rank) RREF bases of GF(2)^n."""
    rows, ranks = rref_bulk(rng.integers(0, 1 << n, size=(num, k), dtype=np.uint64))
    return rows[ranks == k]


def test_bulk_key_kernels_match_scalar():
    # the kernels against the per-column oracle and the constructive keys
    for n in range(1, 8):
        for k in range(n + 1):
            chunks = list(key_chunks(n, k))
            keys = np.concatenate([keys for keys, _ in chunks])
            rows = np.concatenate([rows for _, rows in chunks])
            assert np.array_equal(enumerate_keys_bulk(n, k), keys)
            assert np.array_equal(keys_per_column_bulk(rows, n), keys)
            assert np.array_equal(pack_keys_bulk(rows, n), keys)
            shuffled = rows[np.random.default_rng(8 * n + k).permutation(len(rows))]
            assert np.array_equal(shuffled[key_order(shuffled)], rows)
            for key, basis in zip(keys.tolist(), rows.tolist()):
                assert key == key_per_column(n, basis)
                assert key_rows(key, n, k) == tuple(basis)
    rng = np.random.default_rng(14)
    cases = [(13, k, 50_000) for k in range(1, 7)] + [(22, 2, 2000), (32, 1, 2000)]
    for n, k, num in cases:
        rows = random_rref_rows(rng, num, n, k)
        keys = pack_keys_bulk(rows, n)
        assert np.array_equal(keys, keys_per_column_bulk(rows, n)), (n, k)
        # the scalar inverse on a slice; the recount prints a t > 2 witness
        # by the rank of its key
        ranking = _Ranking(n, k) if k > 2 else None
        ranks = ranking.key_ranks(keys[:5000]).tolist() if ranking else [None] * 5000
        for key, basis, rank in zip(keys[:5000].tolist(), rows[:5000].tolist(), ranks):
            assert key_rows(key, n, k) == tuple(basis), (n, k)
            assert ranking is None or ranking.rows(rank) == tuple(basis), (n, k)
    # past 64 bits only the oracle packs a key, and key_rows inverts it
    for k in range(1, 7):
        for basis in random_rref_rows(rng, 200, 64, k).tolist():
            assert key_rows(key_per_column(64, basis), 64, k) == tuple(basis)
        with pytest.raises(ValueError, match="do not fit in 64 bits"):
            pack_keys_bulk(np.array([basis], dtype=np.uint64), 64)
    # a key of another dimension does not decode
    with pytest.raises(ValueError, match="does not decode"):
        key_rows(key_per_column(13, (1, 2)), 13, 3)


def test_subspaces_of_lists_all_inner_subspaces():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randrange(3, 9)
        k = rng.randrange(2, min(n, 4) + 1)
        outer = None
        while outer is None or outer.dim != k:
            outer = span([rng.getrandbits(n) for _ in range(k)], n)
        for t in range(1, k + 1):
            inner = list(subspaces_of(outer, t))
            assert len(inner) == gaussian_binomial(k, t, 2)
            assert len({s.rows for s in inner}) == len(inner)
            vecs = set(vectors(outer))
            for s in inner:
                assert set(vectors(s)) <= vecs


def test_subspaces_of_bulk_matches_scalar():
    rng = random.Random(7)
    for n, k in ((5, 2), (7, 3), (9, 4)):
        outers = []
        while len(outers) < 12:
            u = span([rng.getrandbits(n) for _ in range(k)], n)
            if u.dim == k:
                outers.append(u)
        rows = np.array([u.rows for u in outers], dtype=np.uint64)
        for t in range(1, k + 1):
            bulk = subspaces_of_bulk(rows, t)
            assert bulk.shape == (len(outers), gaussian_binomial(k, t, 2), t)
            for u, lifted in zip(outers, bulk.tolist()):
                assert [tuple(r) for r in lifted] == [
                    s.rows for s in subspaces_of(u, t)
                ]
    with pytest.raises(ValueError, match="dependent"):
        subspaces_of_bulk(np.array([[1, 1]], dtype=np.uint64), 1)


def test_spread_size_and_guard():
    assert spread_size(4, 2, 2) == 5
    assert spread_size(6, 3, 2) == 9
    with pytest.raises(ValueError):
        spread_size(13, 3, 2)
    with pytest.raises(LimitError):
        enumerate_keys_bulk(30, 15)


def test_format_parse_round_trip():
    rng = random.Random(7)
    subs = []
    while len(subs) < 12:
        n = rng.randrange(2, 14)
        s = span([rng.getrandbits(n) for _ in range(3)], n)
        if s.dim == 3 and (not subs or subs[0].ambient == n):
            subs.append(s)
    text = "\n".join(format_matrix(BitMatrix(s.rows, s.ambient)) for s in subs)
    n, rows, lines = parse_subspaces(text)
    assert n == subs[0].ambient and rows.dtype == np.uint64
    assert rows.tolist() == [list(s.rows) for s in subs]
    assert lines.tolist() == list(range(1, 4 * len(subs), 4))


def random_subspace_text(rng, n, k, bases, header, crlf):
    """A file of the bases with comments, spaces and runs of blank lines."""
    lines = [f"# block set: n={n} k={k} blocks={len(bases)}"] if header else []
    for basis in bases:
        if rng.random() < 0.3:
            lines.append("# a comment line does not end a block")
        for r in basis:
            row = "".join("1" if (r >> j) & 1 else "0" for j in range(n))
            pad = " " * rng.randrange(3)
            tail = rng.choice(["", "  ", " # trailing comment"])
            lines.append(pad + row + tail)
        lines += [rng.choice(["", " ", "\t"]) for _ in range(rng.randrange(1, 4))]
    return ("\r\n" if crlf else "\n").join(lines)


def test_bulk_reader_matches_per_block_oracle(tmp_path):
    rng = random.Random(2013)
    path = tmp_path / "subspaces.txt"
    for trial in range(300):
        n = rng.randrange(1, 17)
        k = rng.randrange(1, min(4, n) + 1)
        bases, num = [], rng.randrange(1, 12)
        while len(bases) < num:
            basis = [rng.getrandbits(n) for _ in range(k)]
            if len(span(basis, n).rows) == k:  # full rank, rarely RREF
                bases.append(basis)
        if trial % 3 == 0:  # one block with a dependent last row
            i = rng.randrange(len(bases))
            last = 0
            for r in bases[i][:-1]:
                last ^= r if rng.random() < 0.5 else 0
            bases[i] = bases[i][:-1] + [last]
        header, crlf = trial % 2 == 0, trial % 5 < 2
        text = random_subspace_text(rng, n, k, bases, header, crlf)
        path.write_bytes(text.encode())
        try:
            want = matrix_text_reference.parse_subspaces(text)
        except FormatError as exc:
            with pytest.raises(FormatError) as got:
                parse_subspaces(text)
            assert str(got.value) == str(exc), trial
            with pytest.raises(FormatError) as got:
                BlockSet.load(str(path))
            assert str(got.value) == f"{path}: {exc}", trial
            continue
        got_n, rows, _ = parse_subspaces(text)
        assert got_n == n and rows.tolist() == [list(u.rows) for u in want], trial
        if len(set(want)) == len(want):
            loaded = BlockSet.load(str(path))
            assert (loaded.n, loaded.k) == (n, k)
            assert np.array_equal(loaded.blocks, rows)
        else:
            with pytest.raises(FormatError, match="duplicate block"):
                BlockSet.load(str(path))
    # a header that ends in \r\n is read: its block count is checked
    path.write_bytes(b"# block set: n=3 k=1 blocks=2\r\n100\r\n")
    with pytest.raises(FormatError, match="header says blocks=2, file has 1"):
        BlockSet.load(str(path))


def test_rejects_non_canonical_rows():
    with pytest.raises(ValueError):
        Subspace(4, (0b0011, 0b0010))  # first row not reduced by second pivot
    with pytest.raises(ValueError):
        Subspace(4, (0b0100, 0b0001))  # pivots out of order


def test_bulk_reader_reduces_only_the_chunks_not_in_rref(monkeypatch, tmp_path):
    rng = random.Random(57)
    n, k = 9, 3
    bases = []
    while len(bases) < 40:
        basis = [rng.getrandbits(n) for _ in range(k)]
        red = list(span(basis, n).rows)
        if len(red) == k:  # runs of reduced and unreduced bases
            bases.append(red if (len(bases) // 3) % 2 else basis)
    a, b = bases[-1][:2]
    dependent = bases + [[a, b, a ^ b]]
    for chunk in (1, 2, 7, gf2.RREF_CHUNK_ROWS):
        monkeypatch.setattr(gf2, "RREF_CHUNK_ROWS", chunk)
        for case in (bases, dependent):
            text = random_subspace_text(rng, n, k, case, False, False)
            try:
                want = matrix_text_reference.parse_subspaces(text)
            except FormatError as exc:
                with pytest.raises(FormatError) as got:
                    parse_subspaces(text)
                assert str(got.value) == str(exc) and "dependent" in str(exc)
                continue
            assert parse_subspaces(text)[1].tolist() == [list(u.rows) for u in want]
    # blocks as save writes them are in RREF: nothing is row-reduced
    rows = np.array([span(basis, n).rows for basis in bases], dtype=np.uint64)
    path = tmp_path / "blocks.txt"
    BlockSet(n, k, np.unique(rows, axis=0)).save(str(path))

    def refuse(rows):
        raise AssertionError("a chunk in RREF was row-reduced")

    monkeypatch.setattr(gf2, "rref_bulk", refuse)
    assert np.array_equal(BlockSet.load(str(path)).blocks, np.unique(rows, axis=0))
