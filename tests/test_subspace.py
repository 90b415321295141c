"""Subspace canonical forms, enumeration, and counting oracles."""

import random
from itertools import combinations

import numpy as np
import pytest

from qsteiner.gf2 import BitMatrix
from qsteiner.subspace import (
    EnumerationGuardError,
    Subspace,
    canonicalize,
    contains,
    contains_subspace,
    enumerate_keys_bulk,
    enumerate_subspaces,
    format_subspace,
    gaussian_binomial,
    pack_keys_bulk,
    parse_subspaces,
    span,
    spread_size,
    subspace_distance,
    subspaces_of_bulk,
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
            subs = list(enumerate_subspaces(n, k))
            assert len(subs) == gaussian_binomial(n, k, 2)
            if 0 < k <= n <= 5 and k <= 3:
                oracle = brute_subspaces(n, k)
                got = {frozenset(s.vectors()) for s in subs}
                assert got == oracle


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
        m = BitMatrix(rows=tuple(vecs), ncols=n) if vecs else None
        if m is not None:
            s2 = canonicalize(m)
            assert s1 == s2
        # well-defined: any basis of the same space canonicalizes identically
        mixed = list(vecs)
        rng.shuffle(mixed)
        if len(mixed) >= 2:
            mixed[0] ^= mixed[1]
        assert span(mixed, n) == s1


def test_keys_are_injective_and_ordered():
    for n, k in ((4, 2), (5, 2), (5, 3), (6, 1)):
        subs = list(enumerate_subspaces(n, k))
        keys = [s.key for s in subs]
        assert len(set(keys)) == len(keys)
        assert keys == sorted(keys), "enumeration must ascend by key"


def test_bulk_key_kernels_match_scalar():
    for n, k in ((4, 2), (6, 3), (8, 2)):
        subs = list(enumerate_subspaces(n, k))
        universe = enumerate_keys_bulk(n, k)
        assert [int(x) for x in universe] == [s.key for s in subs]
        rows = np.array([s.rows for s in subs], dtype=np.uint64)
        packed = pack_keys_bulk(rows, n)
        assert [int(x) for x in packed] == [s.key for s in subs]


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
            assert len({s.key for s in inner}) == len(inner)
            vecs = set(outer.vectors())
            for s in inner:
                assert set(s.vectors()) <= vecs


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


def test_distance_and_containment():
    u = span([0b0001, 0b0010], 4)
    v = span([0b0001, 0b0100], 4)
    w = span([0b1000, 0b0100], 4)
    assert subspace_distance(u, u) == 0
    assert subspace_distance(u, v) == 2
    assert subspace_distance(u, w) == 4
    assert contains(u, 0b0011) and not contains(u, 0b0100)
    assert contains_subspace(u, span([0b0011], 4))


def test_spread_size_and_guard():
    assert spread_size(4, 2, 2) == 5
    assert spread_size(6, 3, 2) == 9
    with pytest.raises(ValueError):
        spread_size(13, 3, 2)
    with pytest.raises(EnumerationGuardError):
        list(enumerate_subspaces(30, 15))


def test_format_parse_round_trip():
    rng = random.Random(7)
    subs = []
    while len(subs) < 12:
        n = rng.randrange(2, 14)
        s = span([rng.getrandbits(n) for _ in range(3)], n)
        if s.dim > 0 and (not subs or subs[0].ambient == n):
            subs.append(s)
    text = "\n".join(format_subspace(s) for s in subs)
    parsed = parse_subspaces(text)
    assert parsed == subs


def test_rejects_non_canonical_rows():
    with pytest.raises(ValueError):
        Subspace(4, (0b0011, 0b0010))  # first row not reduced by second pivot
    with pytest.raises(ValueError):
        Subspace(4, (0b0100, 0b0001))  # pivots out of order
