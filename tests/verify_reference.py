"""The earlier recounts and the derived-check index, kept as test oracles.

These are the counting paths that `qsteiner.verify` used before it built
one sorted key array in place: `np.unique` with counts over every key of
every block for `verify_design` at t <= 2, a dict of the keys of
per-object subspaces (subspaces_of) for t > 2, and an index of per-pair keys and owner lists for
`derived_steiner_sample_check`.  The new code must give the same report
(for t <= 2 the histogram in the same dict order; the same violations in
the same order) and the same derived statistics.  sorted_pair_keys is
the per-pair uint64 builder of the sorted key array, the oracle of the
in-place one.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from qsteiner.gf2 import span_vectors_bulk
from qsteiner.subspace import Subspace, gaussian_binomial, key_chunks, span
from subspace_reference import enumerate_subspaces, key_per_column
from qsteiner.verify import (
    BlockSet,
    DesignReport,
    _first_absent,
    _key_rows,
    _pair_key_chunks,
)


def subspaces_of(u: Subspace, t: int) -> Iterator[Subspace]:
    """All t-dim subspaces of u, via coordinates in u's basis."""
    k = u.dim
    if t < 0 or t > k:
        return
    if t == 0:
        yield Subspace(u.ambient, ())
        return
    for w in enumerate_subspaces(k, t):
        lifted = []
        for wr in w.rows:
            v = 0
            x = wr
            while x:
                low = x & -x
                v ^= u.rows[low.bit_length() - 1]
                x ^= low
            lifted.append(v)
        yield span(lifted, u.ambient)


def pair_keys(
    blocks: np.ndarray, n: int, return_owners: bool = False
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """One canonical key per 2-subspace per block, with owners on request."""
    num, k = blocks.shape
    m = (1 << k) - 1
    vecs = span_vectors_bulk(blocks)
    keys = []
    owners = []
    shift = np.uint64(n)
    for i in range(m):
        for j in range(i + 1, m):
            u = vecs[:, i]
            v = vecs[:, j]
            lo = np.minimum(u, v)
            hi = np.maximum(u, v)
            keep = (lo ^ hi) > hi  # third vector largest: canonical pair
            if keep.any():
                keys.append((lo[keep] << shift) | hi[keep])
                if return_owners:
                    owners.append(np.nonzero(keep)[0])
    out = np.concatenate(keys)
    assert out.size == num * gaussian_binomial(k, 2, 2)
    if return_owners:
        return out, np.concatenate(owners)
    return out


def sorted_pair_keys(blocks: np.ndarray, n: int, owner_bits: int = 0) -> np.ndarray:
    """Sorted uint64 (pair key << owner_bits) | block index of every
    2-subspace of every block, one fresh key array per line of PG(k-1, 2)."""
    num, k = blocks.shape
    vecs = span_vectors_bulk(blocks)
    owners = np.arange(num, dtype=np.uint64) if owner_bits else np.uint64(0)
    parts = []
    for _, coords in key_chunks(k, 2):
        for a, b in coords.tolist():
            x, y = vecs[:, a - 1], vecs[:, b - 1]
            z = x ^ y
            lo = np.minimum(np.minimum(x, y), z)
            hi = np.maximum(np.maximum(x, y), z)
            keys = (lo << np.uint64(n)) | (lo ^ hi)
            parts.append((keys << np.uint64(owner_bits)) | owners)
    return np.sort(np.concatenate(parts))


def verify_design(
    blocks: BlockSet, t: int, lam: int, max_violations: int = 100
) -> DesignReport:
    """The t <= 2 report by np.unique over every key at once."""
    n, k = blocks.n, blocks.k
    assert 0 < t <= min(k, 2) and lam >= 1
    total = gaussian_binomial(n, t, 2)
    if t == 2:
        keys = pair_keys(blocks.blocks, n)
    else:
        keys = span_vectors_bulk(blocks.blocks).ravel()
    uniq, counts = np.unique(keys, return_counts=True)
    histogram: dict[int, int] = {}
    vals, freq = np.unique(counts, return_counts=True)
    for v, f in zip(vals.tolist(), freq.tolist()):
        histogram[int(v)] = int(f)
    missing = total - int(uniq.size)
    if missing:
        histogram[0] = missing
    violations_total = sum(f for c, f in histogram.items() if c != lam)

    bad = uniq[counts != lam]
    bad_counts = counts[counts != lam]
    shown = [
        (_key_rows(int(bad[i]), n, t), int(bad_counts[i]))
        for i in range(min(len(bad), max_violations))
    ]
    if missing and len(shown) < max_violations:
        chunks = (
            _pair_key_chunks(n) if t == 2 else [np.arange(1, 1 << n, dtype=np.uint64)]
        )
        for key in _first_absent(chunks, uniq, max_violations - len(shown)):
            shown.append((_key_rows(key, n, t), 0))
    return DesignReport(
        n=n,
        k=k,
        t=t,
        lam=lam,
        num_blocks=blocks.num_blocks,
        total_t_subspaces=total,
        histogram=histogram,
        violations_shown=shown,
        violations_total=violations_total,
        ok=violations_total == 0,
    )


def dict_verify_design(
    blocks: BlockSet, t: int, lam: int, max_violations: int = 100
) -> DesignReport:
    """The report of any t by a dict over the keys of per-object subspaces."""
    n, k = blocks.n, blocks.k
    assert 0 < t <= k and lam >= 1
    total = gaussian_binomial(n, t, 2)
    counts_by_key: dict[int, int] = {}
    rows_by_key: dict[int, tuple[int, ...]] = {}
    for i in range(blocks.num_blocks):
        block = Subspace(n, tuple(int(r) for r in blocks.blocks[i]))
        for sub in subspaces_of(block, t):
            key = key_per_column(n, sub.rows)
            counts_by_key[key] = counts_by_key.get(key, 0) + 1
            rows_by_key.setdefault(key, sub.rows)
    histogram: dict[int, int] = {}
    for c in counts_by_key.values():
        histogram[c] = histogram.get(c, 0) + 1
    missing = total - len(counts_by_key)
    if missing:
        histogram[0] = missing
    violations_total = sum(f for c, f in histogram.items() if c != lam)
    shown = []
    for key in sorted(counts_by_key):
        if len(shown) >= max_violations:
            break
        if counts_by_key[key] != lam:
            shown.append((rows_by_key[key], counts_by_key[key]))
    if missing and len(shown) < max_violations:
        for sub in enumerate_subspaces(n, t):
            if len(shown) >= max_violations:
                break
            if key_per_column(n, sub.rows) not in counts_by_key:
                shown.append((sub.rows, 0))
    return DesignReport(
        n=n,
        k=k,
        t=t,
        lam=lam,
        num_blocks=blocks.num_blocks,
        total_t_subspaces=total,
        histogram=histogram,
        violations_shown=shown,
        violations_total=violations_total,
        ok=violations_total == 0,
    )


def derived_steiner_sample_check(
    blocks: BlockSet, samples: int = 10**5, seed: int = 0
) -> dict:
    """The derived triple check over an argsort of keys and owner lists."""
    n = blocks.n
    keys, owners = pair_keys(blocks.blocks, n, return_owners=True)
    order = np.argsort(keys, kind="stable")
    keys_sorted = keys[order]
    block_sorted = owners[order]
    del keys, owners, order
    if np.any(keys_sorted[1:] == keys_sorted[:-1]):
        raise AssertionError("coverage index is not one-to-one; lambda != 1?")

    rng = np.random.default_rng(seed)
    top = 1 << n
    remaining = samples
    failures = 0
    examples: list[tuple[int, int, int]] = []
    shift = np.uint64(n)
    last = keys_sorted.size - 1
    while remaining > 0:
        take = min(remaining, 1 << 16)
        x = rng.integers(0, top, size=take, dtype=np.uint64)
        y = rng.integers(0, top, size=take, dtype=np.uint64)
        z = rng.integers(0, top, size=take, dtype=np.uint64)
        distinct = (x != y) & (x != z) & (y != z)
        x, y, z = x[distinct], y[distinct], z[distinct]
        u = x ^ y
        v = x ^ z
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        w = lo ^ hi
        k1 = np.where(w > hi, (lo << shift) | hi, np.uint64(0))
        k2 = np.where((w < hi) & (w > lo), (lo << shift) | w, np.uint64(0))
        k3 = np.where(w < lo, (w << shift) | lo, np.uint64(0))
        key = k1 | k2 | k3
        pos = np.searchsorted(keys_sorted, key)
        found = (pos <= last) & (keys_sorted[np.minimum(pos, last)] == key)
        if not found.all():
            bad = np.nonzero(~found)[0]
            failures += int(bad.size)
            for b in bad[:5]:
                examples.append((int(x[b]), int(y[b]), int(z[b])))
        brows = blocks.blocks[block_sorted[np.minimum(pos, last)]]
        for vec in (u, v, w):
            red = vec.copy()
            for col in range(blocks.k):
                row = brows[:, col]
                pivbit = row & (np.uint64(0) - row)
                hit = (red & pivbit) != 0
                red = np.where(hit, red ^ row, red)
            bad = np.nonzero(found & (red != 0))[0]
            if bad.size:
                failures += int(bad.size)
                for b in bad[:5]:
                    examples.append((int(x[b]), int(y[b]), int(z[b])))
        remaining -= int(x.size)
    return {
        "samples": samples,
        "tested": samples,
        "failures": failures,
        "examples": examples[:10],
    }
