"""The t <= 2 recount and the derived-check index, kept as test oracles.

These are the counting paths that `qsteiner.verify` used before it built
one sorted key array in place: `np.unique` with counts over every key of
every block for `verify_design`, and an index of per-pair keys and owner
lists for `derived_steiner_sample_check`.  The new code must give the
same report (histogram in the same dict order, the same violations in
the same order) and the same derived statistics.
"""

from __future__ import annotations

import numpy as np

from qsteiner.gf2 import span_vectors_bulk
from qsteiner.subspace import gaussian_binomial, span
from qsteiner.verify import (
    BlockSet,
    DesignReport,
    _first_absent,
    _key_to_pair_subspace,
    _pair_key_chunks,
)


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

    def rows_of(key: int) -> tuple[int, ...]:
        return _key_to_pair_subspace(key, n) if t == 2 else span([key], n).rows

    bad = uniq[counts != lam]
    bad_counts = counts[counts != lam]
    shown = [
        (rows_of(int(bad[i])), int(bad_counts[i]))
        for i in range(min(len(bad), max_violations))
    ]
    if missing and len(shown) < max_violations:
        chunks = (
            _pair_key_chunks(n) if t == 2 else [np.arange(1, 1 << n, dtype=np.uint64)]
        )
        for key in _first_absent(chunks, uniq, max_violations - len(shown)):
            shown.append((rows_of(key), 0))
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
