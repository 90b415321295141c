"""The earlier recounts, certificates and checks, kept as test oracles.

These are the counting paths that `qsteiner.verify` used before it
counted every t-subspace by its rank: `np.unique` with counts over every
sorted key of every block for `verify_design` at t <= 2, a dict of the
keys of per-object subspaces (subspaces_of) for t > 2, and an index of
per-pair keys and owner lists for `derived_steiner_sample_check`.  The
new code must give the same report (for t <= 2 the histogram in the same
dict order; the same violations in the same order) and the same derived
statistics.  sorted_pair_keys is the per-pair uint64 builder of the
sorted key array, whose order the ranks of the lines follow.

owner_tagged_derived_check and stacked_min_distance are the two sampled
certificates as they were before they stopped sorting owner-tagged keys
and row-reducing stacked 2k-row bases; rref_block_error is the BlockSet
check that row-reduced every block.  Each must agree with its
replacement on every draw, witness and message.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from qsteiner.gf2 import rref_bulk, rref_rows, span_vectors_bulk
from qsteiner.subspace import Subspace, gaussian_binomial, key_chunks, key_rows, span
from subspace_reference import enumerate_subspaces, key_per_column
from qsteiner.verify import BlockSet, DesignReport


def _line_keys(
    x: np.ndarray, y: np.ndarray, z: np.ndarray, n: int, out: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Keys of the 2-subspaces {0, x, y, z}, z = x ^ y, written to out:
    lo << n | mid for the least nonzero vector lo and the middle one
    mid = lo ^ (the greatest).  scratch has the shape and dtype of out."""
    np.minimum(x, y, out=out)
    np.minimum(out, z, out=out)
    np.maximum(x, y, out=scratch)
    np.maximum(scratch, z, out=scratch)
    scratch ^= out
    out <<= out.dtype.type(n)
    out |= scratch


def _pair_key_chunks(n: int) -> Iterator[np.ndarray]:
    """Keys of all 2-subspaces of GF(2)^n in ascending order (see
    _line_keys), one uint64 chunk per smallest nonzero vector."""
    shift = np.uint64(n)
    top = 1 << n
    for u in range(1, top):
        v = np.arange(u + 1, top, dtype=np.uint64)
        uu = np.uint64(u)
        keep = (uu ^ v) > v
        if keep.any():
            yield (uu << shift) | v[keep]


def _first_absent(
    chunks: Iterable[np.ndarray], present: np.ndarray, limit: int
) -> list[int]:
    """Up to limit keys of the ascending chunks that sorted present lacks,
    generating chunks only until enough keys are found."""
    found: list[int] = []
    for chunk in chunks:
        if len(found) >= limit:
            break
        if present.size:
            idx = np.minimum(np.searchsorted(present, chunk), present.size - 1)
            chunk = chunk[present[idx] != chunk]
        found.extend(chunk[: limit - len(found)].tolist())
    return found


def _key_rows(key: int, n: int, t: int) -> tuple[int, ...]:
    """RREF rows of the t-subspace with the given key: the point itself for
    t = 1, the _line_keys key for t = 2, the packed key above."""
    if t == 1:
        return (key,)
    if t == 2:
        return rref_rows([key >> n, key & ((1 << n) - 1)])[0]
    return key_rows(key, n, t)


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


def owner_tagged_derived_check(
    blocks: BlockSet, samples: int = 10**5, seed: int = 0
) -> dict:
    """The derived triple check over one sorted array of every pair key
    tagged with its block, (key << owner_bits) | block index, in uint64."""
    n = blocks.n
    owner_bits = max(1, (blocks.num_blocks - 1).bit_length())
    assert 2 * n + owner_bits <= 64
    index = sorted_pair_keys(blocks.blocks, n, owner_bits)
    ob = np.uint64(owner_bits)
    if np.any((index[1:] >> ob) == (index[:-1] >> ob)):
        raise AssertionError("coverage index is not one-to-one; lambda != 1?")
    last = index.size - 1
    owner_mask = np.uint64((1 << owner_bits) - 1)

    rng = np.random.default_rng(seed)
    top = 1 << n
    remaining = samples
    failures = 0
    examples: list[tuple[int, int, int]] = []
    while remaining > 0:
        take = min(remaining, 1 << 16)
        x = rng.integers(0, top, size=take, dtype=np.uint64)
        y = rng.integers(0, top, size=take, dtype=np.uint64)
        z = rng.integers(0, top, size=take, dtype=np.uint64)
        distinct = (x != y) & (x != z) & (y != z)
        x, y, z = x[distinct], y[distinct], z[distinct]
        u = x ^ y
        v = x ^ z
        key = np.empty(u.size, dtype=np.uint64)
        _line_keys(u, v, u ^ v, n, key, np.empty_like(key))
        pos = np.searchsorted(index, key << ob)
        entry = index[np.minimum(pos, last)]
        found = (pos <= last) & ((entry >> ob) == key)
        if not found.all():
            bad = np.nonzero(~found)[0]
            failures += int(bad.size)
            for b in bad[:5]:
                examples.append((int(x[b]), int(y[b]), int(z[b])))
        brows = blocks.blocks[entry & owner_mask].T.copy()
        pivots = brows & (np.uint64(0) - brows)
        for vec in (u, v, u ^ v):
            red = vec.copy()
            for row, piv in zip(brows, pivots):
                red ^= row * ((red & piv) != 0)
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


def stacked_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Subspace distance 2 (rank [A; B] - k) of the (N, k) bases a[i] and
    b[i], by row-reducing the (N, 2k) stack."""
    _, ranks = rref_bulk(np.concatenate([a, b], axis=1))
    return 2 * (ranks - a.shape[1])


def stacked_min_distance(
    blocks: BlockSet, t: int, samples: int = 10**6, seed: int = 0
) -> int:
    """min_distance_certificate of blocks taken for a t-(n, k, 1) design,
    without the report checks; each sampled pair's distance comes from
    row-reducing its stacked rows."""
    k = blocks.k
    bound = 2 * (k - t + 1)
    num = blocks.num_blocks
    rng = np.random.default_rng(seed)
    done = 0
    min_seen = 2 * k
    while done < samples:
        take = min(1 << 16, samples - done)
        i = rng.integers(0, num, size=take)
        j = rng.integers(0, num, size=take)
        keep = i != j
        i, j = i[keep], j[keep]
        dist = stacked_distances(blocks.blocks[i], blocks.blocks[j])
        if dist.size:
            min_seen = min(min_seen, int(dist.min()))
        if min_seen < bound:
            bad = int(np.argmax(dist < bound))
            raise AssertionError(
                f"blocks {int(i[bad])} and {int(j[bad])} are at distance "
                f"{int(dist[bad])} < {bound}; the report should not have passed"
            )
        done += take
    attained = min_seen == bound
    if not attained and t == 2:
        limit = min(num, 20000)
        probe = span_vectors_bulk(blocks.blocks[:limit]).T.ravel()
        vals = np.unique(probe)
        counts = np.bincount(np.searchsorted(vals, probe))
        shared = vals[counts >= 2]
        if shared.size:
            owners = np.nonzero(probe == shared[0])[0] % limit
            a, b = int(owners[0]), int(owners[1])
            dist = stacked_distances(blocks.blocks[a : a + 1], blocks.blocks[b : b + 1])
            attained = int(dist[0]) == bound
    if not attained:
        raise AssertionError("no pair attaining the distance bound was found")
    return bound


def rref_block_error(blocks: np.ndarray, k: int) -> str | None:
    """The message BlockSet gives (N, k) rows that are not all RREF bases
    of k-dim subspaces, by row-reducing every block: a block of rank
    below k anywhere comes first; None when every block is one."""
    red, ranks = rref_bulk(blocks)
    if not np.all(ranks == k):
        return "every block must have dimension k"
    if not np.array_equal(red, blocks):
        return "block rows must be in reduced row echelon form"
    return None
