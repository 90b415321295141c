"""Independent verification of subspace designs.

Everything here recounts from the expanded block list and shares no
state with the construction pipeline: a block set is just an array of
basis rows, and the verifier counts how often every t-subspace of the
ambient space occurs inside a block.  A t-(n, k, lambda) design over
GF(2) passes exactly when every count equals lambda.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .gf2 import (
    FormatError,
    first_duplicate,
    rref_bulk,
    rref_rows,
    span_vectors_bulk,
)
from .groups import MatrixGroup, orbit
from .subspace import (
    EnumerationGuardError,
    gaussian_binomial,
    key_bits,
    key_chunks,
    key_rows,
    pack_keys_bulk,
    parse_subspaces,
    subspaces_of_bulk,
)

VERIFY_BUDGET = 2 * 10**7
VIOLATION_CAP = 100


# Blocks per write of BlockSet.save; the bytes do not depend on it.
SAVE_BATCH_BLOCKS = 1 << 16
# Blocks per chunk of the block checks and the key builder, and sorted
# keys per slice of the counting passes; no result depends on them.
KEY_CHUNK_BLOCKS = 1 << 16
KEY_SLICE = 1 << 20
_BLOCK_HEADER = re.compile(r"# block set: n=(\d+) k=(\d+) blocks=(\d+)[ \t]*\r?$", re.M)


@dataclass(eq=False)
class BlockSet:
    """Distinct k-dim subspaces of GF(2)^n as an (N, k) array of RREF rows."""

    n: int
    k: int
    blocks: np.ndarray

    def __post_init__(self) -> None:
        self.blocks = np.ascontiguousarray(self.blocks, dtype=np.uint64)
        if self.blocks.ndim != 2 or self.blocks.shape[1] != self.k:
            raise ValueError("blocks must be an (N, k) array of basis rows")
        if self.blocks.size and int(self.blocks.max()) >> self.n:
            raise ValueError("block rows must fit in n bits")
        for start in range(0, self.num_blocks, KEY_CHUNK_BLOCKS):
            part = self.blocks[start : start + KEY_CHUNK_BLOCKS]
            red, ranks = rref_bulk(part)
            if not np.all(ranks == self.k):
                raise ValueError("every block must have dimension k")
            if not np.array_equal(red, part):
                raise ValueError("block rows must be in reduced row echelon form")
        pair = first_duplicate(self.blocks, self.n)
        if pair is not None:
            raise ValueError(
                f"blocks must be distinct; blocks {pair[0]} and {pair[1]} are equal"
            )

    @property
    def num_blocks(self) -> int:
        return int(self.blocks.shape[0])

    def save(self, path: str) -> None:
        """Write a header line, then per block its k rows and a blank line."""
        n, k = self.n, self.k
        cols = np.arange(n, dtype=np.uint64)
        with open(path, "wb") as fh:
            fh.write(f"# block set: n={n} k={k} blocks={self.num_blocks}\n".encode())
            for start in range(0, self.num_blocks, SAVE_BATCH_BLOCKS):
                part = self.blocks[start : start + SAVE_BATCH_BLOCKS]
                rows = np.full((len(part), k, n + 1), ord("\n"), dtype=np.uint8)
                rows[:, :, :n] = ((part[:, :, None] >> cols) & np.uint64(1)) + ord("0")
                blank = np.full((len(part), 1), ord("\n"), dtype=np.uint8)
                text = np.concatenate([rows.reshape(len(part), -1), blank], axis=1)
                fh.write(text.tobytes())

    @classmethod
    def load(cls, path: str) -> "BlockSet":
        """Read a block file; every fault is a FormatError naming its line.

        The blocks are read by parse_subspaces, and no block may repeat.
        The header that save writes is checked, when present, against the
        width, row count and number of blocks: a truncated file does not load.
        """
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        header = _BLOCK_HEADER.match(text)
        shape = [int(g) for g in header.groups()] if header else [None] * 3
        n, rows, lines = parse_subspaces(text, *shape)
        pair = first_duplicate(rows, n)
        if pair is not None:
            i, j = lines[list(pair)]
            raise FormatError(f"lines {i} and {j}: duplicate block")
        # the reader and the duplicate search ran every check of __post_init__
        blocks = cls.__new__(cls)
        blocks.n, blocks.k, blocks.blocks = n, rows.shape[1], rows
        return blocks


def expand_orbits(group: MatrixGroup, reps: np.ndarray) -> tuple[BlockSet, list[int]]:
    """Expand orbit representatives, (N, k) RREF rows, to the full block list.

    Returns (blocks, per-orbit lengths).  The representatives must make a
    BlockSet of GF(2)^n themselves, and a block shared by two orbits is an
    error: the representatives did not come from distinct orbits.
    """
    reps = np.asarray(reps, dtype=np.uint64)
    if not len(reps):
        raise ValueError("no representatives to expand")
    k = reps.shape[-1]
    BlockSet(n=group.n, k=k, blocks=reps)
    engine = group.engine()
    parts = [
        orbit(group, rep) if engine is None else engine.expand_orbit_rows(rep)
        for rep in reps
    ]
    lengths = [len(rows) for rows in parts]
    blocks = np.concatenate(parts, axis=0)
    try:
        return BlockSet(n=group.n, k=k, blocks=blocks), lengths
    except ValueError:
        pair = first_duplicate(blocks, group.n)
        if pair is None:
            raise
        # orbits are disjoint or equal: a shared block means a shared orbit
        a, b = np.searchsorted(np.cumsum(lengths), pair, side="right").tolist()
        raise ValueError(f"representatives {a} and {b} share an orbit") from None


@dataclass
class DesignReport:
    n: int
    k: int
    t: int
    lam: int
    num_blocks: int
    total_t_subspaces: int
    histogram: dict[int, int]
    violations_shown: list[tuple[tuple[int, ...], int]]
    violations_total: int
    ok: bool


def _key_dtype(n: int, t: int, owner_bits: int = 0) -> np.dtype:
    """dtype of the keys _sorted_keys builds: uint32 when a t-subspace key
    of GF(2)^n and owner_bits bits of block index fit in 32 bits, else
    uint64.  A key has n bits for t = 1, 2n for t = 2 (see _line_keys)
    and key_bits(n, t) above, those of pack_keys_bulk."""
    bits = n if t == 1 else 2 * n if t == 2 else key_bits(n, t)
    return np.dtype(np.uint32 if bits + owner_bits <= 32 else np.uint64)


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


def _fill_keys(
    part: np.ndarray, n: int, t: int, dest: np.ndarray, points: np.ndarray | None
) -> None:
    """Every t-subspace key of a chunk of blocks into dest, one row per
    t-subspace slot of GF(2)^k: dest[j, i] is the key of slot j of block i.

    A point's key is the vector; a 2-subspace's is that of _line_keys,
    built per line of PG(k - 1, 2) into the row of dest from the chunk's
    points, which fill the first columns of points, a (2^k - 1, >= N)
    buffer in dest's dtype (None for t != 2); a larger subspace's is the
    packed RREF key of pack_keys_bulk.  A block's t-subspaces are the
    lifts of the t-subspaces of GF(2)^k, as in subspaces_of_bulk, so each
    is built once.
    """
    if t > 2:
        keys = pack_keys_bulk(subspaces_of_bulk(part, t).reshape(-1, t), n)
        dest[...] = keys.reshape(part.shape[0], -1).T
        return
    if t == 1:
        span_vectors_bulk(part, out=dest)
        return
    points = points[:, : part.shape[0]]
    span_vectors_bulk(part, out=points)
    scratch = np.empty(part.shape[0], dtype=dest.dtype)
    lines = np.concatenate([rows for _, rows in key_chunks(part.shape[1], 2)])
    for row, (a, b) in zip(dest, lines.tolist(), strict=True):
        _line_keys(points[a - 1], points[b - 1], points[(a ^ b) - 1], n, row, scratch)


def _sorted_keys(
    blocks: np.ndarray, n: int, t: int, owner_bits: int = 0
) -> np.ndarray:
    """Every t-subspace key of every block, sorted, in _key_dtype.

    The keys fill one preallocated array, KEY_CHUNK_BLOCKS blocks at a
    time, and are sorted in place.  With owner_bits > 0 each entry is
    key << owner_bits | index of the block that holds it.
    """
    num, k = blocks.shape
    per_block = gaussian_binomial(k, t, 2)
    dtype = _key_dtype(n, t, owner_bits)
    out = np.empty(num * per_block, dtype=dtype)
    points = None
    if t == 2:  # one buffer for the points of every chunk
        points = np.empty(((1 << k) - 1, min(num, KEY_CHUNK_BLOCKS)), dtype=dtype)
    for start in range(0, num, KEY_CHUNK_BLOCKS):
        part = blocks[start : start + KEY_CHUNK_BLOCKS]
        dest = out[start * per_block : (start + len(part)) * per_block]
        dest = dest.reshape(per_block, len(part))
        _fill_keys(part, n, t, dest, points)
        if owner_bits:
            dest <<= dtype.type(owner_bits)
            dest |= np.arange(start, start + len(part), dtype=dtype)
    out.sort()
    return out


def _slices(keys: np.ndarray) -> Iterator[np.ndarray]:
    """Consecutive slices of about KEY_SLICE sorted keys, each ending where
    a run of equal keys ends."""
    start = 0
    while start < keys.size:
        stop = start + KEY_SLICE
        if stop < keys.size:
            stop = int(np.searchsorted(keys, keys[stop - 1], side="right"))
        yield keys[start:stop]
        start = stop


def _runs(part: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct keys, run lengths) of sorted keys that hold whole runs."""
    ends = np.flatnonzero(part[1:] != part[:-1])
    ends += 1
    heads = np.concatenate(([0], ends))
    del ends
    counts = np.empty_like(heads)
    np.subtract(heads[1:], heads[:-1], out=counts[:-1])
    counts[-1] = part.size - heads[-1]
    return part[heads], counts


def _point_keys(blocks: np.ndarray) -> np.ndarray:
    """Every nonzero vector of every block, mask-major: key j belongs to
    block j % num."""
    return span_vectors_bulk(blocks).T.ravel()


def _pair_key_chunks(n: int) -> Iterator[np.ndarray]:
    """Keys of all 2-subspaces of GF(2)^n in ascending order, one chunk
    per smallest nonzero vector, in the dtype of _sorted_keys."""
    dtype = _key_dtype(n, 2)
    shift = dtype.type(n)
    top = 1 << n
    for u in range(1, top):
        v = np.arange(u + 1, top, dtype=dtype)
        uu = dtype.type(u)
        keep = (uu ^ v) > v
        if keep.any():
            yield (uu << shift) | v[keep]


def _first_absent(
    chunks: Iterable[np.ndarray], present: np.ndarray, limit: int
) -> list[int]:
    """Up to limit keys of the ascending chunks that sorted present lacks
    (present may repeat keys).  Chunks in the dtype of present keep
    searchsorted from converting present on every chunk.

    Chunks are generated only until enough keys are found, so a sparse
    block set never materializes the whole key universe.
    """
    found: list[int] = []
    for chunk in chunks:
        if len(found) >= limit:
            break
        if present.size:
            idx = np.minimum(np.searchsorted(present, chunk), present.size - 1)
            chunk = chunk[present[idx] != chunk]
        found.extend(chunk[: limit - len(found)].tolist())
    return found


def _all_keys(n: int, t: int) -> Iterable[np.ndarray]:
    """Keys of every t-subspace of GF(2)^n, as _fill_keys builds them,
    in ascending chunks in the dtype of _sorted_keys."""
    dtype = _key_dtype(n, t)
    if t == 1:
        return [np.arange(1, 1 << n, dtype=dtype)]
    if t == 2:
        return _pair_key_chunks(n)
    return (keys.astype(dtype) for keys, _ in key_chunks(n, t))


def _key_rows(key: int, n: int, t: int) -> tuple[int, ...]:
    """RREF rows of the t-subspace whose key _fill_keys builds."""
    if t == 1:
        return (key,)
    if t == 2:
        return rref_rows([key >> n, key & ((1 << n) - 1)])[0]
    return key_rows(key, n, t)


def verify_design(
    blocks: BlockSet,
    t: int,
    lam: int,
    max_violations: int = VIOLATION_CAP,
    budget: int = VERIFY_BUDGET,
) -> DesignReport:
    """Count every t-subspace's occurrences inside blocks, from scratch.

    One pass over the sorted keys of every t-subspace of every block (see
    _fill_keys); violations are shown in ascending key order, the
    present keys first, then the absent ones.
    """
    n, k = blocks.n, blocks.k
    if not 0 < t <= k:
        raise ValueError("need 0 < t <= k")
    if lam < 1:
        raise ValueError("need lam >= 1")
    if t == 2 and 2 * n > 63:
        raise ValueError("pair keys do not fit in 64 bits for this n")
    total = gaussian_binomial(n, t, 2)
    if total > budget:
        raise EnumerationGuardError(
            f"{total} t-subspaces exceed the verification budget {budget}"
        )
    per_block = gaussian_binomial(k, t, 2)
    keys = _sorted_keys(blocks.blocks, n, t)
    tally: dict[int, int] = {}
    distinct = 0
    shown: list[tuple[tuple[int, ...], int]] = []
    for part in _slices(keys):
        uniq, counts = _runs(part)
        distinct += uniq.size
        hist = np.bincount(counts)
        for c in np.flatnonzero(hist).tolist():
            tally[c] = tally.get(c, 0) + int(hist[c])
        room = max_violations - len(shown)
        if room > 0:
            off = np.flatnonzero(counts != lam)[:room]
            for key, c in zip(uniq[off].tolist(), counts[off].tolist()):
                shown.append((_key_rows(key, n, t), c))
        del uniq, counts  # before the next slice's runs are built
    histogram: dict[int, int] = {c: tally[c] for c in sorted(tally)}
    missing = total - distinct
    if missing:
        histogram[0] = missing
    violations_total = sum(f for c, f in histogram.items() if c != lam)
    if missing and len(shown) < max_violations:
        chunks = _all_keys(n, t)
        for key in _first_absent(chunks, keys, max_violations - len(shown)):
            shown.append((_key_rows(key, n, t), 0))
    covered = sum(c * f for c, f in histogram.items())
    if covered != blocks.num_blocks * per_block:
        raise AssertionError("histogram mass does not match blocks * per-block count")
    ok = violations_total == 0
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
        ok=ok,
    )


def format_report(report: DesignReport) -> str:
    lines = [
        f"DESIGN n={report.n} k={report.k} t={report.t} lambda={report.lam}",
        f"blocks {report.num_blocks}",
        f"total-t-subspaces {report.total_t_subspaces}",
        "histogram",
    ]
    for c in sorted(report.histogram):
        lines.append(f"{c} {report.histogram[c]}")
    lines.append(f"violations {len(report.violations_shown)} {report.violations_total}")
    for rows, count in report.violations_shown:
        lines.append(f"violation {count}")
        for r in rows:
            lines.append(
                "".join("1" if (r >> b) & 1 else "0" for b in range(report.n))
            )
    lines.append(f"VERDICT {'pass' if report.ok else 'fail'}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# certificates built on a passing report


def packing_bound(n: int, k: int, t: int, q: int = 2) -> int:
    """Largest possible block count: [n t]_q / [k t]_q, when integral."""
    num = gaussian_binomial(n, t, q)
    den = gaussian_binomial(k, t, q)
    if num % den:
        raise ValueError(
            f"packing bound [{n} {t}]_{q} / [{k} {t}]_{q} is not an integer"
        )
    return num // den


def _check_report_matches(blocks: BlockSet, report: DesignReport) -> None:
    have = (report.n, report.k, report.num_blocks)
    want = (blocks.n, blocks.k, blocks.num_blocks)
    if have != want:
        raise ValueError(
            f"report (n, k, blocks) = {have} does not describe this block set {want}"
        )


def min_distance_certificate(
    blocks: BlockSet,
    report: DesignReport,
    samples: int = 10**6,
    seed: int = 0,
) -> int:
    """Certified minimum pairwise subspace distance of a Steiner block set.

    With lambda = 1 no two distinct blocks share a t-subspace, so every
    pair is at distance >= 2(k - t + 1).  The bound is spot-checked on
    sampled pairs and shown to be attained by an explicit pair, making
    the returned minimum exact.  Requires a passing report.
    """
    if samples < 0:
        raise ValueError("need samples >= 0")
    if not report.ok or report.lam != 1:
        raise ValueError("certificate requires a passing lambda=1 report")
    _check_report_matches(blocks, report)
    k, t = report.k, report.t
    bound = 2 * (k - t + 1)
    num = blocks.num_blocks
    if num < 2:
        raise ValueError("need at least two blocks for a pairwise distance")
    rng = np.random.default_rng(seed)
    batch = 1 << 16
    done = 0
    min_seen = 2 * k
    while done < samples:
        take = min(batch, samples - done)
        i = rng.integers(0, num, size=take)
        j = rng.integers(0, num, size=take)
        keep = i != j
        i, j = i[keep], j[keep]
        stacked = np.concatenate([blocks.blocks[i], blocks.blocks[j]], axis=1)
        _, ranks = rref_bulk(stacked)
        dist = 2 * (ranks - k)
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
        # exhibit a pair attaining the bound: two blocks through a common point
        limit = min(num, 20000)
        probe = _point_keys(blocks.blocks[:limit])
        vals = np.unique(probe)
        counts = np.bincount(np.searchsorted(vals, probe))
        shared = vals[counts >= 2]
        if shared.size:
            owners = np.nonzero(probe == shared[0])[0] % limit
            a, b = int(owners[0]), int(owners[1])
            stacked = np.concatenate(
                [blocks.blocks[a : a + 1], blocks.blocks[b : b + 1]], axis=1
            )
            _, ranks = rref_bulk(stacked)
            attained = int(2 * (ranks[0] - k)) == bound
    if not attained:
        raise AssertionError("no pair attaining the distance bound was found")
    return bound


def derived_steiner_sample_check(
    blocks: BlockSet,
    report: DesignReport,
    samples: int = 10**5,
    seed: int = 0,
) -> dict:
    """Spot-check the derived Steiner triple structure on points.

    For a passing 2-(n, k, 1) design, any three distinct points x, y, z
    of GF(2)^n determine difference vectors u = x^y, v = x^z spanning a
    2-subspace that lies in exactly one block B, and the three pairwise
    differences all lie in B.  Samples random triples and verifies both
    facts via an independent coverage index.
    """
    if samples < 0:
        raise ValueError("need samples >= 0")
    if not report.ok or report.t != 2 or report.lam != 1:
        raise ValueError("check requires a passing 2-(n, k, 1) report")
    _check_report_matches(blocks, report)
    n = blocks.n
    # the index is one sorted array of (pair key << owner_bits) | owner
    owner_bits = max(1, (blocks.num_blocks - 1).bit_length())
    if 2 * n + owner_bits > 64:
        raise ValueError("pair keys and block indices do not fit in 64 bits")
    index = _sorted_keys(blocks.blocks, n, 2, owner_bits)
    dtype = index.dtype
    ob = dtype.type(owner_bits)
    # one-to-one over every key; each slice overlaps the last one by a key
    for start in range(0, index.size, KEY_SLICE):
        keys = index[max(start - 1, 0) : start + KEY_SLICE] >> ob
        if np.any(keys[1:] == keys[:-1]):
            raise AssertionError("coverage index is not one-to-one; lambda != 1?")
    last = index.size - 1
    owner_mask = dtype.type((1 << owner_bits) - 1)

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
        # in the index's dtype, so searchsorted does not convert the index
        key = np.empty(u.size, dtype=dtype)
        _line_keys(u, v, u ^ v, n, key, np.empty_like(key))
        pos = np.searchsorted(index, key << ob)
        entry = index[np.minimum(pos, last)]
        found = (pos <= last) & ((entry >> ob) == key)
        if not found.all():
            bad = np.nonzero(~found)[0]
            failures += int(bad.size)
            for b in bad[:5]:
                examples.append((int(x[b]), int(y[b]), int(z[b])))
        # containment of all three difference vectors in the covering block
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
