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

from .gf2 import FormatError, parse_matrix_rows, rref_bulk, span_vectors_bulk
from .groups import MatrixGroup, orbit
from .subspace import (
    Subspace,
    enumerate_subspaces,
    gaussian_binomial,
    span,
    subspaces_of,
)

VERIFY_BUDGET = 2 * 10**7
VIOLATION_CAP = 100


# Blocks per write of BlockSet.save; the bytes do not depend on it.
SAVE_BATCH_BLOCKS = 1 << 16
_BLOCK_HEADER = re.compile(r"# block set: n=(\d+) k=(\d+) blocks=(\d+)[ \t]*$", re.M)


def _first_duplicate(blocks: np.ndarray) -> tuple[int, int] | None:
    """(i, j) with i < j for the first block j that equals an earlier block i."""
    num, k = blocks.shape
    # a stable lexicographic sort makes equal rows neighbours in input order
    order = np.lexsort(blocks.T) if k else np.arange(num)
    srt = blocks[order]
    same = np.flatnonzero(np.all(srt[1:] == srt[:-1], axis=1))
    if not same.size:
        return None
    later = order[same + 1]
    p = int(np.argmin(later))
    return int(order[same[p]]), int(later[p])


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
        red, ranks = rref_bulk(self.blocks)
        if not np.all(ranks == self.k):
            raise ValueError("every block must have dimension k")
        if not np.array_equal(red, self.blocks):
            raise ValueError("block rows must be in reduced row echelon form")
        pair = _first_duplicate(self.blocks)
        if pair is not None:
            raise ValueError(
                f"blocks must be distinct; blocks {pair[0]} and {pair[1]} are equal"
            )

    @property
    def num_blocks(self) -> int:
        return int(self.blocks.shape[0])

    @classmethod
    def from_subspaces(cls, subs: list[Subspace]) -> "BlockSet":
        if not subs:
            raise ValueError("empty block set")
        n = subs[0].ambient
        k = subs[0].dim
        if any(s.ambient != n or s.dim != k for s in subs):
            raise ValueError("blocks must share ambient space and dimension")
        return cls(n=n, k=k, blocks=np.array([s.rows for s in subs], dtype=np.uint64))

    def subspace(self, i: int) -> Subspace:
        return Subspace(self.n, tuple(int(r) for r in self.blocks[i]))

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

        Each block needs the same width and row count and rows of full
        rank, and no block may repeat.  The header that save writes is
        checked, when present, against the width, row count and number
        of blocks, so a truncated file does not load.
        """
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        parsed = parse_matrix_rows(text)
        num = parsed.widths.size
        if not num:
            raise FormatError("no blocks found")
        widths = parsed.widths
        counts = np.diff(parsed.starts)
        header = _BLOCK_HEADER.match(text)
        if header is not None:
            n, k, expect = (int(g) for g in header.groups())
            if expect != num:
                raise FormatError(f"header says blocks={expect}, file has {num}")
        else:
            n, k = int(widths[0]), int(counts[0])
        for field, have, want in (("n", widths, n), ("k", counts, k)):
            wrong = np.flatnonzero(have != want)
            if wrong.size:
                i = wrong[0]
                raise FormatError(
                    f"line {parsed.lines[i]}: block has {field}={have[i]}, "
                    f"expected {field}={want}"
                )
        red, ranks = rref_bulk(parsed.values.reshape(num, k))
        low = np.flatnonzero(ranks < k)
        if low.size:
            i = low[0]
            raise FormatError(
                f"line {parsed.lines[i]}: block rows are linearly dependent "
                f"(rank {ranks[i]} < {k})"
            )
        pair = _first_duplicate(red)
        if pair is not None:
            i, j = parsed.lines[list(pair)]
            raise FormatError(f"lines {i} and {j}: duplicate block")
        return cls(n=n, k=k, blocks=red)


def expand_orbits(
    group: MatrixGroup, reps: list[Subspace]
) -> tuple[BlockSet, list[int]]:
    """Expand orbit representatives to the full block list.

    Returns (blocks, per-orbit lengths).  Duplicate blocks across orbits
    are an error: the representatives did not come from distinct orbits.
    """
    if not reps:
        raise ValueError("no representatives to expand")
    dims = {r.dim for r in reps}
    if len(dims) != 1:
        raise ValueError(f"mixed representative dimensions: {sorted(dims)}")
    if any(r.ambient != group.n for r in reps):
        raise ValueError("representative does not live in the group's space")
    engine = group.engine()
    parts = []
    lengths = []
    if engine is not None:
        for rep in reps:
            rows = engine.expand_orbit(rep)
            parts.append(rows)
            lengths.append(rows.shape[0])
    else:
        for rep in reps:
            members = orbit(group, rep)
            parts.append(np.array([m.rows for m in members], dtype=np.uint64))
            lengths.append(len(members))
    blocks = np.concatenate(parts, axis=0)
    return BlockSet(n=group.n, k=dims.pop(), blocks=blocks), lengths


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


def _pair_keys(
    blocks: np.ndarray, n: int, return_owners: bool = False
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """One canonical key per 2-subspace per block: key = u << n | v where
    (u, v) are the two smallest nonzero vectors of the 2-subspace.

    With return_owners, also returns the owning block index of each key.
    """
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
    expect = num * gaussian_binomial(k, 2, 2)
    if out.size != expect:
        raise AssertionError("canonical pair filter lost 2-subspaces")
    if return_owners:
        return out, np.concatenate(owners)
    return out


def _point_keys(blocks: np.ndarray) -> np.ndarray:
    """Every nonzero vector of every block, mask-major: key j belongs to
    block j % num."""
    return span_vectors_bulk(blocks).T.ravel()


def _pair_key_chunks(n: int) -> Iterator[np.ndarray]:
    """Keys of all 2-subspaces of GF(2)^n in ascending order, one chunk
    per smallest nonzero vector."""
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
    """Up to limit keys of the ascending chunks that sorted present lacks.

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


def _key_to_pair_subspace(key: int, n: int) -> tuple[int, ...]:
    u = key >> n
    v = key & ((1 << n) - 1)
    return span([u, v], n).rows


def verify_design(
    blocks: BlockSet,
    t: int,
    lam: int,
    max_violations: int = VIOLATION_CAP,
    budget: int = VERIFY_BUDGET,
) -> DesignReport:
    """Count every t-subspace's occurrences inside blocks, from scratch.

    Fast vectorized counting for t <= 2; otherwise a generic exact count
    over enumerate_subspaces, guarded by budget.
    """
    n, k = blocks.n, blocks.k
    if not 0 < t <= k:
        raise ValueError("need 0 < t <= k")
    if lam < 1:
        raise ValueError("need lam >= 1")
    total = gaussian_binomial(n, t, 2)
    if total > budget:
        raise RuntimeError(
            f"{total} t-subspaces exceed the verification budget {budget}"
        )
    per_block = gaussian_binomial(k, t, 2)
    if t <= 2 and 2 * n <= 63:
        keys = (
            _pair_keys(blocks.blocks, n) if t == 2 else _point_keys(blocks.blocks)
        )
        uniq, counts = np.unique(keys, return_counts=True)
        histogram: dict[int, int] = {}
        vals, freq = np.unique(counts, return_counts=True)
        for v, f in zip(vals.tolist(), freq.tolist()):
            histogram[int(v)] = int(f)
        missing = total - int(uniq.size)
        if missing:
            histogram[0] = missing
        violations_total = sum(
            f for c, f in histogram.items() if c != lam
        )
        shown: list[tuple[tuple[int, ...], int]] = []
        bad = uniq[counts != lam]
        bad_counts = counts[counts != lam]
        for i in range(min(len(bad), max_violations)):
            key = int(bad[i])
            rows = (
                _key_to_pair_subspace(key, n) if t == 2 else span([key], n).rows
            )
            shown.append((rows, int(bad_counts[i])))
        if missing and len(shown) < max_violations:
            chunks = (
                _pair_key_chunks(n)
                if t == 2
                else [np.arange(1, 1 << n, dtype=np.uint64)]
            )
            for key in _first_absent(chunks, uniq, max_violations - len(shown)):
                rows = (
                    _key_to_pair_subspace(key, n) if t == 2 else span([key], n).rows
                )
                shown.append((rows, 0))
    else:
        counts_by_key: dict[int, int] = {}
        rows_by_key: dict[int, tuple[int, ...]] = {}
        for i in range(blocks.num_blocks):
            for sub in subspaces_of(blocks.subspace(i), t):
                counts_by_key[sub.key] = counts_by_key.get(sub.key, 0) + 1
                rows_by_key.setdefault(sub.key, sub.rows)
        histogram = {}
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
                if sub.key not in counts_by_key:
                    shown.append((sub.rows, 0))
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


def save_report(report: DesignReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_report(report))


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
    if not report.ok or report.lam != 1:
        raise ValueError("certificate requires a passing lambda=1 report")
    if report.n != blocks.n or report.k != blocks.k:
        raise ValueError("report does not describe this block set")
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
    if not report.ok or report.t != 2 or report.lam != 1:
        raise ValueError("check requires a passing 2-(n, k, 1) report")
    n = blocks.n
    # the index is one sorted array of (pair key << owner_bits) | owner
    owner_bits = max(1, (blocks.num_blocks - 1).bit_length())
    if 2 * n + owner_bits > 64:
        raise ValueError("pair keys and block indices do not fit in 64 bits")
    index, owners = _pair_keys(blocks.blocks, n, return_owners=True)
    index <<= np.uint64(owner_bits)
    index |= owners.view(np.uint64)
    del owners
    index.sort()
    keys_sorted = index >> np.uint64(owner_bits)
    block_sorted = (index & np.uint64((1 << owner_bits) - 1)).view(np.int64)
    del index
    if np.any(keys_sorted[1:] == keys_sorted[:-1]):
        raise AssertionError("coverage index is not one-to-one; lambda != 1?")

    rng = np.random.default_rng(seed)
    top = 1 << n
    remaining = samples
    failures = 0
    examples: list[tuple[int, int, int]] = []
    shift = np.uint64(n)
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
        w = lo ^ hi  # the third nonzero vector, = y^z
        k1 = np.where(w > hi, (lo << shift) | hi, np.uint64(0))
        k2 = np.where((w < hi) & (w > lo), (lo << shift) | w, np.uint64(0))
        k3 = np.where(w < lo, (w << shift) | lo, np.uint64(0))
        key = k1 | k2 | k3
        pos = np.searchsorted(keys_sorted, key)
        found = (pos < keys_sorted.size) & (keys_sorted[np.minimum(pos, keys_sorted.size - 1)] == key)
        if not found.all():
            bad = np.nonzero(~found)[0]
            failures += int(bad.size)
            for b in bad[:5]:
                examples.append((int(x[b]), int(y[b]), int(z[b])))
        # containment of all three difference vectors in the covering block
        bidx = block_sorted[np.minimum(pos, keys_sorted.size - 1)]
        brows = blocks.blocks[bidx]
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
