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
from itertools import combinations

import numpy as np

from .gf2 import (
    FormatError,
    LimitError,
    first_duplicate,
    format_rows,
    reading,
    rref_bulk,
    rref_checked,
    rref_rows,
    span_vectors_bulk,
)
from .groups import MatrixGroup, orbit
from .subspace import (
    gaussian_binomial,
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
# Blocks per chunk of the counting pass, and counter entries per slice of
# the reads of the counter; no result depends on them.
KEY_CHUNK_BLOCKS = 1 << 16
COUNT_SLICE = 1 << 16
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
        reduced, fault = rref_checked(self.blocks)
        if fault is not None:
            raise ValueError("every block must have dimension k")
        if reduced is not self.blocks:
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
        with open(path, "wb") as fh:
            fh.write(f"# block set: n={n} k={k} blocks={self.num_blocks}\n".encode())
            for start in range(0, self.num_blocks, SAVE_BATCH_BLOCKS):
                rows = format_rows(self.blocks[start : start + SAVE_BATCH_BLOCKS], n)
                blank = np.full((len(rows), 1), ord("\n"), dtype=np.uint8)
                text = np.concatenate([rows.reshape(len(rows), -1), blank], axis=1)
                fh.write(text.tobytes())

    @classmethod
    def load(cls, path: str) -> "BlockSet":
        """Read a block file; every fault is a FormatError that names the
        file and its line (see gf2.reading).

        The blocks are read by parse_subspaces, and no block may repeat.
        The header that save writes is checked, when present, against the
        width, row count and number of blocks: a truncated file does not load.
        """
        with reading(path) as text:
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
    if engine is None:
        parts = [orbit(group, rep) for rep in reps]
        lengths = [len(rows) for rows in parts]
        blocks = np.concatenate(parts, axis=0)
    else:  # each orbit straight into one array of room for |G| blocks each
        blocks = np.empty((len(reps) * engine.order, k), dtype=np.uint64)
        lengths = []
        stop = 0
        for rep in reps:
            rows = engine.expand_orbit_rows(rep)
            blocks[stop : stop + len(rows)] = rows
            lengths.append(len(rows))
            stop += len(rows)
        if stop < len(blocks):  # short orbits: free the unused room
            blocks = blocks[:stop].copy()
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


class _Ranking:
    """The rank of each t-subspace of GF(2)^n, from 0 to [n t]_2 - 1, in
    dtype: its place in the order the recount lists violations in, which
    is by the point itself for t = 1, by (lo, mid) for a line {0, lo, mid,
    hi}, lo < mid < hi, and by the packed key (see key_chunks) above.

    A point v has rank v - 1.  If lo's top bit is h, then mid has bit h
    clear and a higher bit set, so lo is the least point of 2^(n-1) - 2^h
    lines, and mid with bit h squeezed out, less 2^h, orders them.  A
    larger subspace ranks by its pivot mask, then by the rows' fields of
    its key without the zeros below each row's pivot, the last row first.
    """

    def __init__(self, n: int, t: int):
        self.n, self.t = n, t
        self.total = gaussian_binomial(n, t, 2)
        self.dtype = np.dtype(np.uint32 if self.total <= 1 << 32 else np.uint64)
        if t == 2:  # tables by lo
            top = np.zeros(1 << n, dtype=np.int64)  # 2^h
            for h in range(n):
                top[1 << h : 2 << h] = 1 << h
            lines = np.where(top > 0, (1 << (n - 1)) - top, 0)
            self.first = np.cumsum(lines) - lines  # the rank of lo's first line
            # below 0 at lo = 1, in unsigned wrap-around; mid's squeeze adds 2^h
            self.offset = (self.first - top).astype(self.dtype)
            self.low = np.maximum(top - 1, 0).astype(self.dtype)
        elif t > 2:  # tables by pivot mask, in ascending order
            pivots = sorted(
                combinations(range(n), t), key=lambda ps: sum(1 << p for p in ps)
            )
            self.masks = np.array([sum(1 << p for p in ps) for ps in pivots], np.uint64)
            # the field of row i, n - t bits, is 0 below bit p_i - i
            shifts = np.array([[p - i for i, p in enumerate(ps)] for ps in pivots])
            widths = (n - t) - shifts
            sizes = 1 << widths.sum(axis=1)
            self.first = np.cumsum(sizes) - sizes  # the rank of the mask's first
            self.shifts = shifts.astype(np.uint64)
            self.places = (np.cumsum(widths, axis=1) - widths).astype(np.uint64)

    def line_ranks(self, x, y, z, out: np.ndarray, scratch: np.ndarray) -> None:
        """Ranks of the lines {0, x, y, z}, z = x ^ y, into out; x, y and z
        have the shape and dtype of out, scratch two rows of them."""
        mid, part = scratch
        np.minimum(x, y, out=out)
        np.minimum(out, z, out=out)  # lo
        np.maximum(x, y, out=mid)
        np.maximum(mid, z, out=mid)
        mid ^= out  # lo ^ hi
        # lo < 2^n indexes the tables; "clip" only skips numpy's bounds pass
        np.take(self.low, out, out=part, mode="clip")
        part &= mid
        mid += part
        mid >>= 1
        np.take(self.offset, out, out=part, mode="clip")
        np.add(part, mid, out=out)

    def key_ranks(self, keys: np.ndarray) -> np.ndarray:
        """Ranks of t-subspaces, t > 2, from their uint64 packed keys."""
        n, t = self.n, self.t
        width = n - t
        pivmask = (keys >> np.uint64(t * width)) & np.uint64((1 << n) - 1)
        at = np.searchsorted(self.masks, pivmask)
        ranks = self.first[at].astype(np.uint64)
        for i in range(t):
            field = (keys >> np.uint64(i * width)) & np.uint64((1 << width) - 1)
            field >>= self.shifts[at, i]
            field <<= self.places[at, i]
            ranks += field
        return ranks

    def fill(
        self, part: np.ndarray, dest: np.ndarray, points: np.ndarray | None
    ) -> None:
        """The rank of every t-subspace of a chunk of blocks into dest, one
        row per t-subspace slot of GF(2)^k: dest[j, i] is slot j of block i.

        A block's t-subspaces are the lifts of the t-subspaces of GF(2)^k,
        as in subspaces_of_bulk, so each is ranked once.  A line is ranked
        from the chunk's points, which fill the first columns of points, a
        (2^k - 1, >= N) buffer in dtype (None for t != 2).
        """
        if self.t > 2:
            subs = subspaces_of_bulk(part, self.t).reshape(-1, self.t)
            dest[...] = self.key_ranks(pack_keys_bulk(subs, self.n)).reshape(
                part.shape[0], -1
            ).T
            return
        if self.t == 1:
            span_vectors_bulk(part, out=dest)
            dest -= 1
            return
        points = points[:, : part.shape[0]]
        span_vectors_bulk(part, out=points)
        scratch = np.empty((2, part.shape[0]), dtype=self.dtype)
        lines = np.concatenate([rows for _, rows in key_chunks(part.shape[1], 2)])
        for row, (a, b) in zip(dest, lines.tolist(), strict=True):
            x, y, z = points[a - 1], points[b - 1], points[(a ^ b) - 1]
            self.line_ranks(x, y, z, row, scratch)

    def rows(self, rank: int) -> tuple[int, ...]:
        """RREF rows of the t-subspace of the given rank."""
        n, t = self.n, self.t
        if t == 1:
            return (rank + 1,)
        at = int(np.searchsorted(self.first, rank, side="right")) - 1
        rank -= int(self.first[at])
        if t == 2:  # at is lo
            h = at.bit_length() - 1
            rank += 1 << h  # mid with bit h squeezed out
            mid = (rank >> h << (h + 1)) | (rank & ((1 << h) - 1))
            return rref_rows([at, mid])[0]
        width = n - t
        key = ((t << n) | int(self.masks[at])) << (t * width)
        for i in range(t):
            shift, place = int(self.shifts[at, i]), int(self.places[at, i])
            field = (rank >> place) & ((1 << (width - shift)) - 1)
            key |= field << shift << (i * width)
        return key_rows(key, n, t)


def _coverage_counts(
    blocks: np.ndarray, ranking: _Ranking, marked: np.ndarray | None = None
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """How many blocks hold each t-subspace, indexed by rank, and the
    (ranks, block indices) of the t-subspaces that marked, a bool map by
    rank, flags (none when marked is None).

    The counter's dtype is the least unsigned one that holds the most
    blocks one t-subspace can lie in: the fewer of N and [n - t, k - t]_2.
    Each chunk of KEY_CHUNK_BLOCKS blocks is ranked into one buffer and
    added to the counter with a scalar of its dtype, numpy's fast path.
    """
    num, k = blocks.shape
    n, t = ranking.n, ranking.t
    per_block = gaussian_binomial(k, t, 2)
    limit = min(num, gaussian_binomial(n - t, k - t, 2))
    counts = np.zeros(ranking.total, dtype=np.min_scalar_type(limit))
    one = counts.dtype.type(1)
    width = min(num, KEY_CHUNK_BLOCKS)
    buf = np.empty(per_block * width, dtype=ranking.dtype)
    points = None
    if t == 2:  # one buffer for the points of every chunk
        points = np.empty(((1 << k) - 1, width), dtype=ranking.dtype)
    hits: list[tuple[np.ndarray, np.ndarray]] = []
    for start in range(0, num, KEY_CHUNK_BLOCKS):
        part = blocks[start : start + KEY_CHUNK_BLOCKS]
        flat = buf[: per_block * len(part)]
        slots = flat.reshape(per_block, len(part))  # slots[j, i]: block start + i
        ranking.fill(part, slots, points)
        np.add.at(counts, flat, one)
        if marked is None:
            continue
        for ranks in slots:  # one slot at a time: take copies the ranks to intp
            pos = np.flatnonzero(np.take(marked, ranks, mode="clip"))  # clips none
            hits.append((ranks[pos], start + pos))
    return counts, hits


def _first_where(counts: np.ndarray, test, limit: int) -> np.ndarray:
    """Up to limit ascending indices of counts where test(slice) holds,
    read COUNT_SLICE entries at a time."""
    found: list[np.ndarray] = []
    for start in range(0, counts.size, COUNT_SLICE):
        if limit <= 0:
            break
        at = np.flatnonzero(test(counts[start : start + COUNT_SLICE]))[:limit]
        found.append(at + start)
        limit -= at.size
    return np.concatenate(found) if found else np.zeros(0, dtype=np.intp)


def verify_design(
    blocks: BlockSet,
    t: int,
    lam: int,
    max_violations: int = VIOLATION_CAP,
    budget: int = VERIFY_BUDGET,
) -> DesignReport:
    """Count every t-subspace's occurrences inside blocks, from scratch.

    One pass over the ranks of every t-subspace of every block fills one
    counter (see _coverage_counts), which is then read in slices;
    violations are shown in ascending key order, the present t-subspaces
    first, then the absent ones.
    """
    n, k = blocks.n, blocks.k
    if not 0 < t <= k:
        raise ValueError("need 0 < t <= k")
    if lam < 1:
        raise ValueError("need lam >= 1")
    total = gaussian_binomial(n, t, 2)
    if total > budget:
        raise LimitError(
            f"{total} t-subspaces exceed the verification budget {budget}"
        )
    ranking = _Ranking(n, t)
    counts, _ = _coverage_counts(blocks.blocks, ranking)
    # bincount only the counts above 1: a run of equal counts is its
    # slowest input, and a Steiner system's present counts are all 1
    tally = np.zeros(int(counts.max()) + 1, dtype=np.int64)
    for start in range(0, total, COUNT_SLICE):
        part = counts[start : start + COUNT_SLICE]
        tally += np.bincount(part[part > 1], minlength=tally.size)
    present = int(np.count_nonzero(counts))
    tally[0] = total - present
    tally[1:2] = present - tally[2:].sum()  # empty when no count is above 0
    histogram = {c: int(tally[c]) for c in np.flatnonzero(tally).tolist() if c}
    missing = int(tally[0])
    if missing:
        histogram[0] = missing
    violations_total = sum(f for c, f in histogram.items() if c != lam)
    mass = blocks.num_blocks * gaussian_binomial(k, t, 2)
    if sum(c * f for c, f in histogram.items()) != mass:
        raise AssertionError("histogram mass does not match blocks * per-block count")
    shown: list[tuple[tuple[int, ...], int]] = []
    if violations_total - missing:
        off = _first_where(counts, lambda c: (c != lam) & (c != 0), max_violations)
        for r, c in zip(off.tolist(), counts[off].tolist()):
            shown.append((ranking.rows(r), c))
    if missing:
        absent = _first_where(counts, lambda c: c == 0, max_violations - len(shown))
        shown += [(ranking.rows(r), 0) for r in absent.tolist()]
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


def _point_keys(blocks: np.ndarray) -> np.ndarray:
    """Every nonzero vector of every block, mask-major: key j belongs to
    block j % num."""
    return span_vectors_bulk(blocks).T.ravel()


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
        text = format_rows(np.array(rows, dtype=np.uint64), report.n).tobytes()
        lines += text.decode().splitlines()
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


def _residue_ranks(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """rank([A; B]) - k for the RREF bases A = a[i] and B = b[i], (N, k)
    uint64 arrays: the rank of A's rows once every pivot bit of B is
    cleared from them.  B is reduced, so clearing one of its pivots sets
    no other, and what is left of A spans [A; B] modulo B."""
    res = a.T.copy()
    hit = np.empty(res.shape[1], dtype=bool)
    diff = np.empty(res.shape[1], dtype=np.uint64)
    for row in b.T.copy():
        piv = row & (np.uint64(0) - row)
        for r in res:
            np.bitwise_and(r, piv, out=diff)
            np.not_equal(diff, 0, out=hit)
            np.multiply(row, hit, out=diff)
            r ^= diff
    return rref_bulk(res.T)[1]


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
    the returned minimum exact.  Requires a passing report.  The distance
    of two k-dim blocks is 2 (rank of their stacked rows - k), taken by
    _residue_ranks.
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
    rows = blocks.blocks
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
        dist = 2 * _residue_ranks(np.take(rows, i, axis=0), np.take(rows, j, axis=0))
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
        probe = _point_keys(rows[:limit])
        vals = np.unique(probe)
        counts = np.bincount(np.searchsorted(vals, probe))
        shared = vals[counts >= 2]
        if shared.size:
            owners = np.nonzero(probe == shared[0])[0] % limit
            a, b = int(owners[0]), int(owners[1])
            dist = 2 * _residue_ranks(rows[a : a + 1], rows[b : b + 1])
            attained = int(dist[0]) == bound
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
    facts from the blocks alone: one pass over the ranks of every block's
    lines (_coverage_counts) counts them, which shows that no 2-subspace
    lies in two blocks, and finds the blocks that hold the sampled lines
    through a map of their ranks; each must lie in exactly one block.
    """
    if samples < 0:
        raise ValueError("need samples >= 0")
    if not report.ok or report.t != 2 or report.lam != 1:
        raise ValueError("check requires a passing 2-(n, k, 1) report")
    _check_report_matches(blocks, report)
    n = blocks.n
    ranking = _Ranking(n, 2)
    rng = np.random.default_rng(seed)
    top = 1 << n
    sampled = np.empty(samples, dtype=ranking.dtype)
    draws: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    done = 0
    while done < samples:
        take = min(samples - done, 1 << 16)
        x = rng.integers(0, top, size=take, dtype=np.uint64)
        y = rng.integers(0, top, size=take, dtype=np.uint64)
        z = rng.integers(0, top, size=take, dtype=np.uint64)
        distinct = (x != y) & (x != z) & (y != z)
        x, y, z = x[distinct], y[distinct], z[distinct]
        u, v = (x ^ y).astype(ranking.dtype), (x ^ z).astype(ranking.dtype)
        line = sampled[done : done + x.size]
        ranking.line_ranks(u, v, u ^ v, line, np.empty((2, line.size), line.dtype))
        draws.append((x, y, z))
        done += x.size
    marked = np.zeros(ranking.total, dtype=bool)
    marked[sampled] = True
    counts, hits = _coverage_counts(blocks.blocks, ranking, marked)
    del marked
    if counts.max() > 1:
        raise AssertionError("coverage index is not one-to-one; lambda != 1?")
    wanted, where = np.unique(sampled, return_inverse=True)
    covered = counts[wanted] == 1
    del counts
    owners = np.zeros(wanted.size, dtype=np.intp)
    for ranks, holders in hits:
        owners[np.searchsorted(wanted, ranks)] = holders

    failures = 0
    examples: list[tuple[int, int, int]] = []
    start = 0
    for x, y, z in draws:
        line = where[start : start + x.size]
        start += x.size
        found = covered[line]
        if not found.all():
            bad = np.nonzero(~found)[0]
            failures += int(bad.size)
            for b in bad[:5]:
                examples.append((int(x[b]), int(y[b]), int(z[b])))
        # containment of all three difference vectors in the covering block
        brows = blocks.blocks[owners[line]].T.copy()
        pivots = brows & (np.uint64(0) - brows)
        u, v = x ^ y, x ^ z
        for vec in (u, v, u ^ v):
            red = vec.copy()
            for row, piv in zip(brows, pivots):
                red ^= row * ((red & piv) != 0)
            bad = np.nonzero(found & (red != 0))[0]
            if bad.size:
                failures += int(bad.size)
                for b in bad[:5]:
                    examples.append((int(x[b]), int(y[b]), int(z[b])))
    return {
        "samples": samples,
        "tested": samples,
        "failures": failures,
        "examples": examples[:10],
    }
