"""Exponent-arithmetic orbit engine for groups built on a Singer cycle.

When one generator S of a matrix group acts transitively on the nonzero
vectors of GF(2)^n, every nonzero v equals S^a applied to a base vector
for a unique exponent a < 2^n - 1, and any generator normalizing <S>
acts on exponents as an affine map a -> t*a + c (mod 2^n - 1).  A
subspace then becomes a set of exponents, the whole group action becomes
integer arithmetic on such sets, and orbit labels, lengths, and lookups
never have to walk the group.  Detection is exhaustive: the affine model
is checked on every nonzero vector, so a successful detect() is a proof
that the fast path agrees with the matrix action.

The normalizer of a Singer cycle is GammaL(1, 2^n), so every slope t is
a power of two 2^j, and detect() certifies that too.  Multiplying by 2^j
modulo 2^n - 1 rotates the n bits of an exponent left by j places, so
the label pass scales exponents by shifts and masks, with no division,
and sorts each scaled set with a fixed compare-exchange network (Batcher's
odd-even merge sort) on whole arrays, with no per-row sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .gf2 import BitMatrix, mat_mul, mat_vec, mat_vec_bulk, rref_bulk, span_vectors_bulk
from .subspace import Subspace, key_bits, key_order, pack_keys_bulk

MAX_ENGINE_WIDTH = 24
# Rows per batch of the label pass; the results do not depend on it, only
# the size of the temporaries does.
LABEL_BATCH_ROWS = 1 << 12


def _power_table(s: BitMatrix) -> np.ndarray | None:
    """exptable[a] = S^a applied to e0, or None if S is not transitive."""
    n = s.ncols
    modulus = (1 << n) - 1
    table = np.zeros(modulus, dtype=np.uint64)
    table[0] = 1
    size = 1
    power = s
    while size < modulus:
        take = min(size, modulus - size)
        table[size : size + take] = mat_vec_bulk(power, table[:take])
        size += take
        if size < modulus:
            power = mat_mul(power, power)
    if np.unique(table).size != modulus or table.min() == 0:
        return None
    # wrap-around: S applied to the last entry must return to e0
    if mat_vec(s, int(table[modulus - 1])) != 1:
        return None
    return table


@dataclass
class SingerEngine:
    """Certified exponent model of a group containing a Singer cycle."""

    n: int
    modulus: int  # 2^n - 1
    exptable: np.ndarray  # (modulus,) uint64, exponent -> vector
    dlog: np.ndarray  # (2^n,) int64, vector -> exponent
    slopes: tuple[int, ...]  # powers of two acting on exponents, at most n
    order: int  # modulus * len(slopes)

    @classmethod
    def detect(cls, generators: list[BitMatrix], n: int) -> "SingerEngine | None":
        """Try to certify the exponent model; None when it does not apply."""
        if n > MAX_ENGINE_WIDTH or not generators:
            return None
        modulus = (1 << n) - 1
        arange = None
        for idx, cand in enumerate(generators):
            table = _power_table(cand)
            if table is None:
                continue
            dlog = np.zeros(1 << n, dtype=np.int64)
            dlog[table] = np.arange(modulus, dtype=np.int64)
            if arange is None:
                arange = np.arange(modulus, dtype=np.int64)
            slope_gens = []
            ok = True
            for j, other in enumerate(generators):
                if j == idx:
                    continue
                imgs = dlog[mat_vec_bulk(other, table)]
                c = int(imgs[0])
                t = int((imgs[1] - c) % modulus) if modulus > 1 else 1
                # the label pass scales by bit rotation (see _labels_batch)
                if t <= 0 or t & (t - 1):
                    ok = False
                    break
                if not np.array_equal(imgs, (t * arange + c) % modulus):
                    ok = False
                    break
                slope_gens.append(t)
            if not ok:
                continue
            slopes = _slope_closure(slope_gens, modulus)
            return cls(
                n=n,
                modulus=modulus,
                exptable=table,
                dlog=dlog,
                slopes=slopes,
                order=modulus * len(slopes),
            )
        return None

    # -- conversions ------------------------------------------------------

    def rows_to_exps(self, rows: np.ndarray) -> np.ndarray:
        """(N, k) basis rows -> (N, 2^k - 1) exponent sets, each in the
        span order of span_vectors_bulk, unsorted: the label pass sorts
        its own scaled copies."""
        return self.dlog[span_vectors_bulk(rows)]

    # -- labels -----------------------------------------------------------

    def _pack_words(self, sorted_exps: np.ndarray) -> list[np.ndarray]:
        """Pack sorted exponent rows (first entry dropped) into uint64 words."""
        m = sorted_exps.shape[1]
        per_word = max(1, 64 // max(1, self.n))
        body = sorted_exps[:, 1:].astype(np.uint64)
        words = []
        for start in range(0, max(1, m - 1), per_word):
            w = np.zeros(sorted_exps.shape[0], dtype=np.uint64)
            for sub, col in enumerate(range(start, min(m - 1, start + per_word))):
                w |= body[:, col] << np.uint64(sub * self.n)
            words.append(w)
        return words

    def labels_bulk(self, exps: np.ndarray) -> np.ndarray:
        """Canonical orbit label words, (N, W) uint64.

        The label of an exponent set D is the lexicographic minimum of the
        packed words of sorted(t*(D - d)) over slopes t and base points d
        in D; the minimizing set starts with exponent 0, which is dropped
        before packing (see _pack_words).  Each slope takes one sort, of
        t*D, whose rotations give every base point, and only candidates
        that tie on the first word's leading value are packed in full
        (see _labels_batch).
        """
        return self.labels_and_stabilizers(exps)[0]

    def labels_and_stabilizers(self, exps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Orbit labels (see labels_bulk) and stabilizer orders, (N,) int64.

        The affine maps x -> t*x + c sending D onto its label form a coset
        of the stabilizer of D, and each of them is x -> t*(x - d) for the
        unique d in D mapped to exponent 0.  So the stabilizer order is
        the number of (t, d) pairs that reach the minimum, counted in the
        same pass that finds it.
        """
        exps = np.asarray(exps)  # each batch is copied to int32 in its layout
        parts = [
            self._labels_batch(exps[i : i + LABEL_BATCH_ROWS])
            for i in range(0, max(1, exps.shape[0]), LABEL_BATCH_ROWS)
        ]
        labels, stab = zip(*parts)
        return np.concatenate(labels), np.concatenate(stab)

    def _labels_batch(self, exps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Labels and stabilizer orders of one batch of exponent sets.

        Scaling: column i * num + r of ext holds the image of row r under
        slope i, 2^j.  Multiplying by 2^j modulo 2^n - 1 rotates the n bits
        of an exponent left by j places, (x << j | x >> (n - j)) & M, which
        whole-array shifts write straight into those columns.  Each column
        is then sorted in place by Batcher's odd-even merge network over
        its m rows: a fixed list of compare-exchanges, each one minimum and
        one maximum of two rows of ext (see _sorting_network).

        Rotation: sorting t*D once per slope gives every base point at
        once.  The candidate of the point at sorted position j is the
        sorted row rotated to start at j, minus its entry j, with the
        modulus added to the entries that wrap around; appending the row
        plus the modulus to itself makes that the slice ext[j : j + m]
        minus ext[j], with no further sort.

        Tie-break: the first word packs values 1..top of a candidate, the
        last one most significant, so the minimal candidate has the least
        value top.  That value alone is computed for all m * |slopes|
        candidates of a row.  Only the pairs of row and candidate that
        reach its minimum, almost always one per row, are packed in full
        and reduced word by word; the pairs that reach the minimum on
        every word count the stabilizer.
        """
        num, m = exps.shape
        top = min(max(1, 64 // self.n), m - 1)  # values in the first word
        shifts = [t.bit_length() - 1 for t in self.slopes]
        cols = len(shifts) * num
        # exponents stay below 2^MAX_ENGINE_WIDTH, so twice the modulus
        # fits in int32; rotating as (x & low) << j | x >> (n - j), where
        # low keeps the n - j bits that move up, never leaves n bits
        ext = np.empty((2 * m, cols), dtype=np.int32)
        # image i is the column block ext[:m, i * num : (i + 1) * num]
        src = np.ascontiguousarray(exps.T, dtype=np.int32)
        images = ext[:m].reshape(m, len(shifts), num).transpose(1, 0, 2)
        high = np.empty_like(src)
        for image, j in zip(images, shifts):
            np.bitwise_and(src, (1 << (self.n - j)) - 1, out=image)
            np.left_shift(image, j, out=image)
            np.right_shift(src, self.n - j, out=high)
            image |= high
        low = np.empty(cols, dtype=np.int32)
        for a, b in _sorting_network(m):
            np.minimum(ext[a], ext[b], out=low)
            np.maximum(ext[a], ext[b], out=ext[b])
            ext[a] = low
        np.add(ext[:m], self.modulus, out=ext[m:])
        # value top of every candidate, one row per base point j and slope
        key = (ext[top : top + m] - ext[:m]).reshape(m * len(shifts), num)
        base, col = np.divmod(np.flatnonzero(key == key.min(axis=0)), cols)
        row = col % num
        cand = ext[base[:, None] + np.arange(m), col[:, None]]
        cand -= cand[:, :1]
        words = self._pack_words(cand)
        labels = np.empty((num, len(words)), dtype=np.uint64)
        tied = np.arange(row.size)  # the candidates that reach every least word so far
        for i, word in enumerate(words):
            word, rows = word[tied], row[tied]
            least = np.full(num, np.iinfo(np.uint64).max, dtype=np.uint64)
            np.minimum.at(least, rows, word)
            tied = tied[word == least[rows]]
            labels[:, i] = least
        return labels, np.bincount(row[tied], minlength=num)

    def orbit_size(self, u: Subspace) -> int:
        """|G| / |stabilizer|, counting affine maps that fix the exponent set.

        One subspace at a time and independent of the label pass, whose
        stabilizer counts give the partition's lengths.  bench/probes.py is
        its only caller; the tests keep it as the oracle of those counts.
        """
        d = np.sort(self.rows_to_exps(np.array([u.rows], dtype=np.uint64))[0])
        m = d.shape[0]
        if m == 0:
            return 1  # the zero subspace is fixed by every element
        stab = 0
        for t in self.slopes:
            scaled = (t * d) % self.modulus
            for di in range(m):
                c = int((d[0] - scaled[di]) % self.modulus)
                if np.array_equal(np.sort((scaled + c) % self.modulus), d):
                    stab += 1
        if self.order % stab:
            raise AssertionError("stabilizer size does not divide the group order")
        return self.order // stab

    # -- orbit partition ---------------------------------------------------

    def partition(
        self, k: int, prev_rows: np.ndarray
    ) -> tuple[np.ndarray, list[int], np.ndarray]:
        """Orbits of k-dim subspaces from the (k-1)-dim representatives.

        Every k-orbit contains the span of a (k-1)-representative and one
        extra vector, so labeling all such spans classifies every orbit.
        prev_rows and the returned rows are RREF bases, (N, k-1) and (N, k).
        Returns (rows, lengths, labels), ids ascending in rep key, where
        labels[i] holds the orbit label words (see labels_bulk) of orbit
        i; the zero subspace has no label words.  Representatives are
        key-minimal among the generated spans.
        """
        if k == 0:
            empty = np.zeros((1, 0), dtype=np.uint64)
            return empty, [1], empty
        # a k-space containing the representative U is the span of U and
        # any vector of one coset v + U with v outside U, and each such
        # coset holds exactly one vector that is 0 at every pivot column of
        # U: extending U by those builds each k-space once per
        # representative it contains
        piv = np.bitwise_or.reduce(prev_rows & (np.uint64(0) - prev_rows), axis=1)
        vecs = np.arange(1, 1 << self.n, dtype=np.uint64)
        owner, free = np.nonzero((vecs & piv[:, None]) == 0)
        spans = np.concatenate([prev_rows[owner], vecs[free, None]], axis=1)
        del owner, free
        basis, ranks = rref_bulk(spans)
        if not np.all(ranks == k):
            raise AssertionError("extension vector lies in the representative")
        basis = _distinct_rows(basis, self.n)
        del spans, ranks  # before the label pass
        exps = self.rows_to_exps(basis)
        labels, stab = self.labels_and_stabilizers(exps)
        # orbits are the runs of equal labels in one stable sort of them,
        # so each run starts at its orbit's first span
        order = np.lexsort(labels.T[::-1])
        ordered = labels[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
        inverse = np.empty_like(order)
        inverse[order] = np.cumsum(new) - 1
        uniq, orbit_first = ordered[new], order[new]
        orbit_stab = stab[orbit_first]
        if not np.array_equal(stab, orbit_stab[inverse]):
            raise AssertionError("orbit members disagree on the stabilizer order")
        if np.any(self.order % orbit_stab):
            raise AssertionError("stabilizer size does not divide the group order")
        # the spans are in ascending key order, so each orbit's first span
        # is its key-minimal one; ordering orbits by that span orders them
        # by rep key, and the reps are the spans' reduced rows
        order_ids = np.argsort(orbit_first, kind="stable")
        lengths = (self.order // orbit_stab[order_ids]).tolist()
        return basis[orbit_first[order_ids]], lengths, uniq[order_ids]

    def expand_orbit_rows(self, rows: np.ndarray) -> np.ndarray:
        """All distinct subspaces in the orbit of the subspace with basis
        rows, a (k,) uint64 array, as (L, k) RREF rows.

        The group acts linearly, so the image of a subspace is the span of
        the images of its k basis rows; in the certified exponent model the
        map x -> t*x + c sends the row with exponent e to exptable[(t*e +
        c) % modulus].  Short orbits meet some images more than once,
        which the key dedupe removes.
        """
        k = len(rows)
        exps = self.dlog[np.asarray(rows, dtype=np.uint64)]
        slopes = np.array(self.slopes, dtype=np.int64)
        shifts = np.arange(self.modulus, dtype=np.int64)
        scaled = (slopes[:, None] * exps[None, :]) % self.modulus
        images = (scaled[:, None, :] + shifts[None, :, None]) % self.modulus
        images = images.reshape(len(slopes) * self.modulus, k)
        rows, ranks = rref_bulk(self.exptable[images])
        if not np.all(ranks == k):
            raise AssertionError("the image of a basis is not a basis")
        return _distinct_rows(rows, self.n)

    def expand_orbit(self, u: Subspace) -> np.ndarray:
        """expand_orbit_rows of a Subspace; bench/probes.py is its only caller."""
        return self.expand_orbit_rows(np.array(u.rows, dtype=np.uint64))


def _distinct_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """(N, k) RREF rows with each subspace once, in ascending key order.

    Keys that fit in 64 bits are sorted as integers, several times faster
    than key_order, which orders the rows of wider keys.  Equal keys mean
    identical rows, so an unstable sort does: any row of a run of equal
    keys is the same row.
    """
    if key_bits(n, rows.shape[1]) > 64:
        rows = rows[key_order(rows)]
        head = np.ones(len(rows), dtype=bool)
        head[1:] = np.any(rows[1:] != rows[:-1], axis=1)
        return rows[head]
    keys = pack_keys_bulk(rows, n)
    order = np.argsort(keys)
    keys = keys[order]
    head = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    return rows[order[head]]


@cache
def _sorting_network(m: int) -> tuple[tuple[int, int], ...]:
    """Batcher's odd-even merge sort on m wires as compare-exchange pairs
    (a, b), a < b, in order: after min to wire a and max to wire b of each,
    the wires are sorted.  The comparators of the network on the next
    power of two that touch a wire >= m are dropped, which sorts as if
    those wires held values above all others."""
    out = []
    p = 1
    while p < m:
        k = p
        while k:
            for j in range(k % p, m - k, 2 * k):
                for i in range(j, j + min(k, m - j - k)):
                    if i // (2 * p) == (i + k) // (2 * p):
                        out.append((i, i + k))
            k //= 2
        p *= 2
    return tuple(out)


def _slope_closure(gens: list[int], modulus: int) -> tuple[int, ...]:
    """The group the slopes generate; powers of two, so at most n of them."""
    group = {1}
    frontier = [1]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = (cur * g) % modulus
            if nxt not in group:
                group.add(nxt)
                frontier.append(nxt)
    return tuple(sorted(group))
