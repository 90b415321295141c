"""The label pass of the Singer engine as one sort per candidate, and its
orbit images by modular arithmetic, kept as the test oracles of
`SingerEngine._labels_batch` and `SingerEngine.orbit_images`.

For every slope t and every base point d of each exponent set D the
label oracle builds sorted(t*(D - d)), packs it into words and keeps the
running lexicographic minimum, counting the (t, d) pairs that reach it:
|slopes| * |D| sorts and packings per batch.  The engine's kernel must
return the same label words and stabilizer counts.

The image oracle computes exptable[(t*e + c) % modulus] for every slope
t, shift c and basis exponent e, where the engine slices a rotation of
the exponent table.

The slope oracle closes a set of slopes 2^j by a breadth-first search
over the exponents j mod n their products reach, where the engine takes
one gcd.
"""

from __future__ import annotations

import numpy as np

from qsteiner.gf2 import rref_bulk
from qsteiner.singer import SingerEngine


def pack_words(engine: SingerEngine, sorted_exps: np.ndarray) -> list[np.ndarray]:
    """Pack sorted exponent rows (first entry dropped) into uint64 words."""
    m = sorted_exps.shape[1]
    per_word = max(1, 64 // max(1, engine.n))
    body = sorted_exps[:, 1:].astype(np.uint64)
    words = []
    for start in range(0, max(1, m - 1), per_word):
        w = np.zeros(sorted_exps.shape[0], dtype=np.uint64)
        for sub, col in enumerate(range(start, min(m - 1, start + per_word))):
            w |= body[:, col] << np.uint64(sub * engine.n)
        words.append(w)
    return words


def labels_and_stabilizers(
    engine: SingerEngine, exps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(N, W) uint64 labels and (N,) int64 stabilizer orders of (N, m) sets."""
    exps = np.ascontiguousarray(exps, dtype=np.int64)
    num, m = exps.shape
    best: list[np.ndarray] | None = None
    stab = np.ones(num, dtype=np.int64)
    for t in engine.slopes:
        scaled = (t * exps) % engine.modulus
        for di in range(m):
            # (scaled - d) mod modulus; an add is cheaper than numpy's %
            shifted = scaled - scaled[:, di : di + 1]
            shifted += (shifted < 0) * engine.modulus
            shifted.sort(axis=1)
            words = pack_words(engine, shifted)
            if best is None:
                best = words
                continue
            lt = np.zeros(num, dtype=bool)
            eq = np.ones(num, dtype=bool)
            for w, b in zip(words, best):
                lt |= eq & (w < b)
                eq &= w == b
            stab += eq
            if lt.any():
                stab[lt] = 1
                for w, b in zip(words, best):
                    b[lt] = w[lt]
    assert best is not None
    return np.stack(best, axis=1), stab


def orbit_images(engine: SingerEngine, rows: np.ndarray) -> np.ndarray:
    """The (|G|, k) RREF images of the basis rows, (k,) uint64, slope by
    slope and shift c = 0, 1, ... within a slope."""
    k = len(rows)
    exps = engine.dlog[np.asarray(rows, dtype=np.uint64)]
    slopes = np.array(engine.slopes, dtype=np.int64)
    shifts = np.arange(engine.modulus, dtype=np.int64)
    scaled = (slopes[:, None] * exps[None, :]) % engine.modulus
    images = (scaled[:, None, :] + shifts[None, :, None]) % engine.modulus
    images = images.reshape(len(slopes) * engine.modulus, k)
    rows, ranks = rref_bulk(engine.exptable[images])
    assert np.all(ranks == k)
    return rows


def slope_closure(gens: list[int], n: int) -> tuple[int, ...]:
    """The group the slopes 2^j generate, ascending: 2^i for every i that
    sums of the exponents j reach from 0, modulo n."""
    reached, frontier = {0}, [0]
    while frontier:
        cur = frontier.pop()
        for t in gens:
            nxt = (cur + t.bit_length() - 1) % n
            if nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    return tuple(1 << i for i in sorted(reached))
