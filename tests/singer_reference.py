"""The label pass of the Singer engine as one sort per candidate, kept as
the test oracle of `SingerEngine._labels_batch`.

For every slope t and every base point d of each exponent set D it
builds sorted(t*(D - d)), packs it into words and keeps the running
lexicographic minimum, counting the (t, d) pairs that reach it: |slopes|
* |D| sorts and packings per batch.  The engine's kernel must return the
same label words and stabilizer counts.
"""

from __future__ import annotations

import numpy as np

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
