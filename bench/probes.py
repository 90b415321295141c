"""Kernel probes of the traced run, on inputs built from the seed.

These are the kernels that dominate the orbit partition, the expansion
and the verifier.  Each probe builds its inputs with public functions,
times the kernel REPEATS times inside tracer spans, and reports the
median as a rate or a time.  The probes run after the workload's timed
pass, so they never touch the end-to-end numbers.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from qsteiner.exact_cover import SolveConfig, solve
from qsteiner.gf2 import rref_bulk
from qsteiner.subspace import pack_keys_bulk, span

REPEATS = 3
KERNEL_N = 13  # ambient width of the rref_bulk and pack_keys_bulk inputs
LABEL_ROWS = 20_000
ORBIT_SIZE_CALLS = 100
RREF_ROWS = 100_000
PACK_ROWS = 100_000


def _timed(tracer, name: str, fn):
    """(median wall time of REPEATS calls, last result); each call is a span."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        with tracer.span(name):
            result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def random_subspace_rows(rng, num: int, k: int, n: int) -> np.ndarray:
    """(num, k) RREF rows of random k-dim subspaces of GF(2)^n."""
    out = np.empty((0, k), dtype=np.uint64)
    while out.shape[0] < num:
        raw = rng.integers(1, 1 << n, size=(num, k), dtype=np.uint64)
        red, ranks = rref_bulk(raw)
        out = np.concatenate([out, red[ranks == k]])
    return out[:num]


def kernel_probes(tracer, group, seed: int) -> dict[str, float]:
    """Rates of the Singer, GF(2) and subspace kernels; group needs a Singer engine."""
    rng = np.random.default_rng(seed)
    engine = group.engine()
    if engine is None:
        raise ValueError("kernel probes need a group with a certified Singer engine")
    n = group.n
    out: dict[str, float] = {}

    exps = engine.rows_to_exps(random_subspace_rows(rng, LABEL_ROWS, 3, n))
    t, _ = _timed(tracer, "singer.labels_bulk", lambda: engine.labels_bulk(exps))
    out["singer.labels_bulk.rows_per_s"] = LABEL_ROWS / t

    subs = [
        span([int(r) for r in row], n)
        for row in random_subspace_rows(rng, ORBIT_SIZE_CALLS, 3, n)
    ]
    t, _ = _timed(
        tracer, "singer.orbit_size", lambda: [engine.orbit_size(u) for u in subs]
    )
    out["singer.orbit_size.calls_per_s"] = ORBIT_SIZE_CALLS / t

    out["singer.expand_orbit_s"], _ = _timed(
        tracer, "singer.expand_orbit", lambda: engine.expand_orbit(subs[0])
    )

    for k in (6, 7):
        stack = rng.integers(0, 1 << KERNEL_N, size=(RREF_ROWS, k), dtype=np.uint64)
        t, _ = _timed(tracer, f"gf2.rref_bulk.{k}x{KERNEL_N}", lambda: rref_bulk(stack))
        out[f"gf2.rref_bulk.{k}x{KERNEL_N}.rows_per_s"] = RREF_ROWS / t

    rows = random_subspace_rows(rng, PACK_ROWS, 3, KERNEL_N)
    t, _ = _timed(
        tracer, "subspace.pack_keys_bulk", lambda: pack_keys_bulk(rows, KERNEL_N)
    )
    out["subspace.pack_keys_bulk.rows_per_s"] = PACK_ROWS / t
    return out


def build_probe(tracer, problem, columns: list[int]):
    """Median time of a solve with every column of a known solution forced.

    Forcing the whole solution leaves nothing to search, so the solve does
    zero nodes and its time is the dancing-links build and teardown.
    Returns (time, (solutions, stats)) so the caller can check the result.
    """
    config = SolveConfig(max_solutions=None, forced=columns)
    return _timed(tracer, "exact_cover.solve.build", lambda: solve(problem, config))
