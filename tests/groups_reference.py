"""The per-orbit enumeration walk of the generic partition, kept as a test
oracle.

This is how `qsteiner.groups._partition_full` partitioned subspaces
before it worked in bulk: walk the keys in ascending order, and expand
each key not yet assigned into its whole orbit by the breadth-first
traversal `orbit()`, one Subspace per member.  The bulk partition must
agree with it on representative rows, lengths and the lookup index.
"""

from __future__ import annotations

import numpy as np

from qsteiner.groups import MatrixGroup, OrbitTable, _sorted_index, orbit
from qsteiner.subspace import enumerate_keys_bulk, subspace_from_key


def walk_partition(group: MatrixGroup, k: int) -> OrbitTable:
    keys = enumerate_keys_bulk(group.n, k)
    assigned = np.full(keys.size, -1, dtype=np.int64)
    rows: list[tuple[int, ...]] = []
    lengths: list[int] = []
    for pos in range(keys.size):
        if assigned[pos] >= 0:
            continue
        seed = subspace_from_key(group.n, k, int(keys[pos]))
        member_keys = np.array([m.key for m in orbit(group, seed)], dtype=np.uint64)
        idx = np.searchsorted(keys, member_keys)
        if not np.array_equal(keys[idx], member_keys):
            raise AssertionError("orbit member key missing from the enumeration")
        assigned[idx] = len(rows)
        rows.append(seed.rows)
        lengths.append(member_keys.size)
    if (assigned < 0).any():
        raise AssertionError("enumeration walk left unassigned subspaces")
    return OrbitTable(
        n=group.n,
        k=k,
        group=group,
        rows=np.array(rows, dtype=np.uint64).reshape(len(rows), k),
        lengths=lengths,
        _index=_sorted_index(False, keys[:, None], assigned),
    )
