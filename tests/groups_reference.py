"""The per-object orbit walk and the per-orbit enumeration walk of the
generic partition, kept as test oracles, and the closure's element list.

`walk_orbit` is how `qsteiner.groups.orbit` traversed an orbit before
it worked in bulk: a breadth-first search over tuples of basis rows,
one Subspace per member.  `walk_partition` is how
`qsteiner.groups._partition_full` partitioned subspaces: walk the keys
in ascending order, and expand each key not yet assigned into its whole
orbit by `walk_orbit`.  The bulk code must agree with them on member
rows, representative rows, lengths and the lookup index.

`closure_elements` is the oracle of `qsteiner.groups.group_closure`,
and independent of it: a breadth-first search over the elements
themselves, by right multiplication with each generator, that keeps
every element it finds.  The closure counts cosets of a cyclic subgroup
instead and keeps no element.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from qsteiner.gf2 import identity, mat_vec, rref_rows, vec_mat_bulk
from qsteiner.groups import MatrixGroup, OrbitTable, _bfs, _sorted_index
from qsteiner.subspace import Subspace, enumerate_keys_bulk, key_rows
from subspace_reference import key_per_column


def walk_orbit(group: MatrixGroup, u: Subspace) -> list[Subspace]:
    """All images of u under the group, sorted by key; BFS over generators."""
    if u.ambient != group.n:
        raise ValueError("subspace does not live in the group's space")
    seen = {u.rows}
    frontier = [u.rows]
    while frontier:
        nxt = []
        for rows in frontier:
            for g in group.generators:
                red, _ = rref_rows([mat_vec(g, r) for r in rows])
                if red not in seen:
                    seen.add(red)
                    nxt.append(red)
        frontier = nxt
    members = [Subspace(group.n, rows) for rows in seen]
    members.sort(key=lambda s: key_per_column(group.n, s.rows))
    return members


def walk_partition(group: MatrixGroup, k: int) -> OrbitTable:
    keys = enumerate_keys_bulk(group.n, k)
    assigned = np.full(keys.size, -1, dtype=np.int64)
    rows: list[tuple[int, ...]] = []
    lengths: list[int] = []
    for pos in range(keys.size):
        if assigned[pos] >= 0:
            continue
        seed = Subspace(group.n, key_rows(int(keys[pos]), group.n, k))
        members = walk_orbit(group, seed)
        member_keys = np.array(
            [key_per_column(group.n, m.rows) for m in members], dtype=np.uint64
        )
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


def closure_elements(group: MatrixGroup) -> np.ndarray:
    """Every element as (order, n) packed rows, ascending in the row tuples."""
    # row r of M @ g is r @ g
    maps = [partial(vec_mat_bulk, g) for g in group.generators]
    start = np.array([identity(group.n).rows], dtype=np.uint64)
    rows = np.concatenate(list(_bfs(start, maps, group.n)))
    return rows[np.lexsort(rows.T[::-1])]
