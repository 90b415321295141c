"""Orbit incidence systems against the definition computed by brute force."""

import pytest

from qsteiner.gf2 import FormatError, identity
from qsteiner.groups import MatrixGroup, orbit_partition, singer_normalizer
from qsteiner.kramer_mesner import build_km, export_km, format_km, import_km, prune
from qsteiner.subspace import (
    contains_subspace,
    enumerate_subspaces,
    gaussian_binomial,
)


def brute_km(group, t, k):
    """Entry (T, K) = number of members of K's orbit containing T's rep,
    counted directly over full orbit expansions."""
    t_table = orbit_partition(group, t)
    k_table = orbit_partition(group, k)
    from qsteiner.groups import orbit

    dense = {}
    for i, trep in enumerate(t_table.reps):
        for j, krep in enumerate(k_table.reps):
            count = sum(
                1 for m in orbit(group, krep) if contains_subspace(m, trep)
            )
            if count:
                dense[(i, j)] = count
    return t_table, k_table, dense


@pytest.mark.parametrize(
    "group_fn,n,t,k",
    [
        (lambda: singer_normalizer(4), 4, 1, 2),
        (lambda: singer_normalizer(5), 5, 2, 3),
        (lambda: singer_normalizer(6), 6, 2, 3),
        (lambda: MatrixGroup(n=4, generators=(identity(4),), order=1), 4, 1, 2),
        (lambda: MatrixGroup(n=5, generators=(identity(5),), order=1), 5, 2, 3),
    ],
)
def test_build_km_matches_definition(group_fn, n, t, k):
    group = group_fn()
    t_table, k_table, expect = brute_km(group, t, k)
    inst = build_km(t_table, k_table)
    assert inst.shape == (t_table.num_orbits, k_table.num_orbits)
    got = {key: val for key, val in inst.entries.items() if val}
    assert got == expect


def test_row_and_column_sum_identities():
    # row sum: number of k-subspaces containing a fixed t-subspace;
    # weighted column sum: a(T,K) |orb T| / |orb K| counts the t-subspaces
    # inside a fixed k-subspace, grouped by orbit
    for n, t, k in ((5, 1, 2), (6, 2, 3), (7, 2, 3)):
        group = singer_normalizer(n)
        t_table = orbit_partition(group, t)
        k_table = orbit_partition(group, k)
        inst = build_km(t_table, k_table)
        row_expect = gaussian_binomial(n - t, k - t, 2)
        for rid, total in inst.row_sums().items():
            assert total == row_expect
        col_expect = gaussian_binomial(k, t, 2)
        for cid in inst.col_ids:
            weighted = sum(
                v * t_table.lengths[rid] for rid, v in inst.column_entries(cid)
            )
            assert weighted == col_expect * k_table.lengths[cid]


def test_prune_drops_only_overfull_columns():
    group = singer_normalizer(6)
    inst = build_km(orbit_partition(group, 2), orbit_partition(group, 3), lam=1)
    pruned = prune(inst)
    kept = set(pruned.col_ids)
    for cid in inst.col_ids:
        overfull = any(v > 1 for _, v in inst.column_entries(cid))
        assert (cid not in kept) == overfull
    assert pruned.pruned, "some columns must be over lambda at these parameters"
    for cid, rid, val in pruned.pruned:
        assert val > 1 and inst.entries.get((rid, cid)) == val
    # ids are preserved, not renumbered
    assert set(pruned.col_ids) <= set(inst.col_ids)
    assert pruned.row_ids == inst.row_ids


def test_file_round_trip(tmp_path):
    group = singer_normalizer(6)
    inst = build_km(orbit_partition(group, 2), orbit_partition(group, 3))
    path = tmp_path / "km.txt"
    export_km(inst, str(path))
    loaded = import_km(str(path))
    assert loaded.n == inst.n and loaded.t == inst.t and loaded.k == inst.k
    assert loaded.lam == inst.lam
    assert loaded.row_ids == inst.row_ids
    assert loaded.col_ids == inst.col_ids
    assert loaded.entries == inst.entries
    # the file is written a line at a time; it is the text format_km gives
    assert path.read_text(encoding="utf-8") == format_km(inst)
    # CRLF line ends read the same
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert import_km(str(path)).entries == inst.entries


def test_import_rejects_checksum_tamper(tmp_path):
    group = singer_normalizer(5)
    inst = build_km(orbit_partition(group, 2), orbit_partition(group, 3))
    path = tmp_path / "km.txt"
    export_km(inst, str(path))
    text = path.read_text()
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("E "):
            head, row, col, val = line.split()
            lines[i] = f"E {row} {col} {int(val) + 1}"
            break
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError):
        import_km(str(path))


def test_build_rejects_corrupt_orbit_lengths():
    group = singer_normalizer(6)
    t_table = orbit_partition(group, 2)
    k_table = orbit_partition(group, 3)
    k_table.lengths[0] += 1
    try:
        with pytest.raises(ArithmeticError):
            build_km(t_table, k_table)
    finally:
        k_table.lengths[0] -= 1
