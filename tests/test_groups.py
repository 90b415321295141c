"""Matrix groups, orbits, and orbit tables."""

import hashlib
import random

import numpy as np
import pytest

from groups_reference import closure_elements, walk_orbit, walk_partition
from qsteiner.gf2 import (
    BitMatrix,
    FormatError,
    companion_matrix,
    frobenius_matrix,
    identity,
    mat_mul,
    mat_vec,
    mat_vec_bulk,
    primitive_polynomial,
    rref_bulk,
    span_vectors_bulk,
)
from qsteiner.groups import (
    ClosureCapError,
    MatrixGroup,
    OrbitTable,
    StrategyError,
    group_closure,
    group_hash,
    orbit,
    orbit_partition,
    singer_normalizer,
)
from qsteiner import fixtures, groups, singer
from qsteiner.kramer_mesner import build_km
from qsteiner.singer import SingerEngine
from qsteiner.subspace import (
    Subspace,
    gaussian_binomial,
    key_chunks,
    load_subspace_file,
    pack_keys_bulk,
    span,
)
from subspace_reference import enumerate_subspaces, key_per_column
from qsteiner.verify import BlockSet, expand_orbits, verify_design


def keys_of(table):
    """The keys of an orbit table's representatives, as a list."""
    return pack_keys_bulk(table.rows, table.n).tolist()


def brute_closure(generators, n):
    """Set of all products, grown to a fixed point."""
    elems = {identity(n).rows}
    frontier = [identity(n)]
    while frontier:
        nxt = []
        for m in frontier:
            for g in generators:
                p = mat_mul(m, g)
                if p.rows not in elems:
                    elems.add(p.rows)
                    nxt.append(p)
        frontier = nxt
    return elems


def test_closure_orders_small():
    for n, expect in ((2, 6), (3, 21), (4, 60), (5, 155), (6, 378)):
        g = singer_normalizer(n)
        closed = group_closure(MatrixGroup(n=n, generators=g.generators))
        elements = closure_elements(g)
        assert closed.order == expect == (2**n - 1) * n == len(elements)
        elements = [tuple(rows) for rows in elements.tolist()]
        assert elements == sorted(brute_closure(g.generators, n))


def test_closure_cap():
    with pytest.raises(ClosureCapError, match="cap of 100 elements"):
        group_closure(singer_normalizer(6), cap=100)


def act(g, rows):
    """The action orbit() applies: g maps every basis row, then reduce."""
    red, ranks = rref_bulk(mat_vec_bulk(g, rows))
    assert np.all(ranks == rows.shape[1])  # the image keeps the dimension
    return red


def test_action_axioms():
    rng = random.Random(13)
    g = singer_normalizer(5)
    elems = [BitMatrix(rows=tuple(rows), ncols=5) for rows in closure_elements(g).tolist()]
    picks = rng.sample(elems, 12)
    subs = [span([rng.getrandbits(5) for _ in range(2)], 5) for _ in range(8)]
    rows = np.array([u.rows for u in subs if u.dim == 2], dtype=np.uint64)
    assert np.array_equal(act(identity(5), rows), rows)
    for a in picks[:4]:
        for b in picks[4:8]:
            assert np.array_equal(act(mat_mul(a, b), rows), act(a, act(b, rows)))
    # the image's vectors are the images of the subspace's vectors
    for a in picks:
        image = span_vectors_bulk(act(a, rows))
        for vecs, got in zip(span_vectors_bulk(rows).tolist(), image.tolist()):
            assert {mat_vec(a, v) for v in vecs} == set(got)


def test_orbit_stabilizer_divisibility():
    g = singer_normalizer(6)
    order = (2**6 - 1) * 6
    for k in (1, 2, 3):
        table = orbit_partition(g, k)
        assert sum(table.lengths) == gaussian_binomial(6, k, 2)
        for length in table.lengths:
            assert order % length == 0


def test_partition_strategies_agree():
    # the Singer engine against the generic enumeration walk, whose
    # representative is the key-minimal member of each orbit; the
    # engine's is key-minimal among the spans it generates, so the two
    # tables match orbit by orbit through lookup, not id by id
    for n, k in ((4, 2), (5, 2), (6, 2), (6, 3)):
        g = singer_normalizer(n)
        engine = orbit_partition(g, k)
        full = groups._partition_full(g, k)
        assert full.num_orbits == engine.num_orbits
        ids = [engine.lookup(rep) for rep in full.rows]
        assert sorted(ids) == list(range(engine.num_orbits))
        assert [engine.lengths[j] for j in ids] == full.lengths
        back = [full.lookup(engine.rep(j)) for j in ids]
        assert back == list(range(full.num_orbits))
        full_keys, engine_keys = keys_of(full), keys_of(engine)
        assert all(key <= engine_keys[j] for key, j in zip(full_keys, ids))
        if n < 6:  # small spaces, where the two choices coincide
            assert engine_keys == full_keys


def frobenius_group(n):
    """<F> alone: the squaring map, with no Singer cycle to certify."""
    return MatrixGroup(n=n, generators=(frobenius_matrix(primitive_polynomial(n)),))


def cube_group():
    """<S^3> in GL(6, 2): order 21, three orbits on the nonzero vectors."""
    s6 = companion_matrix(primitive_polynomial(6))
    return MatrixGroup(n=6, generators=(mat_mul(s6, mat_mul(s6, s6)),))


def test_partition_full_matches_walk_oracle():
    cube = cube_group()
    cases = [
        (MatrixGroup(n=n, generators=(identity(n),), order=1), range(n + 1))
        for n in range(1, 7)
    ]
    cases += [(singer_normalizer(n), range(n + 1)) for n in (4, 5, 6)]
    # the Singer cycle of GF(16) and the transvection e0 -> e0 + e1, which
    # does not normalize it: no engine, and one orbit of 2-subspaces
    transvected = MatrixGroup(
        n=4, generators=(companion_matrix(0b10011), BitMatrix((1, 3, 4, 8), 4))
    )
    cases += [
        (singer_normalizer(7), (2, 3)),
        (frobenius_group(6), range(7)),
        (cube, range(7)),
        (transvected, range(5)),
    ]
    assert frobenius_group(6).engine() is None and cube.engine() is None
    assert transvected.engine() is None
    assert orbit_partition(transvected, 2).lengths == [35]
    for g, dims in cases:
        for k in dims:
            got, want = groups._partition_full(g, k), walk_partition(g, k)
            assert np.array_equal(got.rows, want.rows), (g.n, k)
            assert got.lengths == want.lengths, (g.n, k)
            assert all(np.array_equal(a, b) for a, b in zip(got._index, want._index))


def test_trivial_group_orbits_are_singletons():
    g = MatrixGroup(n=4, generators=(identity(4),), order=1)
    assert g.engine() is None  # the generic path
    table = orbit_partition(g, 2)
    assert table.num_orbits == gaussian_binomial(4, 2, 2) == 35
    assert set(table.lengths) == {1}
    want = [key_per_column(4, s.rows) for s in enumerate_subspaces(4, 2)]
    assert keys_of(table) == want


def test_orbit_traversal_matches_partition():
    g = singer_normalizer(4)
    table = orbit_partition(g, 2)
    seen = set()
    for rep in table.rows:
        members = orbit(g, rep)
        assert len(members) == table.lengths[table.lookup(rep)]
        seen |= set(pack_keys_bulk(members, 4).tolist())
    assert len(seen) == 35


def test_orbit_matches_walk_oracle():
    cases = [MatrixGroup(n=n, generators=(identity(n),), order=1) for n in range(1, 6)]
    cases += [frobenius_group(6), cube_group()]
    cases += [singer_normalizer(n) for n in (4, 5, 6)]
    # each orbit once: the walk starts at its key-minimal member and the
    # bulk search at its key-maximal one; together they cover every subspace
    for g in cases:
        for k in range(g.n + 1):
            seen = set()
            for u in enumerate_subspaces(g.n, k):
                if key_per_column(g.n, u.rows) in seen:
                    continue
                members = walk_orbit(g, u)
                seen |= {key_per_column(g.n, m.rows) for m in members}
                want = np.array([m.rows for m in members], dtype=np.uint64)
                got = orbit(g, np.array(members[-1].rows, dtype=np.uint64))
                assert np.array_equal(got, want.reshape(len(members), k)), (g.n, k, u)
            assert len(seen) == gaussian_binomial(g.n, k, 2)


def test_orbit_cap():
    g = singer_normalizer(6)
    u = np.array([1, 2], dtype=np.uint64)
    length = len(orbit(g, u))
    assert len(orbit(g, u, cap=length)) == length > 1
    with pytest.raises(StrategyError, match=f"traversal cap {length - 1}"):
        orbit(g, u, cap=length - 1)


def test_lookup_rows_bulk_matches_scalar(paper_group, t2_table):
    rng = np.random.default_rng(5)
    subs = []
    while len(subs) < 50:
        s = span([int(x) for x in rng.integers(1, 2**13, size=2)], 13)
        if s.dim == 2:
            subs.append(s)
    rows = np.array([s.rows for s in subs], dtype=np.uint64)
    bulk = t2_table.lookup_rows_bulk(rows)
    for row, got in zip(rows, bulk.tolist()):
        assert t2_table.lookup(row) == got
    for bad in (rows[0][:1], rows[:2], rows[0] | np.uint64(1 << 13)):
        with pytest.raises(ValueError, match="lookup expects a 2-dim subspace"):
            t2_table.lookup(bad)


def test_table_save_load_round_trip(tmp_path):
    g = singer_normalizer(6)
    table = orbit_partition(g, 2)
    path = tmp_path / "orbits.txt"
    table.save(str(path))
    loaded = OrbitTable.load(str(path), group=g)
    assert loaded.num_orbits == table.num_orbits
    assert np.array_equal(loaded.rows, table.rows)
    assert list(loaded.lengths) == list(table.lengths)
    # the loaded table resolves lookups identically
    for rep in table.rows:
        assert loaded.lookup(rep) == table.lookup(rep)


def test_table_load_rejects_foreign_group(tmp_path):
    g6 = singer_normalizer(6)
    table = orbit_partition(g6, 2)
    path = tmp_path / "orbits.txt"
    table.save(str(path))
    other = MatrixGroup(n=6, generators=(identity(6),), order=1)
    with pytest.raises(Exception, match="hash|order"):
        OrbitTable.load(str(path), group=other)


def test_table_load_rejects_tampered_file(tmp_path):
    g = singer_normalizer(4)
    table = orbit_partition(g, 2)
    path = tmp_path / "orbits.txt"
    table.save(str(path))
    text = path.read_text()
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("0 "):
            lines[i] = "0 999"
            break
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(Exception):
        t = OrbitTable.load(str(path), group=g)
        t._ensure_index()


def test_group_hash_is_generator_sensitive():
    g4 = singer_normalizer(4)
    g4b = MatrixGroup(n=4, generators=tuple(reversed(g4.generators)))
    assert group_hash(g4) != group_hash(g4b)
    assert group_hash(g4) == group_hash(singer_normalizer(4))


def span_vector_expand_orbit(engine, u):
    """Orbit expansion from the exponents of all 2^k - 1 span vectors of u:
    every affine image of the exponent set, reduced and deduped by key."""
    k = u.dim
    d = engine.rows_to_exps(np.array([u.rows], dtype=np.uint64))[0]
    shifts = np.arange(engine.modulus, dtype=np.int64)
    parts = []
    for t in engine.slopes:
        scaled = (t * d) % engine.modulus
        parts.append((scaled[None, :] + shifts[:, None]) % engine.modulus)
    exps = np.concatenate(parts, axis=0)
    exps.sort(axis=1)
    red, ranks = rref_bulk(engine.exptable[exps])
    assert np.all(ranks == k)
    rows = red[:, :k]
    _, first = np.unique(pack_keys_bulk(rows, engine.n), return_index=True)
    return rows[first]


def test_partition_lengths_match_orbit_size_oracle():
    # the lengths come from stabilizer counts of the label pass;
    # orbit_size recounts each stabilizer one subspace at a time.  Each
    # orbit is also expanded, from its basis images and by the span-vector
    # oracle, short orbits included.
    short = 0
    for n in range(5, 9):
        engine = singer_normalizer(n).engine()
        rows = np.zeros((0, 0), dtype=np.uint64)
        for k in range(n + 1):
            rows, lengths, _ = engine.partition(k, rows)
            reps = [Subspace(n, tuple(r)) for r in rows.tolist()]
            assert sum(lengths) == gaussian_binomial(n, k, 2)
            assert lengths == [engine.orbit_size(r) for r in reps], (n, k)
            for row, rep, length in zip(rows, reps, lengths):
                got = engine.expand_orbit_rows(row)
                assert got.shape == (length, k)
                assert np.array_equal(got, span_vector_expand_orbit(engine, rep))
                short += length < engine.order
    assert short > 0


def test_partition_does_not_depend_on_batch_sizes(monkeypatch):
    engine = singer_normalizer(7).engine()

    def run():
        rows, out = np.zeros((0, 0), dtype=np.uint64), []
        for k in range(4):
            rows, lengths, labels = engine.partition(k, rows)
            out.append((rows.tolist(), lengths, labels.tolist()))
        return out

    expect = run()
    # label batches that split every orbit's members apart
    monkeypatch.setattr(singer, "LABEL_BATCH_ROWS", 7)
    assert run() == expect


# SHA-256 of OrbitTable.save bytes: for singer_normalizer(n) over the tables
# of k = 0..n, one file after another; for the paper group at k = 2 and 3
ORBIT_TABLE_SHA256 = {
    4: "12b99967a474bc1950cefb2666ff055afc9975d93e35203bc8188e05aa052482",
    5: "92f9daa090dad6f228fc063988e9f178042961dcf271f3c873048e454f1a98a4",
    6: "29eda3b0a1669263cc3c6174173372e28920ab0f87a0860b9698ce179bff9055",
    7: "452285a2fc08e4ce9e68f29055cfd2e941d47d0585b5d87e704d7ab4fbb7f70a",
    8: "4967f4a00064398118934ce2ce2547234a3365ecf4e228f7a1d4992e9d71a5e6",
    "paper-2": "da0a98c5b62be1518f4ae7227e5929fda9c256883ec0130bcc3b70f1bb4d490e",
    "paper-3": "b302a6e25a22e26f608f5be3162ce952e697dae080ef2fd5921c9a9edabf140c",
}


def test_orbit_table_bytes_are_pinned(t2_table, t3_table, tmp_path):
    path = tmp_path / "table.txt"

    def digest(tables):
        h = hashlib.sha256()
        for table in tables:
            table.save(str(path))
            h.update(path.read_bytes())
        return h.hexdigest()

    got = {
        n: digest(orbit_partition(singer_normalizer(n), k) for k in range(n + 1))
        for n in range(4, 9)
    }
    got["paper-2"], got["paper-3"] = digest([t2_table]), digest([t3_table])
    assert got == ORBIT_TABLE_SHA256


def test_t3_lengths_match_orbit_size_on_a_sample(paper_group, t3_table):
    engine = paper_group.engine()
    rng = random.Random(2013)
    for i in rng.sample(range(t3_table.num_orbits), 300):
        rep = Subspace(13, tuple(t3_table.rep(i).tolist()))
        assert t3_table.lengths[i] == engine.orbit_size(rep), i


def test_partition_and_load_do_not_call_orbit_size(monkeypatch, tmp_path):
    def refuse(self, u):
        raise AssertionError("orbit_size is the oracle, not a pipeline step")

    monkeypatch.setattr(SingerEngine, "orbit_size", refuse)
    g = singer_normalizer(7)
    table = orbit_partition(g, 3)
    assert table._index is not None
    assert table._index[0]  # a label index, built by the engine
    assert sum(table.lengths) == gaussian_binomial(7, 3, 2)
    path = tmp_path / "orbits.txt"
    table.save(str(path))
    assert OrbitTable.load(str(path), group=g).lengths == table.lengths


def test_table_load_checks_every_length(tmp_path, paper_group, t3_table):
    # two lengths far past the first 2000 orbits move by +-1, so the
    # length sum still matches and only the per-orbit check can object
    path = tmp_path / "orbits-k3.txt"
    t3_table.save(str(path))
    last = t3_table.num_orbits - 1
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        parts = line.split()
        if len(parts) == 2 and parts[0] in (str(last - 1), str(last)):
            delta = 1 if parts[0] == str(last) else -1
            lines[i] = f"{parts[0]} {int(parts[1]) + delta}"
    path.write_text("\n".join(lines))
    with pytest.raises(FormatError, match=f"orbit {last - 1}: recorded length"):
        OrbitTable.load(str(path), group=paper_group)


def member_between(g, u, lo, hi):
    """The rows of the first member of u's orbit with key strictly between lo and hi."""
    members = orbit(g, u)
    keys = pack_keys_bulk(members, g.n)
    return members[np.flatnonzero((lo < keys) & (keys < hi))[0]]


def test_table_load_rejects_representatives_sharing_an_orbit(tmp_path):
    # swap rep 1 for a member of orbit 0 of equal length that keeps the
    # key order; lengths and their sum stay plausible
    g = singer_normalizer(7)
    table = orbit_partition(g, 3)
    assert table.lengths[0] == table.lengths[1]
    lo, _, hi = pack_keys_bulk(table.rows[:3], 7)
    rows = table.rows.copy()
    rows[1] = member_between(g, table.rep(0), lo, hi)
    forged = OrbitTable(n=7, k=3, group=g, rows=rows, lengths=list(table.lengths))
    path = tmp_path / "orbits.txt"
    forged.save(str(path))
    with pytest.raises(FormatError, match="orbits 0 and 1"):
        OrbitTable.load(str(path), group=g)


def test_table_load_checks_tables_without_an_engine(tmp_path):
    # <F> has 31 orbits of length 5 on the 2-subspaces of GF(2)^5 and no
    # Singer engine; the generic partition re-derives each orbit at load
    g = frobenius_group(5)
    assert g.engine() is None
    table = orbit_partition(g, 2)
    assert table.num_orbits == 31 and set(table.lengths) == {5}
    lo, _, hi = pack_keys_bulk(table.rows[27:30], 5)
    shared = table.rows.copy()
    shared[28] = member_between(g, table.rep(0), lo, hi)
    moved = list(table.lengths)
    moved[3], moved[30] = 4, 6
    path = tmp_path / "orbits.txt"
    for rows, lengths, message in (
        (shared, table.lengths, "orbits 0 and 28: representatives share an orbit"),
        (table.rows, moved, "orbit 3: recorded length 4 is wrong; the "
         "representative's orbit has 5"),
    ):
        OrbitTable(n=5, k=2, group=g, rows=rows, lengths=list(lengths)).save(str(path))
        with pytest.raises(FormatError, match=message):
            OrbitTable.load(str(path), group=g)
        # without the group there is nothing to check against
        assert OrbitTable.load(str(path)).num_orbits == 31


def test_lookup_rows_bulk_rejects_untabulated_orbits():
    # a label index (Singer engine) and a member-key index (generic)
    for g in (singer_normalizer(6), frobenius_group(6)):
        table = orbit_partition(g, 2)
        rows = table.rows
        partial = OrbitTable(
            n=6, k=2, group=g, rows=table.rows[:2], lengths=table.lengths[:2]
        )
        assert partial.lookup_rows_bulk(rows[:2]).tolist() == [0, 1]
        with pytest.raises(KeyError):
            partial.lookup_rows_bulk(rows)


def test_lookup_rows_bulk_rejects_rows_wider_than_n():
    # a label index (Singer engine) and a member-key index (generic)
    for g in (singer_normalizer(6), frobenius_group(6)):
        table = orbit_partition(g, 2)
        for bad in ([[1, 64]], [[1, 2**63]], table.rows[:, :1], table.rows[0]):
            with pytest.raises(ValueError, match="lookup expects a 2-dim subspace"):
                table.lookup_rows_bulk(bad)
        with pytest.raises(ValueError, match="lookup expects a 2-dim subspace"):
            table.lookup([1, 64])


@pytest.mark.parametrize("n", [6, 8])
def test_line_lookup_by_difference_matches_label_lookup(n):
    # every 2-subspace, in RREF and in two other bases; short orbits occur
    g = singer_normalizer(n)
    table = orbit_partition(g, 2)
    assert min(table.lengths) < g.order
    rows = np.concatenate([chunk for _, chunk in key_chunks(n, 2)])
    want = table._index_ids(rows)
    assert want.min() >= 0
    mixed = np.stack([rows[:, 0] ^ rows[:, 1], rows[:, 0]], axis=1)
    for bases in (rows, rows[:, ::-1], mixed):
        assert np.array_equal(table.lookup_rows_bulk(bases), want)
    assert np.bincount(want).tolist() == table.lengths


def test_line_lookup_rejects_bad_rows_and_untabulated_lines():
    g = singer_normalizer(6)
    table = orbit_partition(g, 2)
    for bad in ([[0, 5]], [[5, 0]], [[0, 0]], [[5, 5]]):
        with pytest.raises(ValueError, match="linearly dependent"):
            table.lookup_rows_bulk(bad)
    for bad in ([[1, 64]], [[64, 1]], [[2**63, 3]]):
        with pytest.raises(ValueError, match="lookup expects a 2-dim subspace"):
            table.lookup_rows_bulk(bad)
    partial = OrbitTable(
        n=6, k=2, group=g, rows=table.rows[1:], lengths=table.lengths[1:]
    )
    ids = partial.lookup_rows_bulk(table.rows[1:])
    assert ids.tolist() == list(range(partial.num_orbits))
    with pytest.raises(KeyError):
        partial.lookup(table.rows[0])
    with pytest.raises(KeyError):
        partial.lookup(table.rows[0, ::-1])
    assert np.count_nonzero(partial._ensure_line_ids(g.engine()) < 0) > 1


def test_lookup_reduces_the_basis():
    # a label index (Singer engine) and a member-key index (generic)
    for g in (singer_normalizer(6), frobenius_group(6)):
        table = orbit_partition(g, 2)
        rows = table.rows
        mixed = np.stack([rows[:, 0] ^ rows[:, 1], rows[:, 1]], axis=1)
        for bases in (mixed, rows[:, ::-1]):
            ids = table.lookup_rows_bulk(bases)
            assert ids.tolist() == list(range(table.num_orbits))
            assert table.lookup(bases[-1]) == table.num_orbits - 1
        with pytest.raises(ValueError, match="linearly dependent"):
            table.lookup(rows[0][[0, 0]])
    assert table.rep(116).tolist() == [36, 24]
    assert table.lookup(np.array([60, 24], dtype=np.uint64)) == 116


def test_internal_paths_build_no_subspace(monkeypatch, tmp_path):
    g = singer_normalizer(7)
    # every 4-subspace of GF(2)^7, a 3-(7, 4, 15) design
    blocks, _ = expand_orbits(g, orbit_partition(g, 4).rows)
    frob = frobenius_group(6)
    frob_reps = orbit_partition(frob, 3).rows

    def refuse(self):
        raise AssertionError("a Subspace was built on an internal path")

    monkeypatch.setattr(Subspace, "__post_init__", refuse)
    assert group_closure(g).order == 127 * 7
    frob_blocks, _ = expand_orbits(frob, frob_reps)  # the generic orbit path
    assert len(frob_blocks.blocks) == gaussian_binomial(6, 3, 2)
    full = groups._partition_full(frob, 3)
    assert full.total_subspaces() == gaussian_binomial(6, 3, 2)
    path = tmp_path / "frobenius.txt"
    full.save(str(path))
    loaded = OrbitTable.load(str(path), group=frob)
    assert loaded.lookup_rows_bulk(full.rows).tolist() == list(range(full.num_orbits))
    t2 = orbit_partition(g, 2)
    t3 = orbit_partition(g, 3)
    path = tmp_path / "orbits.txt"
    t3.save(str(path))
    loaded = OrbitTable.load(str(path), group=g)
    assert np.array_equal(loaded.rows, t3.rows)
    ids = loaded.lookup_rows_bulk(t3.rows)
    assert ids.tolist() == list(range(t3.num_orbits))
    assert build_km(t2, loaded).matrix.shape == (t2.num_orbits, t3.num_orbits)
    assert loaded.lookup(loaded.rep(5)) == 5
    assert len(orbit(g, loaded.rep(5))) == loaded.lengths[5]
    report = verify_design(blocks, 3, 15)
    assert report.ok and report.histogram == {15: gaussian_binomial(7, 3, 2)}
    # files and the bundled text are read as rows
    assert fixtures.solution_representatives().shape == (15, 3)
    path = tmp_path / "blocks.txt"
    blocks.save(str(path))
    assert np.array_equal(BlockSet.load(str(path)).blocks, blocks.blocks)
    assert np.array_equal(load_subspace_file(str(path)), blocks.blocks)


def malformed_table(tmp_path, edit):
    """A saved singer_normalizer(4) 2-orbit table with edit applied to its lines."""
    g = singer_normalizer(4)
    path = tmp_path / "orbits.txt"
    orbit_partition(g, 2).save(str(path))
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    return str(path), g


def test_table_load_names_malformed_lines(tmp_path):
    def header(lines):
        lines[1] = "4 2 abc xyz"

    def entry(lines):
        lines[3] = "0 x"

    def unreduced(lines):
        # orbit 1's basis: add its first row to its second
        at = lines.index("1 5") + 1
        first, second = int(lines[at][::-1], 2), int(lines[at + 1][::-1], 2)
        lines[at + 1] = f"{first ^ second:04b}"[::-1]

    def bad_character(lines):
        lines[8] = "1020"

    def short_record(lines):
        del lines[5]  # orbit 0 keeps one of its two rows

    def blank_among_rows(lines):
        lines.insert(5, "")

    def narrow_record(lines):
        lines[4:6] = [row[:3] for row in lines[4:6]]

    def ragged_row(lines):
        lines[5] = lines[5][:3]

    def negative_length(lines):
        # the lengths still sum to the 35 lines of GF(2)^4
        lines[3], lines[7] = "0 40", "1 -5"

    def skipped_id(lines):
        lines[lines.index("1 5")] = "2 5"

    rows_of_orbit_0 = r"orbit 0: expected 2 basis rows of width 4"
    for edit, message in (
        (header, r"line 2: orbit table header needs integer n, k and group order"),
        (entry, r"line 4: expected integer 'id length', got '0 x'"),
        (unreduced, r"orbit 1: basis rows are not a reduced row echelon form of rank 2"),
        (bad_character, r"line 9: expected a row of 0/1 characters"),
        (short_record, rows_of_orbit_0),
        (blank_among_rows, rows_of_orbit_0),
        (narrow_record, rows_of_orbit_0),
        (ragged_row, r"line 6: row width 3 != matrix width 4"),
        (negative_length, r"orbit 1: length -5 is not positive"),
        (skipped_id, r"orbit ids must be consecutive; got 2"),
    ):
        path, g = malformed_table(tmp_path, edit)
        for group in (g, None):
            with pytest.raises(FormatError, match=message):
                OrbitTable.load(path, group=group)

    def wrong_order(lines):
        lines[1] = lines[1].replace(" 60", " 61")

    # the header's order is checked against the group's, when it has one
    path, g = malformed_table(tmp_path, wrong_order)
    with pytest.raises(FormatError, match="group order disagrees with the table header"):
        OrbitTable.load(path, group=g)
    assert OrbitTable.load(path, group=None).lengths == orbit_partition(g, 2).lengths
    # a table of the zero subspace has no basis rows
    g = singer_normalizer(4)
    path = str(tmp_path / "orbits-k0.txt")
    orbit_partition(g, 0).save(path)
    for group in (g, None):
        table = OrbitTable.load(path, group=group)
        assert table.rows.shape == (1, 0) and table.lengths == [1]
