"""Matrix groups, orbits, and orbit tables."""

import hashlib
import random

import numpy as np
import pytest

from groups_reference import closure_elements, walk_orbit, walk_partition
from qsteiner.gf2 import (
    BitMatrix,
    LimitError,
    companion_matrix,
    frobenius_matrix,
    identity,
    mat_mul,
    mat_vec,
    mat_vec_bulk,
    primitive_polynomial,
    rank,
    row_dtype,
    rref_bulk,
    span_vectors_bulk,
)
from qsteiner.groups import (
    MatrixGroup,
    expand_orbits,
    group_closure,
    group_hash,
    orbit,
    orbit_partition,
    singer_normalizer,
)
from qsteiner import fixtures, gf2, groups, singer, subspace, verify
from qsteiner.kramer_mesner import build_km
from qsteiner.singer import SingerEngine
from qsteiner.subspace import (
    Subspace,
    gaussian_binomial,
    key_bits,
    key_chunks,
    key_order,
    load_subspace_file,
    pack_keys_bulk,
    span,
)
from subspace_reference import enumerate_subspaces, key_per_column
from qsteiner.verify import BlockSet, verify_design


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


def gl42_generators():
    """A 4-cycle of order 15 and a transvection, which generate GL(4, 2)."""
    return companion_matrix(0b10011), BitMatrix((9, 2, 4, 8), 4)


def assert_closure_matches_oracle(n, generators):
    group = MatrixGroup(n=n, generators=generators)
    order = group_closure(group).order
    assert order == len(closure_elements(group))
    return order


def test_closure_orders_small():
    # the coset walk against the element-level search, with either
    # generator listed first: H is <S> either way, the one of larger order
    for n in range(2, 9):
        g = singer_normalizer(n)
        for gens in (g.generators, g.generators[::-1]):
            order = assert_closure_matches_oracle(n, gens)
            assert order == (2**n - 1) * n
        if n <= 6:
            elements = [tuple(rows) for rows in closure_elements(g).tolist()]
            assert elements == sorted(brute_closure(g.generators, n))


def test_closure_of_gl42_matches_the_element_oracle():
    for gens in (gl42_generators(), gl42_generators()[::-1]):
        assert assert_closure_matches_oracle(4, gens) == 20160


def test_closure_of_redundant_identity_and_trivial_generators():
    s, f = singer_normalizer(5).generators
    cube = mat_mul(s, mat_mul(s, s))
    assert assert_closure_matches_oracle(5, (s, cube)) == 31
    assert assert_closure_matches_oracle(5, (cube, f, s)) == 155
    assert assert_closure_matches_oracle(5, (identity(5), f, s)) == 155
    assert assert_closure_matches_oracle(5, (f, identity(5))) == 5
    assert assert_closure_matches_oracle(4, (identity(4),)) == 1
    assert assert_closure_matches_oracle(1, (identity(1),)) == 1


def elementary_transvections(n):
    """Every I + E_ij, i != j: row i of the identity gains bit j."""
    return tuple(
        BitMatrix(tuple((1 << r) | ((1 << j) if r == i else 0) for r in range(n)), n)
        for i in range(n)
        for j in range(n)
        if i != j
    )


def test_coset_keys_are_the_least_elements_of_their_cosets():
    # brute force over the products h y; with H = <I + E_10>, both
    # elements of H share row 0, so the key is settled on row 1
    rng = random.Random(29)
    cases = [(3, elementary_transvections(3)[2]), (4, gl42_generators()[0])]
    cases += [(5, singer_normalizer(5).generators[1])]
    for n, g in cases:
        h = gf2.matrix_powers(g, 10**6)
        elements = [BitMatrix(tuple(rows), n) for rows in h.tolist()]
        ys = []
        while len(ys) < 20:
            y = BitMatrix(tuple(rng.getrandbits(n) for _ in range(n)), n)
            if rank(y) == n:
                ys.append(y)
        keys = groups._coset_keys(h, np.array([y.rows for y in ys], dtype=h.dtype))
        assert keys.dtype == row_dtype(n)
        for y, key in zip(ys, keys.tolist()):
            assert tuple(key) == min(mat_mul(e, y).rows for e in elements)


def test_closure_with_ties_on_the_first_row_matches_the_oracle():
    # GL(3, 2) from its six transvections, each of order 2: H = <I + E_10>
    # and the identity share row 0, so every coset key needs row 1
    gens = elementary_transvections(3)
    assert gens[2].rows[0] == 1 and gens[2].rows[1] == 3
    assert assert_closure_matches_oracle(3, gens[2:] + gens[:2]) == 168


def test_closure_cap(monkeypatch):
    # |H| = 63 and |G| = 378: a cap below either, between them, and at |G|
    g = singer_normalizer(6)
    for cap in (0, 1, 40, 62, 63, 100, 377):
        with pytest.raises(LimitError, match=f"cap of {cap} elements"):
            group_closure(MatrixGroup(n=6, generators=g.generators), cap=cap)
    assert group_closure(g, cap=378).order == 378
    # doubling would list 64 powers of S; a cap of 40 stops them at 41
    built = []

    def spy(m, vecs, apply=gf2.vec_mat_bulk):
        built.append(len(vecs))
        return apply(m, vecs)

    monkeypatch.setattr(gf2, "vec_mat_bulk", spy)
    with pytest.raises(LimitError, match="cap of 40 elements"):
        group_closure(MatrixGroup(n=6, generators=g.generators[:1]), cap=40)
    assert 1 + sum(built) == 41


def test_closure_of_the_paper_group_walks_13_cosets(monkeypatch):
    # F is listed first, but H = <S> has 8191 elements and 13 right
    # cosets: the search yields those 13 keys, never an element list, and
    # holds them in uint16
    yielded = []

    def spy(start, maps, n, walk=groups._bfs):
        for rows in walk(start, maps, n):
            assert rows.dtype == row_dtype(13)
            yielded.append(rows.shape)
            yield rows

    monkeypatch.setattr(groups, "_bfs", spy)
    gens = fixtures.fixture_group().generators
    assert gens[0] == fixtures.generator_f()
    closed = group_closure(MatrixGroup(n=13, generators=gens))
    assert closed.order == 106483
    assert sum(rows for rows, _ in yielded) == 13
    assert {width for _, width in yielded} == {13}


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
    # GL(4, 2): the transvection e3 -> e0 + e3 has first slope 1 on the
    # cycle's exponents, a power of two, but is not affine on them
    cycle, transvection = gl42_generators()
    exps = singer._power_table(cycle)
    dlog = np.zeros(16, dtype=np.int64)
    dlog[exps] = np.arange(15)
    imgs = dlog[mat_vec_bulk(transvection, exps)]
    slope = int(imgs[1] - imgs[0]) % 15
    assert slope & (slope - 1) == 0
    assert not np.array_equal(imgs, (slope * np.arange(15) + imgs[0]) % 15)
    general = MatrixGroup(n=4, generators=(cycle, transvection))
    assert general.engine() is None and group_closure(general).order == 20160
    lengths = [orbit_partition(general, k).lengths for k in (1, 2, 3)]
    assert lengths == [[15], [35], [15]]
    cases.append((general, range(5)))
    for g, dims in cases:
        for k in dims:
            got, want = groups._partition_full(g, k), walk_partition(g, k)
            assert np.array_equal(got.rows, want.rows), (g.n, k)
            assert got.lengths == want.lengths, (g.n, k)
            assert all(np.array_equal(a, b) for a, b in zip(got._index, want._index))


def test_two_identities_of_dimension_1_make_a_group_of_order_1():
    # the exponent model of GF(2)^1 has modulus 1 and the one slope 1: the
    # engine, the closure and the partition all count one element
    g = MatrixGroup(n=1, generators=(identity(1), identity(1)))
    closed = group_closure(g)
    assert closed.order == 1
    # the partition compares the engine's order with the stored one
    assert orbit_partition(closed, 1).lengths == [1]
    assert g.engine().order == 1


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
    with pytest.raises(LimitError, match=f"traversal cap {length - 1}"):
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
# of k = 0..n, one file after another; for the paper group at k = 2 and 3;
# for frobenius_group(5), which has no engine and no recorded order (the
# closure counts it), over the generic partitions of k = 0..5
ORBIT_TABLE_SHA256 = {
    4: "12b99967a474bc1950cefb2666ff055afc9975d93e35203bc8188e05aa052482",
    5: "92f9daa090dad6f228fc063988e9f178042961dcf271f3c873048e454f1a98a4",
    6: "29eda3b0a1669263cc3c6174173372e28920ab0f87a0860b9698ce179bff9055",
    7: "452285a2fc08e4ce9e68f29055cfd2e941d47d0585b5d87e704d7ab4fbb7f70a",
    8: "4967f4a00064398118934ce2ce2547234a3365ecf4e228f7a1d4992e9d71a5e6",
    "paper-2": "da0a98c5b62be1518f4ae7227e5929fda9c256883ec0130bcc3b70f1bb4d490e",
    "paper-3": "b302a6e25a22e26f608f5be3162ce952e697dae080ef2fd5921c9a9edabf140c",
    "frobenius-5": "4a9975f76b1ac15d07f86abe843e5c974b0208a545432e191cc304a29faed3b7",
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
    frob = frobenius_group(5)
    got["frobenius-5"] = digest(orbit_partition(frob, k) for k in range(6))
    assert frob.engine() is None and frob.order == 5
    assert got == ORBIT_TABLE_SHA256
    # the zero subspace's table: one orbit with no basis rows
    zero = orbit_partition(singer_normalizer(4), 0)
    assert zero.rows.shape == (1, 0) and zero.lengths == [1]


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
    table.save(str(tmp_path / "orbits.txt"))


def test_lookup_rows_bulk_names_every_orbit_of_the_partition():
    # a label index (Singer engine) and a member-key index (generic)
    for g in (singer_normalizer(6), frobenius_group(6)):
        table = orbit_partition(g, 2)
        ids = table.lookup_rows_bulk(table.rows)
        assert ids.tolist() == list(range(table.num_orbits))
        for i in (0, table.num_orbits // 2, table.num_orbits - 1):
            members = orbit(g, table.rep(i))
            assert len(members) == table.lengths[i]
            assert set(table.lookup_rows_bulk(members).tolist()) == {i}


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


def test_line_lookup_rejects_bad_rows():
    g = singer_normalizer(6)
    table = orbit_partition(g, 2)
    for bad in ([[0, 5]], [[5, 0]], [[0, 0]], [[5, 5]]):
        with pytest.raises(ValueError, match="linearly dependent"):
            table.lookup_rows_bulk(bad)
    for bad in ([[1, 64]], [[64, 1]], [[2**63, 3]]):
        with pytest.raises(ValueError, match="lookup expects a 2-dim subspace"):
            table.lookup_rows_bulk(bad)
    ids = table.lookup_rows_bulk(table.rows)
    assert ids.tolist() == list(range(table.num_orbits))
    assert table.lookup(table.rows[0, ::-1]) == 0
    # every difference but 0, which no line has, names an orbit
    line_ids = table._ensure_line_ids(g.engine())
    assert line_ids[0] == -1 and line_ids[1:].min() >= 0


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
    full.save(str(tmp_path / "frobenius.txt"))
    assert full.lookup_rows_bulk(full.rows).tolist() == list(range(full.num_orbits))
    t2 = orbit_partition(g, 2)
    t3 = orbit_partition(g, 3)
    t3.save(str(tmp_path / "orbits.txt"))
    ids = t3.lookup_rows_bulk(t3.rows)
    assert ids.tolist() == list(range(t3.num_orbits))
    assert build_km(t2, t3).matrix.shape == (t2.num_orbits, t3.num_orbits)
    assert t3.lookup(t3.rep(5)) == 5
    assert len(orbit(g, t3.rep(5))) == t3.lengths[5]
    report = verify_design(blocks, 3, 15)
    assert report.ok and report.histogram == {15: gaussian_binomial(7, 3, 2)}
    # files and the bundled text are read as rows
    assert fixtures.solution_representatives().shape == (15, 3)
    path = tmp_path / "blocks.txt"
    blocks.save(str(path))
    assert np.array_equal(BlockSet.load(str(path)).blocks, blocks.blocks)
    assert np.array_equal(load_subspace_file(str(path)), blocks.blocks)


def test_expand_orbits_counts_and_rejects_mixed_dims():
    group = singer_normalizer(6)
    table = orbit_partition(group, 3)
    reps = table.rows[:3]
    blocks, lengths = expand_orbits(group, reps)
    assert blocks.num_blocks == sum(lengths)
    assert len(lengths) == len(reps)
    seen = {tuple(rows) for rows in blocks.blocks.tolist()}
    assert len(seen) == blocks.num_blocks
    # with short orbits the block list holds its rows and no unused room
    every, lengths = expand_orbits(group, table.rows)
    assert every.num_blocks == gaussian_binomial(6, 3, 2)
    assert min(lengths) < max(lengths) and every.blocks.base is None
    t2 = orbit_partition(group, 2)
    with pytest.raises(ValueError):
        expand_orbits(group, [table.rep(0), t2.rep(0)])
    # the representatives must make a block set of GF(2)^6 themselves
    twin = orbit(group, table.rep(0))[1]
    for bad, message in (
        (table.rows[:0], "no representatives to expand"),
        (table.rep(0), r"an \(N, k\) array"),
        (table.rows[:1] | np.uint64(1 << 6), "fit in n bits"),
        (table.rows[:1, ::-1], "reduced row echelon form"),
        (table.rows[[1, 0, 1]], "blocks 0 and 2 are equal"),
        (np.stack([table.rep(0), twin]), "representatives 0 and 1 share an orbit"),
    ):
        with pytest.raises(ValueError, match=message):
            expand_orbits(group, bad)


def test_expand_orbits_with_keys_wider_than_64_bits():
    # the key of a 6-subspace of GF(2)^14 takes 65 bits and that of a
    # 7-subspace 66, so key_order sorts them by rows; in key order each
    # orbit is the engine's deduped orbit, and the block set that
    # expand_orbits returns accepts the rows
    group = singer_normalizer(14)
    engine = group.engine()
    assert (key_bits(14, 6), key_bits(14, 7)) == (65, 66)
    first_six = np.array([[1 << i for i in range(6)]], dtype=np.uint64)
    # the subfield GF(2^7): 0 and the powers of a^129, a primitive element,
    # whose first seven powers are a basis; its 129 translates a^c GF(2^7)
    # are its orbit, as the Frobenius maps fix it
    subfield, _ = gf2.rref_bulk(engine.exptable[129 * np.arange(7)][None])
    for reps in (first_six, subfield):
        _, stab = engine.labels_and_stabilizers(engine.rows_to_exps(reps))
        blocks, lengths = expand_orbits(group, reps)
        assert lengths == [engine.order // int(stab[0])] == [blocks.num_blocks]
        got = blocks.blocks[key_order(blocks.blocks)]
        assert np.array_equal(got, engine.expand_orbit_rows(reps[0]))
    assert lengths == [129]


def test_expanded_blocks_pass_every_block_set_check():
    # the engine path builds its BlockSet unchecked; every check must hold
    # on what it returns, short orbits included, and each orbit, put in key
    # order, must be the breadth-first orbit of its representative
    for n in (5, 6, 7):
        group = singer_normalizer(n)
        for k in range(4):
            reps = orbit_partition(group, k).rows
            blocks, lengths = expand_orbits(group, reps)
            again = BlockSet(n, k, blocks.blocks.copy())
            assert np.array_equal(again.blocks, blocks.blocks)
            assert blocks.num_blocks == sum(lengths) == gaussian_binomial(n, k, 2)
            assert blocks.blocks.flags.c_contiguous
            stop = 0
            for rep, length in zip(reps, lengths):
                got = blocks.blocks[stop : stop + length]
                stop += length
                assert np.array_equal(got[key_order(got)], orbit(group, rep)), (n, k)
    group = singer_normalizer(14)
    engine = group.engine()
    subfield, _ = gf2.rref_bulk(engine.exptable[129 * np.arange(7)][None])
    for reps in (np.array([[1 << i for i in range(6)]], dtype=np.uint64), subfield):
        blocks, _ = expand_orbits(group, reps)
        again = BlockSet(14, reps.shape[1], blocks.blocks.copy())
        assert np.array_equal(again.blocks, blocks.blocks)


def test_expand_orbits_names_representatives_that_share_an_orbit():
    group = singer_normalizer(6)
    for k in (1, 2, 3):
        table = orbit_partition(group, k)
        for g in group.generators:
            image, _ = gf2.rref_bulk(gf2.mat_vec_bulk(g, table.rows[:1]))
            if np.array_equal(image, table.rows[:1]):
                continue  # a generator may fix the representative
            pair = np.concatenate([table.rows[:1], image])
            with pytest.raises(ValueError, match="representatives 0 and 1 share"):
                expand_orbits(group, pair)
            if len(table.rows) > 1:  # one orbit of points
                three = np.concatenate([table.rows[1:2], pair])
                with pytest.raises(ValueError, match="representatives 1 and 2 share"):
                    expand_orbits(group, three)


def test_engine_expansion_checks_no_more_rows_than_representatives(monkeypatch):
    # the expanded rows are in RREF and distinct by construction; a check of
    # every expanded row must not come back
    seen = []
    for module, name in (
        (verify, "rref_checked"),
        (verify, "first_duplicate"),
        (groups, "first_duplicate"),
    ):
        def spy(rows, *args, check=getattr(module, name)):
            seen.append(len(rows))
            return check(rows, *args)

        monkeypatch.setattr(module, name, spy)
    for n, k in ((6, 2), (7, 3)):
        group = singer_normalizer(n)
        reps = orbit_partition(group, k).rows
        seen.clear()
        blocks, _ = expand_orbits(group, reps)
        assert seen and max(seen) <= len(reps) < blocks.num_blocks


def test_paper_expansion_packs_and_sorts_no_keys(paper_group, paper_blocks, monkeypatch):
    # the 15 bundled orbits have trivial stabilizers, so their images are
    # already distinct: no key is packed, no row is sorted or deduped
    calls = []
    for module, name in (
        (singer, "_distinct_rows"),
        (singer, "key_order"),
        (subspace, "key_order"),
        (subspace, "pack_keys_bulk"),
    ):
        def spy(*args, name=name):
            calls.append(name)
            raise AssertionError(f"{name} was called")

        monkeypatch.setattr(module, name, spy)
    reps = fixtures.solution_representatives()
    blocks, lengths = expand_orbits(paper_group, reps)
    assert not calls and lengths == [106483] * 15
    assert np.array_equal(blocks.blocks, paper_blocks.blocks)


def test_short_orbits_are_still_deduped(monkeypatch):
    # 3-subspaces of GF(2)^7 fixed by the Frobenius maps: stabilizer 7,
    # so each of their 127 blocks is met 7 times among the 889 images
    group = singer_normalizer(7)
    engine = group.engine()
    table = orbit_partition(group, 3)
    reps = table.rows[np.array(table.lengths) == 127]
    assert len(reps) and engine.order == 889
    deduped = []

    def spy(rows, dedupe=singer._distinct_rows):
        deduped.append(len(rows))
        return dedupe(rows)

    monkeypatch.setattr(singer, "_distinct_rows", spy)
    _, stab = engine.labels_and_stabilizers(engine.rows_to_exps(reps))
    blocks, lengths = expand_orbits(group, reps)
    assert lengths == (engine.order // stab).tolist() == [127] * len(reps)
    assert deduped == [889] * len(reps)
    BlockSet(7, 3, blocks.blocks.copy())  # distinct, in RREF
    for i, rep in enumerate(reps):
        got = blocks.blocks[127 * i : 127 * (i + 1)]
        assert np.array_equal(got[key_order(got)], orbit(group, rep))


def test_generic_expansion_names_representatives_that_share_an_orbit():
    # without a Singer engine one duplicate search over the expanded rows
    # finds two representatives of one orbit
    group = frobenius_group(6)
    assert group.engine() is None
    table = orbit_partition(group, 3)
    blocks, lengths = expand_orbits(group, table.rows)
    assert blocks.blocks.dtype == row_dtype(6) and lengths == list(table.lengths)
    long = [i for i, length in enumerate(table.lengths) if length > 1]
    twin = orbit(group, table.rep(long[1]))[1]
    for reps, message in (
        (np.stack([table.rep(long[0]), table.rep(long[1]), twin]), "1 and 2"),
        (np.stack([twin, table.rep(long[0]), table.rep(long[1])]), "0 and 2"),
    ):
        with pytest.raises(ValueError, match=f"representatives {message} share"):
            expand_orbits(group, reps)
