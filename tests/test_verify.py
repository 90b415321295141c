"""Design verification against independent recounts and known controls."""

import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import verify_reference
from qsteiner import cli, gf2, verify
from qsteiner.exact_cover import CoverProblem, SolveConfig, solve
from qsteiner.gf2 import FormatError
from qsteiner.groups import orbit, orbit_partition, singer_normalizer
from qsteiner.subspace import Subspace, gaussian_binomial, span
from subspace_reference import enumerate_subspaces, vectors
from verify_reference import subspaces_of
from qsteiner.verify import (
    BlockSet,
    DesignReport,
    derived_steiner_sample_check,
    expand_orbits,
    format_report,
    min_distance_certificate,
    packing_bound,
    verify_design,
)


def block_subspace(blocks, i):
    """Block i of a BlockSet as a Subspace."""
    return Subspace(blocks.n, tuple(blocks.blocks[i].tolist()))


def recount_histogram(blocks, t):
    """Coverage histogram by plain dict counting over enumerated t-subspaces."""
    counts = Counter()
    for i in range(blocks.num_blocks):
        for sub in subspaces_of(block_subspace(blocks, i), t):
            counts[sub.rows] += 1
    hist = Counter(counts.values())
    missed = gaussian_binomial(blocks.n, t, 2) - len(counts)
    if missed:
        hist[0] = missed
    return dict(hist)


def make_spread():
    subs = list(enumerate_subspaces(4, 2))
    opts = [(i, sorted(v for v in vectors(s) if v)) for i, s in enumerate(subs)]
    prob = CoverProblem.from_options(item_ids=list(range(1, 16)), options=opts)
    sols, _ = solve(prob, SolveConfig(max_solutions=1))
    return BlockSet(4, 2, np.array([subs[i].rows for i in sols[0].labels]))


def test_blockset_accessors_and_round_trip(tmp_path):
    bs = make_spread()
    assert bs.num_blocks == 5 and bs.n == 4 and bs.k == 2
    subs = [block_subspace(bs, i) for i in range(bs.num_blocks)]
    assert all(s.dim == 2 and s.ambient == 4 for s in subs)
    path = tmp_path / "blocks.txt"
    bs.save(str(path))
    loaded = BlockSet.load(str(path))
    assert loaded.n == bs.n and loaded.k == bs.k
    assert np.array_equal(np.sort(loaded.blocks, axis=0), np.sort(bs.blocks, axis=0))


def reference_block_text(bs):
    """The block file BlockSet.save wrote one bit at a time."""
    out = [f"# block set: n={bs.n} k={bs.k} blocks={bs.num_blocks}\n"]
    for i in range(bs.num_blocks):
        for j in range(bs.k):
            r = int(bs.blocks[i, j])
            out.append("".join("1" if (r >> b) & 1 else "0" for b in range(bs.n)))
            out.append("\n")
        out.append("\n")
    return "".join(out)


def all_subspace_blocks(n, k):
    group = singer_normalizer(n)
    return expand_orbits(group, orbit_partition(group, k).rows)[0]


def test_save_writes_the_reference_bytes_and_load_reads_them_back(
    tmp_path, monkeypatch
):
    path = tmp_path / "blocks.txt"
    for n in (5, 6, 7):
        for k in (0, 1, 2, 3):
            bs = all_subspace_blocks(n, k)
            for batch in (7, verify.SAVE_BATCH_BLOCKS):
                monkeypatch.setattr(verify, "SAVE_BATCH_BLOCKS", batch)
                bs.save(str(path))
                assert path.read_bytes() == reference_block_text(bs).encode(), (n, k)
            if k == 0:
                continue  # the zero subspace has no rows to read back
            loaded = BlockSet.load(str(path))
            assert (loaded.n, loaded.k) == (n, k)
            assert np.array_equal(loaded.blocks, bs.blocks)


def test_load_without_header_canonicalizes_rows(tmp_path):
    path = tmp_path / "blocks.txt"
    # column j of a text row is bit j; neither basis is reduced
    path.write_text("# hand-written\n0110\n0101\n\n1001\n0001\n")
    loaded = BlockSet.load(str(path))
    assert (loaded.n, loaded.k) == (4, 2)
    expect = [span([0b0110, 0b1010], 4).rows, span([0b1001, 0b1000], 4).rows]
    assert loaded.blocks.tolist() == [list(rows) for rows in expect]


def corrupt_and_expect(tmp_path, capsys, text, message):
    """text must fail BlockSet.load with message, and verify must exit 2."""
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(FormatError, match=message):
        BlockSet.load(str(path))
    code = cli.main(
        ["--out-dir", str(tmp_path), "verify", "--blocks", str(path), "--t", "2"]
    )
    assert code == 2
    assert re.search(message, capsys.readouterr().err)


def test_faulty_block_files_are_named_format_errors(tmp_path, capsys):
    bs = all_subspace_blocks(5, 2)
    lines = reference_block_text(bs).splitlines(keepends=True)
    assert bs.num_blocks == 155 and len(lines) == 1 + 3 * 155
    body = lines[1:]

    def with_header(blocks, n=5, k=2):
        return f"# block set: n={n} k={k} blocks={blocks}\n"

    # truncated to half its blocks, at a block boundary and inside a block
    corrupt_and_expect(
        tmp_path, capsys, "".join(lines[: 1 + 3 * 77]),
        "header says blocks=155, file has 77",
    )
    corrupt_and_expect(
        tmp_path, capsys, "".join(lines[: 2 + 3 * 77]),
        "header says blocks=155, file has 78",
    )
    # header count, width and dimension off by one
    corrupt_and_expect(
        tmp_path, capsys, with_header(156) + "".join(body),
        "header says blocks=156, file has 155",
    )
    corrupt_and_expect(
        tmp_path, capsys, with_header(155, n=6) + "".join(body),
        r"line 2: block has n=5, expected n=6",
    )
    corrupt_and_expect(
        tmp_path, capsys, with_header(155, k=3) + "".join(body),
        r"line 2: block has k=2, expected k=3",
    )
    # a repeated block, written with another basis of the same subspace
    r0, r1 = (int(r) for r in bs.blocks[4])
    again = [f"{r0 ^ r1:05b}"[::-1] + "\n", body[3 * 4 + 1], "\n"]
    corrupt_and_expect(
        tmp_path, capsys, with_header(156) + "".join(body + again),
        r"lines 14 and 467: duplicate block",
    )
    # dependent rows: in one block, and in every block
    dep = body.copy()
    dep[3 * 9 + 1] = dep[3 * 9]
    corrupt_and_expect(
        tmp_path, capsys, lines[0] + "".join(dep),
        r"line 29: block rows are linearly dependent \(rank 1 < 2\)",
    )
    dep[1::3] = dep[0::3]
    corrupt_and_expect(
        tmp_path, capsys, lines[0] + "".join(dep),
        r"line 2: block rows are linearly dependent \(rank 1 < 2\)",
    )
    # a character other than 0/1
    bad = body.copy()
    bad[3 * 20] = bad[3 * 20][:2] + "2" + bad[3 * 20][3:]
    corrupt_and_expect(
        tmp_path, capsys, lines[0] + "".join(bad),
        r"line 62: expected a row of 0/1 characters",
    )


def test_blockset_rejects_malformed_rows():
    # rows not in reduced echelon form
    with pytest.raises(ValueError):
        BlockSet(4, 2, np.array([[3, 2]], dtype=np.uint64))
    # dependent rows (rank below k)
    with pytest.raises(ValueError):
        BlockSet(4, 2, np.array([[1, 0]], dtype=np.uint64))
    # duplicate blocks
    row = [[1, 2], [1, 2]]
    with pytest.raises(ValueError, match="distinct"):
        BlockSet(4, 2, np.array(row, dtype=np.uint64))
    # duplicates that are not neighbours in input order
    rows = [[1, 2], [1, 4], [2, 4], [1, 6], [1, 2], [2, 8]]
    with pytest.raises(ValueError, match="distinct"):
        BlockSet(4, 2, np.array(rows, dtype=np.uint64))
    rows.pop(4)
    assert BlockSet(4, 2, np.array(rows, dtype=np.uint64)).num_blocks == 5
    # rows with bits above n
    with pytest.raises(ValueError, match="fit in n bits"):
        BlockSet(4, 2, np.array([[1, 16]], dtype=np.uint64))


def test_blockset_checks_every_chunk(monkeypatch):
    monkeypatch.setattr(verify, "KEY_CHUNK_BLOCKS", 2)
    rows = [[1, 2], [1, 4], [2, 4], [1, 6], [2, 8]]
    assert BlockSet(4, 2, np.array(rows, dtype=np.uint64)).num_blocks == 5
    for bad, message in (([3, 2], "echelon"), ([1, 0], "dimension")):
        with pytest.raises(ValueError, match=message):
            BlockSet(4, 2, np.array(rows + [bad], dtype=np.uint64))


def first_duplicate_by_dict(blocks):
    seen = {}
    for j, row in enumerate(map(tuple, blocks.tolist())):
        if row in seen:
            return seen[row], j
        seen[row] = j
    return None


def test_first_duplicate_packs_rows_into_words():
    rng = np.random.default_rng(5)
    # k n from 0 to 192 bits: one word, rows straddling words, several words
    for n, k in ((13, 3), (13, 5), (21, 3), (30, 3), (33, 2), (64, 2), (7, 0), (40, 4)):
        for _ in range(20):
            # three row values that differ in the lowest or the highest
            # bit only, so blocks repeat and differ in bits that straddle
            # a word boundary
            base = rng.integers(0, 1 << n, dtype=np.uint64)
            values = base ^ np.array([0, 1, 1 << (n - 1)], dtype=np.uint64)
            num = int(rng.integers(1, 40))
            blocks = values[rng.integers(0, 3, size=(num, k))]
            assert gf2.first_duplicate(blocks, n) == first_duplicate_by_dict(
                blocks
            ), (n, k)
    # large inputs, distinct or with one planted repeat: k n <= 64 takes
    # the sort-first test, k n > 64 the stable sort alone
    for n, k in ((13, 3), (21, 3), (64, 1), (33, 2), (40, 4)):
        rows = rng.integers(0, 1 << n, size=(20000, k), dtype=np.uint64)
        rows = rng.permutation(np.unique(rows, axis=0))
        assert gf2.first_duplicate(rows, n) is None
        assert first_duplicate_by_dict(rows) is None
        for i, j in ((0, 1), (int(rng.integers(0, len(rows) - 1)), len(rows) - 1)):
            planted = rows.copy()
            planted[j] = planted[i]
            assert gf2.first_duplicate(planted, n) == first_duplicate_by_dict(
                planted
            ) == (i, j), (n, k)


def test_expand_orbits_counts_and_rejects_mixed_dims():
    group = singer_normalizer(6)
    table = orbit_partition(group, 3)
    reps = table.rows[:3]
    blocks, lengths = expand_orbits(group, reps)
    assert blocks.num_blocks == sum(lengths)
    assert len(lengths) == len(reps)
    seen = {tuple(rows) for rows in blocks.blocks.tolist()}
    assert len(seen) == blocks.num_blocks
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


def test_spread_verifies_as_1_design():
    bs = make_spread()
    report = verify_design(bs, 1, 1)
    assert report.ok and report.histogram == {1: 15}
    assert report.total_t_subspaces == 15
    assert report.violations_total == 0
    text = format_report(report)
    assert "DESIGN n=4 k=2 t=1 lambda=1" in text
    assert "VERDICT pass" in text


def test_deleted_block_breaks_the_design():
    bs = make_spread()
    short = BlockSet(4, 2, bs.blocks[:-1].copy())
    report = verify_design(short, 1, 1)
    assert not report.ok
    assert report.histogram == {1: 12, 0: 3}
    assert report.violations_total == 3
    assert all(count == 0 for _, count in report.violations_shown)
    assert "VERDICT fail" in format_report(report)


def test_histogram_matches_dict_recount():
    group = singer_normalizer(5)
    blocks, _ = expand_orbits(group, orbit_partition(group, 2).rows)
    for t in (1, 2):
        report = verify_design(blocks, t, 1)
        assert report.histogram == recount_histogram(blocks, t)
    # a deliberately unbalanced set exercises the violation path
    some = BlockSet(5, 2, blocks.blocks[:7].copy())
    for t in (1, 2):
        report = verify_design(some, t, 1)
        assert report.histogram == recount_histogram(some, t)
        assert not report.ok


def test_uncovered_subspaces_shown_match_enumeration():
    group = singer_normalizer(5)
    blocks, _ = expand_orbits(group, orbit_partition(group, 2).rows)
    some = BlockSet(5, 2, blocks.blocks[:7].copy())
    for t in (1, 2):
        covered = {
            sub.rows
            for i in range(some.num_blocks)
            for sub in subspaces_of(block_subspace(some, i), t)
        }
        uncovered = {s.rows for s in enumerate_subspaces(5, t)} - covered
        full = verify_design(some, t, 1, max_violations=10**6)
        absent = [rows for rows, count in full.violations_shown if count == 0]
        assert len(absent) == len(uncovered) and set(absent) == uncovered
        for cap in (0, 1, 5):
            shown = verify_design(some, t, 1, max_violations=cap).violations_shown
            assert shown == full.violations_shown[:cap]


def test_verify_rejects_bad_parameters():
    bs = make_spread()
    with pytest.raises(ValueError):
        verify_design(bs, 3, 1)  # t above k
    with pytest.raises(ValueError):
        verify_design(bs, 0, 1)
    with pytest.raises(ValueError):
        verify_design(bs, 1, 0)


def test_packing_bound_values():
    assert packing_bound(13, 3, 2) == 1597245
    assert packing_bound(4, 2, 1) == 5
    assert packing_bound(7, 3, 2) == 381
    with pytest.raises(ValueError):
        packing_bound(5, 3, 2)


def test_min_distance_certificate_on_spread():
    bs = make_spread()
    report = verify_design(bs, 1, 1)
    assert min_distance_certificate(bs, report, samples=2000, seed=1) == 4


def test_certificates_require_a_passing_report():
    bs = make_spread()
    short = BlockSet(4, 2, bs.blocks[:-1].copy())
    bad = verify_design(short, 1, 1)
    with pytest.raises(ValueError):
        min_distance_certificate(short, bad, samples=100)
    good = verify_design(bs, 1, 1)
    with pytest.raises(ValueError):
        derived_steiner_sample_check(bs, good, samples=10)


def test_paper_design_verifies(paper_blocks, paper_report):
    assert paper_blocks.num_blocks == 1597245
    assert paper_report.ok
    assert paper_report.histogram == {1: 11180715}
    assert paper_report.total_t_subspaces == 11180715


def test_deleting_one_block_uncovers_exactly_seven_pairs(paper_blocks):
    short = BlockSet(13, 3, paper_blocks.blocks[:-1].copy())
    report = verify_design(short, 2, 1)
    assert not report.ok
    assert report.histogram == {1: 11180708, 0: 7}
    assert report.violations_total == 7
    # the uncovered pairs lie anywhere in key order; all seven are found
    lost = {sub.rows for sub in subspaces_of(block_subspace(paper_blocks, -1), 2)}
    assert {rows for rows, _ in report.violations_shown} == lost


def test_paper_design_certificates(paper_blocks, paper_report):
    assert min_distance_certificate(paper_blocks, paper_report, samples=20000, seed=3) == 4
    out = derived_steiner_sample_check(paper_blocks, paper_report, samples=2000, seed=3)
    assert out["failures"] == 0 and out["examples"] == []
    assert out["tested"] > 0


def paper_slices(paper_blocks, seed, count):
    """Seeded slices of the paper's design: partial Steiner systems."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        size = int(rng.integers(1, 300))
        start = int(rng.integers(0, paper_blocks.num_blocks - size))
        yield BlockSet(13, 3, paper_blocks.blocks[start : start + size].copy())


def small_designs():
    """Block sets of GF(2)^5 and GF(2)^6 whose t-subspaces repeat."""
    for n, k in ((5, 3), (6, 3), (6, 4)):
        blocks = all_subspace_blocks(n, k)
        yield blocks
        yield BlockSet(n, k, blocks.blocks[::3].copy())


CHUNK_SIZES = ((1, 1), (7, 7), (verify.KEY_CHUNK_BLOCKS, verify.KEY_SLICE))


def test_recount_matches_unique_oracle(paper_blocks, monkeypatch):
    slices = paper_slices(paper_blocks, 11, 4)
    cases = [(b, (0, 5, verify.VIOLATION_CAP)) for b in slices]
    cases += [(b, (verify.VIOLATION_CAP, 10**6)) for b in small_designs()]
    for blocks, caps in cases:
        for t in (1, 2):
            for lam in (1, 2):
                for cap in caps:
                    want = verify_reference.verify_design(blocks, t, lam, cap)
                    for chunk, slice_keys in CHUNK_SIZES:
                        monkeypatch.setattr(verify, "KEY_CHUNK_BLOCKS", chunk)
                        monkeypatch.setattr(verify, "KEY_SLICE", slice_keys)
                        got = verify_design(blocks, t, lam, cap)
                        assert format_report(got) == format_report(want)
                        assert list(got.histogram.items()) == list(
                            want.histogram.items()
                        )
                        assert got == want


def test_sorted_keys_match_the_per_pair_builder(paper_blocks, monkeypatch):
    cases = list(paper_slices(paper_blocks, 3, 2)) + list(steiner_designs())
    for blocks in cases:
        n, need = blocks.n, (blocks.num_blocks - 1).bit_length()
        # no owner tag, the derived check's, and tags ending at bit 32, 33, 64
        tags = {0, need, 64 - 2 * n} | {max(need, b - 2 * n) for b in (32, 33)}
        for owner_bits in sorted(tags):
            want = verify_reference.sorted_pair_keys(blocks.blocks, n, owner_bits)
            dtype = verify._key_dtype(n, 2, owner_bits)
            assert dtype == (np.uint32 if 2 * n + owner_bits <= 32 else np.uint64)
            for chunk, _ in CHUNK_SIZES:
                monkeypatch.setattr(verify, "KEY_CHUNK_BLOCKS", chunk)
                got = verify._sorted_keys(blocks.blocks, n, 2, owner_bits)
                assert got.dtype == dtype
                assert np.array_equal(got.astype(np.uint64), want)


def test_absent_key_chunks_share_the_dtype_of_the_sorted_keys(paper_blocks):
    wide = BlockSet(17, 3, np.array([[1, 2, 4], [1, 2, 1 << 16]], dtype=np.uint64))
    for blocks in (all_subspace_blocks(5, 3), paper_blocks, wide):
        n, sample = blocks.n, blocks.blocks[:50]
        for t in (1, 2):
            keys = verify._sorted_keys(sample, n, t)
            assert next(iter(verify._all_keys(n, t))).dtype == keys.dtype, (n, t)
    # 2n key bits: uint32 up to n = 16, uint64 above
    assert verify._key_dtype(13, 2) == np.uint32
    assert verify._key_dtype(17, 2) == np.uint64


def test_paper_recount_matches_unique_oracle(paper_blocks, paper_report):
    want = verify_reference.verify_design(paper_blocks, 2, 1)
    assert format_report(paper_report) == format_report(want)
    assert list(paper_report.histogram.items()) == list(want.histogram.items())


def steiner_designs():
    """Small 2-(n, k, 1) designs: all 2-subspaces, and the whole space."""
    for n in (5, 6):
        yield all_subspace_blocks(n, 2)
    yield BlockSet(5, 5, np.array([[1, 2, 4, 8, 16]], dtype=np.uint64))


def test_derived_check_matches_owner_list_oracle(monkeypatch):
    for blocks in steiner_designs():
        report = verify_design(blocks, 2, 1)
        assert report.ok
        for seed in (0, 3):
            want = verify_reference.derived_steiner_sample_check(
                blocks, samples=500, seed=seed
            )
            for chunk, slice_keys in CHUNK_SIZES:
                monkeypatch.setattr(verify, "KEY_CHUNK_BLOCKS", chunk)
                monkeypatch.setattr(verify, "KEY_SLICE", slice_keys)
                got = derived_steiner_sample_check(
                    blocks, report, samples=500, seed=seed
                )
                assert got == want and got["failures"] == 0


def test_paper_derived_check_matches_owner_list_oracle(paper_blocks, paper_report):
    for seed in (0, 3, 11):
        want = verify_reference.derived_steiner_sample_check(
            paper_blocks, samples=10**5, seed=seed
        )
        got = derived_steiner_sample_check(
            paper_blocks, paper_report, samples=10**5, seed=seed
        )
        assert got == want and got["failures"] == 0


def test_derived_check_asserts_a_one_to_one_index(monkeypatch):
    # every 2-subspace of GF(2)^5 lies in 7 of these blocks; the report lies
    blocks = all_subspace_blocks(5, 3)
    liar = DesignReport(
        n=5, k=3, t=2, lam=1, num_blocks=blocks.num_blocks, total_t_subspaces=155,
        histogram={1: 155}, violations_shown=[], violations_total=0, ok=True,
    )
    for chunk, slice_keys in CHUNK_SIZES:
        monkeypatch.setattr(verify, "KEY_CHUNK_BLOCKS", chunk)
        monkeypatch.setattr(verify, "KEY_SLICE", slice_keys)
        with pytest.raises(AssertionError, match="not one-to-one"):
            derived_steiner_sample_check(blocks, liar, samples=10)


def test_certificates_name_what_a_false_report_hides():
    def claim(blocks):  # a report that every 2-subspace is covered once
        return DesignReport(
            n=5, k=blocks.k, t=2, lam=1, num_blocks=blocks.num_blocks,
            total_t_subspaces=155, histogram={1: 155}, violations_shown=[],
            violations_total=0, ok=True,
        )

    # half of the 2-subspaces: the other half's triples find no block
    every_second = BlockSet(5, 2, all_subspace_blocks(5, 2).blocks[::2].copy())
    got = derived_steiner_sample_check(
        every_second, claim(every_second), samples=2000, seed=1
    )
    want = verify_reference.derived_steiner_sample_check(
        every_second, samples=2000, seed=1
    )
    assert got == want and got["failures"] == 980
    # 3-subspaces of GF(2)^5 that share lines: pairs below distance 4
    first_50 = BlockSet(5, 3, all_subspace_blocks(5, 3).blocks[:50].copy())
    with pytest.raises(AssertionError, match="blocks 25 and 9 are at distance 2 < 4"):
        min_distance_certificate(first_50, claim(first_50), samples=1000, seed=0)


def test_certificates_reject_a_report_of_another_block_set():
    blocks = all_subspace_blocks(5, 2)
    report = verify_design(blocks, 2, 1)
    assert report.ok
    others = [
        all_subspace_blocks(6, 2),  # n differs
        BlockSet(5, 5, np.array([[1, 2, 4, 8, 16]], dtype=np.uint64)),  # k
        BlockSet(5, 2, blocks.blocks[:-1].copy()),  # number of blocks
    ]
    for other in others:
        with pytest.raises(ValueError, match="does not describe this block set"):
            derived_steiner_sample_check(other, report, samples=10)
        with pytest.raises(ValueError, match="does not describe this block set"):
            min_distance_certificate(other, report, samples=10)


def test_certificates_reject_negative_sample_counts():
    blocks = all_subspace_blocks(5, 2)
    report = verify_design(blocks, 2, 1)
    for check in (min_distance_certificate, derived_steiner_sample_check):
        with pytest.raises(ValueError, match="samples >= 0"):
            check(blocks, report, samples=-1)
        check(blocks, report, samples=0)


def traced_peak_mb(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_recount_and_derived_check_stay_below_150_mb(paper_blocks, paper_report):
    # the recount's sorted uint32 pair keys are 11,180,715 * 4 bytes = 43 MiB;
    # the derived check's uint64 index, keys tagged with 21 owner bits, 85 MiB
    assert traced_peak_mb(verify_design, paper_blocks, 2, 1) < 80
    peak = traced_peak_mb(
        derived_steiner_sample_check, paper_blocks, paper_report, samples=10**5
    )
    assert peak < 150


def assert_same_report(got, want):
    assert got == want
    assert format_report(got) == format_report(want)


def test_recount_above_t2_matches_dict_oracle(monkeypatch):
    # all 4-subspaces of GF(2)^6 form a 3-(6, 4, 7) design
    blocks = all_subspace_blocks(6, 4)
    assert blocks.num_blocks == 651
    want = verify_reference.dict_verify_design(blocks, 3, 7)
    assert want.ok and want.histogram == {7: gaussian_binomial(6, 3, 2)}
    assert_same_report(verify_design(blocks, 3, 7), want)
    # a seeded subset covers some 3-subspaces more than twice, some not at all
    rng = np.random.default_rng(17)
    some = BlockSet(6, 4, blocks.blocks[np.sort(rng.choice(651, 120, replace=False))])
    for lam in (1, 2):
        for cap in (0, 1, 5, 10**6):
            want = verify_reference.dict_verify_design(some, 3, lam, cap)
            assert min(want.histogram) < lam < max(want.histogram)
            for chunk, slice_keys in CHUNK_SIZES:
                monkeypatch.setattr(verify, "KEY_CHUNK_BLOCKS", chunk)
                monkeypatch.setattr(verify, "KEY_SLICE", slice_keys)
                assert_same_report(verify_design(some, 3, lam, cap), want)
    # t = 4: all 5-subspaces of GF(2)^6 are a 4-(6, 5, 3) design
    blocks = all_subspace_blocks(6, 5)
    for subset in (blocks, BlockSet(6, 5, blocks.blocks[::4].copy())):
        for cap in (0, 5, 10**6):
            want = verify_reference.dict_verify_design(subset, 4, 3, cap)
            assert_same_report(verify_design(subset, 4, 3, cap), want)
    assert verify_design(blocks, 4, 3).ok
