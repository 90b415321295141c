"""Design verification against independent recounts and known controls."""

import itertools
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import verify_reference
from qsteiner import cli, fixtures, gf2, verify
from qsteiner.exact_cover import CoverProblem, SolveConfig, solve
from qsteiner.gf2 import FormatError
from qsteiner.groups import (
    MatrixGroup,
    expand_orbits,
    group_closure,
    orbit_partition,
    singer_normalizer,
)
from qsteiner.subspace import (
    Subspace,
    gaussian_binomial,
    key_chunks,
    key_order,
    span,
)
from subspace_reference import enumerate_subspaces, vectors
from verify_reference import subspaces_of
from qsteiner.verify import (
    BlockSet,
    DesignReport,
    derived_steiner_sample_check,
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
    """Every k-subspace of GF(2)^n as a block set in ascending key order."""
    group = singer_normalizer(n)
    blocks = expand_orbits(group, orbit_partition(group, k).rows)[0].blocks
    return BlockSet(n, k, blocks[key_order(blocks)])


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


@pytest.mark.parametrize(
    "n,dtype",
    [
        (1, np.uint8),
        (8, np.uint8),
        (9, np.uint16),
        (16, np.uint16),
        (17, np.uint32),
        (32, np.uint32),
        (33, np.uint64),
        (64, np.uint64),
    ],
)
def test_block_rows_are_kept_in_the_least_dtype_of_n_bits(tmp_path, n, dtype):
    rows = [[1]] + ([[1 << (n - 1)]] if n > 1 else [])
    blocks = BlockSet(n, 1, np.array(rows, dtype=np.uint64))
    assert blocks.blocks.dtype == dtype and blocks.blocks.tolist() == rows
    blocks.save(tmp_path / "blocks.txt")
    loaded = BlockSet.load(str(tmp_path / "blocks.txt"))
    assert loaded.blocks.dtype == dtype and loaded.blocks.tolist() == rows


def test_rows_wider_than_n_are_refused_before_they_are_narrowed():
    # cast to uint8 or uint16 first, bit 8 or bit 20 would be dropped and
    # leave valid blocks; a negative entry is as wide as its dtype
    cases = [
        (4, [[1 | 1 << 8]], np.uint64),
        (4, [[1 | 1 << 8]], np.int64),
        (13, [[1, 2 | 1 << 20]], np.uint64),
        (13, [[1, 2 | 1 << 20]], np.uint32),
        (4, [[-1]], np.int64),
    ]
    for n, rows, dtype in cases:
        with pytest.raises(ValueError, match="fit in n bits"):
            BlockSet(n, len(rows[0]), np.array(rows, dtype=dtype))


def test_blockset_checks_every_chunk(monkeypatch):
    monkeypatch.setattr(gf2, "RREF_CHUNK_ROWS", 2)
    rows = [[1, 2], [1, 4], [2, 4], [1, 6], [2, 8]]
    assert BlockSet(4, 2, np.array(rows, dtype=np.uint64)).num_blocks == 5
    for bad, message in (([3, 2], "echelon"), ([1, 0], "dimension")):
        with pytest.raises(ValueError, match=message):
            BlockSet(4, 2, np.array(rows + [bad], dtype=np.uint64))
    # a block of rank below k names the fault, after an unreduced chunk too
    with pytest.raises(ValueError, match="dimension"):
        BlockSet(4, 2, np.array([[3, 2]] + rows + [[1, 0]], dtype=np.uint64))


def random_blocks(rng, num, k, n):
    """Up to num distinct (k,) RREF bases of random k-dim subspaces of GF(2)^n."""
    red, ranks = gf2.rref_bulk(rng.integers(1, 1 << n, size=(num, k), dtype=np.uint64))
    return rng.permutation(np.unique(red[ranks == k], axis=0))


def rref_faults(rng, rows):
    """Copies of distinct RREF bases with one fault planted in a random
    block: a zero row; for k > 1 also two rows swapped, a row holding a
    later row's pivot, a later row holding an earlier one's, a row repeated."""
    k = rows.shape[1]
    faults = ["zero"]
    if k > 1:
        faults += ["swap", "unreduced", "descending", "repeat"]
    for fault in faults:
        bad = rows.copy()
        block = bad[rng.integers(len(bad))]
        i, j = np.sort(rng.choice(k, 2, replace=False)) if k > 1 else (0, 0)
        if fault == "zero":
            block[j] = 0
        elif fault == "swap":
            block[[i, j]] = block[[j, i]]
        elif fault == "unreduced":
            block[i] ^= block[j]
        elif fault == "descending":
            block[j] ^= block[i]
        else:
            block[j] = block[i]
        yield bad


def test_blockset_rref_predicate_matches_the_rref_oracle(monkeypatch):
    rng = np.random.default_rng(29)
    chunks = (1, 7, gf2.RREF_CHUNK_ROWS)
    n = 7
    for k in range(1, 6):
        valid = random_blocks(rng, 60, k, n)
        raw = np.unique(rng.integers(0, 1 << n, size=(60, k), dtype=np.uint64), axis=0)
        mixed = rng.permutation(np.unique(np.concatenate([valid, raw]), axis=0))
        cases = [valid, raw, mixed]
        cases += list(rref_faults(rng, valid))
        cases.append(np.concatenate(list(rref_faults(rng, valid[:9]))))
        for rows in cases:
            red, ranks = gf2.rref_bulk(rows)
            each = (ranks == k) & np.all(red == rows, axis=1)
            assert [gf2.in_rref(rows[i : i + 1]) for i in range(len(rows))] == (
                each.tolist()
            )
            want = verify_reference.rref_block_error(rows, k)
            for chunk in chunks:
                monkeypatch.setattr(gf2, "RREF_CHUNK_ROWS", chunk)
                if want is None:
                    assert BlockSet(n, k, rows).num_blocks == len(rows)
                    continue
                with pytest.raises(ValueError) as exc:
                    BlockSet(n, k, rows)
                assert str(exc.value) == want, (k, chunk)


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
            before = planted.copy()
            assert gf2.first_duplicate(planted, n) == first_duplicate_by_dict(
                planted
            ) == (i, j), (n, k)
            assert np.array_equal(planted, before)  # the words sort, not the rows


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


def test_the_recount_does_not_rely_on_the_block_set_checks(paper_blocks):
    # expand_orbits builds its BlockSet without the checks of __post_init__:
    # the recount alone fails a dependent or repeated block, and passes a
    # block given by another basis of its subspace
    rows = paper_blocks.blocks.copy()
    unchecked = BlockSet.__new__(BlockSet)
    unchecked.n, unchecked.k, unchecked.blocks = 13, 3, rows
    a, b, c = rows[0].tolist()
    for block in ([a, a, b], rows[1].tolist()):
        rows[0] = block
        report = verify_design(unchecked, 2, 1)
        assert not report.ok and report.histogram != {1: 11180715}, block
    for block in ([a ^ b, b ^ c, c], [c, a, b]):
        rows[0] = block
        assert not gf2.in_rref(rows[:1])
        report = verify_design(unchecked, 2, 1)
        assert report.ok and report.histogram == {1: 11180715}, block


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


# blocks per chunk of the counting pass, counter entries per read; the
# defaults are read once, as the tests below patch them
CHUNK, SLICE = verify.KEY_CHUNK_BLOCKS, verify.COUNT_SLICE
CHUNK_SIZES = (1, 7, CHUNK)


# the most t-subspaces a counter read in small slices may have
SMALL_COUNTER = 10**4


def count_slices(n, t):
    """Counter entries per read to try: small ones where the counter is."""
    if gaussian_binomial(n, t, 2) > SMALL_COUNTER:
        return (SLICE,)
    return (1, 7, SLICE)


def assert_recount_matches(
    monkeypatch, blocks, t, want, lam, cap, chunks=CHUNK_SIZES
):
    """verify_design gives want for every chunk size and every counter
    slice size; the counting pass and the reads of the counter are
    separate stages, so each size is tried beside the other's default."""
    sizes = [(chunk, SLICE) for chunk in chunks]
    sizes += [(CHUNK, size) for size in count_slices(blocks.n, t)]
    for chunk, size in dict.fromkeys(sizes):  # the pair of defaults once
        monkeypatch.setattr(verify, "KEY_CHUNK_BLOCKS", chunk)
        monkeypatch.setattr(verify, "COUNT_SLICE", size)
        got = verify_design(blocks, t, lam, cap)
        assert format_report(got) == format_report(want)
        assert got == want
        # present counts ascending, then 0
        assert list(got.histogram) == sorted(set(got.histogram) - {0}) + [0] * (
            0 in got.histogram
        )


def test_recount_matches_unique_oracle(paper_blocks, monkeypatch):
    slices = paper_slices(paper_blocks, 11, 4)
    cases = [(b, (0, 5, verify.VIOLATION_CAP)) for b in slices]
    cases += [(b, (verify.VIOLATION_CAP, 10**6)) for b in small_designs()]
    for blocks, caps in cases:
        for t in (1, 2):
            for i, (lam, cap) in enumerate(itertools.product((1, 2), caps)):
                want = verify_reference.verify_design(blocks, t, lam, cap)
                # the count depends on neither lam nor cap: a large counter
                # (the paper's lines, 21.3 MiB) is filled at every chunk size
                # for the first pair only
                large = gaussian_binomial(blocks.n, t, 2) > SMALL_COUNTER
                chunks = (CHUNK,) if large and i else CHUNK_SIZES
                assert_recount_matches(monkeypatch, blocks, t, want, lam, cap, chunks)


def test_recount_counts_a_line_in_511_blocks(monkeypatch):
    # 3-subspaces through the line <e0, e1> of GF(2)^11, up to all 511,
    # and <e2, e3, e4>, so that more than 255 blocks may share a line: the
    # uint8 counter wraps at 256, and only then are the blocks counted
    # again, in uint16; a count of 256 must not read as 0
    passes = []

    def spy(blocks, ranking, chunks=verify._ranked_chunks):
        passes.append(ranking.t)
        return chunks(blocks, ranking)

    monkeypatch.setattr(verify, "_ranked_chunks", spy)
    for num in (255, 256, 511):
        rest = np.arange(1, num + 1, dtype=np.uint64) << np.uint64(2)
        rows = np.stack([np.ones_like(rest), np.full_like(rest, 2), rest], axis=1)
        other = np.array([[4, 8, 16]], dtype=np.uint64)
        blocks = BlockSet(11, 3, np.concatenate([rows, other]))
        for t in (1, 2):
            passes.clear()
            counts, _ = verify._coverage_counts(blocks.blocks, verify._Ranking(11, t))
            assert counts.max() == num
            assert counts.dtype == (np.uint8 if num < 256 else np.uint16)
            assert passes == [t] * (1 + (num >= 256))
        for lam, cap in ((1, 5), (1, verify.VIOLATION_CAP), (num, 3), (2, 1000)):
            want = verify_reference.verify_design(blocks, 2, lam, cap)
            assert want.histogram[num] == 1
            assert_recount_matches(monkeypatch, blocks, 2, want, lam, cap)
        # t = 1: each point of the line lies in every block
        want = verify_reference.verify_design(blocks, 1, 1, 10)
        assert want.histogram[num] == 3
        assert_recount_matches(monkeypatch, blocks, 1, want, 1, 10)


def test_recount_counter_holds_at_most_the_block_count():
    # [23, 11]_2 passes 2^64: only the block count bounds the counter
    blocks = BlockSet(24, 12, np.array([[1 << i for i in range(12)]], np.uint64))
    counts, _ = verify._coverage_counts(blocks.blocks, verify._Ranking(24, 1))
    assert counts.dtype == np.uint8
    report = verify_design(blocks, 1, 1, 3)
    assert report.histogram == {1: 4095, 0: (1 << 24) - 4096}
    assert report.violations_shown == [((v,), 0) for v in (4096, 4097, 4098)]


def test_recount_of_sparse_random_block_sets_matches_the_oracles(monkeypatch):
    # few random blocks: the absent t-subspaces fill the capped list
    rng = np.random.default_rng(41)
    capped = 0
    for n, k, num in ((7, 3, 5), (7, 4, 12), (10, 2, 40), (6, 5, 40)):
        blocks = BlockSet(n, k, np.unique(random_blocks(rng, num, k, n), axis=0))
        assert blocks.num_blocks > 1
        for t in range(1, k + 1):
            for lam, cap in ((1, 0), (1, 7), (2, verify.VIOLATION_CAP)):
                if t <= 2:
                    want = verify_reference.verify_design(blocks, t, lam, cap)
                else:
                    want = verify_reference.dict_verify_design(blocks, t, lam, cap)
                capped += want.histogram.get(0, 0) > cap > 0
                assert_recount_matches(monkeypatch, blocks, t, want, lam, cap)
    assert capped >= 10


def ranked_order(n, t):
    """Every t-subspace of GF(2)^n as RREF rows, in the recount's key
    order: by point for t = 1, by (lo, mid) for t = 2 (see
    verify_reference._line_keys), by packed key above."""
    if t == 1:
        return [(v,) for v in range(1, 1 << n)]
    if t == 2:
        keys = np.concatenate(list(verify_reference._pair_key_chunks(n)))
        return [verify_reference._key_rows(key, n, 2) for key in keys.tolist()]
    return [tuple(rows) for _, chunk in key_chunks(n, t) for rows in chunk.tolist()]


def test_ranks_ascend_with_the_key_and_unrank_inverts_them():
    for n in range(1, 9):
        for t in range(1, n + 1):
            ranking = verify._Ranking(n, t)
            assert ranking.total == gaussian_binomial(n, t, 2)
            assert ranking.dtype == np.uint32
            subs = ranked_order(n, t)
            assert len(subs) == ranking.total
            # every t-subspace, as the one block of a block set of GF(2)^n
            blocks = np.array(subs, dtype=np.uint64)
            ranks = np.empty((1, len(subs)), dtype=ranking.dtype)
            points = np.empty(((1 << t) - 1, len(subs)), dtype=ranking.dtype)
            ranking.fill(blocks, ranks, points)
            assert np.array_equal(ranks[0], np.arange(ranking.total)), (n, t)
            assert [ranking.rows(r) for r in range(ranking.total)] == subs, (n, t)


def test_line_ranks_follow_the_sorted_pair_keys(paper_blocks):
    wide = BlockSet(17, 3, np.array([[1, 2, 4], [1, 2, 1 << 16]], dtype=np.uint64))
    cases = list(paper_slices(paper_blocks, 3, 2)) + list(steiner_designs()) + [wide]
    for blocks in cases:
        n, (num, k) = blocks.n, blocks.blocks.shape
        ranking = verify._Ranking(n, 2)
        ranks = np.empty((gaussian_binomial(k, 2, 2), num), dtype=ranking.dtype)
        points = np.empty(((1 << k) - 1, num), dtype=ranking.dtype)
        ranking.fill(blocks.blocks, ranks, points)
        ranks, repeats = np.unique(ranks, return_counts=True)
        keys, want = np.unique(
            verify_reference.sorted_pair_keys(blocks.blocks, n), return_counts=True
        )
        # ascending ranks are the ascending keys, as often
        assert np.array_equal(repeats, want)
        assert [ranking.rows(r) for r in ranks.tolist()] == [
            verify_reference._key_rows(key, n, 2) for key in keys.tolist()
        ]


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
            assert verify_reference.owner_tagged_derived_check(
                blocks, samples=500, seed=seed
            ) == want
            for chunk in CHUNK_SIZES:
                monkeypatch.setattr(verify, "KEY_CHUNK_BLOCKS", chunk)
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
        tagged = verify_reference.owner_tagged_derived_check(
            paper_blocks, samples=10**5, seed=seed
        )
        assert got == tagged


def test_paper_distance_certificate_matches_the_stacked_oracle(
    paper_blocks, paper_report
):
    # 0 samples: the sampled minimum stays 2k, and a pair through a common
    # point must attain the bound
    for samples, seed in ((10**6, 0), (10**6, 3), (10**6, 11), (0, 0)):
        want = verify_reference.stacked_min_distance(paper_blocks, 2, samples, seed)
        got = min_distance_certificate(paper_blocks, paper_report, samples, seed)
        assert got == want == 4


def test_distance_kernel_matches_the_stacked_rref(paper_blocks):
    # the rows in every unsigned dtype that holds n bits, and in pairs of
    # two such dtypes
    dtypes = [np.dtype(d) for d in (np.uint8, np.uint16, np.uint32, np.uint64)]
    rng = np.random.default_rng(23)
    for k in range(1, 6):
        for n in (k, k + 2, 8, 9, 13, 16, 17, 32, 33):
            rows = random_blocks(rng, 400, k, n)
            # random pairs, equal pairs and pairs that share k - 1 rows
            i = rng.integers(0, len(rows), size=2000)
            j = rng.integers(0, len(rows), size=2000)
            a, b = rows[i], rows[j]
            b[:500] = a[:500]
            near = b[500:1000].copy()
            near[:, 1:] = a[500:1000, 1:]
            red, ranks = gf2.rref_bulk(near)
            b[500:1000][ranks == k] = red[ranks == k]
            want = verify_reference.stacked_distances(a, b)
            fits = [d for d in dtypes if d.itemsize * 8 >= n]
            for da, db in itertools.product(fits, fits):
                got = verify._residue_ranks(a.astype(da), b.astype(db))
                assert np.array_equal(2 * got, want), (k, n, da, db)
    # the pairs the paper's certificate draws first for seed 0
    draw = np.random.default_rng(0)
    i = draw.integers(0, paper_blocks.num_blocks, size=1 << 16)
    j = draw.integers(0, paper_blocks.num_blocks, size=1 << 16)
    a, b = paper_blocks.blocks[i], paper_blocks.blocks[j]
    want = verify_reference.stacked_distances(a, b)
    assert np.array_equal(2 * verify._residue_ranks(a, b), want)
    assert set(want[i != j].tolist()) == {4, 6}


def test_distance_certificate_does_not_depend_on_the_block_size(
    paper_blocks, paper_report, monkeypatch
):
    # the same pairs at the same distances, and the same failure witness,
    # in slices of 1, 7 and the default number of pairs as in one slice
    # per batch of 2^16 draws
    def distances(size, blocks, report, samples, seed):
        got = []

        def spy(a, b, ranks=verify._residue_ranks):
            got.append(ranks(a, b))
            return got[-1]

        with monkeypatch.context() as m:
            m.setattr(verify, "_residue_ranks", spy)
            m.setattr(verify, "RREF_CHUNK_ROWS", size)
            try:
                result = min_distance_certificate(blocks, report, samples, seed)
            except AssertionError as exc:
                result = str(exc)
        return result, np.concatenate(got) if got else None

    claim = DesignReport(
        n=5, k=3, t=2, lam=1, num_blocks=50, total_t_subspaces=155,
        histogram={1: 155}, violations_shown=[], violations_total=0, ok=True,
    )
    first_50 = BlockSet(5, 3, all_subspace_blocks(5, 3).blocks[:50].copy())
    cases = [
        (paper_blocks, paper_report, 0, 4),
        (paper_blocks, paper_report, 1, 4),
        (paper_blocks, paper_report, 3000, 5),
        (first_50, claim, 1000, 0),
    ]
    many = (paper_blocks, paper_report, (1 << 16) + 99, 6)
    want = [distances(1 << 16, *case) for case in cases + [many]]
    assert [result for result, _ in want[:3]] == [4, 4, 4]
    assert want[3][0].startswith("blocks 25 and 9 are at distance 2 < 4")
    for size in (1, 7, gf2.RREF_CHUNK_ROWS):
        # 2^16 slices of one pair each take too long
        for case, (result, dist) in zip(cases if size == 1 else cases + [many], want):
            got, got_dist = distances(size, *case)
            assert got == result and np.array_equal(got_dist, dist), size


def test_derived_check_asserts_a_one_to_one_index(monkeypatch):
    # every 2-subspace of GF(2)^5 lies in 7 of these blocks; the report lies
    blocks = all_subspace_blocks(5, 3)
    liar = DesignReport(
        n=5, k=3, t=2, lam=1, num_blocks=blocks.num_blocks, total_t_subspaces=155,
        histogram={1: 155}, violations_shown=[], violations_total=0, ok=True,
    )
    for chunk in CHUNK_SIZES:
        monkeypatch.setattr(verify, "KEY_CHUNK_BLOCKS", chunk)
        with pytest.raises(AssertionError, match="not one-to-one"):
            derived_steiner_sample_check(blocks, liar, samples=10)


def test_derived_check_finds_a_block_repeated_under_another_basis():
    # the report passed on the intact design; then block 1 becomes block 0
    # under a second basis, so block 0's line lies in two blocks, and 2000
    # sampled triples of GF(2)^5 meet each of its 155 lines
    blocks = all_subspace_blocks(5, 2)
    report = verify_design(blocks, 2, 1)
    twin = BlockSet(5, 2, blocks.blocks.copy())
    a, b = twin.blocks[0].tolist()
    twin.blocks[1] = [a ^ b, b]
    for seed in (0, 3):
        assert derived_steiner_sample_check(blocks, report, 2000, seed)["failures"] == 0
        with pytest.raises(AssertionError, match="not one-to-one"):
            derived_steiner_sample_check(twin, report, 2000, seed)


def test_derived_check_names_triples_outside_their_covering_block(monkeypatch):
    # each sampled line is said to lie in the next block, which holds it
    # in no 2-(6, 2, 1) design: the containment of the three difference
    # vectors fails, and the examples are sampled triples
    blocks = all_subspace_blocks(6, 2)
    report = verify_design(blocks, 2, 1)
    marks = verify._marked_hits

    def next_block(*args):
        ranks, held = marks(*args)
        return ranks, (held + 1) % blocks.num_blocks

    monkeypatch.setattr(verify, "_marked_hits", next_block)
    stats = derived_steiner_sample_check(blocks, report, samples=500, seed=5)
    rng, drawn, done = np.random.default_rng(5), set(), 0
    while done < 500:  # the check's draws
        x, y, z = (rng.integers(0, 64, size=500 - done, dtype=np.uint64) for _ in "xyz")
        keep = (x != y) & (x != z) & (y != z)
        drawn |= set(zip(x[keep].tolist(), y[keep].tolist(), z[keep].tolist()))
        done += int(keep.sum())
    assert stats["failures"] > 0
    assert 0 < len(stats["examples"]) <= 10
    assert set(stats["examples"]) <= drawn


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
    tagged = verify_reference.owner_tagged_derived_check(
        every_second, samples=2000, seed=1
    )
    assert got == tagged
    # 3-subspaces of GF(2)^5 that share lines: pairs below distance 4
    first_50 = BlockSet(5, 3, all_subspace_blocks(5, 3).blocks[:50].copy())
    witness = "blocks 25 and 9 are at distance 2 < 4"
    with pytest.raises(AssertionError, match=witness):
        min_distance_certificate(first_50, claim(first_50), samples=1000, seed=0)
    with pytest.raises(AssertionError, match=witness):
        verify_reference.stacked_min_distance(first_50, 2, samples=1000, seed=0)


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


def test_certificates_reject_negative_sample_counts(monkeypatch):
    blocks = all_subspace_blocks(5, 2)
    report = verify_design(blocks, 2, 1)
    for check in (min_distance_certificate, derived_steiner_sample_check):
        with pytest.raises(ValueError, match="samples >= 0"):
            check(blocks, report, samples=-1)
        check(blocks, report, samples=0)
    # 0 samples rank no block's lines
    ranked = []
    monkeypatch.setattr(verify, "_ranked_chunks", lambda *args: ranked.append(args))
    got = derived_steiner_sample_check(blocks, report, samples=0)
    assert got == {"samples": 0, "tested": 0, "failures": 0, "examples": []}
    assert not ranked


def traced_peak_mb(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_recount_and_derived_check_stay_below_150_mb(paper_blocks, paper_report):
    # the recount's uint8 counter of the 11,180,715 lines is 10.7 MiB (14.3
    # MiB traced; 26.0 with a uint16 counter, and the sorted uint32 keys it
    # replaced were 42.7 MiB); the derived check adds a 10.7 MiB bool map
    # of the sampled lines' ranks (sorting the keys again took 45 MiB
    # traced; an owner-tagged uint64 index took 101)
    assert traced_peak_mb(verify_design, paper_blocks, 2, 1) < 20
    peak = traced_peak_mb(
        derived_steiner_sample_check, paper_blocks, paper_report, samples=10**5
    )
    assert peak < 45
    # per batch of 2^16 pairs, two (N, 3) gathers and their residues
    # (14 MiB traced; row-reducing the stacked (N, 6) rows took 19)
    peak = traced_peak_mb(
        min_distance_certificate, paper_blocks, paper_report, samples=10**6
    )
    assert peak < 16


def test_expansion_and_closure_stay_below_25_and_12_mb(paper_group):
    # the paper's 1,597,245 x 3 blocks are 9.1 MiB in uint16, 36.6 MiB in
    # uint64 (48.3 MiB traced expansion); the closure counts the frontiers
    # it finds rather than keep them (23.6 MiB traced when all 106,483 x 13
    # rows were kept)
    reps = fixtures.solution_representatives()
    assert traced_peak_mb(expand_orbits, paper_group, reps) < 25
    group = MatrixGroup(n=paper_group.n, generators=paper_group.generators)
    assert traced_peak_mb(group_closure, group) < 12


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
            assert_recount_matches(monkeypatch, some, 3, want, lam, cap)
    # t = 4: all 5-subspaces of GF(2)^6 are a 4-(6, 5, 3) design
    blocks = all_subspace_blocks(6, 5)
    for subset in (blocks, BlockSet(6, 5, blocks.blocks[::4].copy())):
        for cap in (0, 5, 10**6):
            want = verify_reference.dict_verify_design(subset, 4, 3, cap)
            assert_same_report(verify_design(subset, 4, 3, cap), want)
    assert verify_design(blocks, 4, 3).ok
