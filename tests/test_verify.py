"""Design verification against independent recounts and known controls."""

import re
from collections import Counter

import numpy as np
import pytest

from qsteiner import cli, verify
from qsteiner.exact_cover import CoverProblem, SolveConfig, solve
from qsteiner.gf2 import FormatError
from qsteiner.groups import orbit_partition, singer_normalizer
from qsteiner.subspace import (
    Subspace,
    enumerate_subspaces,
    gaussian_binomial,
    span,
    subspaces_of,
)
from qsteiner.verify import (
    BlockSet,
    derived_steiner_sample_check,
    expand_orbits,
    format_report,
    min_distance_certificate,
    packing_bound,
    verify_design,
)


def recount_histogram(blocks, t):
    """Coverage histogram by plain dict counting over enumerated t-subspaces."""
    counts = Counter()
    for i in range(blocks.num_blocks):
        for sub in subspaces_of(blocks.subspace(i), t):
            counts[sub.rows] += 1
    hist = Counter(counts.values())
    missed = gaussian_binomial(blocks.n, t, 2) - len(counts)
    if missed:
        hist[0] = missed
    return dict(hist)


def make_spread():
    subs = list(enumerate_subspaces(4, 2))
    opts = [(i, sorted(v for v in s.vectors() if v)) for i, s in enumerate(subs)]
    prob = CoverProblem(item_ids=list(range(1, 16)), options=opts)
    sols, _ = solve(prob, SolveConfig(max_solutions=1))
    return BlockSet.from_subspaces([subs[i] for i in sols[0].labels])


def test_blockset_accessors_and_round_trip(tmp_path):
    bs = make_spread()
    assert bs.num_blocks == 5 and bs.n == 4 and bs.k == 2
    subs = [bs.subspace(i) for i in range(bs.num_blocks)]
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
    return expand_orbits(group, list(orbit_partition(group, k).reps))[0]


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


def test_expand_orbits_counts_and_rejects_mixed_dims():
    group = singer_normalizer(6)
    table = orbit_partition(group, 3)
    reps = table.reps[: min(3, table.num_orbits)]
    blocks, lengths = expand_orbits(group, reps)
    assert blocks.num_blocks == sum(lengths)
    assert len(lengths) == len(reps)
    seen = {blocks.subspace(i).key for i in range(blocks.num_blocks)}
    assert len(seen) == blocks.num_blocks
    t2 = orbit_partition(group, 2)
    with pytest.raises(ValueError):
        expand_orbits(group, [table.reps[0], t2.reps[0]])


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
    table = orbit_partition(group, 2)
    reps = list(table.reps)
    blocks, _ = expand_orbits(group, reps)
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
    blocks, _ = expand_orbits(group, list(orbit_partition(group, 2).reps))
    some = BlockSet(5, 2, blocks.blocks[:7].copy())
    for t in (1, 2):
        covered = {
            sub.rows
            for i in range(some.num_blocks)
            for sub in subspaces_of(some.subspace(i), t)
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
    lost = {sub.rows for sub in subspaces_of(paper_blocks.subspace(-1), 2)}
    assert {rows for rows, _ in report.violations_shown} == lost


def test_paper_design_certificates(paper_blocks, paper_report):
    assert min_distance_certificate(paper_blocks, paper_report, samples=20000, seed=3) == 4
    out = derived_steiner_sample_check(paper_blocks, paper_report, samples=2000, seed=3)
    assert out["failures"] == 0 and out["examples"] == []
    assert out["tested"] > 0
