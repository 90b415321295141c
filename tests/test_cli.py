"""Command line interface: exit codes, file outputs, determinism."""

import re
from pathlib import Path

import numpy as np
import pytest

from qsteiner import cli, fixtures
from qsteiner.fixtures import FIXTURE_SHA256
from qsteiner.groups import StrategyError
from qsteiner.verify import BlockSet


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bounds_prints_counts(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "13", "--k", "3", "--t", "2")
    assert code == 0
    assert "[13 3]_2 = 3269560515" in out
    assert "packing bound for t=2: 1597245" in out
    assert "no spreads: 3 does not divide 13" in out


def test_bounds_reports_non_integral_bound(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "5", "--k", "3", "--t", "2")
    assert code == 0
    assert "155/7 is not an integer" in out


def test_strategy_error_is_a_resource_limit(monkeypatch, capsys):
    def refuse(group, k):
        raise StrategyError("orbit exceeded the traversal cap 1")

    monkeypatch.setattr(cli, "orbit_partition", refuse)
    code, _, err = run(capsys, "orbits", "--trivial-group", "--n", "4", "--dim", "2")
    assert code == 3
    assert "limit: orbit exceeded the traversal cap 1" in err


def test_out_of_range_dimensions_are_usage_errors(tmp_path, capsys):
    code, _, err = run(capsys, "orbits", "--trivial-group", "--n", "3", "--dim", "5")
    assert code == 2 and "error: need 0 <= dim <= n = 3" in err
    trivial = ("orbits", "--trivial-group", "--dim", "0", "--n")
    singer = ("orbits", "--dim", "1", "--singer-normalizer")
    no_polynomial = "--singer-normalizer: no primitive polynomial tabulated for degree"
    for argv, message in (
        ((*trivial, "0"), "need 1 <= n <= 64"),
        ((*trivial, "65"), "need 1 <= n <= 64"),
        ((*trivial, "-1"), "need 1 <= n <= 64"),
        ((*singer, "1"), f"{no_polynomial} 1"),
        ((*singer, "40"), f"{no_polynomial} 40"),
        ((*singer, "5", "--n", "7"), "--singer-normalizer 5 forces n=5"),
        (("spread-demo", "--k", "0"), "spread demo needs k >= 2"),
        (("spread-demo", "--n", "0"), "spread demo is meant for small n (1 to 10)"),
        (("km", "--trivial-group", "--n", "3", "--t", "1", "--k", "2", "--lambda", "0"),
         "need lambda >= 1"),
    ):
        code, _, err = run(capsys, "--out-dir", str(tmp_path), *argv)
        assert code == 2 and f"error: {message}" in err, argv
    path = str(tmp_path / "blocks.txt")
    BlockSet(4, 2, np.array([[1, 2], [4, 8]], dtype=np.uint64)).save(path)
    for flags, message in (
        (("--t", "4"), "error: need 0 < t <= k = 2"),
        (("--t", "0"), "error: need 0 < t <= k = 2"),
        (("--lambda", "0"), "error: need lambda >= 1"),
    ):
        code, _, err = run(
            capsys, "--out-dir", str(tmp_path), "verify", "--blocks", path, *flags
        )
        assert code == 2 and message in err, flags


def test_oversized_enumerations_are_limits(tmp_path, capsys):
    # 53,743,987 subspaces: refused before any of them is built
    code, _, err = run(
        capsys, "--out-dir", str(tmp_path),
        "orbits", "--trivial-group", "--n", "10", "--dim", "4",
    )
    assert code == 3
    assert "limit: 53743987 subspaces exceed the enumeration guard 20000000" in err
    # one 3-dim block of GF(2)^13 and the 3269560515 3-subspaces of the space
    path = str(tmp_path / "blocks.txt")
    BlockSet(13, 3, np.array([[1, 2, 4]], dtype=np.uint64)).save(path)
    code, _, err = run(
        capsys, "--out-dir", str(tmp_path), "verify", "--blocks", path, "--t", "3"
    )
    assert code == 3
    assert "limit: 3269560515 t-subspaces exceed the verification budget" in err


def test_spread_demo_counts_56(capsys):
    code, out, _ = run(capsys, "spread-demo")
    assert code == 0
    assert "56 spreads" in out
    assert "first spread verification: pass" in out
    # spreads come from the t = 1 KM system, which needs 1 < k
    code, _, err = run(capsys, "spread-demo", "--k", "1")
    assert code == 2 and "k >= 2" in err


def test_group_command_writes_file(tmp_path, capsys):
    code, out, _ = run(
        capsys, "--out-dir", str(tmp_path), "group", "--singer-normalizer", "5"
    )
    assert code == 0 and "group order 155" in out
    group_file = tmp_path / "group.txt"
    text = group_file.read_text()
    assert "order 155" in text
    # the file is a generator file: its table is the normalizer's own
    direct = saved_table(tmp_path, capsys, 5, 2)
    want = Path(direct).read_bytes()
    Path(direct).unlink()
    orbits = ("--out-dir", str(tmp_path), "orbits", "--dim", "2")
    code, _, err = run(capsys, *orbits, "--generators", str(group_file))
    assert code == 0, err
    assert Path(direct).read_bytes() == want
    lines = text.split("\n")

    def with_line(at, new):
        return "\n".join(lines[:at] + [new] + lines[at + 1 :])

    def flipped(at):  # the first bit of a row
        return with_line(at, "10"[int(lines[at][0])] + lines[at][1:])

    row = lines.index("# generator 0") + 1
    for edit, message in (
        (flipped(row), "hash line reads d7c17a31acb9ce56, the generators give "
                       "7bc8eaeb785ef25e"),
        (flipped(row + 1), "generators must be invertible"),
        (with_line(row, "0x001"), f"line {row + 1}: expected a row of 0/1"),
        (with_line(lines.index("n 5"), "n 6"), "n line reads 6, the generators give 5"),
    ):
        group_file.write_text(edit)
        code, _, err = run(capsys, *orbits, "--generators", str(group_file))
        assert code == 2 and f"error: {group_file}: {message}" in err, err


def test_full_pipeline_on_trivial_group(tmp_path, capsys):
    # each command reads the files the one before wrote
    out_dir = str(tmp_path)
    code, _, _ = run(
        capsys, "--out-dir", out_dir, "group", "--trivial-group", "--n", "4"
    )
    assert code == 0
    group = ("--generators", str(tmp_path / "group.txt"))
    for dim in ("1", "2"):
        code, out, _ = run(capsys, "--out-dir", out_dir, "orbits", *group, "--dim", dim)
        assert code == 0
    assert (tmp_path / "orbits-n4-k1.txt").exists()
    assert (tmp_path / "orbits-n4-k2.txt").exists()

    code, out, _ = run(
        capsys,
        "--out-dir", out_dir,
        "km", *group, "--t", "1", "--k", "2",
        "--t-orbits", str(tmp_path / "orbits-n4-k1.txt"),
        "--k-orbits", str(tmp_path / "orbits-n4-k2.txt"),
    )
    assert code == 0 and "15 x 35" in out
    pruned = tmp_path / "km-n4-t1-k2-pruned.txt"
    assert pruned.exists() and (tmp_path / "km-n4-t1-k2-full.txt").exists()

    code, out, _ = run(
        capsys,
        "--out-dir", out_dir,
        "solve", "--km", str(pruned), "--max-solutions", "all",
    )
    assert code == 0
    assert re.search(
        r"^56 solutions, \d+ nodes, max depth 5, elapsed \d+\.\ds, \d+ nodes/s$",
        out,
        re.MULTILINE,
    )

    code, out, _ = run(
        capsys,
        "--out-dir", out_dir,
        "expand", *group,
        "--k-orbits", str(tmp_path / "orbits-n4-k2.txt"),
        "--solution", str(tmp_path / "solutions.txt"),
    )
    assert code == 0 and "5 distinct blocks" in out

    code, out, _ = run(
        capsys,
        "--out-dir", out_dir,
        "verify", "--blocks", str(tmp_path / "blocks.txt"),
        "--t", "1", "--lambda", "1",
    )
    assert code == 0
    assert "verification passed" in out
    assert "histogram {1: 15}" in out
    assert (tmp_path / "report.txt").read_text().endswith("VERDICT pass\n")


def test_verify_failure_returns_1(tmp_path, capsys):
    out_dir = str(tmp_path)
    run(capsys, "--out-dir", out_dir, "orbits", "--trivial-group", "--n", "4", "--dim", "2")
    run(
        capsys,
        "--out-dir", out_dir,
        "km", "--trivial-group", "--n", "4", "--t", "1", "--k", "2",
        "--k-orbits", str(tmp_path / "orbits-n4-k2.txt"),
    )
    run(
        capsys,
        "--out-dir", out_dir,
        "solve", "--km", str(tmp_path / "km-n4-t1-k2-pruned.txt"),
    )
    run(
        capsys,
        "--out-dir", out_dir,
        "expand", "--trivial-group", "--n", "4",
        "--k-orbits", str(tmp_path / "orbits-n4-k2.txt"),
        "--solution", str(tmp_path / "solutions.txt"),
    )
    # a spread is not a 2-design: claiming t=2 must fail verification
    code, out, _ = run(
        capsys,
        "--out-dir", out_dir,
        "verify", "--blocks", str(tmp_path / "blocks.txt"),
        "--t", "2", "--lambda", "1",
    )
    assert code == 1
    assert "verification failed" in out
    assert (tmp_path / "report.txt").read_text().endswith("VERDICT fail\n")


def test_conflicting_group_sources_return_2(capsys):
    code, _, err = run(
        capsys, "group", "--fixture", "paper-13", "--singer-normalizer", "5"
    )
    assert code == 2 and "exactly one group source" in err


def test_missing_file_returns_2(capsys):
    code, _, err = run(capsys, "solve", "--km", "does-not-exist.txt")
    assert code == 2 and "does-not-exist.txt" in err


def test_expand_needs_exactly_one_source(capsys):
    code, _, err = run(capsys, "expand", "--trivial-group", "--n", "4")
    assert code == 2 and "--reps FILE or --fixture-solution" in err


def test_unknown_flag_exits_2(capsys):
    for argv in (
        ["bounds", "--bogus"],
        ["--config", "conf.txt", "bounds"],
        ["paper-check", "--distance-samples", "5"],
    ):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2, argv
    capsys.readouterr()


def test_corrupt_data_file_is_a_verification_failure(tmp_path, monkeypatch, capsys):
    # the bundled dataset is read from its data files; a changed or
    # non-ASCII character fails its checksum by name in every command
    read = fixtures.data_file_text
    text = read("generator_f")
    for edited in ("0" + text[1:], text + "\ufffd"):
        monkeypatch.setattr(
            fixtures,
            "data_file_text",
            lambda name: edited if name == "generator_f" else read(name),
        )
        code, _, err = run(
            capsys, "--out-dir", str(tmp_path), "group", "--fixture", "paper-13"
        )
        assert code == 1
        assert "verification failure: fixture generator_f has checksum" in err, err


def test_node_limit_without_solution_returns_3(tmp_path, capsys):
    out_dir = str(tmp_path)
    run(capsys, "--out-dir", out_dir, "orbits", "--trivial-group", "--n", "4", "--dim", "2")
    run(
        capsys,
        "--out-dir", out_dir,
        "km", "--trivial-group", "--n", "4", "--t", "1", "--k", "2",
        "--k-orbits", str(tmp_path / "orbits-n4-k2.txt"),
    )
    for limit in ("1", "0"):
        code, out, _ = run(
            capsys,
            "--out-dir", out_dir,
            "solve", "--km", str(tmp_path / "km-n4-t1-k2-pruned.txt"),
            "--node-limit", limit,
        )
        assert code == 3
        assert "stopped by nodes limit" in out
        assert f" {limit} nodes," in out, out


def test_bad_solver_flags_are_usage_errors(tmp_path, capsys):
    out_dir = str(tmp_path)
    run(capsys, "--out-dir", out_dir, "orbits", "--trivial-group", "--n", "4", "--dim", "2")
    run(
        capsys,
        "--out-dir", out_dir,
        "km", "--trivial-group", "--n", "4", "--t", "1", "--k", "2",
        "--k-orbits", str(tmp_path / "orbits-n4-k2.txt"),
    )
    km = str(tmp_path / "km-n4-t1-k2-pruned.txt")
    # columns 0 and 1 of the trivial group's system share a point
    for extra, flag in (
        (("--max-solutions", "abc"), "--max-solutions"),
        (("--max-solutions", "0"), "--max-solutions"),
        (("--force", "99"), "--force"),
        (("--force", "0,0"), "--force"),
        (("--force", "0,1"), "--force"),
        (("--force", "0,x"), "--force expects integer column ids"),
        (("--node-limit", "-5"), "--node-limit must be >= 0"),
        (("--time-limit", "-1"), "--time-limit must be >= 0"),
        (("--time-limit", "nan"), "--time-limit must be >= 0"),
    ):
        code, _, err = run(capsys, "--out-dir", out_dir, "solve", "--km", km, *extra)
        assert code == 2 and f"error: {flag}" in err, (extra, err)
    for value in ("abc", "0", "-1"):
        code, _, err = run(capsys, "spread-demo", "--max-solutions", value)
        assert code == 2 and "error: --max-solutions" in err, (value, err)


def test_negative_sample_counts_are_usage_errors(tmp_path, capsys):
    blocks = tmp_path / "blocks.txt"
    BlockSet(2, 1, np.array([[1], [2], [3]], dtype=np.uint64)).save(str(blocks))
    for flag in ("--distance-samples", "--derived-samples"):
        code, _, err = run(
            capsys, "--out-dir", str(tmp_path), "verify", "--blocks", str(blocks),
            "--t", "1", flag, "-5",
        )
        assert code == 2 and f"error: {flag} must be >= 0" in err, err
    # a certificate verify would have to skip is refused before any block is read
    derived = "--derived-samples needs t = 2 and lambda = 1"
    for flags, message in (
        (("--t", "1", "--derived-samples", "100"), derived),
        (("--lambda", "2", "--derived-samples", "100"), derived),
        (("--lambda", "2", "--distance-samples", "100"),
         "--distance-samples needs lambda = 1"),
    ):
        code, _, err = run(
            capsys, "--out-dir", str(tmp_path), "verify", "--blocks", "missing.txt",
            *flags,
        )
        assert code == 2 and f"error: {message}" in err, err
    code, _, _ = run(
        capsys, "--out-dir", str(tmp_path), "verify", "--blocks", str(blocks),
        "--t", "1", "--distance-samples", "0", "--derived-samples", "0",
    )
    assert code == 0
    # a negative seed is refused before any command runs
    km = tmp_path / "km.txt"
    km.write_text("# not read\n")
    for argv in (
        ("verify", "--blocks", str(blocks), "--t", "1", "--distance-samples", "100"),
        ("paper-check", "--skip-3-orbits"),
        ("solve", "--km", str(km), "--order", "randomized"),
    ):
        out_dir = tmp_path / argv[0]
        code, out, err = run(capsys, "--out-dir", str(out_dir), "--seed", "-1", *argv)
        assert code == 2 and "error: --seed must be >= 0" in err, err
        assert out == "" and not out_dir.exists(), argv


def test_verify_prints_the_sampled_certificates(tmp_path, capsys):
    # the one orbit of 2-subspaces of GF(2)^5: each covers itself once
    table = saved_table(tmp_path, capsys, 5, 2)
    run(capsys, "--out-dir", str(tmp_path), "expand", "--singer-normalizer", "5",
        "--k-orbits", table, "--ids", "0")
    code, out, _ = run(
        capsys, "--out-dir", str(tmp_path), "verify",
        "--blocks", str(tmp_path / "blocks.txt"), "--t", "2",
        "--distance-samples", "100", "--derived-samples", "100",
    )
    assert code == 0
    assert "minimum subspace distance 2 (100 sampled pairs)" in out
    assert "derived triple check: 0 failures in 100 samples" in out


def test_forced_columns_appear_in_solutions(tmp_path, capsys):
    out_dir = str(tmp_path)
    run(capsys, "--out-dir", out_dir, "orbits", "--trivial-group", "--n", "4", "--dim", "2")
    run(
        capsys,
        "--out-dir", out_dir,
        "km", "--trivial-group", "--n", "4", "--t", "1", "--k", "2",
        "--k-orbits", str(tmp_path / "orbits-n4-k2.txt"),
    )
    code, out, _ = run(
        capsys,
        "--out-dir", out_dir,
        "solve", "--km", str(tmp_path / "km-n4-t1-k2-pruned.txt"),
        "--max-solutions", "all", "--force", "0",
    )
    assert code == 0
    rows = [
        ln
        for ln in (tmp_path / "solutions.txt").read_text().splitlines()
        if ln and not ln.startswith("#")
    ]
    assert rows and all("0" in ln.split() for ln in rows)


def test_reruns_are_byte_identical_apart_from_elapsed(tmp_path, capsys):
    def chain(sub):
        d = tmp_path / sub
        d.mkdir()
        run(capsys, "--out-dir", str(d), "orbits", "--trivial-group", "--n", "4", "--dim", "2")
        run(
            capsys,
            "--out-dir", str(d),
            "km", "--trivial-group", "--n", "4", "--t", "1", "--k", "2",
            "--k-orbits", str(d / "orbits-n4-k2.txt"),
        )
        run(
            capsys,
            "--out-dir", str(d), "--seed", "9",
            "solve", "--km", str(d / "km-n4-t1-k2-pruned.txt"),
            "--max-solutions", "all", "--order", "randomized",
        )
        return d

    a, b = chain("a"), chain("b")
    for name in ("orbits-n4-k2.txt", "km-n4-t1-k2-full.txt", "km-n4-t1-k2-pruned.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    sa = [
        ln
        for ln in (a / "solutions.txt").read_text().splitlines()
        if not ln.startswith("# elapsed")
    ]
    sb = [
        ln
        for ln in (b / "solutions.txt").read_text().splitlines()
        if not ln.startswith("# elapsed")
    ]
    assert sa == sb


def test_paper_check_names_the_failing_stage(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(FIXTURE_SHA256, "generator_f", "0" * 64)
    code, out, _ = run(capsys, "--out-dir", str(tmp_path), "paper-check")
    assert code == 1
    assert "FAIL" in out
    assert "first failing stage: fixture integrity" in out
    if cli.resource is not None:
        assert re.search(r"\npeak RSS \d+ MB\n$", out)
        monkeypatch.setattr(cli, "resource", None)
        code, out, _ = run(capsys, "--out-dir", str(tmp_path), "paper-check")
        assert code == 1 and "peak RSS" not in out


PAPER_TABLE = """
PASS  fixture integrity         _._s  checksums and ranks valid
PASS  group closure             _._s  order 106483
PASS  2-subspace orbits         _._s  105 orbits, lengths [106483]
PASS  3-subspace orbits         _._s  30705 orbits, sum 3269560515
PASS  incidence system          _._s  row sums [2047], pruned 105 x 25572
PASS  bundled solution          _._s  15 columns cover 105 rows exactly once
PASS  orbit expansion           _._s  1597245 distinct blocks
PASS  design verification       _._s  histogram {1: 11180715}, verdict pass
PASS  packing bound             _._s  packing bound 1597245
PASS  minimum distance          _._s  minimum distance 4 on 1000000 pairs
PASS  derived triple cover      _._s  0 failures in 100000 triples
"""
SKIPPED_3 = "      (3-subspace orbit and incidence stages skipped on request)\n"


def paper_check(capsys, *flags):
    """paper-check's exit code and output, with the elapsed column and the
    peak RSS number masked."""
    code, out, _ = run(capsys, "paper-check", *flags)
    out = re.sub(r"[ \d]{5}\.\d(?=s  )", "    _._", out)
    out = re.sub(r"(?m)^peak RSS \d+ MB$", "peak RSS _ MB", out)
    if cli.resource is None:  # no peak to print: stand in for the line
        out += "peak RSS _ MB\n"
    return code, out


def test_paper_check_prints_the_papers_table(capsys):
    rows = PAPER_TABLE.splitlines(keepends=True)
    for flags, table in (
        ((), PAPER_TABLE),
        (("--skip-3-orbits",), "".join(rows[:4] + rows[7:]) + SKIPPED_3),
    ):
        code, out = paper_check(capsys, *flags)
        assert code == 0
        assert out == f"{table}\nall stages passed\npeak RSS _ MB\n", out


def test_paper_check_stops_at_the_first_failing_stage(monkeypatch, capsys):
    # a failed check: the table ends at the failing row
    monkeypatch.setitem(fixtures.PAPER, "orbits_k2", 104)
    code, out = paper_check(capsys)
    assert code == 1
    assert out == """
PASS  fixture integrity      _._s  checksums and ranks valid
PASS  group closure          _._s  order 106483
FAIL  2-subspace orbits      _._s  105 orbits, lengths [106483]

first failing stage: 2-subspace orbits
peak RSS _ MB
""", out
    monkeypatch.setitem(fixtures.PAPER, "orbits_k2", 105)

    # an exception inside a stage is that stage's error row
    def refuse(group, reps):
        raise ValueError("no expansion today")

    monkeypatch.setattr(cli, "expand_orbits", refuse)
    code, out = paper_check(capsys, "--skip-3-orbits")
    assert code == 1
    assert out == f"""
PASS  fixture integrity      _._s  checksums and ranks valid
PASS  group closure          _._s  order 106483
PASS  2-subspace orbits      _._s  105 orbits, lengths [106483]
FAIL  orbit expansion        _._s  error: no expansion today
{SKIPPED_3}
first failing stage: orbit expansion
peak RSS _ MB
""", out


def saved_table(tmp_path, capsys, n, dim):
    code, _, _ = run(
        capsys, "--out-dir", str(tmp_path),
        "orbits", "--singer-normalizer", str(n), "--dim", str(dim),
    )
    assert code == 0
    return str(tmp_path / f"orbits-n{n}-k{dim}.txt")


def test_solve_prunes_a_full_km_file(tmp_path, capsys):
    run(capsys, "--out-dir", str(tmp_path), "km", "--singer-normalizer", "6")
    solutions = []
    for kind in ("full", "pruned"):
        out_dir = tmp_path / kind
        km = str(tmp_path / f"km-n6-t2-k3-{kind}.txt")
        code, out, _ = run(capsys, "--out-dir", str(out_dir), "solve", "--km", km)
        assert code == 0
        pruned = "input had entries above 1; pruned before solving" in out
        assert pruned == (kind == "full"), out
        text = (out_dir / "solutions.txt").read_text().splitlines()
        solutions.append([ln for ln in text if not ln.startswith("# elapsed")])
    assert solutions[0] == solutions[1]


def test_orbit_ids_outside_the_table_are_usage_errors(tmp_path, capsys):
    table = saved_table(tmp_path, capsys, 6, 3)
    solution = tmp_path / "solution.txt"
    expand = ("--out-dir", str(tmp_path), "expand", "--singer-normalizer", "6")
    for bad in ("-1", "-3", "1000"):
        code, _, err = run(capsys, *expand, "--k-orbits", table, "--ids", f"0,{bad}")
        assert code == 2 and f"orbit id {bad} out of range" in err
        solution.write_text(f"0 {bad}\n")
        code, _, err = run(
            capsys, *expand, "--k-orbits", table, "--solution", str(solution)
        )
        assert code == 2 and f"orbit id {bad} out of range" in err
    assert not (tmp_path / "blocks.txt").exists()
    code, out, _ = run(capsys, *expand, "--k-orbits", table, "--ids", "0,1")
    assert code == 0 and "expanded 2 orbits" in out


def test_bad_representative_files_are_named_errors(tmp_path, capsys):
    from qsteiner.groups import orbit, orbit_partition, singer_normalizer

    g = singer_normalizer(6)
    table = orbit_partition(g, 3)

    def text(rows, n=6):
        lines = ["".join(str((r >> j) & 1) for j in range(n)) for r in rows]
        return "\n".join(lines) + "\n"

    reps = tmp_path / "reps.txt"
    a, b = table.rep(0).tolist(), table.rep(1).tolist()
    twin = next(rows for rows in orbit(g, table.rep(0)).tolist() if rows != a)
    dependent = [text((u[0], u[1], u[0] ^ u[1])) for u in (a, b)]
    for blocks, message in (
        # one row count and one width for the whole file
        ([text(a), text(b[:2])], r"line 5: block has k=2, expected k=3"),
        ([text(a), text(b, n=7)], r"line 5: block has n=7, expected n=6"),
        ([text(a), text(b), text(a)], r"lines 1 and 9: duplicate block"),
        ([text(a), text(b), text(twin)], r"representatives 0 and 2 share an orbit"),
        # every basis has a dependent row: no lower-dimensional orbits
        (dependent, r"line 1: block rows are linearly dependent \(rank 2 < 3\)"),
    ):
        reps.write_text("\n".join(blocks))
        for command, extra in (("expand", ()), ("verify", ("--t", "2"))):
            code, _, err = run(
                capsys, "--out-dir", str(tmp_path), command,
                "--singer-normalizer", "6", "--reps", str(reps), *extra,
            )
            assert code == 2, err
            assert re.search(f"error: {re.escape(str(reps))}: .*{message}", err), err


def test_expand_refuses_conflicting_representative_sources(tmp_path, capsys):
    table = saved_table(tmp_path, capsys, 6, 3)
    reps = tmp_path / "reps.txt"
    reps.write_text("100000\n010000\n001000\n")
    expand = ("--out-dir", str(tmp_path), "expand", "--singer-normalizer", "6")
    for sources in (
        ("--k-orbits", table, "--ids", "0", "--reps", str(tmp_path / "missing.txt")),
        ("--k-orbits", table, "--ids", "0", "--fixture-solution"),
        ("--reps", str(reps), "--fixture-solution"),
        ("--k-orbits", table, "--ids", "0", "--reps", str(reps), "--fixture-solution"),
    ):
        code, _, err = run(capsys, *expand, *sources)
        assert code == 2, sources
        assert "choose exactly one of --k-orbits FILE, --reps FILE or " \
            "--fixture-solution" in err, err
    # ids name orbits of a table: without --k-orbits they would be dropped
    for sources in (
        ("--reps", str(reps), "--ids", "5,6"),
        ("--reps", str(reps), "--solution", str(tmp_path / "missing.txt")),
        ("--fixture-solution", "--ids", "0"),
    ):
        code, _, err = run(capsys, *expand, *sources)
        assert code == 2, sources
        assert "error: --ids and --solution need --k-orbits FILE" in err, err
    assert not (tmp_path / "blocks.txt").exists()
    for sources in (("--k-orbits", table, "--ids", "0"), ("--reps", str(reps))):
        code, out, _ = run(capsys, *expand, *sources)
        assert code == 0 and "expanded 1 orbits" in out, sources


def test_expand_refuses_the_zero_subspace(tmp_path, capsys):
    # a block file holds subspaces of dimension k >= 1
    table = saved_table(tmp_path, capsys, 5, 0)
    code, _, err = run(
        capsys, "--out-dir", str(tmp_path), "expand", "--singer-normalizer", "5",
        "--k-orbits", table, "--ids", "0",
    )
    assert code == 2
    assert f"error: {table}: blocks must have dimension k >= 1" in err, err
    assert not (tmp_path / "blocks.txt").exists()


def test_km_refuses_orbit_tables_of_another_dimension(tmp_path, capsys):
    table = saved_table(tmp_path, capsys, 6, 2)
    km = ("--out-dir", str(tmp_path), "km", "--singer-normalizer", "6")
    for flags, flag, dim in (
        (("--t", "1", "--k", "3", "--t-orbits", table), "--t", 1),
        (("--t", "2", "--k-orbits", table), "--k", 3),
    ):
        code, _, err = run(capsys, *km, *flags)
        assert code == 2, err
        assert f"error: {table}: the table holds orbits of 2-subspaces, " \
            f"but {flag} is {dim}" in err, err
    assert not list(tmp_path.glob("km-*"))
    code, out, _ = run(capsys, *km, "--t", "2", "--k", "3", "--t-orbits", table)
    assert code == 0 and (tmp_path / "km-n6-t2-k3-full.txt").exists()


def test_malformed_orbit_table_exits_2(tmp_path, capsys):
    table = saved_table(tmp_path, capsys, 6, 3)
    path = tmp_path / "bad.txt"
    lines = open(table).read().splitlines()
    lines[3] = "0 x"
    path.write_text("\n".join(lines))
    code, _, err = run(
        capsys, "--out-dir", str(tmp_path), "expand", "--singer-normalizer", "6",
        "--k-orbits", str(path), "--ids", "0",
    )
    assert code == 2 and "line 4: expected integer 'id length'" in err


def test_malformed_solution_headers_are_named_errors(tmp_path, capsys):
    table = saved_table(tmp_path, capsys, 6, 3)
    solution = tmp_path / "solution.txt"
    expand = ("--out-dir", str(tmp_path), "expand", "--singer-normalizer", "6")
    for header in ("# problem abc", "# forced 1 x"):
        solution.write_text(f"# exact-cover solutions\n{header}\n0 1\n")
        code, _, err = run(
            capsys, *expand, "--k-orbits", table, "--solution", str(solution)
        )
        assert code == 2, header
        assert f"error: {solution}: line 2: invalid literal for int()" in err, err
    assert not (tmp_path / "blocks.txt").exists()


def test_verify_blocks_refuses_a_second_source(tmp_path, capsys):
    table = saved_table(tmp_path, capsys, 6, 3)
    run(capsys, "--out-dir", str(tmp_path), "expand", "--singer-normalizer", "6",
        "--k-orbits", table, "--ids", "0")
    blocks = str(tmp_path / "blocks.txt")
    verify = ("--out-dir", str(tmp_path), "verify", "--blocks", blocks)
    for extra in (("--reps", str(tmp_path / "nonexist.txt")), ("--fixture-solution",)):
        code, _, err = run(capsys, *verify, *extra)
        assert code == 2, extra
        assert "choose exactly one of --blocks FILE, --reps FILE or " \
            "--fixture-solution" in err, err
    assert not (tmp_path / "report.txt").exists()
    code, _, _ = run(capsys, *verify)
    assert code == 1  # one orbit is not a design, but the file alone is read


def test_verify_blocks_refuses_a_group_source(tmp_path, capsys):
    table = saved_table(tmp_path, capsys, 6, 3)
    run(capsys, "--out-dir", str(tmp_path), "expand", "--singer-normalizer", "6",
        "--k-orbits", table, "--ids", "0")
    verify = ("--out-dir", str(tmp_path), "verify", "--blocks", str(tmp_path / "blocks.txt"))
    for extra in (
        ("--generators", str(tmp_path / "nonexist.txt")),
        ("--singer-normalizer", "6"),
        ("--fixture", "paper-13"),
        ("--trivial-group", "--n", "6"),
    ):
        code, _, err = run(capsys, *verify, *extra)
        assert code == 2, extra
        assert f"--blocks FILE takes no group: drop {extra[0]}" in err, err
    assert not (tmp_path / "report.txt").exists()


def test_non_integer_ids_name_their_flag(tmp_path, capsys):
    table = saved_table(tmp_path, capsys, 6, 3)
    code, _, err = run(
        capsys, "--out-dir", str(tmp_path), "expand", "--singer-normalizer", "6",
        "--k-orbits", table, "--ids", "0,x",
    )
    assert code == 2 and "error: --ids expects integer orbit ids" in err, err


def test_defaults_are_declared_by_the_parser():
    parse = cli.build_parser().parse_args
    top = parse(["bounds"])
    assert (top.seed, top.out_dir) == (0, ".")
    assert (top.n, top.k, top.t) == (None, None, None)
    km = parse(["km"])
    assert (km.t, km.k, km.lam) == (2, 3, 1)
    verify = parse(["verify"])
    assert (verify.t, verify.lam) == (2, 1)
    assert (verify.distance_samples, verify.derived_samples) == (0, 0)
    assert (cli.PAPER_DISTANCE_SAMPLES, cli.PAPER_DERIVED_SAMPLES) == (10**6, 10**5)
    solve = parse(["solve"])
    assert (solve.max_solutions, solve.order) == ("1", "file")
    assert (solve.node_limit, solve.time_limit) == (None, None)
    demo = parse(["spread-demo"])
    assert (demo.n, demo.k, demo.max_solutions) == (4, 2, "all")
    assert parse(["verify", "--lambda", "3"]).lam == 3


def test_readme_names_only_existing_flags(capsys):
    flag = r"--[a-z0-9][a-z0-9-]*"
    known = {"--no-build-isolation"}  # pip's, in the install lines
    for command in ([], *([name] for name in cli.COMMANDS)):
        with pytest.raises(SystemExit):
            cli.main([*command, "--help"])
        known |= set(re.findall(flag, capsys.readouterr().out))
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert set(re.findall(flag, readme)) <= known
