"""Command line interface: exit codes, file outputs, determinism."""

import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

from qsteiner import cli, fixtures
from qsteiner.exact_cover import load_solutions
from qsteiner.fixtures import FIXTURE_SHA256
from qsteiner.gf2 import FormatError, LimitError
from qsteiner.groups import (
    MatrixGroup,
    OrbitTable,
    load_generator_file,
    singer_normalizer,
)
from qsteiner.kramer_mesner import import_km
from qsteiner.subspace import load_subspace_file
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


def test_limit_error_is_a_resource_limit(monkeypatch, capsys):
    def refuse(group, k):
        raise LimitError("orbit exceeded the traversal cap 1")

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


def test_missing_file_returns_2(tmp_path, capsys):
    code, _, err = run(capsys, "solve", "--km", "does-not-exist.txt")
    assert code == 2 and "does-not-exist.txt" in err
    code, out, err = run(capsys, "--out-dir", str(tmp_path / "out"), "verify")
    assert code == 2 and out == "" and not (tmp_path / "out").exists()
    assert "error: --blocks FILE is required (produce one with the expand " \
        "command)" in err, err


def test_expand_needs_exactly_one_source(capsys):
    code, _, err = run(capsys, "expand", "--trivial-group", "--n", "4")
    assert code == 2 and "--reps FILE or --fixture-solution" in err


def test_unknown_flag_exits_2(capsys):
    for argv in (
        ["bounds", "--bogus"],
        ["--config", "conf.txt", "bounds"],
        ["paper-check", "--distance-samples", "5"],
        # km always partitions: it reads no orbit table
        ["km", "--singer-normalizer", "5", "--t-orbits", "orbits-n5-k2.txt"],
        ["km", "--singer-normalizer", "5", "--k-orbits", "orbits-n5-k3.txt"],
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
    run(
        capsys,
        "--out-dir", out_dir,
        "km", "--trivial-group", "--n", "4", "--t", "1", "--k", "2",
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
    run(
        capsys,
        "--out-dir", out_dir,
        "km", "--trivial-group", "--n", "4", "--t", "1", "--k", "2",
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


def test_verify_prints_the_sampled_certificates(tmp_path, monkeypatch, capsys):
    # the one orbit of 2-subspaces of GF(2)^5: each covers itself once
    table = saved_table(tmp_path, capsys, 5, 2)
    run(capsys, "--out-dir", str(tmp_path), "expand", "--singer-normalizer", "5",
        "--k-orbits", table, "--ids", "0")

    def refuse(*args):
        raise AssertionError("verify builds no group and expands no orbit")

    monkeypatch.setattr(cli, "resolve_group", refuse)
    monkeypatch.setattr(cli, "expand_orbits", refuse)
    monkeypatch.setattr(MatrixGroup, "engine", refuse)
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
    run(
        capsys,
        "--out-dir", out_dir,
        "km", "--trivial-group", "--n", "4", "--t", "1", "--k", "2",
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
    # the notice names the file's lambda: at lambda 2, 13 columns have an
    # entry above 2
    run(capsys, "--out-dir", str(tmp_path), "km", "--singer-normalizer", "7",
        "--lambda", "2")
    km = str(tmp_path / "km-n7-t2-k3-full.txt")
    pruned = str(tmp_path / "km-n7-t2-k3-pruned.txt")
    assert len(import_km(km).col_ids) - len(import_km(pruned).col_ids) == 13
    code, out, _ = run(capsys, "--out-dir", str(tmp_path / "l2"), "solve", "--km", km)
    assert code == 0
    assert out.startswith("input had entries above 2; pruned before solving\n"), out


def test_solve_refuses_entries_above_1_after_pruning(tmp_path, capsys):
    # at lambda 3 pruning keeps entries 2 and 3, which no 0/1 cover takes
    run(capsys, "--out-dir", str(tmp_path), "km", "--singer-normalizer", "7",
        "--lambda", "3")
    for kind in ("full", "pruned"):
        out_dir = tmp_path / kind
        km = str(tmp_path / f"km-n7-t2-k3-{kind}.txt")
        code, out, err = run(capsys, "--out-dir", str(out_dir), "solve", "--km", km)
        assert code == 2 and "Traceback" not in err
        assert f"error: {km}: column 1 keeps entries above 1 after pruning at " \
            "lambda 3; the solver takes 0/1 systems only" in err, err
        pruned = "input had entries above 3; pruned before solving" in out
        assert pruned == (kind == "full"), out
        assert not out_dir.exists()


# every flag that reads a file: its command line, with FILE for the path,
# and one malformed line for it
FILE_FLAGS = {
    "verify --blocks": (("verify", "--blocks", "FILE"), "012"),
    "solve --km": (("solve", "--km", "FILE"), "KM 6 2"),
    "expand --reps": (("expand", "--singer-normalizer", "6", "--reps", "FILE"), "012"),
    "expand --solution": (
        ("expand", "--singer-normalizer", "6", "--k-orbits", "TABLE", "--solution",
         "FILE"),
        "0 x",
    ),
    "expand --k-orbits": (
        ("expand", "--singer-normalizer", "6", "--k-orbits", "FILE", "--ids", "0"),
        "6 two 0 378",
    ),
    "orbits --generators": (("orbits", "--generators", "FILE", "--dim", "1"), "012"),
}


@pytest.mark.parametrize("fault", ["not UTF-8", "a directory", "a malformed line"])
@pytest.mark.parametrize("flag", FILE_FLAGS)
def test_input_faults_name_their_file_and_exit_2(tmp_path, capsys, flag, fault):
    argv, line = FILE_FLAGS[flag]
    path = tmp_path / "input"
    if fault == "not UTF-8":
        path.write_bytes(b"# \xff\n")
        message = f"error: {path}: byte 2 is not UTF-8"
    elif fault == "a directory":
        path.mkdir()
        message = f"error: [Errno 21] Is a directory: '{path}'"
    else:
        path.write_text(line + "\n")
        message = f"error: {path}: line 1: "
    table = saved_table(tmp_path, capsys, 6, 3) if "TABLE" in argv else None
    argv = [{"FILE": str(path), "TABLE": table}.get(arg, arg) for arg in argv]
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, "--out-dir", str(out_dir), *argv)
    assert code == 2 and err.startswith(message), err
    assert "Traceback" not in err and not out_dir.exists()


def test_an_out_dir_that_is_a_file_exits_2(tmp_path, capsys):
    path = tmp_path / "taken"
    path.write_text("")
    code, out, err = run(
        capsys, "--out-dir", str(path), "group", "--singer-normalizer", "4"
    )
    assert code == 2 and out == ""
    assert err == f"error: [Errno 17] File exists: '{path}'\n"


LOADERS = {
    "BlockSet.load": BlockSet.load,
    "load_subspace_file": load_subspace_file,
    "import_km": import_km,
    "load_solutions": load_solutions,
    "load_generator_file": load_generator_file,
    "OrbitTable.load": lambda path: OrbitTable.load(path, singer_normalizer(6)),
}


@pytest.mark.parametrize("loader", LOADERS)
def test_every_loader_names_its_file(tmp_path, loader):
    path = tmp_path / "input"
    for data in (b"0\n\xff", b"# a b\n\n0 x 2\n"):
        path.write_bytes(data)
        with pytest.raises(FormatError) as info:
            LOADERS[loader](str(path))
        assert str(info.value).startswith(f"{path}: "), info.value


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
        code, _, err = run(
            capsys, "--out-dir", str(tmp_path), "expand",
            "--singer-normalizer", "6", "--reps", str(reps),
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


def test_orbit_table_order_is_checked_against_the_group(tmp_path, capsys):
    # the header's order is compared with the group's own order, never
    # taken as it: certified by the Singer engine, or counted by closure
    def edited(path, old, new):
        lines = Path(path).read_text().split("\n")
        assert lines[1].endswith(f" {old}")
        header = lines[1]
        lines[1] = lines[1][: -len(old)] + new
        Path(path).write_text("\n".join(lines))
        return f"line 2: reads '{lines[1]}', the group's partition gives '{header}'"

    def chain(sub, source, dim):
        d = tmp_path / sub
        run(capsys, "--out-dir", str(d), "group", *source)
        group = ("--generators", str(d / "group.txt"))
        run(capsys, "--out-dir", str(d), "orbits", *group, "--dim", str(dim))
        return d, ("--out-dir", str(d), "expand", *group)

    d, expand = chain("singer", ("--singer-normalizer", "5"), 2)
    table = str(d / "orbits-n5-k2.txt")
    runs = [(expand + ("--k-orbits", table), table, edited(table, "155", "999"))]
    d, expand = chain("trivial", ("--trivial-group", "--n", "4"), 1)
    table = str(d / "orbits-n4-k1.txt")
    runs += [(expand + ("--k-orbits", table), table, edited(table, "1", "7"))]
    for argv, table, message in runs:
        code, _, err = run(capsys, *argv, "--ids", "0")
        assert code == 2, err
        assert err == f"error: {table}: {message}\n", err
    assert not list(tmp_path.glob("*/blocks.txt"))


def test_malformed_orbit_table_exits_2(tmp_path, capsys):
    # the faults a table file meets, each named by the first line that
    # differs from the table of the group's partition
    from qsteiner.groups import _partition_full

    table = saved_table(tmp_path, capsys, 6, 3)
    text = Path(table).read_text()
    lines = text.split("\n")  # orbit i's 'id length' line is lines[3 + 5 * i]

    def edit(at, line):
        return "\n".join(lines[:at] + [line] + lines[at + 1 :])

    flipped = ("0" if lines[4][0] == "1" else "1") + lines[4][1:]
    swapped = lines[:3] + ["1" + lines[3][1:]] + lines[4:8] + ["0" + lines[8][1:]]
    length = lines[8].split()[1]  # orbit 1's
    other = tmp_path / "full.txt"
    _partition_full(singer_normalizer(6), 3).save(str(other))
    cut = len(text) // 2
    six = ("--singer-normalizer", "6")
    for name, bad, group, line, tail in (
        ("a flipped row character", edit(4, flipped), six, 5,
         f"reads '{flipped}', the group's partition gives '{lines[4]}'"),
        ("two swapped ids", "\n".join(swapped + lines[9:]), six, 4,
         f"reads '1{lines[3][1:]}', the group's partition gives '{lines[3]}'"),
        ("a length + 1", edit(8, f"1 {int(length) + 1}"), six, 9,
         f"reads '1 {int(length) + 1}', the group's partition gives '{lines[8]}'"),
        ("a length - 1", edit(8, f"1 {int(length) - 1}"), six, 9, ""),
        ("a truncated file", text[:cut], six, text[:cut].count("\n") + 1, ""),
        ("a truncated last line", text[:-3], six, len(lines) - 1,
         f"reads '{lines[-2][:-2]}' without a line end"),
        ("an appended line", text + "0 1\n", six, len(lines),
         "reads '0 1', the group's partition gives end of file"),
        ("a comment line", "\n".join(lines[:2] + ["# a comment"] + lines[2:]), six, 3,
         "reads '# a comment', the group's partition gives ''"),
        ("a foreign group", text, ("--trivial-group", "--n", "6"), 2,
         "group hash does not match the table header"),
        ("another algorithm's table", other.read_text(), six, 10,
         "reads '100010', the group's partition gives '100000'"),
    ):
        path = tmp_path / "bad.txt"
        path.write_text(bad)
        out_dir = tmp_path / "out"
        code, _, err = run(
            capsys, "--out-dir", str(out_dir), "expand", *group,
            "--k-orbits", str(path), "--ids", "0",
        )
        assert code == 2, (name, err)
        assert err.startswith(f"error: {path}: line {line}: {tail}"), (name, err)
        assert "Traceback" not in err and not out_dir.exists(), name
    # a copy with CRLF line ends loads
    path.write_bytes(text.replace("\n", "\r\n").encode())
    code, out, err = run(
        capsys, "--out-dir", str(out_dir), "expand", *six, "--k-orbits", str(path),
        "--ids", "0",
    )
    assert code == 0 and "expanded 1 orbits" in out, err


def test_orbit_table_errors_name_their_file(tmp_path, capsys):
    # a fault in either table of a km chain names the file it is in
    t_table = saved_table(tmp_path, capsys, 5, 2)
    k_table = saved_table(tmp_path, capsys, 5, 3)
    lines = Path(k_table).read_text().split("\n")
    given, lines[3] = lines[3], "0 x"
    Path(k_table).write_text("\n".join(lines))
    expand = ("--out-dir", str(tmp_path), "expand")
    code, _, err = run(
        capsys, *expand, "--singer-normalizer", "5", "--k-orbits", k_table, "--ids", "0"
    )
    assert code == 2
    assert err == f"error: {k_table}: line 4: reads '0 x', the group's partition " \
        f"gives '{given}'\n", err
    code, _, err = run(
        capsys, *expand, "--trivial-group", "--n", "5", "--k-orbits", t_table,
        "--ids", "0",
    )
    assert code == 2
    assert f"error: {t_table}: line 2: group hash does not match the table " \
        "header" in err, err
    assert not (tmp_path / "blocks.txt").exists()


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


def verify_refuses(tmp_path, capsys, extras):
    # verify reads a block file alone: any other source is an unknown flag
    table = saved_table(tmp_path, capsys, 6, 3)
    run(capsys, "--out-dir", str(tmp_path), "expand", "--singer-normalizer", "6",
        "--k-orbits", table, "--ids", "0")
    verify = ["--out-dir", str(tmp_path), "verify", "--blocks", str(tmp_path / "blocks.txt")]
    for extra in extras:
        with pytest.raises(SystemExit) as info:
            cli.main([*verify, *extra])
        assert info.value.code == 2, extra
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {extra[0]}" in err, err
    assert not (tmp_path / "report.txt").exists()
    return verify


def test_verify_blocks_refuses_a_second_source(tmp_path, capsys):
    verify = verify_refuses(tmp_path, capsys, (
        ("--reps", str(tmp_path / "nonexist.txt")),
        ("--fixture-solution",),
    ))
    code, _, _ = run(capsys, *verify)
    assert code == 1  # one orbit is not a design, but the file alone is read


def test_verify_blocks_refuses_a_group_source(tmp_path, capsys):
    verify_refuses(tmp_path, capsys, (
        ("--generators", str(tmp_path / "nonexist.txt")),
        ("--singer-normalizer", "6"),
        ("--fixture", "paper-13"),
        ("--trivial-group", "--n", "6"),
    ))


def test_non_integer_ids_name_their_flag(tmp_path, capsys):
    table = saved_table(tmp_path, capsys, 6, 3)
    for ids, message in (
        ("0,x", "error: --ids expects integer orbit ids"),
        ("", "error: --ids names no orbit id: ''"),
        (" , ", "error: --ids names no orbit id: ' , '"),
    ):
        code, _, err = run(
            capsys, "--out-dir", str(tmp_path), "expand", "--singer-normalizer", "6",
            "--k-orbits", table, "--ids", ids,
        )
        assert code == 2 and err.startswith(message), err
    assert not (tmp_path / "blocks.txt").exists()


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

    def flags_of(*command):
        with pytest.raises(SystemExit):
            cli.main([*command, "--help"])
        return set(re.findall(flag, capsys.readouterr().out))

    top = flags_of()
    helps = {name: flags_of(name) for name in cli.COMMANDS}
    known = {"--no-build-isolation"}.union(top, *helps.values())  # pip's
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert set(re.findall(flag, readme)) <= known
    # in each example, the flags before the command are the top level's
    # and those after it the command's own
    examples = 0
    for block in re.findall(r"```sh\n(.*?)```", readme, re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            words = line.split("#")[0].split()
            if words[:1] != ["qsteiner"]:
                continue
            at = next(i for i, word in enumerate(words) if word in cli.COMMANDS)
            before, after = " ".join(words[1:at]), " ".join(words[at + 1 :])
            assert set(re.findall(flag, before)) <= top, line
            assert set(re.findall(flag, after)) <= helps[words[at]], line
            examples += 1
    assert examples


def test_expand_takes_representatives_with_keys_wider_than_64_bits(tmp_path, capsys):
    # a 6-subspace of GF(2)^14 has a 65-bit key
    reps = str(tmp_path / "reps.txt")
    first_six = np.array([[1 << i for i in range(6)]], dtype=np.uint64)
    BlockSet(14, 6, first_six).save(reps)
    code, out, err = run(
        capsys, "--out-dir", str(tmp_path), "expand", "--singer-normalizer", "14",
        "--reps", reps,
    )
    assert code == 0, err
    assert "expanded 1 orbits to 229362 distinct blocks (lengths [229362])" in out


def test_bundled_pipeline_writes_the_pinned_block_file(tmp_path, capsys):
    # the README's `expand --fixture paper-13 --fixture-solution`: 1,597,245
    # blocks, 68,681,572 bytes
    code, out, err = run(
        capsys, "--out-dir", str(tmp_path), "expand", "--fixture", "paper-13",
        "--fixture-solution",
    )
    assert code == 0, err
    assert "expanded 15 orbits to 1597245 distinct blocks" in out
    digest = hashlib.sha256()
    with open(tmp_path / "blocks.txt", "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    assert digest.hexdigest() == (
        "ce0ea98dbff6554c1a8867215ee5e97ce56f57bb267f40c2770d9979cf74c4f9"
    )
