"""Command line pipeline for subspace design construction and verification.

Subcommands chain through files: `group` writes generators and a closure
count, `orbits` writes orbit tables (reports that no command reads back),
`km` writes the orbit incidence system, `solve` writes exact-cover
solutions, `expand` turns orbit representatives into a block list, and
`verify` recounts coverage from the blocks alone.  `paper-check` runs the
whole chain on the bundled 13-dimensional dataset and prints a pass/fail
table with timings.

Exit codes: 0 success, 1 verification failure, 2 usage error (also an
input file that cannot be read or parsed: the error names the file),
3 resource limit reached.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import numpy as np

from . import fixtures
from .exact_cover import (
    SolveConfig,
    check_solution,
    from_km,
    load_solutions,
    save_solutions,
    solve,
)
from .gf2 import MAX_WIDTH, FormatError, LimitError, identity
from .groups import (
    MatrixGroup,
    expand_orbits,
    format_group,
    group_closure,
    load_generator_file,
    orbit_partition,
    singer_normalizer,
)
from .kramer_mesner import build_km, export_km, import_km, prune
from .subspace import gaussian_binomial, key_order, spread_size
from .verify import (
    BlockSet,
    derived_steiner_sample_check,
    format_report,
    min_distance_certificate,
    packing_bound,
    verify_design,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


class UsageError(Exception):
    pass


class VerificationFailure(Exception):
    pass


def out_path(args: argparse.Namespace, filename: str) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, filename)


# ---------------------------------------------------------------------------
# group sources


def add_group_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--fixture",
        choices=["paper-13"],
        help="bundled 13-dimensional dataset (forces n=13)",
    )
    p.add_argument(
        "--singer-normalizer",
        type=int,
        metavar="N",
        help="construct the Singer-cycle normalizer of GL(N,2)",
    )
    p.add_argument(
        "--generators", metavar="FILE", help="read generator matrices from FILE"
    )
    p.add_argument(
        "--trivial-group",
        action="store_true",
        help="the identity-only group (requires --n)",
    )
    p.add_argument("--n", type=int, help="ambient dimension for --trivial-group")


def resolve_group(args: argparse.Namespace) -> MatrixGroup:
    given = (args.fixture, args.singer_normalizer, args.generators)
    if sum(flag is not None for flag in given) + args.trivial_group != 1:
        raise UsageError(
            "choose exactly one group source: --fixture, --singer-normalizer, "
            "--generators, or --trivial-group"
        )
    n = args.n
    if args.fixture is not None:
        if n is not None and n != fixtures.FIXTURE_N:
            raise UsageError("fixture paper-13 forces n=13")
        fixtures.self_test()
        return fixtures.fixture_group()
    singer_n = args.singer_normalizer
    if singer_n is not None:
        if n is not None and n != singer_n:
            raise UsageError(f"--singer-normalizer {singer_n} forces n={singer_n}")
        try:
            return singer_normalizer(singer_n)
        except ValueError as exc:
            raise UsageError(f"--singer-normalizer: {exc}") from None
    if args.generators is not None:
        return load_generator_file(args.generators, n=n)
    if n is None:
        raise UsageError("--trivial-group requires --n")
    if not 1 <= n <= MAX_WIDTH:
        raise UsageError(f"need 1 <= n <= {MAX_WIDTH}")
    return MatrixGroup(n=n, generators=(identity(n),), order=1)


def resolve_reps(args: argparse.Namespace, group: MatrixGroup):
    """(representative rows, their source file or flag) from exactly one of
    --k K with ids of orbits of k-subspaces from --ids or the first line of
    a --solution file, --reps FILE (a block file) and --fixture-solution."""
    k, reps_file = args.k, args.reps
    use_fixture = args.fixture_solution
    if (k is not None) + (reps_file is not None) + use_fixture != 1:
        raise UsageError(
            "choose exactly one of --k K, --reps FILE or --fixture-solution"
        )
    if k is None and (args.ids, args.solution) != (None, None):
        raise UsageError("--ids and --solution need --k K")
    if use_fixture:
        if group.n != fixtures.FIXTURE_N:
            raise UsageError("--fixture-solution requires the n=13 group")
        return fixtures.solution_representatives(), "--fixture-solution"
    if reps_file is not None:
        reps = BlockSet.load(reps_file)
        if reps.n != group.n:
            raise UsageError(f"{reps_file}: representatives are not in GF(2)^{group.n}")
        return reps.blocks, reps_file
    ids_text, solution_file = args.ids, args.solution
    if (ids_text is None) == (solution_file is None):
        raise UsageError("--k needs exactly one of --ids or --solution")
    if not 1 <= k <= group.n:
        raise UsageError(f"need 1 <= k <= n = {group.n}")
    if ids_text is not None:
        ids, source = _parse_ids(ids_text, "--ids", "orbit ids"), "--ids"
        if not ids:
            raise UsageError(f"--ids names no orbit id: {ids_text!r}")
    else:
        rows, _ = load_solutions(solution_file)
        if not rows:
            raise UsageError(f"{solution_file}: contains no solutions")
        ids, source = list(rows[0]), solution_file
    # after the checks of the ids: the partition is the slow step
    table = orbit_partition(group, k)
    try:
        reps = [table.rep(i) for i in ids]
    except IndexError as exc:
        raise UsageError(f"{source}: {exc}") from exc
    if len(set(ids)) != len(ids):
        raise UsageError(f"orbit ids repeat: {ids}")
    return np.array(reps, dtype=np.uint64).reshape(len(ids), k), source


# ---------------------------------------------------------------------------
# subcommands


def cmd_group(args: argparse.Namespace) -> int:
    group = resolve_group(args)
    t0 = time.time()
    closed = group_closure(group)
    elapsed = time.time() - t0
    path = out_path(args, "group.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_group(closed))
    print(f"group order {closed.order} ({elapsed:.1f}s closure)")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_orbits(args: argparse.Namespace) -> int:
    group = resolve_group(args)
    dim = args.dim
    if dim is None:
        raise UsageError("--dim is required")
    if not 0 <= dim <= group.n:
        raise UsageError(f"need 0 <= dim <= n = {group.n}")
    t0 = time.time()
    table = orbit_partition(group, dim)
    elapsed = time.time() - t0
    total = table.total_subspaces()
    expect = gaussian_binomial(group.n, dim, 2)
    path = out_path(args, f"orbits-n{group.n}-k{dim}.txt")
    table.save(path)
    print(
        f"{table.num_orbits} orbits of {dim}-subspaces, "
        f"lengths sum {total} (expected {expect}) ({elapsed:.1f}s)"
    )
    print(f"wrote {path}")
    return EXIT_OK


def cmd_km(args: argparse.Namespace) -> int:
    group = resolve_group(args)
    t, k, lam = args.t, args.k, args.lam
    if not 0 < t < k <= group.n:
        raise UsageError("need 0 < t < k <= n")
    if lam < 1:
        raise UsageError("need lambda >= 1")
    t0 = time.time()
    inst = build_km(orbit_partition(group, t), orbit_partition(group, k), lam=lam)
    sums = set(inst.row_sums().values())
    print(
        f"incidence system {inst.shape[0]} x {inst.shape[1]}, "
        f"row sums {sorted(sums)} ({time.time()-t0:.1f}s)"
    )
    full_path = out_path(args, f"km-n{group.n}-t{t}-k{k}-full.txt")
    export_km(inst, full_path)
    print(f"wrote {full_path}")
    pruned = prune(inst)
    pruned_path = out_path(args, f"km-n{group.n}-t{t}-k{k}-pruned.txt")
    export_km(pruned, pruned_path)
    print(
        f"pruned to {pruned.shape[0]} x {pruned.shape[1]} "
        f"({len(inst.col_ids) - len(pruned.col_ids)} columns dropped)"
    )
    print(f"wrote {pruned_path}")
    return EXIT_OK


def _parse_ids(text: str | None, flag: str, what: str) -> list[int]:
    """The comma- or space-separated integer ids of a flag's value; what
    names them in the error."""
    if not text:
        return []
    parts = [p for chunk in text.split(",") for p in chunk.split()]
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"{flag} expects integer {what}: {exc}") from exc


def _max_solutions(args: argparse.Namespace) -> int | None:
    raw = args.max_solutions
    if raw == "all":
        return None
    if not (raw.isascii() and raw.isdigit()) or int(raw) < 1:
        raise UsageError(f"--max-solutions expects a positive integer or 'all': {raw}")
    return int(raw)


def cmd_solve(args: argparse.Namespace) -> int:
    if args.km is None:
        raise UsageError("--km FILE is required (produce one with the km command)")
    inst = import_km(args.km)
    pruned = prune(inst)
    if len(pruned.col_ids) < len(inst.col_ids):
        print(f"input had entries above {inst.lam}; pruned before solving")
    if pruned.matrix.max(initial=0) > 1:  # lambda > 1 keeps entries above 1
        column = pruned.col_ids[int(pruned.matrix.max(axis=0).argmax())]
        raise UsageError(
            f"{args.km}: column {column} keeps entries above 1 after pruning at "
            f"lambda {inst.lam}; the solver takes 0/1 systems only"
        )
    problem = from_km(pruned)
    config = SolveConfig(
        max_solutions=_max_solutions(args),
        node_limit=_not_below(args.node_limit, "--node-limit"),
        time_limit=_not_below(args.time_limit, "--time-limit"),
        seed=args.seed,
        order=args.order,
        forced=_parse_ids(args.force, "--force", "column ids"),
    )
    try:
        solutions, stats = solve(problem, config)
    except ValueError as exc:
        # the problem and config were checked when built: a forced column
        raise UsageError(f"--force: {exc}") from None
    for sol in solutions:
        ok, _ = check_solution(problem, sol.labels)
        if not ok:
            raise AssertionError("solver returned a solution that fails recounting")
    path = out_path(args, "solutions.txt")
    save_solutions(path, problem, config, stats, solutions)
    rate = stats.nodes / stats.elapsed if stats.elapsed > 0 else 0.0
    print(
        f"{stats.solutions} solutions, {stats.nodes} nodes, "
        f"max depth {stats.max_depth}, elapsed {stats.elapsed:.1f}s, "
        f"{rate:.0f} nodes/s"
    )
    print(f"wrote {path}")
    if stats.limit in ("nodes", "time") and not solutions:
        print(f"stopped by {stats.limit} limit before finding a solution")
        return EXIT_LIMIT
    return EXIT_OK


def cmd_expand(args: argparse.Namespace) -> int:
    group = resolve_group(args)
    reps, source = resolve_reps(args, group)
    t0 = time.time()
    try:
        blocks, lengths = expand_orbits(group, reps)
    except ValueError as exc:
        raise FormatError(f"{source}: {exc}") from None
    # the file lists each orbit in ascending key order
    stop = 0
    for length in lengths:
        part = blocks.blocks[stop : stop + length]
        part[...] = part[key_order(part)]
        stop += length
    path = out_path(args, "blocks.txt")
    blocks.save(path)
    print(
        f"expanded {len(reps)} orbits to {blocks.num_blocks} distinct blocks "
        f"(lengths {sorted(set(lengths))}) ({time.time()-t0:.1f}s)"
    )
    print(f"wrote {path}")
    return EXIT_OK


def _not_below(value, flag: str):
    """A count, limit or seed flag's value, None where it is not given; a
    negative value, or NaN, is a usage error."""
    if value is not None and not value >= 0:
        raise UsageError(f"{flag} must be >= 0")
    return value


def cmd_verify(args: argparse.Namespace) -> int:
    if args.blocks is None:
        raise UsageError(
            "--blocks FILE is required (produce one with the expand command)"
        )
    t, lam = args.t, args.lam
    if lam < 1:
        raise UsageError("need lambda >= 1")
    dist_samples = _not_below(args.distance_samples, "--distance-samples")
    derived_samples = _not_below(args.derived_samples, "--derived-samples")
    # the sampled certificates are defined for these parameters only
    if dist_samples and lam != 1:
        raise UsageError("--distance-samples needs lambda = 1")
    if derived_samples and (t, lam) != (2, 1):
        raise UsageError("--derived-samples needs t = 2 and lambda = 1")
    blocks = BlockSet.load(args.blocks)
    if not 0 < t <= blocks.k:
        raise UsageError(f"need 0 < t <= k = {blocks.k}")
    if dist_samples and blocks.num_blocks < 2:
        raise UsageError("--distance-samples needs at least two blocks")
    t0 = time.time()
    report = verify_design(blocks, t, lam)
    elapsed = time.time() - t0
    path = out_path(args, "report.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_report(report))
    print(
        f"{report.num_blocks} blocks, {report.total_t_subspaces} {t}-subspaces, "
        f"histogram {report.histogram} ({elapsed:.1f}s)"
    )
    print(f"wrote {path}")
    if not report.ok:
        print(f"verification failed: {report.violations_total} violations")
        return EXIT_VERIFY_FAIL
    print("verification passed: every t-subspace covered exactly lambda times")
    if dist_samples:
        d = min_distance_certificate(
            blocks, report, samples=dist_samples, seed=args.seed
        )
        print(f"minimum subspace distance {d} ({dist_samples} sampled pairs)")
    if derived_samples:
        stats = derived_steiner_sample_check(
            blocks, report, samples=derived_samples, seed=args.seed
        )
        print(
            f"derived triple check: {stats['failures']} failures "
            f"in {stats['samples']} samples"
        )
        if stats["failures"]:
            return EXIT_VERIFY_FAIL
    return EXIT_OK


# the paper's sampled certificates: acceptance criteria 7 and 8
PAPER_DISTANCE_SAMPLES = 10**6
PAPER_DERIVED_SAMPLES = 10**5


def cmd_paper_check(args: argparse.Namespace) -> int:
    skip_3, seed = args.skip_3_orbits, args.seed
    paper = fixtures.PAPER
    rows: list[tuple[str, str, float, bool]] = []
    name, t0 = "", 0.0

    def begin(stage: str) -> None:
        nonlocal name, t0
        name, t0 = stage, time.time()

    def done(result: str, ok: bool) -> None:
        rows.append((name, result, time.time() - t0, ok))
        if not ok:
            raise VerificationFailure(name)

    try:
        begin("fixture integrity")
        fixtures.self_test()
        done("checksums and ranks valid", True)

        begin("group closure")
        generators = fixtures.fixture_group().generators
        group = group_closure(MatrixGroup(n=fixtures.FIXTURE_N, generators=generators))
        done(f"order {group.order}", group.order == paper["group_order"])

        begin("2-subspace orbits")
        t2 = orbit_partition(group, 2)
        lengths = set(t2.lengths)
        done(
            f"{t2.num_orbits} orbits, lengths {sorted(lengths)}",
            t2.num_orbits == paper["orbits_k2"] and lengths == {paper["group_order"]},
        )

        if not skip_3:
            begin("3-subspace orbits")
            t3 = orbit_partition(group, 3)
            total = t3.total_subspaces()
            done(
                f"{t3.num_orbits} orbits, sum {total}",
                t3.num_orbits == paper["orbits_k3"]
                and total == gaussian_binomial(13, 3, 2),
            )

            begin("incidence system")
            km = build_km(t2, t3, lam=1)
            sums = set(km.row_sums().values())
            km = prune(km)
            done(
                f"row sums {sorted(sums)}, pruned {km.shape[0]} x {km.shape[1]}",
                sums == {paper["km_row_sum"]}
                and km.shape == (paper["orbits_k2"], paper["km_columns"])
                and km.matrix.max(initial=0) <= 1,
            )

            begin("bundled solution")
            reps = fixtures.solution_representatives()
            ids = sorted(t3.lookup_rows_bulk(reps).tolist())
            ok, coverage = check_solution(from_km(km), ids)
            done(
                f"15 columns cover {len(coverage)} rows exactly once",
                ok and len(set(ids)) == 15,
            )

        begin("orbit expansion")
        blocks, lengths = expand_orbits(group, fixtures.solution_representatives())
        done(
            f"{blocks.num_blocks} distinct blocks",
            blocks.num_blocks == paper["blocks"]
            and set(lengths) == {paper["group_order"]},
        )

        begin("design verification")
        report = verify_design(blocks, 2, 1)
        verdict = "pass" if report.ok else "fail"
        done(
            f"histogram {report.histogram}, verdict {verdict}",
            report.ok and report.histogram == {1: paper["pairs"]},
        )

        begin("packing bound")
        bound = packing_bound(13, 3, 2)
        done(f"packing bound {bound}", bound == blocks.num_blocks)

        begin("minimum distance")
        d = min_distance_certificate(
            blocks, report, samples=PAPER_DISTANCE_SAMPLES, seed=seed
        )
        done(f"minimum distance {d} on {PAPER_DISTANCE_SAMPLES} pairs", d == 4)

        begin("derived triple cover")
        stats = derived_steiner_sample_check(
            blocks, report, samples=PAPER_DERIVED_SAMPLES, seed=seed
        )
        done(
            f"{stats['failures']} failures in {stats['samples']} triples",
            stats["failures"] == 0,
        )
    except VerificationFailure:
        pass
    except Exception as exc:
        rows.append((name, f"error: {exc}", time.time() - t0, False))
    failed = not rows[-1][3]

    width = max(len(name) for name, *_ in rows)
    print()
    for name, result, elapsed, ok in rows:
        mark = "PASS" if ok else "FAIL"
        print(f"{mark}  {name:<{width}}  {elapsed:7.1f}s  {result}")
    if skip_3:
        print("      (3-subspace orbit and incidence stages skipped on request)")
    print()
    print(f"first failing stage: {rows[-1][0]}" if failed else "all stages passed")
    peak = _peak_rss_mb()
    if peak is not None:
        print(f"peak RSS {peak:.0f} MB")
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


def _peak_rss_mb() -> float | None:
    """Peak resident set size of this process, or None without resource."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # kilobytes on Linux, bytes on macOS
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def cmd_spread_demo(args: argparse.Namespace) -> int:
    n, k = args.n, args.k
    if k < 2:
        raise UsageError("spread demo needs k >= 2")
    if not 1 <= n <= 10:
        raise UsageError("spread demo is meant for small n (1 to 10)")
    if n % k:
        raise UsageError(f"no spreads: {k} does not divide {n}")
    # spreads are the 1-(n, k, 1) designs: the KM system of the trivial group
    group = MatrixGroup(n=n, generators=(identity(n),), order=1)
    table = orbit_partition(group, k)
    problem = from_km(build_km(orbit_partition(group, 1), table))
    config = SolveConfig(max_solutions=_max_solutions(args))
    t0 = time.time()
    solutions, stats = solve(problem, config)
    sizes = {len(sol.labels) for sol in solutions}
    print(
        f"{stats.solutions} spreads of {k}-subspaces in GF(2)^{n}, "
        f"sizes {sorted(sizes)} (expected {spread_size(n, k)}) "
        f"({time.time()-t0:.1f}s)"
    )
    if not solutions:
        return EXIT_VERIFY_FAIL
    first = BlockSet(n, k, table.rows[list(solutions[0].labels)])
    report = verify_design(first, 1, 1)
    print(f"first spread verification: {'pass' if report.ok else 'fail'}")
    return EXIT_OK if report.ok else EXIT_VERIFY_FAIL


def cmd_bounds(args: argparse.Namespace) -> int:
    n, k, t = args.n, args.k, args.t
    if n is None or k is None:
        raise UsageError("--n and --k are required")
    if not 0 < k <= n:
        raise UsageError("need 0 < k <= n")
    if t is not None and not 0 < t <= k:
        raise UsageError("need 0 < t <= k")
    print(f"subspaces: [{n} {k}]_2 = {gaussian_binomial(n, k, 2)}")
    if n % k == 0:
        print(f"spread size: {spread_size(n, k)}")
    else:
        print(f"no spreads: {k} does not divide {n}")
    if t is not None:
        try:
            bound = packing_bound(n, k, t)
            print(f"packing bound for t={t}: {bound}")
        except ValueError:
            num = gaussian_binomial(n, t, 2)
            den = gaussian_binomial(k, t, 2)
            print(f"packing bound for t={t}: {num}/{den} is not an integer")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def add_lambda_flag(p: argparse.ArgumentParser, text: str) -> None:
    """--lambda LAMBDA, read as args.lam: lambda is a Python keyword."""
    p.add_argument(
        "--lambda", type=int, default=1, dest="lam", metavar="LAMBDA", help=text
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsteiner",
        description="construct and verify q-analog Steiner systems over GF(2)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for randomized searches"
    )
    parser.add_argument("--out-dir", default=".", help="directory for output files")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="run the closure and report the group order")
    add_group_flags(p)

    p = sub.add_parser("orbits", help="partition k-subspaces into orbits")
    add_group_flags(p)
    p.add_argument("--dim", type=int, help="subspace dimension to partition")

    p = sub.add_parser("km", help="build the orbit incidence system")
    add_group_flags(p)
    p.add_argument(
        "--t", type=int, default=2, help="row subspace dimension (default 2)"
    )
    p.add_argument(
        "--k", type=int, default=3, help="column subspace dimension (default 3)"
    )
    add_lambda_flag(p, "target coverage multiplicity")

    p = sub.add_parser("solve", help="solve the incidence system as exact cover")
    p.add_argument("--km", metavar="FILE", help="incidence system file")
    p.add_argument(
        "--max-solutions",
        default="1",
        help="stop after this many solutions, or 'all'",
    )
    p.add_argument("--node-limit", type=int, help="search node budget")
    p.add_argument("--time-limit", type=float, help="wall clock budget in seconds")
    p.add_argument(
        "--order",
        choices=["file", "randomized"],
        default="file",
        help="option exploration order",
    )
    p.add_argument(
        "--force",
        metavar="IDS",
        help="comma separated column ids forced into every solution",
    )

    p = sub.add_parser("expand", help="expand orbit representatives into blocks")
    add_group_flags(p)
    p.add_argument("--reps", metavar="FILE", help="orbit representative file")
    p.add_argument(
        "--fixture-solution",
        action="store_true",
        help="use the bundled 15 representatives",
    )
    p.add_argument(
        "--k", type=int, metavar="K", help="dimension of the orbits the ids name"
    )
    p.add_argument("--ids", metavar="IDS", help="comma separated orbit ids to expand")
    p.add_argument(
        "--solution",
        metavar="FILE",
        help="take orbit ids from the first solution in FILE",
    )

    p = sub.add_parser("verify", help="recount coverage of a block list")
    p.add_argument("--blocks", metavar="FILE", help="block list file")
    p.add_argument(
        "--t", type=int, default=2, help="covered subspace dimension (default 2)"
    )
    add_lambda_flag(p, "required coverage (default 1)")
    p.add_argument(
        "--distance-samples",
        type=int,
        default=0,
        help="also certify the minimum distance on this many sampled pairs",
    )
    p.add_argument(
        "--derived-samples",
        type=int,
        default=0,
        help="also spot-check derived triple coverage on this many samples",
    )

    p = sub.add_parser(
        "paper-check",
        help="run the full bundled 13-dimensional chain with a pass/fail table",
    )
    p.add_argument(
        "--skip-3-orbits",
        action="store_true",
        help="skip the 3-orbit and incidence stages (verification still runs)",
    )

    p = sub.add_parser("spread-demo", help="enumerate spreads in a small space")
    p.add_argument("--n", type=int, default=4, help="ambient dimension (default 4)")
    p.add_argument("--k", type=int, default=2, help="block dimension (default 2)")
    p.add_argument(
        "--max-solutions", default="all", help="stop after this many, or 'all'"
    )

    p = sub.add_parser("bounds", help="print counting bounds for given parameters")
    p.add_argument("--n", type=int, help="ambient dimension")
    p.add_argument("--k", type=int, help="block dimension")
    p.add_argument("--t", type=int, help="covered dimension for the packing bound")

    return parser


COMMANDS = {
    "group": cmd_group,
    "orbits": cmd_orbits,
    "km": cmd_km,
    "solve": cmd_solve,
    "expand": cmd_expand,
    "verify": cmd_verify,
    "paper-check": cmd_paper_check,
    "spread-demo": cmd_spread_demo,
    "bounds": cmd_bounds,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _not_below(args.seed, "--seed")
        return COMMANDS[args.command](args)
    except (UsageError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LimitError as exc:
        print(f"limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (AssertionError, VerificationFailure, fixtures.FixtureIntegrityError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
