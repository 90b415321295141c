"""Command line pipeline for subspace design construction and verification.

Subcommands chain through files: `group` writes generators and a closure
count, `orbits` writes orbit tables, `km` writes the orbit incidence
system, `solve` writes exact-cover solutions, `expand` turns orbit
representatives into a block list, and `verify` recounts coverage from
the blocks alone.  `paper-check` runs the whole chain on the bundled
13-dimensional dataset and prints a pass/fail table with timings.

Exit codes: 0 success, 1 verification failure, 2 usage error,
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
from .gf2 import MAX_WIDTH, FormatError, identity
from .groups import (
    ClosureCapError,
    MatrixGroup,
    OrbitTable,
    StrategyError,
    format_group,
    group_closure,
    load_generator_file,
    orbit_partition,
    singer_normalizer,
)
from .kramer_mesner import build_km, export_km, import_km, prune
from .subspace import (
    EnumerationGuardError,
    gaussian_binomial,
    spread_size,
)
from .verify import (
    BlockSet,
    derived_steiner_sample_check,
    expand_orbits,
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


# ---------------------------------------------------------------------------
# config file: `key = value` lines, '#' comments; flags override file values


def load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for ln, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{ln}: expected key = value")
                key, val = line.split("=", 1)
                values[key.strip()] = val.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    return values


class Settings:
    """Flag values with config-file fallback: flags override file keys."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file_values = (
            load_config_file(args.config) if getattr(args, "config", None) else {}
        )

    def get(self, name: str, default=None, cast=str):
        flag = getattr(self.args, name.replace("-", "_"), None)
        if flag is not None:
            return flag
        if name in self.file_values:
            try:
                return cast(self.file_values[name])
            except ValueError as exc:
                raise UsageError(f"config key {name}: {exc}") from exc
        return default

    def flag_true(self, name: str) -> bool:
        if getattr(self.args, name.replace("-", "_"), False):
            return True
        if name in self.file_values:
            raw = self.file_values[name].lower()
            if raw in ("1", "true", "yes", "on"):
                return True
            if raw in ("0", "false", "no", "off"):
                return False
            raise UsageError(f"config key {name}: not a boolean: {raw}")
        return False


def out_path(settings: Settings, filename: str) -> str:
    out_dir = settings.get("out-dir", default=".")
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, filename)


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


def resolve_group(settings: Settings) -> MatrixGroup:
    fixture = settings.get("fixture")
    singer_n = settings.get("singer-normalizer", cast=int)
    gen_file = settings.get("generators")
    trivial = settings.flag_true("trivial-group")
    sources = [
        s
        for s, chosen in [
            ("--fixture", fixture is not None),
            ("--singer-normalizer", singer_n is not None),
            ("--generators", gen_file is not None),
            ("--trivial-group", trivial),
        ]
        if chosen
    ]
    if len(sources) != 1:
        raise UsageError(
            "choose exactly one group source: --fixture, --singer-normalizer, "
            "--generators, or --trivial-group"
        )
    if fixture is not None:
        if fixture != "paper-13":
            raise UsageError(f"unknown fixture: {fixture}")
        n_flag = settings.get("n", cast=int)
        if n_flag is not None and n_flag != fixtures.FIXTURE_N:
            raise UsageError("fixture paper-13 forces n=13")
        fixtures.self_test()
        return fixtures.fixture_group()
    if singer_n is not None:
        try:
            return singer_normalizer(singer_n)
        except ValueError as exc:
            raise UsageError(f"--singer-normalizer: {exc}") from None
    if gen_file is not None:
        n_flag = settings.get("n", cast=int)
        return load_generator_file(gen_file, n=n_flag)
    n_flag = settings.get("n", cast=int)
    if n_flag is None:
        raise UsageError("--trivial-group requires --n")
    if not 1 <= n_flag <= MAX_WIDTH:
        raise UsageError(f"need 1 <= n <= {MAX_WIDTH}")
    return MatrixGroup(n=n_flag, generators=(identity(n_flag),), order=1)


def resolve_reps(settings: Settings, group: MatrixGroup):
    """(representative rows, their source file or flag) from exactly one of
    --reps FILE (a block file), --fixture-solution, and in expand --k-orbits
    FILE with ids from --ids or the first line of a --solution file."""
    tables = hasattr(settings.args, "k_orbits")
    table_file = settings.get("k-orbits") if tables else None
    reps_file = settings.get("reps")
    use_fixture = settings.flag_true("fixture-solution")
    if (table_file is not None) + (reps_file is not None) + use_fixture != 1:
        raise UsageError(
            "choose exactly one of "
            f"{'--k-orbits FILE, ' if tables else ''}--reps FILE or --fixture-solution"
        )
    if use_fixture:
        if group.n != fixtures.FIXTURE_N:
            raise UsageError("--fixture-solution requires the n=13 group")
        return fixtures.solution_representatives(), "--fixture-solution"
    if reps_file is not None:
        try:
            reps = BlockSet.load(reps_file)
        except FormatError as exc:
            raise FormatError(f"{reps_file}: {exc}") from None
        if reps.n != group.n:
            raise UsageError(f"{reps_file}: representatives are not in GF(2)^{group.n}")
        return reps.blocks, reps_file
    ids_text = settings.get("ids")
    solution_file = settings.get("solution")
    if (ids_text is None) == (solution_file is None):
        raise UsageError("--k-orbits needs exactly one of --ids or --solution")
    table = OrbitTable.load(table_file, group=group)
    if ids_text is not None:
        ids = _parse_ids(ids_text, "--ids", "orbit ids")
    else:
        try:
            rows, _ = load_solutions(solution_file)
        except FormatError as exc:
            raise FormatError(f"{solution_file}: {exc}") from None
        if not rows:
            raise UsageError(f"{solution_file}: contains no solutions")
        ids = list(rows[0])
    try:
        reps = [table.rep(i) for i in ids]
    except IndexError as exc:
        raise UsageError(f"{table_file}: {exc}") from exc
    if len(set(ids)) != len(ids):
        raise UsageError(f"orbit ids repeat: {ids}")
    return np.array(reps, dtype=np.uint64).reshape(len(ids), table.k), table_file


def expand_reps(group: MatrixGroup, reps, source: str):
    """expand_orbits, with representatives that do not make a block set
    reported against their source; a block file holds dimension k >= 1."""
    if not reps.shape[1]:
        raise FormatError(f"{source}: blocks must have dimension k >= 1")
    try:
        return expand_orbits(group, reps)
    except ValueError as exc:
        raise FormatError(f"{source}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_group(settings: Settings) -> int:
    group = resolve_group(settings)
    t0 = time.time()
    closed = group_closure(group)
    elapsed = time.time() - t0
    path = out_path(settings, "group.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_group(closed))
    print(f"group order {closed.order} ({elapsed:.1f}s closure)")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_orbits(settings: Settings) -> int:
    group = resolve_group(settings)
    dim = settings.get("dim", cast=int)
    if dim is None:
        raise UsageError("--dim is required")
    if not 0 <= dim <= group.n:
        raise UsageError(f"need 0 <= dim <= n = {group.n}")
    t0 = time.time()
    table = orbit_partition(group, dim)
    elapsed = time.time() - t0
    total = table.total_subspaces()
    expect = gaussian_binomial(group.n, dim, 2)
    path = out_path(settings, f"orbits-n{group.n}-k{dim}.txt")
    table.save(path)
    print(
        f"{table.num_orbits} orbits of {dim}-subspaces, "
        f"lengths sum {total} (expected {expect}) ({elapsed:.1f}s)"
    )
    print(f"wrote {path}")
    return EXIT_OK if total == expect else EXIT_VERIFY_FAIL


def _load_or_build_table(
    settings: Settings, group: MatrixGroup, dim: int, name: str
) -> OrbitTable:
    """The --{name}-orbits table, else a new partition; a saved table whose
    dimension is not the --{name} value is a usage error."""
    path = settings.get(f"{name}-orbits")
    if path is None:
        return orbit_partition(group, dim)
    table = OrbitTable.load(path, group=group)
    if table.k != dim:
        held = f"the table holds orbits of {table.k}-subspaces"
        raise UsageError(f"{path}: {held}, but --{name} is {dim}")
    return table


def cmd_km(settings: Settings) -> int:
    group = resolve_group(settings)
    t = settings.get("t", default=2, cast=int)
    k = settings.get("k", default=3, cast=int)
    lam = settings.get("lambda", default=1, cast=int)
    if not 0 < t < k <= group.n:
        raise UsageError("need 0 < t < k <= n")
    if lam < 1:
        raise UsageError("need lambda >= 1")
    t0 = time.time()
    t_table = _load_or_build_table(settings, group, t, "t")
    k_table = _load_or_build_table(settings, group, k, "k")
    inst = build_km(t_table, k_table, lam=lam)
    sums = set(inst.row_sums().values())
    print(
        f"incidence system {inst.shape[0]} x {inst.shape[1]}, "
        f"row sums {sorted(sums)} ({time.time()-t0:.1f}s)"
    )
    full_path = out_path(settings, f"km-n{group.n}-t{t}-k{k}-full.txt")
    export_km(inst, full_path)
    print(f"wrote {full_path}")
    pruned = prune(inst)
    pruned_path = out_path(settings, f"km-n{group.n}-t{t}-k{k}-pruned.txt")
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


def _max_solutions(settings: Settings, default: str) -> int | None:
    raw = str(settings.get("max-solutions", default=default))
    if raw == "all":
        return None
    if not (raw.isascii() and raw.isdigit()) or int(raw) < 1:
        raise UsageError(f"--max-solutions expects a positive integer or 'all': {raw}")
    return int(raw)


def cmd_solve(settings: Settings) -> int:
    km_file = settings.get("km")
    if km_file is None:
        raise UsageError("--km FILE is required (produce one with the km command)")
    inst = import_km(km_file)
    if inst.matrix.max(initial=0) > 1:
        inst = prune(inst)
        print("input had entries above 1; pruned before solving")
    problem = from_km(inst)
    config = SolveConfig(
        max_solutions=_max_solutions(settings, default="1"),
        node_limit=settings.get("node-limit", cast=int),
        time_limit=settings.get("time-limit", cast=float),
        seed=settings.get("seed", default=0, cast=int),
        order=settings.get("order", default="file"),
        forced=_parse_ids(settings.get("force"), "--force", "column ids"),
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
    path = out_path(settings, "solutions.txt")
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


def cmd_expand(settings: Settings) -> int:
    group = resolve_group(settings)
    reps, source = resolve_reps(settings, group)
    t0 = time.time()
    blocks, lengths = expand_reps(group, reps, source)
    path = out_path(settings, "blocks.txt")
    blocks.save(path)
    print(
        f"expanded {len(reps)} orbits to {blocks.num_blocks} distinct blocks "
        f"(lengths {sorted(set(lengths))}) ({time.time()-t0:.1f}s)"
    )
    print(f"wrote {path}")
    return EXIT_OK


def _sample_count(settings: Settings, name: str, default: int, least: int = 0) -> int:
    value = settings.get(name, default=default, cast=int)
    if value < least:
        raise UsageError(f"--{name} must be >= {least}")
    return value


def cmd_verify(settings: Settings) -> int:
    t = settings.get("t", default=2, cast=int)
    lam = settings.get("lambda", default=1, cast=int)
    if lam < 1:
        raise UsageError("need lambda >= 1")
    dist_samples = _sample_count(settings, "distance-samples", default=0)
    derived_samples = _sample_count(settings, "derived-samples", default=0)
    blocks_file = settings.get("blocks")
    if blocks_file is not None:
        if settings.get("reps") is not None or settings.flag_true("fixture-solution"):
            raise UsageError(
                "choose exactly one of --blocks FILE, --reps FILE or --fixture-solution"
            )
        blocks = BlockSet.load(blocks_file)
    else:
        group = resolve_group(settings)
        blocks, _ = expand_reps(group, *resolve_reps(settings, group))
    if not 0 < t <= blocks.k:
        raise UsageError(f"need 0 < t <= k = {blocks.k}")
    t0 = time.time()
    report = verify_design(blocks, t, lam)
    elapsed = time.time() - t0
    path = out_path(settings, "report.txt")
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
    seed = settings.get("seed", default=0, cast=int)
    if dist_samples and lam == 1:
        d = min_distance_certificate(blocks, report, samples=dist_samples, seed=seed)
        print(f"minimum subspace distance {d} ({dist_samples} sampled pairs)")
    if derived_samples and t == 2 and lam == 1:
        stats = derived_steiner_sample_check(
            blocks, report, samples=derived_samples, seed=seed
        )
        print(
            f"derived triple check: {stats['failures']} failures "
            f"in {stats['samples']} samples"
        )
        if stats["failures"]:
            return EXIT_VERIFY_FAIL
    return EXIT_OK


def cmd_paper_check(settings: Settings) -> int:
    skip_3 = settings.flag_true("skip-3-orbits")
    seed = settings.get("seed", default=0, cast=int)
    # a certificate on no samples certifies nothing; verify reads 0 as skip
    dist_samples = _sample_count(settings, "distance-samples", 10**6, least=1)
    derived_samples = _sample_count(settings, "derived-samples", 10**5, least=1)
    paper = fixtures.PAPER
    rows: list[tuple[str, str, float, bool]] = []

    def stage(name: str, fn):
        t0 = time.time()
        try:
            result, ok = fn()
        except Exception as exc:
            rows.append((name, f"error: {exc}", time.time() - t0, False))
            raise VerificationFailure(name) from exc
        rows.append((name, result, time.time() - t0, ok))
        if not ok:
            raise VerificationFailure(name)
        return result

    state: dict = {}

    def run_all() -> None:
        def s_fixture():
            fixtures.self_test()
            return "checksums and ranks valid", True

        stage("fixture integrity", s_fixture)

        def s_group():
            raw = MatrixGroup(
                n=fixtures.FIXTURE_N, generators=fixtures.fixture_group().generators
            )
            closed = group_closure(raw)
            state["group"] = closed
            return f"order {closed.order}", closed.order == paper["group_order"]

        stage("group closure", s_group)

        def s_2orbits():
            table = orbit_partition(state["group"], 2)
            state["t2"] = table
            lengths = set(table.lengths)
            ok = (
                table.num_orbits == paper["orbits_k2"]
                and lengths == {paper["group_order"]}
            )
            return f"{table.num_orbits} orbits, lengths {sorted(lengths)}", ok

        stage("2-subspace orbits", s_2orbits)

        if not skip_3:

            def s_3orbits():
                table = orbit_partition(state["group"], 3)
                state["t3"] = table
                total = table.total_subspaces()
                ok = (
                    table.num_orbits == paper["orbits_k3"]
                    and total == gaussian_binomial(13, 3, 2)
                )
                return f"{table.num_orbits} orbits, sum {total}", ok

            stage("3-subspace orbits", s_3orbits)

            def s_km():
                inst = build_km(state["t2"], state["t3"], lam=1)
                sums = set(inst.row_sums().values())
                pruned = prune(inst)
                state["km"] = pruned
                ok = (
                    sums == {paper["km_row_sum"]}
                    and pruned.shape == (paper["orbits_k2"], paper["km_columns"])
                    and pruned.matrix.max(initial=0) <= 1
                )
                return (
                    f"row sums {sorted(sums)}, pruned {pruned.shape[0]}"
                    f" x {pruned.shape[1]}"
                ), ok

            stage("incidence system", s_km)

            def s_solution():
                reps = fixtures.solution_representatives()
                ids = sorted(state["t3"].lookup_rows_bulk(reps).tolist())
                state["ids"] = ids
                problem = from_km(state["km"])
                ok, coverage = check_solution(problem, ids)
                ok = ok and len(set(ids)) == 15
                return f"15 columns cover {len(coverage)} rows exactly once", ok

            stage("bundled solution", s_solution)

        def s_expand():
            blocks, lengths = expand_orbits(
                state["group"], fixtures.solution_representatives()
            )
            state["blocks"] = blocks
            ok = (
                blocks.num_blocks == paper["blocks"]
                and set(lengths) == {paper["group_order"]}
            )
            return f"{blocks.num_blocks} distinct blocks", ok

        stage("orbit expansion", s_expand)

        def s_verify():
            report = verify_design(state["blocks"], 2, 1)
            state["report"] = report
            ok = report.ok and report.histogram == {1: paper["pairs"]}
            return (
                f"histogram {report.histogram}, verdict "
                f"{'pass' if report.ok else 'fail'}"
            ), ok

        stage("design verification", s_verify)

        def s_bound():
            bound = packing_bound(13, 3, 2)
            return f"packing bound {bound}", bound == state["blocks"].num_blocks

        stage("packing bound", s_bound)

        def s_distance():
            d = min_distance_certificate(
                state["blocks"], state["report"], samples=dist_samples, seed=seed
            )
            return f"minimum distance {d} on {dist_samples} pairs", d == 4

        stage("minimum distance", s_distance)

        def s_derived():
            stats = derived_steiner_sample_check(
                state["blocks"],
                state["report"],
                samples=derived_samples,
                seed=seed,
            )
            return (
                f"{stats['failures']} failures in {stats['samples']} triples"
            ), stats["failures"] == 0

        stage("derived triple cover", s_derived)

    failed = False
    try:
        run_all()
    except VerificationFailure:
        failed = True

    width = max(len(name) for name, *_ in rows) if rows else 0
    print()
    for name, result, elapsed, ok in rows:
        mark = "PASS" if ok else "FAIL"
        print(f"{mark}  {name:<{width}}  {elapsed:7.1f}s  {result}")
    if skip_3:
        print("      (3-subspace orbit and incidence stages skipped on request)")
    print()
    if failed:
        print(f"first failing stage: {rows[-1][0]}")
    else:
        print("all stages passed")
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


def cmd_spread_demo(settings: Settings) -> int:
    n = settings.get("n", default=4, cast=int)
    k = settings.get("k", default=2, cast=int)
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
    config = SolveConfig(
        max_solutions=_max_solutions(settings, default="all"),
        seed=settings.get("seed", default=0, cast=int),
    )
    t0 = time.time()
    solutions, stats = solve(problem, config)
    sizes = {len(sol.labels) for sol in solutions}
    print(
        f"{stats.solutions} spreads of {k}-subspaces in GF(2)^{n}, "
        f"sizes {sorted(sizes)} (expected {spread_size(n, k, 2)}) "
        f"({time.time()-t0:.1f}s)"
    )
    if not solutions:
        return EXIT_VERIFY_FAIL
    first = BlockSet(n, k, table.rows[list(solutions[0].labels)])
    report = verify_design(first, 1, 1)
    print(f"first spread verification: {'pass' if report.ok else 'fail'}")
    return EXIT_OK if report.ok else EXIT_VERIFY_FAIL


def cmd_bounds(settings: Settings) -> int:
    n = settings.get("n", cast=int)
    k = settings.get("k", cast=int)
    t = settings.get("t", default=None, cast=int)
    if n is None or k is None:
        raise UsageError("--n and --k are required")
    if not 0 < k <= n:
        raise UsageError("need 0 < k <= n")
    print(f"subspaces: [{n} {k}]_2 = {gaussian_binomial(n, k, 2)}")
    if n % k == 0:
        print(f"spread size: {spread_size(n, k, 2)}")
    else:
        print(f"no spreads: {k} does not divide {n}")
    if t is not None:
        if not 0 < t <= k:
            raise UsageError("need 0 < t <= k")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsteiner",
        description="construct and verify q-analog Steiner systems over GF(2)",
    )
    parser.add_argument("--config", metavar="FILE", help="key = value defaults file")
    parser.add_argument("--seed", type=int, help="seed for randomized searches")
    parser.add_argument("--out-dir", help="directory for output files")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="run the closure and report the group order")
    add_group_flags(p)

    p = sub.add_parser("orbits", help="partition k-subspaces into orbits")
    add_group_flags(p)
    p.add_argument("--dim", type=int, help="subspace dimension to partition")

    p = sub.add_parser("km", help="build the orbit incidence system")
    add_group_flags(p)
    p.add_argument("--t", type=int, help="row subspace dimension (default 2)")
    p.add_argument("--k", type=int, help="column subspace dimension (default 3)")
    p.add_argument("--lambda", type=int, help="target coverage multiplicity")
    p.add_argument("--t-orbits", metavar="FILE", help="reuse a saved t-orbit table")
    p.add_argument("--k-orbits", metavar="FILE", help="reuse a saved k-orbit table")

    p = sub.add_parser("solve", help="solve the incidence system as exact cover")
    p.add_argument("--km", metavar="FILE", help="incidence system file")
    p.add_argument(
        "--max-solutions", help="stop after this many solutions, or 'all'"
    )
    p.add_argument("--node-limit", type=int, help="search node budget")
    p.add_argument("--time-limit", type=float, help="wall clock budget in seconds")
    p.add_argument(
        "--order",
        choices=["file", "randomized"],
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
        "--k-orbits", metavar="FILE", help="orbit table naming representatives by id"
    )
    p.add_argument("--ids", metavar="IDS", help="comma separated orbit ids to expand")
    p.add_argument(
        "--solution",
        metavar="FILE",
        help="take orbit ids from the first solution in FILE",
    )

    p = sub.add_parser("verify", help="recount coverage of a block list")
    add_group_flags(p)
    p.add_argument("--blocks", metavar="FILE", help="block list file")
    p.add_argument("--reps", metavar="FILE", help="orbit representative file")
    p.add_argument(
        "--fixture-solution",
        action="store_true",
        help="use the bundled 15 representatives",
    )
    p.add_argument("--t", type=int, help="covered subspace dimension (default 2)")
    p.add_argument("--lambda", type=int, help="required coverage (default 1)")
    p.add_argument(
        "--distance-samples",
        type=int,
        help="also certify the minimum distance on this many sampled pairs",
    )
    p.add_argument(
        "--derived-samples",
        type=int,
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
    p.add_argument("--distance-samples", type=int, help="pairs for the distance check")
    p.add_argument(
        "--derived-samples", type=int, help="triples for the derived check"
    )

    p = sub.add_parser("spread-demo", help="enumerate spreads in a small space")
    p.add_argument("--n", type=int, help="ambient dimension (default 4)")
    p.add_argument("--k", type=int, help="block dimension (default 2)")
    p.add_argument("--max-solutions", help="stop after this many, or 'all'")

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
        settings = Settings(args)
        return COMMANDS[args.command](settings)
    except (UsageError, FormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ClosureCapError, EnumerationGuardError, StrategyError) as exc:
        print(f"limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (AssertionError, VerificationFailure) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
