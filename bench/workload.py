"""Workload process of the qsteiner benchmark, started by run.py.

    python3 bench/workload.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/workload.py --probe

The library is imported from src/ of the checkout holding this file.  The
process prints `ready` once the interpreter has started, the imports are
done and fixtures.self_test has passed (run.py times that line), then the
per-layer report of a traced run, and as its last line one JSON object
that run.py turns into the benchmark's result.

Every workload checks its outputs against the numbers of the paper before
a time counts; a failed check or an exception makes the run incorrect.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import qsteiner  # noqa: E402
from qsteiner import fixtures  # noqa: E402
from qsteiner.exact_cover import (  # noqa: E402
    SolveConfig,
    check_solution,
    from_km,
    solve,
)
from qsteiner.groups import MatrixGroup, group_closure, orbit_partition  # noqa: E402
from qsteiner.kramer_mesner import build_km, export_km, import_km, prune  # noqa: E402
from qsteiner.subspace import gaussian_binomial, load_subspace_file  # noqa: E402
from qsteiner.verify import (  # noqa: E402
    BlockSet,
    derived_steiner_sample_check,
    expand_orbits,
    min_distance_certificate,
    packing_bound,
    verify_design,
)

import probes  # noqa: E402
from tracer import Tracer, maxrss_mb, unit_of  # noqa: E402

# The paper's numbers for the 2-(13,3,1)_2 design and its construction.
N = fixtures.FIXTURE_N
ORDER = 106483
ORBITS_K2 = 105
ORBITS_K3 = 30705
ROW_SUMS = {2047}
KM_SHAPE = (105, 25572)
ORBIT_LENGTH = 106483
SOLUTION_ORBITS = 15
BLOCKS = SOLUTION_ORBITS * ORBIT_LENGTH  # 1597245
PAIRS = 11180715  # 2-subspaces of GF(2)^13
PAIRS_PER_BLOCK = 7  # 2-subspaces of a 3-subspace
DISTANCE = 4

# Sample counts of `qsteiner paper-check`.
DISTANCE_SAMPLES = 10**6
DERIVED_SAMPLES = 10**5

# rebuild saves, loads and recounts a seeded slice of this many blocks of
# the design; the whole design (1597245 blocks) takes about a minute to
# save and load, more than a run can spend.
FILE_BLOCKS = 100_000
# search forces 6 cyclically consecutive bundled columns from each start
# and enumerates every completion of the other 9: subtrees of 27875 and
# 35315 nodes.  The seed permutes the option order, which leaves the node
# count of a complete enumeration unchanged, so every seed does the same
# search.
SEARCH_STARTS = (10, 0)
SEARCH_FORCED = 6

# The workload set-up is repeated and its median taken.
SETUP_REPEATS = 3

OUT_DIR = ROOT / ".bench_out"


class Checks:
    """Counts every check against the paper's numbers; remembers failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(name)
        return ok


def paper_closure(tr: Tracer, check: Checks) -> MatrixGroup:
    """Closure of the bundled generators, order recomputed and checked."""
    gens = tr.call("fixtures.fixture_group", fixtures.fixture_group).generators
    group = tr.call(
        "groups.group_closure",
        lambda: group_closure(MatrixGroup(n=N, generators=gens)),
    )
    check("group order", group.order == ORDER)
    tr.count("groups.order", group.order)
    return group


def paper_k2(tr: Tracer, check: Checks, group: MatrixGroup):
    t2 = tr.call("groups.orbit_partition.k2", orbit_partition, group, 2)
    check("2-orbits", t2.num_orbits == ORBITS_K2 and set(t2.lengths) == {ORBIT_LENGTH})
    tr.count("groups.orbits.k2", t2.num_orbits)
    return t2


def paper_reps(tr: Tracer):
    return tr.call(
        "fixtures.solution_representatives", fixtures.solution_representatives
    )


class Rebuild:
    """Certify the design from the generators, then certify it from a file.

    The first part is the stage calls of `qsteiner paper-check
    --skip-3-orbits`: closure, 2-orbits, expansion of the bundled solution,
    the coverage recount and every certificate, with paper-check's sample
    counts.  The second is the `qsteiner verify --blocks FILE` path on a
    seeded slice of the expanded design: save, load, recount.  The 3-orbit
    partition and the KM build are timed in search instead.
    """

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.distance_seed = rng.randrange(2**32)
        self.derived_seed = rng.randrange(2**32)
        self.file_start = rng.randrange(BLOCKS - FILE_BLOCKS + 1)
        covered = PAIRS_PER_BLOCK * FILE_BLOCKS
        # blocks of a Steiner system share no 2-subspace
        self.file_histogram = {1: covered, 0: PAIRS - covered}

    def setup(self, tr, check, tmp):
        return str(tmp / "blocks.txt")

    def run_pass(self, tr, check, path):
        group = paper_closure(tr, check)
        paper_k2(tr, check, group)
        reps = paper_reps(tr)
        blocks, lengths = tr.call("verify.expand_orbits", expand_orbits, group, reps)
        check(
            "expansion",
            blocks.num_blocks == BLOCKS and set(lengths) == {ORBIT_LENGTH},
        )
        report = tr.call("verify.verify_design", verify_design, blocks, 2, 1)
        check("design histogram", report.ok and report.histogram == {1: PAIRS})
        tr.count("verify.blocks", blocks.num_blocks)
        tr.count("verify.pairs_covered", report.histogram[1])
        bound = tr.call("verify.packing_bound", packing_bound, N, 3, 2)
        check("packing bound", bound == blocks.num_blocks)
        d = tr.call(
            "verify.min_distance_certificate",
            min_distance_certificate,
            blocks,
            report,
            samples=DISTANCE_SAMPLES,
            seed=self.distance_seed,
        )
        check("minimum distance", d == DISTANCE)
        stats = tr.call(
            "verify.derived_steiner_sample_check",
            derived_steiner_sample_check,
            blocks,
            report,
            samples=DERIVED_SAMPLES,
            seed=self.derived_seed,
        )
        check("derived triples", stats["failures"] == 0)

        rows = blocks.blocks[self.file_start : self.file_start + FILE_BLOCKS]
        saved = tr.call("verify.BlockSet", BlockSet, n=N, k=3, blocks=rows)
        tr.call("verify.BlockSet.save", saved.save, path)
        loaded = tr.call("verify.BlockSet.load", BlockSet.load, path)
        check(
            "loaded blocks equal saved blocks",
            (loaded.n, loaded.k) == (saved.n, saved.k)
            and np.array_equal(loaded.blocks, saved.blocks),
        )
        report = tr.call("verify.verify_design.file", verify_design, loaded, 2, 1)
        check("file histogram", report.histogram == self.file_histogram)

    def layer_probes(self, tr, check, path, last):
        subs = tr.call("subspace.load_subspace_file", load_subspace_file, path)
        check("parsed block count", len(subs) == FILE_BLOCKS)
        calls = tr.call_metrics()
        return {
            "verify.min_distance.pairs_per_s": (
                DISTANCE_SAMPLES / calls["verify.min_distance_certificate_s"]
            ),
            "verify.derived.triples_per_s": (
                DERIVED_SAMPLES / calls["verify.derived_steiner_sample_check_s"]
            ),
        }


class Search:
    """The `qsteiner km` then `qsteiner solve --km FILE --force ...` path.

    The timed pass builds the KM system from the 2-orbits of the set-up
    (3-orbit partition, build, prune), writes and reads it back as a file,
    and enumerates every completion of each seeded subproblem.
    """

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.order_seeds = [rng.randrange(2**32) for _ in SEARCH_STARTS]

    def setup(self, tr, check, tmp):
        group = paper_closure(tr, check)
        return group, paper_k2(tr, check, group), str(tmp / "km.txt")

    def run_pass(self, tr, check, state):
        group, t2, path = state
        t3 = tr.call("groups.orbit_partition.k3", orbit_partition, group, 3)
        check(
            "3-orbits",
            t3.num_orbits == ORBITS_K3
            and t3.total_subspaces() == gaussian_binomial(N, 3, 2),
        )
        tr.count("groups.orbits.k3", t3.num_orbits)
        inst = tr.call("kramer_mesner.build_km", build_km, t2, t3, lam=1)
        check("KM row sums", set(inst.row_sums().values()) == ROW_SUMS)
        pruned = tr.call("kramer_mesner.prune", prune, inst)
        check(
            "pruned KM",
            pruned.shape == KM_SHAPE
            and all(v == 1 for v in pruned.entries.values()),
        )
        tr.count(
            "kramer_mesner.columns_pruned", len(inst.col_ids) - len(pruned.col_ids)
        )
        reps = paper_reps(tr)
        columns = sorted(
            tr.call("groups.OrbitTable.lookup", lambda: [t3.lookup(s) for s in reps])
        )
        check("bundled columns", len(set(columns)) == SOLUTION_ORBITS)
        tr.call("kramer_mesner.export_km", export_km, pruned, path)
        inst = tr.call("kramer_mesner.import_km", import_km, path)
        check("imported KM", inst.entries == pruned.entries)
        problem = tr.call("exact_cover.from_km", from_km, inst)
        max_depth = 0
        for start, order_seed in zip(SEARCH_STARTS, self.order_seeds):
            forced = [columns[(start + j) % len(columns)] for j in range(SEARCH_FORCED)]
            config = SolveConfig(
                max_solutions=None, forced=forced, order="randomized", seed=order_seed
            )
            sols, stats = tr.call("exact_cover.solve", solve, problem, config)
            for sol in sols:
                ok, _ = tr.call(
                    "exact_cover.check_solution", check_solution, problem, sol.labels
                )
                check("solution recount", ok)
            check("bundled solution found", tuple(columns) in {s.labels for s in sols})
            tr.count("exact_cover.nodes", stats.nodes)
            tr.count("exact_cover.solutions", stats.solutions)
            max_depth = max(max_depth, stats.max_depth)
        tr.count("exact_cover.max_depth", max_depth)
        return problem, columns

    def layer_probes(self, tr, check, state, last):
        problem, columns = last
        t, (sols, stats) = probes.build_probe(tr, problem, columns)
        check("fully forced solve", stats.nodes == 0 and len(sols) == 1)
        solve_s = tr.call_metrics()["exact_cover.solve_s"]
        return {
            "exact_cover.solve.build_s": t,
            "exact_cover.nodes_per_s": tr.counts["exact_cover.nodes"] / solve_s,
        }


WORKLOADS = {"rebuild": Rebuild, "search": Search}

# Per-layer metrics that every workload's traced run measures; run.py
# reports exactly these.  The full per-call table goes to the layers file.
PER_LAYER = (
    "fixtures.self_test_s",
    "groups.group_closure_s",
    "groups.group_closure.cpu_s",
    "groups.group_closure.maxrss_mb",
    "singer.labels_bulk.rows_per_s",
    "singer.orbit_size.calls_per_s",
    "singer.expand_orbit_s",
    f"gf2.rref_bulk.6x{probes.KERNEL_N}.rows_per_s",
    f"gf2.rref_bulk.7x{probes.KERNEL_N}.rows_per_s",
    "subspace.pack_keys_bulk.rows_per_s",
    "trace.wall_s",
    "trace.overhead_s",
)


def run(args, tr: Tracer) -> dict:
    """Set up, run passes for args.seconds, and in a traced run add probes."""
    wl = WORKLOADS[args.workload](args.seed)
    check = Checks()
    OUT_DIR.mkdir(exist_ok=True)
    result: dict = {}
    try:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            setup_times = []
            for _ in range(1 if tr.enabled else SETUP_REPEATS):
                t0 = time.perf_counter()
                with tr.span("phase.setup"):
                    state = wl.setup(tr, check, Path(tmp))
                setup_times.append(time.perf_counter() - t0)
            # passes repeat while another one fits in args.seconds
            pass_times = []
            begin = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                with tr.span("phase.pass"):
                    last = wl.run_pass(tr, check, state)
                pass_times.append(time.perf_counter() - t0)
                used = time.perf_counter() - begin
                if tr.enabled or used + pass_times[-1] > args.seconds:
                    break
            result = {
                "wall_s": statistics.median(pass_times),
                "pass_times": pass_times,
                "workload_setup_s": statistics.median(setup_times),
            }
            if tr.enabled:
                with tr.span("phase.probes"):
                    group = fixtures.fixture_group()
                    layer = probes.kernel_probes(tr, group, args.seed)
                    layer.update(wl.layer_probes(tr, check, state, last))
                result["layer"] = layer
    except Exception as exc:  # the run reports the failure instead of a time
        traceback.print_exc()
        check(f"{type(exc).__name__}: {exc}", False)
    result["peak_rss_mb"] = maxrss_mb()
    result["attempted"] = check.attempted
    result["failures"] = check.failures
    return result


def finish_trace(args, tr: Tracer, result: dict) -> None:
    """Merge call metrics, counts and probes; write the span and layer files."""
    layer = dict(tr.call_metrics())
    layer.update(tr.counts)
    layer.update(result.pop("layer"))
    layer["trace.wall_s"] = result["wall_s"]
    layer["trace.overhead_s"] = tr.overhead_s
    layer["trace.spans"] = len(tr.spans)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}"
    meta = {"workload": args.workload, "seed": args.seed}
    tr.write(f"{stem}-spans.json", meta)
    setter = tr.peak_setter()
    with open(f"{stem}-layers.json", "w", encoding="utf-8") as fh:
        record = dict(meta, peak_rss_set_by=setter[0], metrics=layer)
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name in sorted(layer):
        value = layer[name]
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"layer {name} {shown} {unit_of(name)}")
    print(f"peak_rss_mb {setter[1]:.1f} set by {setter[0]}")
    print(f"spans written to {stem}-spans.json")
    result["metrics"] = {name: layer[name] for name in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if Path(qsteiner.__file__).resolve().parent != ROOT / "src" / "qsteiner":
        print(
            f"qsteiner was imported from {qsteiner.__file__}, not this checkout",
            file=sys.stderr,
        )
        return 2
    tr = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}", bool(args.trace))
    tr.call("fixtures.self_test", fixtures.self_test)
    print("ready", flush=True)
    if args.probe:
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args, tr)
    if tr.enabled and not result["failures"]:
        finish_trace(args, tr, result)
    print(json.dumps(result))
    return 0 if not result["failures"] else 1


if __name__ == "__main__":
    sys.exit(main())
