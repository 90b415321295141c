"""Exact cover with multiplicities, solved by a depth-first bitset search.

Items must each be covered exactly lambda times by the chosen options.
The search keeps one Python int per item whose bit j is set when option
j covers that item, plus a mask of the options still live, so choosing
an item is a popcount per active item and selecting an option is a few
mask operations.  Per-item multiplicity counters and a monotonicity
watermark make a set of options come up once, not once per ordering.
Search is deterministic for a fixed problem and configuration: items are
chosen by fewest live options with lowest position winning ties, and
options within an item are tried in file order, or a seeded permutation
when the randomized policy is selected.  This is the traversal of
Knuth's dancing links (Knuth 2000) with the same multiplicity rules;
the tests keep a dancing-links solver as its oracle.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

import numpy as np

from .gf2 import FormatError
from .kramer_mesner import KMInstance, _checksum


@dataclass
class CoverProblem:
    """items to cover, options as (label, item list), one multiplicity each."""

    item_ids: list[int]
    options: list[tuple[int, list[int]]]
    multiplicity: int = 1
    checksum: int = 0

    def __post_init__(self) -> None:
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be at least 1")
        if len(set(self.item_ids)) != len(self.item_ids):
            raise ValueError("duplicate item ids")
        known = set(self.item_ids)
        seen_labels = set()
        for label, items in self.options:
            if label in seen_labels:
                raise ValueError(f"duplicate option label {label}")
            seen_labels.add(label)
            if not items:
                raise ValueError(f"option {label} covers no items")
            if len(set(items)) != len(items):
                raise ValueError(f"option {label} lists an item twice")
            for it in items:
                if it not in known:
                    raise ValueError(f"option {label} references unknown item {it}")


@dataclass
class SolveConfig:
    max_solutions: int | None = 1
    node_limit: int | None = None
    time_limit: float | None = None
    seed: int = 0
    order: str = "file"  # "file" | "randomized"
    forced: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.order not in ("file", "randomized"):
            raise ValueError("order must be 'file' or 'randomized'")
        if self.max_solutions is not None and self.max_solutions < 1:
            raise ValueError("max_solutions must be at least 1 (or None)")


@dataclass
class SolveStats:
    solutions: int = 0
    nodes: int = 0
    max_depth: int = 0
    elapsed: float = 0.0
    limit: str | None = None


@dataclass
class CoverSolution:
    labels: tuple[int, ...]


def solve(problem: CoverProblem, config: SolveConfig | None = None):
    """Search for exact covers; returns (list of CoverSolution, SolveStats)."""
    config = config or SolveConfig()
    order = list(range(len(problem.options)))
    if config.order == "randomized":
        random.Random(config.seed).shuffle(order)
    pos = {it: i for i, it in enumerate(problem.item_ids)}
    labels = [problem.options[oi][0] for oi in order]
    opt_items = [[pos[it] for it in problem.options[oi][1]] for oi in order]
    label_to_opt = {lab: oi for oi, lab in enumerate(labels)}

    forced: list[int] = []
    for lab in config.forced:
        if lab not in label_to_opt:
            raise ValueError(f"forced option {lab} is not in the problem")
        oi = label_to_opt[lab]
        if oi in forced:
            raise ValueError(f"forced option {lab} appears twice")
        forced.append(oi)
    nitems = len(problem.item_ids)
    remaining = [problem.multiplicity] * nitems
    for oi in forced:
        for it in opt_items[oi]:
            if remaining[it] <= 0:
                raise ValueError(
                    f"option {labels[oi]} covers an already satisfied item"
                )
            remaining[it] -= 1
    forced_labels = [labels[oi] for oi in forced]

    # renumber the options that can still be chosen, keeping their order,
    # so the bitsets are only as wide as what is left of the problem
    forced_set = set(forced)
    keep = [
        oi
        for oi, items in enumerate(opt_items)
        if oi not in forced_set and all(remaining[it] for it in items)
    ]
    labels = [labels[oi] for oi in keep]
    opt_items = [opt_items[oi] for oi in keep]
    # bit j of col[it] is set when option j covers item it
    col_bytes = [bytearray(len(keep) // 8 + 1) for _ in range(nitems)]
    for j, items in enumerate(opt_items):
        for it in items:
            col_bytes[it][j >> 3] |= 1 << (j & 7)
    col = [int.from_bytes(b, "little") for b in col_bytes]
    del col_bytes
    every = (1 << len(keep)) - 1
    not_col = [every ^ c for c in col]

    after_forced = list(remaining)
    watermark = [-1] * nitems
    chosen: list[int] = []
    solutions: list[CoverSolution] = []
    max_solutions = config.max_solutions
    node_limit = config.node_limit
    time_limit = config.time_limit
    nodes = max_depth = 0
    stop: str | None = None
    t0 = time.monotonic()

    def search(live: int, active: list[int], depth: int) -> None:
        nonlocal nodes, max_depth, stop
        if depth > max_depth:
            max_depth = depth
        if not active:
            found = sorted([labels[oi] for oi in chosen] + forced_labels)
            solutions.append(CoverSolution(tuple(found)))
            if max_solutions is not None and len(solutions) >= max_solutions:
                stop = "solutions"
            return
        # the active item with the fewest live options, lowest position on
        # ties; an item with none is a dead end whichever item is chosen
        fewest = len(keep) + 1
        for x in active:
            n = (live & col[x]).bit_count()
            if n < fewest:
                if not n:
                    return
                fewest = n
                it = x
        mark = watermark[it]
        # options at or below the watermark were tried higher up this
        # branch; skipping them enumerates each option set once
        cand = (live & col[it]) >> (mark + 1) << (mark + 1)
        while cand and stop is None:
            bit = cand & -cand
            cand ^= bit
            oi = bit.bit_length() - 1
            nodes += 1
            if node_limit is not None and nodes > node_limit:
                stop = "nodes"
                break
            if (
                time_limit is not None
                and nodes % 256 == 0
                and time.monotonic() - t0 > time_limit
            ):
                stop = "time"
                break
            watermark[it] = oi
            sub_live = live ^ bit
            sub_active = active
            for x in opt_items[oi]:
                remaining[x] -= 1
                if not remaining[x]:
                    sub_live &= not_col[x]
                    sub_active = None
            if sub_active is None:
                sub_active = [x for x in active if remaining[x]]
            chosen.append(oi)
            search(sub_live, sub_active, depth + 1)
            chosen.pop()
            for x in opt_items[oi]:
                remaining[x] += 1
        watermark[it] = mark

    try:
        search(every, [it for it in range(nitems) if remaining[it]], 0)
    finally:
        # search reaches itself through its closure; unbinding it breaks
        # the cycle, so its state is freed when solve returns instead of
        # at whatever later point the cyclic collector runs
        del search

    if remaining != after_forced or watermark != [-1] * nitems:
        raise AssertionError("search did not restore its item counters")
    stats = SolveStats(
        solutions=len(solutions),
        nodes=nodes,
        max_depth=max_depth,
        elapsed=time.monotonic() - t0,
        limit=stop,
    )
    return solutions, stats


def from_km(inst: KMInstance) -> CoverProblem:
    """Cover problem from a Kramer-Mesner instance: items are t-orbits,
    one option per column covering the rows with entry 1."""
    rids, cids, vals = inst.nonzero()
    if (vals > 1).any():
        i = (vals > 1).argmax()
        raise ValueError(
            f"column {cids[i]} meets a row {vals[i]} times (> 1) and "
            "cannot be a 0/1 exact cover option; prune the instance first"
        )
    # entries come by (column, row): each column's rows are one run
    labels, starts = np.unique(cids, return_index=True)
    items, bounds = rids.tolist(), starts.tolist() + [len(rids)]
    options = [
        (cid, items[a:b]) for cid, a, b in zip(labels.tolist(), bounds, bounds[1:])
    ]
    return CoverProblem(
        item_ids=list(inst.row_ids),
        options=options,
        multiplicity=inst.lam,
        checksum=_checksum(inst),
    )


def check_solution(problem: CoverProblem, labels) -> tuple[bool, dict[int, int]]:
    """Recount coverage of a claimed solution, independent of the solver.

    Returns (ok, item -> times covered); unknown labels raise ValueError.
    """
    by_label = {lab: items for lab, items in problem.options}
    coverage = {it: 0 for it in problem.item_ids}
    for lab in labels:
        if lab not in by_label:
            raise ValueError(f"solution names unknown option {lab}")
        for it in by_label[lab]:
            coverage[it] += 1
    ok = all(c == problem.multiplicity for c in coverage.values())
    return ok, coverage


# ---------------------------------------------------------------------------
# solution files: deterministic header comments, one solution per line;
# the elapsed-time line is the only volatile content


def format_solutions(
    problem: CoverProblem,
    config: SolveConfig,
    stats: SolveStats,
    solutions: list[CoverSolution],
) -> str:
    def fmt(v) -> str:
        return "none" if v is None else str(v)

    lines = [
        "# exact-cover solutions",
        f"# problem {problem.checksum}",
        f"# config max-solutions={fmt(config.max_solutions)} "
        f"node-limit={fmt(config.node_limit)} time-limit={fmt(config.time_limit)} "
        f"seed={config.seed} order={config.order}",
    ]
    if config.forced:
        lines.append("# forced " + " ".join(str(x) for x in config.forced))
    lines.append(
        f"# stats solutions={stats.solutions} nodes={stats.nodes} "
        f"max-depth={stats.max_depth} limit={fmt(stats.limit)}"
    )
    lines.append(f"# elapsed {stats.elapsed:.3f}")
    for sol in solutions:
        lines.append(" ".join(str(x) for x in sol.labels))
    return "\n".join(lines) + "\n"


def save_solutions(path: str, problem, config, stats, solutions) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_solutions(problem, config, stats, solutions))


def parse_solutions(text: str) -> tuple[list[tuple[int, ...]], dict]:
    """Returns (solutions, metadata); metadata keys: problem, stats, config."""
    meta: dict = {}
    sols: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            if not line.startswith("#"):
                sols.append(tuple(int(x) for x in line.split()))
                continue
            body = line[1:].strip()
            if body.startswith("problem "):
                meta["problem"] = int(body.split()[1])
            elif body.startswith("config "):
                meta["config"] = body[len("config ") :]
            elif body.startswith("stats "):
                meta["stats"] = body[len("stats ") :]
            elif body.startswith("forced "):
                meta["forced"] = [int(x) for x in body.split()[1:]]
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
    return sols, meta


def load_solutions(path: str) -> tuple[list[tuple[int, ...]], dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_solutions(fh.read())
