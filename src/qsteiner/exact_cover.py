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

from .gf2 import FormatError, reading
from .kramer_mesner import KMInstance, checksum


@dataclass(eq=False)
class CoverProblem:
    """Items to cover multiplicity times by options, the columns of a 0/1
    matrix: matrix[i, j] is 1 when option labels[j] covers item
    item_ids[i], and every column covers some item."""

    item_ids: list[int]
    labels: list[int]
    matrix: np.ndarray
    multiplicity: int = 1
    checksum: int = 0

    def __post_init__(self) -> None:
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be at least 1")
        if len(set(self.item_ids)) != len(self.item_ids):
            raise ValueError("duplicate item ids")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate option labels")
        if self.matrix.shape != (len(self.item_ids), len(self.labels)):
            raise ValueError(f"matrix shape {self.matrix.shape} is not items x options")
        # a read-only view, so that no reader edits the caller's array
        self.matrix = self.matrix.view()
        self.matrix.flags.writeable = False

    @classmethod
    def from_options(cls, item_ids, options, multiplicity: int = 1) -> CoverProblem:
        """Problem from (label, covered item ids) pairs, checked one by one."""
        pos = {it: i for i, it in enumerate(item_ids)}
        matrix = np.zeros((len(item_ids), len(options)), dtype=np.uint8)
        seen_labels = set()
        for j, (label, items) in enumerate(options):
            if label in seen_labels:
                raise ValueError(f"duplicate option label {label}")
            seen_labels.add(label)
            if not items:
                raise ValueError(f"option {label} covers no items")
            if len(set(items)) != len(items):
                raise ValueError(f"option {label} lists an item twice")
            for it in items:
                if it not in pos:
                    raise ValueError(f"option {label} references unknown item {it}")
                matrix[pos[it], j] = 1
        return cls(list(item_ids), [lab for lab, _ in options], matrix, multiplicity)

    @property
    def options(self) -> list[tuple[int, list[int]]]:
        """(label, covered item ids) per option, built from matrix on each
        read, for the test oracles."""
        return [
            (lab, [self.item_ids[i] for i in items])
            for lab, items in zip(self.labels, _column_items(self.matrix))
        ]


def _column_items(matrix: np.ndarray) -> list[list[int]]:
    """The rows that hold a nonzero entry of each column of matrix."""
    cols, rows = np.nonzero(matrix.T)
    bounds = np.searchsorted(cols, np.arange(matrix.shape[1] + 1)).tolist()
    rows = rows.tolist()
    return [rows[a:b] for a, b in zip(bounds, bounds[1:])]


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
    order = list(range(len(problem.labels)))
    if config.order == "randomized":
        random.Random(config.seed).shuffle(order)
    column = {lab: j for j, lab in enumerate(problem.labels)}
    forced: list[int] = []
    for lab in config.forced:
        if lab not in column:
            raise ValueError(f"forced option {lab} is not in the problem")
        if column[lab] in forced:
            raise ValueError(f"forced option {lab} appears twice")
        forced.append(column[lab])
    forced_cols = problem.matrix[:, forced]
    remaining = problem.multiplicity - forced_cols.sum(axis=1, dtype=np.int64)
    if (remaining < 0).any():
        # the first forced column, in turn, to pass an item's multiplicity
        over = np.cumsum(forced_cols, axis=1) > problem.multiplicity
        raise ValueError(
            f"option {config.forced[over.any(axis=0).argmax()]} "
            "covers an already satisfied item"
        )
    remaining = remaining.tolist()
    forced_labels = list(config.forced)
    nitems = len(problem.item_ids)

    # renumber the options that can still be chosen, keeping their order,
    # so the bitsets are only as wide as what is left of the problem
    fits = ~problem.matrix[np.array(remaining) == 0].any(axis=0)
    fits[forced] = False
    keep = np.array(order, dtype=np.intp)[fits[order]]
    labels = [problem.labels[j] for j in keep.tolist()]
    kept = np.take(problem.matrix, keep, axis=1)
    opt_items = _column_items(kept)
    # bit j of col[it] is set when option j covers item it
    bits = np.packbits(kept, axis=1, bitorder="little")
    col = [int.from_bytes(row.tobytes(), "little") for row in bits]
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
            # the limits stop the search before a node is counted; the
            # clock is polled before the first node and every 256th after it
            if node_limit is not None and nodes >= node_limit:
                stop = "nodes"
                break
            if (
                time_limit is not None
                and nodes % 256 == 0
                and time.monotonic() - t0 >= time_limit
            ):
                stop = "time"
                break
            nodes += 1
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
    """Cover problem from a Kramer-Mesner instance: items are t-orbits, one
    option per column with an entry, and the matrix a view of the
    instance's unless some column is all zero."""
    top = inst.matrix.max(axis=0, initial=0)
    if (top > 1).any():
        j = int((top > 1).argmax())
        column = inst.matrix[:, j]
        raise ValueError(
            f"column {inst.col_ids[j]} meets a row {column[column > 1][0]} times "
            "(> 1) and cannot be a 0/1 exact cover option; prune the instance first"
        )
    used, labels, matrix = top > 0, list(inst.col_ids), inst.matrix
    if not used.all():
        labels, matrix = np.asarray(labels)[used].tolist(), matrix[:, used]
    return CoverProblem(
        list(inst.row_ids), labels, matrix, inst.lam, checksum=checksum(inst)
    )


def check_solution(problem: CoverProblem, labels) -> tuple[bool, dict[int, int]]:
    """Recount coverage of a claimed solution, independent of the solver.

    Returns (ok, item -> times covered); unknown labels raise ValueError.
    """
    column = {lab: j for j, lab in enumerate(problem.labels)}
    for lab in labels:
        if lab not in column:
            raise ValueError(f"solution names unknown option {lab}")
    counts = problem.matrix[:, [column[lab] for lab in labels]].sum(axis=1)
    coverage = dict(zip(problem.item_ids, counts.tolist()))
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
    with reading(path) as text:
        return parse_solutions(text)
