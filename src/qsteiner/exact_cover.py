"""Exact cover with multiplicities, solved by dancing links.

Items must each be covered exactly lambda times by the chosen options.
The solver is Knuth's dancing-links depth-first search extended with
per-item multiplicity counters and a monotonicity watermark so that a
multiset of options is enumerated once, not once per ordering.  Search
is deterministic for a fixed problem and configuration: items are
chosen by minimum branching degree with lowest id winning ties, and
option order within an item is file order, or a seeded permutation when
the randomized policy is selected.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

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
    restored: bool = False


@dataclass
class CoverSolution:
    labels: tuple[int, ...]


class _Dlx:
    """Dancing-links structure; item headers double as list heads."""

    def __init__(self, problem: CoverProblem, option_order: list[int]):
        nitems = len(problem.item_ids)
        self.nitems = nitems
        self.root = nitems
        self.left = [(i - 1) % (nitems + 1) for i in range(nitems + 1)]
        self.right = [(i + 1) % (nitems + 1) for i in range(nitems + 1)]
        self.up = list(range(nitems))
        self.down = list(range(nitems))
        self.size = [0] * nitems
        self.remaining = [problem.multiplicity] * nitems
        self.item_of: list[int] = [-1] * nitems
        self.opt_of: list[int] = [-1] * nitems
        self.opt_nodes: list[list[int]] = []
        self.opt_items: list[list[int]] = []
        self.labels: list[int] = []
        pos = {it: i for i, it in enumerate(problem.item_ids)}
        for oi in option_order:
            label, items = problem.options[oi]
            nodes = []
            ipos = sorted(pos[it] for it in items)
            for it in ipos:
                nd = len(self.up)
                tail = self.up[it]
                self.up.append(tail)
                self.down.append(it)
                self.down[tail] = nd
                self.up[it] = nd
                self.item_of.append(it)
                self.opt_of.append(len(self.opt_nodes))
                self.size[it] += 1
                nodes.append(nd)
            self.opt_nodes.append(nodes)
            self.opt_items.append(ipos)
            self.labels.append(label)

    def fingerprint(self) -> tuple:
        return (
            tuple(self.left),
            tuple(self.right),
            tuple(self.up),
            tuple(self.down),
            tuple(self.size),
            tuple(self.remaining),
        )

    def hide(self, oi: int, skip_item: int = -1) -> None:
        """Unlink the option's nodes vertically; the covered item keeps its
        own list intact (skip_item) so uncover can walk it back."""
        for nd in self.opt_nodes[oi]:
            if self.item_of[nd] == skip_item:
                continue
            self.down[self.up[nd]] = self.down[nd]
            self.up[self.down[nd]] = self.up[nd]
            self.size[self.item_of[nd]] -= 1

    def unhide(self, oi: int, skip_item: int = -1) -> None:
        for nd in reversed(self.opt_nodes[oi]):
            if self.item_of[nd] == skip_item:
                continue
            self.down[self.up[nd]] = nd
            self.up[self.down[nd]] = nd
            self.size[self.item_of[nd]] += 1

    def cover_item(self, it: int) -> None:
        self.right[self.left[it]] = self.right[it]
        self.left[self.right[it]] = self.left[it]
        nd = self.down[it]
        while nd != it:
            self.hide(self.opt_of[nd], skip_item=it)
            nd = self.down[nd]

    def uncover_item(self, it: int) -> None:
        nd = self.up[it]
        while nd != it:
            self.unhide(self.opt_of[nd], skip_item=it)
            nd = self.up[nd]
        self.right[self.left[it]] = it
        self.left[self.right[it]] = it

    def select(self, oi: int) -> None:
        for it in self.opt_items[oi]:
            if self.remaining[it] <= 0:
                raise ValueError(
                    f"option {self.labels[oi]} covers an already satisfied item"
                )
            self.remaining[it] -= 1
        self.hide(oi)
        for it in self.opt_items[oi]:
            if self.remaining[it] == 0:
                self.cover_item(it)

    def deselect(self, oi: int) -> None:
        for it in reversed(self.opt_items[oi]):
            if self.remaining[it] == 0:
                self.uncover_item(it)
        self.unhide(oi)
        for it in self.opt_items[oi]:
            self.remaining[it] += 1

    def choose_item(self) -> int | None:
        best = None
        best_size = None
        it = self.right[self.root]
        while it != self.root:
            if best_size is None or self.size[it] < best_size:
                best, best_size = it, self.size[it]
            it = self.right[it]
        return best


def solve(problem: CoverProblem, config: SolveConfig | None = None):
    """Search for exact covers; returns (list of CoverSolution, SolveStats)."""
    config = config or SolveConfig()
    order = list(range(len(problem.options)))
    if config.order == "randomized":
        random.Random(config.seed).shuffle(order)
    dlx = _Dlx(problem, order)
    pristine = dlx.fingerprint()
    label_to_opt = {lab: oi for oi, lab in enumerate(dlx.labels)}

    forced: list[int] = []
    for lab in config.forced:
        if lab not in label_to_opt:
            raise ValueError(f"forced option {lab} is not in the problem")
        oi = label_to_opt[lab]
        if oi in forced:
            raise ValueError(f"forced option {lab} appears twice")
        forced.append(oi)

    stats = SolveStats()
    solutions: list[CoverSolution] = []
    chosen: list[int] = []
    watermark = [-1] * dlx.nitems
    stop: list[str | None] = [None]
    t0 = time.monotonic()

    def record() -> None:
        labels = sorted(dlx.labels[oi] for oi in chosen + forced)
        solutions.append(CoverSolution(tuple(labels)))
        stats.solutions += 1
        if (
            config.max_solutions is not None
            and stats.solutions >= config.max_solutions
        ):
            stop[0] = "solutions"

    def search(depth: int) -> None:
        stats.max_depth = max(stats.max_depth, depth)
        if dlx.right[dlx.root] == dlx.root:
            record()
            return
        it = dlx.choose_item()
        assert it is not None
        saved = watermark[it]
        nd = dlx.down[it]
        while nd != it and stop[0] is None:
            oi = dlx.opt_of[nd]
            if oi > watermark[it]:
                stats.nodes += 1
                if config.node_limit is not None and stats.nodes > config.node_limit:
                    stop[0] = "nodes"
                    break
                if (
                    config.time_limit is not None
                    and stats.nodes % 256 == 0
                    and time.monotonic() - t0 > config.time_limit
                ):
                    stop[0] = "time"
                    break
                watermark[it] = oi
                dlx.select(oi)
                chosen.append(oi)
                search(depth + 1)
                chosen.pop()
                dlx.deselect(oi)
            nd = dlx.down[nd]
        watermark[it] = saved

    applied: list[int] = []
    try:
        for oi in forced:
            dlx.select(oi)
            applied.append(oi)
        if all(r == 0 for r in dlx.remaining):
            record()
        elif stop[0] is None:
            search(0)
    finally:
        for oi in reversed(applied):
            dlx.deselect(oi)
        # search reaches itself through its closure; unbinding it breaks
        # the cycle, so the links are freed when solve returns instead of
        # at whatever later point the cyclic collector runs
        del search

    stats.elapsed = time.monotonic() - t0
    stats.limit = stop[0]
    stats.restored = dlx.fingerprint() == pristine
    if not stats.restored:
        raise AssertionError("dancing links structure was not restored after search")
    return solutions, stats


def from_km(inst: KMInstance, lam: int | None = None) -> CoverProblem:
    """Cover problem from a Kramer-Mesner instance: items are t-orbits,
    one option per column covering the rows with entry 1."""
    lam = inst.lam if lam is None else lam
    by_col: dict[int, list[int]] = {cid: [] for cid in inst.col_ids}
    for (rid, cid), val in inst.entries.items():
        if val > 1:
            raise ValueError(
                f"column {cid} meets a row {val} times (> 1) and cannot be a "
                "0/1 exact cover option; prune the instance first"
            )
        by_col[cid].append(rid)
    options = [(cid, sorted(by_col[cid])) for cid in inst.col_ids]
    options = [(cid, items) for cid, items in options if items]
    return CoverProblem(
        item_ids=list(inst.row_ids),
        options=options,
        multiplicity=lam,
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
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("problem "):
                meta["problem"] = int(body.split()[1])
            elif body.startswith("config "):
                meta["config"] = body[len("config ") :]
            elif body.startswith("stats "):
                meta["stats"] = body[len("stats ") :]
            elif body.startswith("forced "):
                meta["forced"] = [int(x) for x in body.split()[1:]]
            continue
        try:
            sols.append(tuple(int(x) for x in line.split()))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
    return sols, meta


def load_solutions(path: str) -> tuple[list[tuple[int, ...]], dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_solutions(fh.read())
