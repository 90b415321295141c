"""The dancing-links exact-cover solver, kept as a test oracle.

This is the pointer-based search that `qsteiner.exact_cover.solve` used
before the bitset formulation (Knuth 2000, "Dancing Links", with
per-item multiplicity counters and a watermark).  Both solvers must make
the same traversal: the same solutions in the same order, the same node
count, depth and stopping reason.
"""

from __future__ import annotations

import random
import time

from qsteiner.exact_cover import CoverProblem, CoverSolution, SolveConfig, SolveStats


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
                if config.node_limit is not None and stats.nodes >= config.node_limit:
                    stop[0] = "nodes"
                    break
                if (
                    config.time_limit is not None
                    and stats.nodes % 256 == 0
                    and time.monotonic() - t0 >= config.time_limit
                ):
                    stop[0] = "time"
                    break
                stats.nodes += 1
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
    if dlx.fingerprint() != pristine:
        raise AssertionError("dancing links structure was not restored after search")
    return solutions, stats
