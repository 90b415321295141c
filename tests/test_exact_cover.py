"""Exact cover solver against brute-force enumeration oracles."""

import gc
import random
from itertools import combinations, product

import pytest

import dlx_reference
from qsteiner.exact_cover import (
    CoverProblem,
    SolveConfig,
    check_solution,
    from_km,
    load_solutions,
    parse_solutions,
    save_solutions,
    solve,
)
from qsteiner.groups import orbit_partition, singer_normalizer
from qsteiner.kramer_mesner import build_km, prune
from qsteiner.subspace import enumerate_subspaces


def brute_covers_subsets(item_ids, options, multiplicity=1):
    """All exact covers by exhaustive subset enumeration (small m only)."""
    m = len(options)
    assert m <= 16, "oracle is exponential in the option count"
    found = set()
    for mask in range(1 << m):
        counts = {it: 0 for it in item_ids}
        for i in range(m):
            if mask >> i & 1:
                for it in options[i][1]:
                    counts[it] += 1
        if all(c == multiplicity for c in counts.values()):
            found.add(frozenset(options[i][0] for i in range(m) if mask >> i & 1))
    return found


def brute_covers_disjoint(item_ids, options):
    """All exact covers for multiplicity 1: set-based recursive search that
    always branches on the lowest uncovered item, so each cover is found once.
    """
    by_item = {it: [] for it in item_ids}
    for lab, items in options:
        for it in items:
            by_item[it].append((lab, frozenset(items)))
    found = set()

    def rec(uncovered, chosen):
        if not uncovered:
            found.add(frozenset(chosen))
            return
        it = min(uncovered)
        for lab, items in by_item[it]:
            if items <= uncovered:
                rec(uncovered - items, chosen + [lab])

    rec(frozenset(item_ids), [])
    return found


def sts_problem(v):
    """Pair cover of v points by triples: solutions are the Steiner triple
    systems on labeled points."""
    pair_id = {p: i for i, p in enumerate(combinations(range(v), 2))}
    options = [
        (lab, [pair_id[p] for p in combinations(tri, 2)])
        for lab, tri in enumerate(combinations(range(v), 3))
    ]
    return CoverProblem(item_ids=list(pair_id.values()), options=options)


def spread_problem():
    """Cover the nonzero vectors of GF(2)^4 by 2-dimensional subspaces."""
    options = []
    for lab, sub in enumerate(enumerate_subspaces(4, 2)):
        options.append((lab, sorted(v for v in sub.vectors() if v)))
    return CoverProblem(item_ids=list(range(1, 16)), options=options)


def test_sts7_matches_brute_force():
    prob = sts_problem(7)
    sols, stats = solve(prob, SolveConfig(max_solutions=None))
    got = {frozenset(s.labels) for s in sols}
    assert len(sols) == len(got) == 30
    assert all(len(s.labels) == 7 for s in sols)
    assert got == brute_covers_disjoint(prob.item_ids, prob.options)
    assert stats.limit is None and stats.restored


def test_gf2_4_line_spreads_match_brute_force():
    prob = spread_problem()
    sols, stats = solve(prob, SolveConfig(max_solutions=None))
    got = {frozenset(s.labels) for s in sols}
    assert len(sols) == len(got) == 56
    assert all(len(s.labels) == 5 for s in sols)
    assert got == brute_covers_disjoint(prob.item_ids, prob.options)
    assert stats.limit is None


def test_random_instances_match_subset_enumeration():
    rng = random.Random(20240913)
    nonempty = 0
    for trial in range(40):
        n_items = rng.randint(3, 7)
        n_opts = rng.randint(3, 12)
        lam = rng.choice((1, 1, 2))
        item_ids = list(range(n_items))
        options = []
        for lab in range(n_opts):
            size = rng.randint(1, n_items)
            options.append((lab, sorted(rng.sample(item_ids, size))))
        prob = CoverProblem(item_ids=item_ids, options=options, multiplicity=lam)
        sols, stats = solve(prob, SolveConfig(max_solutions=None))
        got = {frozenset(s.labels) for s in sols}
        assert len(got) == len(sols), "duplicate solutions emitted"
        assert got == brute_covers_subsets(item_ids, options, lam)
        assert stats.restored
        nonempty += bool(got)
    assert nonempty >= 10, "test batch must exercise solvable instances"


def test_solutions_are_verified_covers():
    prob = sts_problem(7)
    sols, _ = solve(prob, SolveConfig(max_solutions=None))
    for sol in sols:
        ok, coverage = check_solution(prob, sol.labels)
        assert ok and set(coverage.values()) == {1}


def test_determinism_for_fixed_config():
    prob = sts_problem(7)
    cfg = SolveConfig(max_solutions=None, seed=7, order="randomized")
    first = solve(prob, cfg)
    second = solve(prob, cfg)
    assert [s.labels for s in first[0]] == [s.labels for s in second[0]]
    assert first[1].nodes == second[1].nodes


def test_seeds_explore_differently_but_agree_on_the_set():
    prob = sts_problem(7)
    file_order = {
        s.labels for s in solve(prob, SolveConfig(max_solutions=None))[0]
    }
    firsts = set()
    for seed in range(6):
        cfg = SolveConfig(max_solutions=1, seed=seed, order="randomized")
        sols, _ = solve(prob, cfg)
        firsts.add(sols[0].labels)
        full = solve(prob, SolveConfig(max_solutions=None, seed=seed, order="randomized"))
        assert {s.labels for s in full[0]} == file_order
    assert len(firsts) >= 2, "randomized order should vary the first solution"


def test_node_limit_stops_search():
    prob = sts_problem(7)
    sols, stats = solve(prob, SolveConfig(max_solutions=None, node_limit=5))
    assert stats.limit == "nodes" and stats.nodes == 6
    assert len(sols) < 30
    assert stats.restored


def test_time_limit_stops_search():
    # the clock is polled every 256 nodes, so the instance must be large
    # enough to reach that first poll
    prob = sts_problem(9)
    sols, stats = solve(prob, SolveConfig(max_solutions=None, time_limit=0.0))
    assert stats.limit == "time" and stats.nodes == 256
    assert len(sols) < 840


def test_forced_options_restrict_the_solution_set():
    prob = sts_problem(7)
    all_sols = {frozenset(s.labels) for s in solve(prob, SolveConfig(max_solutions=None))[0]}
    lab = 0
    cfg = SolveConfig(max_solutions=None, forced=[lab])
    sols, _ = solve(prob, cfg)
    got = {frozenset(s.labels) for s in sols}
    assert got == {s for s in all_sols if lab in s}
    assert got, "option 0 must appear in some triple system"
    with pytest.raises(ValueError):
        solve(prob, SolveConfig(forced=[999]))
    with pytest.raises(ValueError):
        solve(prob, SolveConfig(forced=[lab, lab]))


def test_solve_frees_its_links_on_return():
    # with the cyclic collector off, the search state must still go when
    # solve returns; repeated solves would otherwise pile up finished
    # searches until the next collection
    prob = sts_problem(7)
    gc.disable()
    try:
        gc.collect()
        sols, _ = solve(prob, SolveConfig(max_solutions=None, forced=[0]))
        assert sols
        assert gc.collect() == 0
    finally:
        gc.enable()


def _traversal(solver, prob, cfg):
    sols, stats = solver(prob, cfg)
    return (
        [s.labels for s in sols],
        stats.nodes,
        stats.max_depth,
        stats.limit,
        stats.solutions,
    )


def test_bitset_search_matches_dlx_traversal():
    # the bitset search must walk the dancing-links tree exactly: the
    # same solutions in the same order, node count, depth and stop reason
    cases = [
        (
            sts_problem(v),
            SolveConfig(
                max_solutions=max_solutions,
                node_limit=node_limit,
                seed=seed,
                order=order,
                forced=forced,
            ),
        )
        for v, seed, order, forced, max_solutions, node_limit in product(
            (7, 9), range(4), ("file", "randomized"), ([], [0]), (None, 1, 5),
            (None, 5, 100),
        )
    ]
    cases.append((sts_problem(9), SolveConfig(max_solutions=None, time_limit=0.0)))
    cases.append((spread_problem(), SolveConfig(max_solutions=None)))
    rng = random.Random(20261018)
    for _ in range(400):
        n_items = rng.randint(3, 9)
        item_ids = list(range(n_items))
        options = [
            (lab, sorted(rng.sample(item_ids, rng.randint(1, n_items))))
            for lab in range(rng.randint(3, 16))
        ]
        lam = rng.choice((1, 2, 3))
        prob = CoverProblem(item_ids=item_ids, options=options, multiplicity=lam)
        cases.append((prob, SolveConfig(max_solutions=None)))
    group = singer_normalizer(7)
    km = prune(build_km(orbit_partition(group, 2), orbit_partition(group, 3), lam=1))
    for order in ("file", "randomized"):
        cfg = SolveConfig(max_solutions=None, order=order, seed=3)
        cases.append((from_km(km), cfg))

    stopped = set()
    for prob, cfg in cases:
        got = _traversal(solve, prob, cfg)
        assert got == _traversal(dlx_reference.solve, prob, cfg), cfg
        stopped.add(got[3])
    assert stopped == {None, "nodes", "time", "solutions"}


def test_check_solution_rejects_bad_input():
    prob = sts_problem(7)
    sols, _ = solve(prob, SolveConfig(max_solutions=1))
    good = list(sols[0].labels)
    ok, _ = check_solution(prob, good)
    assert ok
    ok, coverage = check_solution(prob, good[:-1])
    assert not ok and 0 in coverage.values()
    with pytest.raises(ValueError):
        check_solution(prob, [999])


def test_from_km_requires_pruning():
    group = singer_normalizer(6)
    inst = build_km(orbit_partition(group, 2), orbit_partition(group, 3), lam=1)
    with pytest.raises(ValueError, match="prune"):
        from_km(inst)
    pruned = prune(inst)
    prob = from_km(pruned)
    assert {lab for lab, _ in prob.options} <= set(pruned.col_ids)
    assert prob.multiplicity == 1


def test_solution_file_round_trip(tmp_path):
    prob = sts_problem(7)
    cfg = SolveConfig(max_solutions=None, seed=2, order="randomized")
    sols, stats = solve(prob, cfg)
    path = tmp_path / "sols.txt"
    save_solutions(str(path), prob, cfg, stats, sols)
    rows, meta = load_solutions(str(path))
    assert rows == [s.labels for s in sols]
    assert meta["problem"] == prob.checksum
    assert "seed=2" in meta["config"] and "order=randomized" in meta["config"]
    assert f"solutions={stats.solutions}" in meta["stats"]
    # rerunning produces identical bytes apart from the elapsed comment
    sols2, stats2 = solve(prob, cfg)
    path2 = tmp_path / "sols2.txt"
    save_solutions(str(path2), prob, cfg, stats2, sols2)
    keep = [
        ln
        for ln in path.read_text().splitlines()
        if not ln.startswith("# elapsed")
    ]
    keep2 = [
        ln
        for ln in path2.read_text().splitlines()
        if not ln.startswith("# elapsed")
    ]
    assert keep == keep2
    rows3, meta3 = parse_solutions(path.read_text())
    assert rows3 == rows and meta3["problem"] == meta["problem"]
