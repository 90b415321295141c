"""Exact cover solver against brute-force enumeration oracles."""

import gc
import random
from itertools import combinations, product

import numpy as np
import pytest

import dlx_reference
import km_reference
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
from qsteiner.gf2 import companion_matrix, primitive_polynomial
from qsteiner.groups import MatrixGroup, orbit_partition, singer_normalizer
from qsteiner.kramer_mesner import KMInstance, build_km, prune
from subspace_reference import enumerate_subspaces, vectors


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
    return CoverProblem.from_options(item_ids=list(pair_id.values()), options=options)


def spread_problem():
    """Cover the nonzero vectors of GF(2)^4 by 2-dimensional subspaces."""
    options = []
    for lab, sub in enumerate(enumerate_subspaces(4, 2)):
        options.append((lab, sorted(v for v in vectors(sub) if v)))
    return CoverProblem.from_options(item_ids=list(range(1, 16)), options=options)


def test_sts7_matches_brute_force():
    prob = sts_problem(7)
    sols, stats = solve(prob, SolveConfig(max_solutions=None))
    got = {frozenset(s.labels) for s in sols}
    assert len(sols) == len(got) == 30
    assert all(len(s.labels) == 7 for s in sols)
    assert got == brute_covers_disjoint(prob.item_ids, prob.options)
    assert stats.limit is None


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
        prob = CoverProblem.from_options(item_ids=item_ids, options=options, multiplicity=lam)
        sols, _ = solve(prob, SolveConfig(max_solutions=None))
        got = {frozenset(s.labels) for s in sols}
        assert len(got) == len(sols), "duplicate solutions emitted"
        assert got == brute_covers_subsets(item_ids, options, lam)
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
    assert stats.limit == "nodes" and stats.nodes == 5
    assert len(sols) < 30


def test_time_limit_stops_search():
    prob = sts_problem(9)
    sols, stats = solve(prob, SolveConfig(max_solutions=None, time_limit=0.0))
    assert stats.limit == "time" and stats.nodes == 0
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
        prob = CoverProblem.from_options(item_ids=item_ids, options=options, multiplicity=lam)
        cases.append((prob, SolveConfig(max_solutions=None)))
    group = singer_normalizer(7)
    km = prune(build_km(orbit_partition(group, 2), orbit_partition(group, 3), lam=1))
    for order in ("file", "randomized"):
        cfg = SolveConfig(max_solutions=None, order=order, seed=3)
        cases.append((from_km(km), cfg))
    # the benchmark's path: a KM problem with columns forced, in both
    # orders and under several seeds; under the Singer cycle alone with
    # lambda = 2 (21 x 72) one forced column leaves a subtree of ~250 nodes
    problem = from_km(km)
    cyclic = MatrixGroup(n=7, generators=(companion_matrix(primitive_polynomial(7)),))
    km2 = prune(build_km(orbit_partition(cyclic, 2), orbit_partition(cyclic, 3), lam=2))
    for seed, order in product(range(3), ("file", "randomized")):
        for prob, size in ((problem, 1), (from_km(km2), 1), (from_km(km2), 2)):
            forced = random.Random(seed).sample(prob.labels, size)
            cfg = SolveConfig(max_solutions=None, seed=seed, order=order, forced=forced)
            cases.append((prob, cfg))
    # a hand-built system whose column 11 has no entry: it is no option
    zero = KMInstance(
        n=3, t=1, k=2, lam=1, row_ids=[0, 1, 2], row_lengths=[1, 1, 1],
        col_ids=[10, 11, 12, 13], col_lengths=[1, 1, 1, 1],
        matrix=np.array([[1, 0, 0, 1], [0, 0, 1, 0], [1, 0, 1, 0]], dtype=np.uint8),
    )
    fields = {k: v for k, v in vars(zero).items() if k != "matrix"}
    sparse = km_reference.KMInstance(**fields, entries=zero.entries)
    for problem in (from_km(zero), km_reference.from_km(sparse)):
        assert problem.labels == [10, 12, 13]
        assert problem.options == [(10, [0, 2]), (12, [1, 2]), (13, [0])]
    for order in ("file", "randomized"):
        cases.append((from_km(zero), SolveConfig(max_solutions=None, order=order)))

    stopped = set()
    for prob, cfg in cases:
        got = _traversal(solve, prob, cfg)
        assert got == _traversal(dlx_reference.solve, prob, cfg), cfg
        stopped.add(got[3])
    assert stopped == {None, "nodes", "time", "solutions"}
    # a forced column that meets a row an earlier one covers
    for forced, clash in (([10, 12], 12), ([13, 10, 12], 10)):
        cfg = SolveConfig(forced=forced)
        with pytest.raises(ValueError) as want:
            dlx_reference.solve(from_km(zero), cfg)
        with pytest.raises(ValueError) as got:
            solve(from_km(zero), cfg)
        assert str(got.value) == str(want.value)
        assert str(got.value) == f"option {clash} covers an already satisfied item"


@pytest.mark.parametrize(
    "item_ids,options,multiplicity,message",
    [
        ([0, 1], [(0, [0, 1])], 0, "multiplicity must be at least 1"),
        ([0, 0], [(0, [0])], 1, "duplicate item ids"),
        ([0, 1], [(5, [0]), (5, [1])], 1, "duplicate option label 5"),
        ([0, 1], [(5, [0]), (6, [])], 1, "option 6 covers no items"),
        ([0, 1], [(5, [1, 0, 1])], 1, "option 5 lists an item twice"),
        ([0, 1], [(5, [0, 7])], 1, "option 5 references unknown item 7"),
    ],
)
def test_from_options_rejects_bad_input(item_ids, options, multiplicity, message):
    with pytest.raises(ValueError) as exc:
        CoverProblem.from_options(item_ids, options, multiplicity)
    assert str(exc.value) == message


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
