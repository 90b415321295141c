"""Acceptance criteria: one test per criterion, one pass/fail line each.

Each test prints `ACCEPTANCE <num> PASS|FAIL <detail>` with its elapsed
time against the stated target before asserting, so a failing run still
shows the measured numbers.
"""

import hashlib
import random
import time
from itertools import combinations

import numpy as np
import pytest

from groups_reference import closure_elements
from qsteiner import fixtures
from qsteiner.exact_cover import (
    CoverProblem,
    SolveConfig,
    check_solution,
    from_km,
    solve,
)
from qsteiner.gf2 import BitMatrix, SingularMatrixError, mat_inverse, mat_vec, rref_rows
from qsteiner.groups import (
    MatrixGroup,
    expand_orbits,
    group_closure,
    orbit_partition,
    singer_normalizer,
)
from qsteiner.kramer_mesner import build_km, checksum, format_km, parse_km, prune
from qsteiner.subspace import gaussian_binomial, span
from subspace_reference import contains_subspace, enumerate_subspaces, vectors
from qsteiner.verify import (
    derived_steiner_sample_check,
    min_distance_certificate,
    packing_bound,
    verify_design,
)

PAPER = fixtures.PAPER


def report(num, ok, detail, elapsed=None, target=None):
    mark = "PASS" if ok else "FAIL"
    timing = ""
    if elapsed is not None:
        timing = f" ({elapsed:.1f}s"
        if target is not None:
            timing += f", target {target}s"
        timing += ")"
    print(f"ACCEPTANCE {num} {mark} {detail}{timing}")


@pytest.fixture(scope="module")
def km_state(paper_group):
    t0 = time.monotonic()
    t2 = orbit_partition(paper_group, 2)
    t3 = orbit_partition(paper_group, 3)
    inst = build_km(t2, t3, lam=1)
    pruned = prune(inst)
    elapsed = time.monotonic() - t0
    return {"t2": t2, "t3": t3, "inst": inst, "pruned": pruned, "elapsed": elapsed}


def test_criterion_01_group_closure():
    t0 = time.monotonic()
    raw = MatrixGroup(n=13, generators=(fixtures.generator_f(), fixtures.generator_s()))
    closed = group_closure(raw)
    elapsed = time.monotonic() - t0
    found = len(closure_elements(raw))
    ok = closed.order == PAPER["group_order"] == found
    report(1, ok and elapsed < 60, f"group closure order {closed.order}", elapsed, 60)
    assert ok
    assert elapsed < 60


def test_criterion_02_two_subspace_orbits():
    t0 = time.monotonic()
    group = fixtures.fixture_group()
    table = orbit_partition(group, 2)
    elapsed = time.monotonic() - t0
    ok = (
        table.num_orbits == PAPER["orbits_k2"]
        and set(table.lengths) == {PAPER["group_order"]}
    )
    report(
        2,
        ok and elapsed < 600,
        f"{PAPER['orbits_k2']} expected, got {table.num_orbits} orbits, "
        f"lengths {sorted(set(table.lengths))}",
        elapsed,
        600,
    )
    assert ok
    assert elapsed < 600


def test_criterion_03_km_dimensions(km_state):
    inst, pruned = km_state["inst"], km_state["pruned"]
    elapsed = km_state["elapsed"]
    row_sums = set(inst.row_sums().values())
    n_rows = len(inst.row_ids)
    n_cols = len(pruned.col_ids)
    entries_ok = bool(pruned.matrix.max(initial=0) <= 1)
    ok = (
        row_sums == {PAPER["km_row_sum"]}
        and n_rows == PAPER["orbits_k2"]
        and n_cols == PAPER["km_columns"]
        and entries_ok
        and elapsed < 7200
    )
    report(
        3,
        ok,
        f"row sums {sorted(row_sums)}, pruned {n_rows} x {n_cols}, 0/1 entries {entries_ok}",
        elapsed,
        7200,
    )
    assert row_sums == {PAPER["km_row_sum"]}
    assert (n_rows, n_cols) == (PAPER["orbits_k2"], PAPER["km_columns"])
    assert len(inst.col_ids) == km_state["t3"].num_orbits == PAPER["orbits_k3"]
    assert entries_ok
    assert elapsed < 7200
    # the KM file bytes, so a change to the matrix code cannot move them,
    # and the bulk reader at full size: the text reads back as the system
    for km, digest in (
        (inst, "0c9cc1452d7fa29d659c0aeac2d92fef195f70d452283b06e921b94104c9dc4a"),
        (pruned, "4de3d9ca83a7e43ff0a40187b5813c9d2d591baa05b1facb02eaf49d8fd4a386"),
    ):
        text = format_km(km)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        back = parse_km(text)
        assert back.matrix.dtype == np.uint8
        assert np.array_equal(back.matrix, km.matrix)
        assert (back.n, back.t, back.k, back.lam) == (km.n, km.t, km.k, km.lam)
        assert (back.row_ids, back.row_lengths) == (km.row_ids, km.row_lengths)
        assert (back.col_ids, back.col_lengths) == (km.col_ids, km.col_lengths)
        assert checksum(back) == checksum(km)


def test_criterion_04_design_certification_without_solver():
    # builds everything it needs from the bundled representatives alone:
    # no KM matrix, no exact-cover search anywhere on this path
    t0 = time.monotonic()
    group = fixtures.fixture_group()
    blocks, lengths = expand_orbits(group, fixtures.solution_representatives())
    rep = verify_design(blocks, 2, 1)
    elapsed = time.monotonic() - t0
    ok = (
        blocks.num_blocks == PAPER["blocks"]
        and lengths == [PAPER["group_order"]] * 15
        and rep.ok
        and rep.histogram == {1: PAPER["pairs"]}
    )
    report(
        4,
        ok and elapsed < 900,
        f"{blocks.num_blocks} blocks, histogram {rep.histogram}",
        elapsed,
        900,
    )
    assert ok
    assert elapsed < 900


def test_criterion_05_table1_is_a_km_solution(km_state):
    t3, pruned = km_state["t3"], km_state["pruned"]
    ids = sorted(t3.lookup(rep) for rep in fixtures.solution_representatives())
    problem = from_km(pruned)
    ok, coverage = check_solution(problem, ids)
    counts = set(coverage.values())
    report(5, ok, f"15 bundled columns cover all {len(coverage)} rows, counts {counts}")
    assert ok and counts == {1}


def brute_covers_disjoint(item_ids, options):
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


def test_criterion_06_solver_corpus():
    # Steiner triple systems on 7 labeled points
    t0 = time.monotonic()
    pair_id = {p: i for i, p in enumerate(combinations(range(7), 2))}
    options = [
        (lab, [pair_id[p] for p in combinations(tri, 2)])
        for lab, tri in enumerate(combinations(range(7), 3))
    ]
    sts = CoverProblem.from_options(item_ids=list(pair_id.values()), options=options)
    oracle_sts = brute_covers_disjoint(sts.item_ids, sts.options)
    sols_sts, _ = solve(sts, SolveConfig(max_solutions=None))
    sts_elapsed = time.monotonic() - t0

    t0 = time.monotonic()
    subs = list(enumerate_subspaces(4, 2))
    opts = [(i, sorted(v for v in vectors(s) if v)) for i, s in enumerate(subs)]
    spread = CoverProblem.from_options(item_ids=list(range(1, 16)), options=opts)
    oracle_spread = brute_covers_disjoint(spread.item_ids, spread.options)
    sols_spread, _ = solve(spread, SolveConfig(max_solutions=None))
    spread_elapsed = time.monotonic() - t0

    got_sts = {frozenset(s.labels) for s in sols_sts}
    got_spread = {frozenset(s.labels) for s in sols_spread}
    ok = (
        len(got_sts) == 30
        and got_sts == oracle_sts
        and len(got_spread) == 56
        and got_spread == oracle_spread
        and all(len(s.labels) == 5 for s in sols_spread)
        and sts_elapsed < 10
        and spread_elapsed < 10
    )
    report(
        6,
        ok,
        f"STS(7) {len(got_sts)}/30 in {sts_elapsed:.1f}s, "
        f"spreads {len(got_spread)}/56 in {spread_elapsed:.1f}s, both match oracles",
    )
    assert ok


def test_criterion_07_bounds_and_min_distance(paper_blocks, paper_report):
    bound = packing_bound(13, 3, 2)
    t0 = time.monotonic()
    dist = min_distance_certificate(paper_blocks, paper_report, samples=10**6, seed=0)
    elapsed = time.monotonic() - t0
    ok = bound == PAPER["blocks"] == paper_blocks.num_blocks and dist == 4
    report(
        7,
        ok,
        f"packing bound {bound}, min distance {dist} over 10^6 sampled pairs",
        elapsed,
    )
    assert bound == PAPER["blocks"]
    assert paper_blocks.num_blocks == bound
    assert dist == 4


def test_criterion_08_derived_steiner_system(paper_blocks, paper_report):
    t0 = time.monotonic()
    out = derived_steiner_sample_check(paper_blocks, paper_report, samples=10**5, seed=0)
    elapsed = time.monotonic() - t0
    ok = out["failures"] == 0 and out["samples"] == 10**5 and elapsed < 120
    report(
        8,
        ok,
        f"{out['failures']} failures in {out['samples']} sampled triples",
        elapsed,
        120,
    )
    assert out["failures"] == 0
    assert elapsed < 120


def test_criterion_09_unassisted_full_search():
    report(9, True, "stretch goal, explicitly not a gate: skipped")
    pytest.skip(
        "stretch criterion: an unassisted full-instance solver run has an "
        "8-hour budget and no published seed or search order; not part of "
        "the acceptance gate"
    )


def rand_invertible(n, rng):
    while True:
        rows = tuple(rng.randint(1, (1 << n) - 1) for _ in range(n))
        m = BitMatrix(rows, n)
        try:
            mat_inverse(m)
        except SingularMatrixError:
            continue
        return m


def test_criterion_10_property_suites():
    t0 = time.monotonic()
    rng = random.Random(5)

    # canonical form: idempotent, and invariant across bases of one image
    for _ in range(20):
        n = rng.randint(3, 6)
        k = rng.randint(1, n)
        vecs = [rng.randint(1, (1 << n) - 1) for _ in range(k)]
        rows, _ = rref_rows(vecs)
        again, _ = rref_rows(list(rows))
        assert tuple(again) == tuple(rows)
        sub = span(vecs, n)
        g = rand_invertible(n, rng)
        basis = list(sub.rows)
        alt = list(basis)
        if len(alt) > 1:
            alt[0] ^= alt[1]
        moved = span([mat_vec(g, v) for v in basis], n)
        moved_alt = span([mat_vec(g, v) for v in alt], n)
        assert moved.rows == moved_alt.rows and moved.dim == sub.dim

    # action axioms and orbit-stabilizer divisibility
    group = group_closure(singer_normalizer(6))
    table2 = orbit_partition(group, 2)
    table3 = orbit_partition(group, 3)
    for table in (table2, table3):
        assert sum(table.lengths) == gaussian_binomial(6, table.k, 2)
        assert all(group.order % length == 0 for length in table.lengths)

    # double counting over the incidence system
    inst = build_km(table2, table3)
    assert set(inst.row_sums().values()) == {gaussian_binomial(4, 1, 2)}
    for cid in inst.col_ids:
        weighted = sum(
            int(val) * table2.lengths[rid]
            for rid, val in zip(inst.row_ids, inst.matrix[:, cid])
        )
        assert weighted == gaussian_binomial(3, 2, 2) * table3.lengths[cid]

    # brute-force KM equivalence at small n
    group5 = singer_normalizer(5)
    t1 = orbit_partition(group5, 1)
    k2 = orbit_partition(group5, 2)
    small = build_km(t1, k2, lam=1)
    for rid in small.row_ids:
        for cid in small.col_ids:
            blocks, _ = expand_orbits(group5, [k2.rep(cid)])
            count = sum(
                1
                for i in range(blocks.num_blocks)
                if contains_subspace(
                    span(blocks.blocks[i].tolist(), 5), span(t1.rep(rid).tolist(), 5)
                )
            )
            assert count == small.matrix[rid, cid]

    # solver soundness on random instances against subset enumeration
    for trial in range(10):
        n_items = rng.randint(3, 6)
        item_ids = list(range(n_items))
        options = []
        for lab in range(rng.randint(3, 10)):
            size = rng.randint(1, n_items)
            options.append((lab, sorted(rng.sample(item_ids, size))))
        prob = CoverProblem.from_options(item_ids=item_ids, options=options)
        sols, _ = solve(prob, SolveConfig(max_solutions=None))
        got = {frozenset(s.labels) for s in sols}
        expect = set()
        for mask in range(1 << len(options)):
            counts = {it: 0 for it in item_ids}
            for i in range(len(options)):
                if mask >> i & 1:
                    for it in options[i][1]:
                        counts[it] += 1
            if all(c == 1 for c in counts.values()):
                expect.add(
                    frozenset(options[i][0] for i in range(len(options)) if mask >> i & 1)
                )
        assert got == expect

    elapsed = time.monotonic() - t0
    ok = elapsed < 300
    report(10, ok, "property suites green", elapsed, 300)
    assert ok
