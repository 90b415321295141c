"""The engine's label pass against the one-sort-per-candidate oracle."""

import numpy as np
import pytest

import singer_reference
from qsteiner.gf2 import rref_bulk
from qsteiner.groups import singer_normalizer
from qsteiner.singer import _sorting_network
from qsteiner.subspace import key_chunks


def random_rows(rng, num, k, n):
    """(num, k) RREF rows of random k-dim subspaces of GF(2)^n."""
    out = np.empty((0, k), dtype=np.uint64)
    while len(out) < num:
        red, ranks = rref_bulk(rng.integers(1, 1 << n, size=(num, k), dtype=np.uint64))
        out = np.concatenate([out, red[ranks == k][:, :k]])
    return out[:num]


def assert_matches_oracle(engine, rows):
    exps = engine.rows_to_exps(rows)
    labels, stab = engine.labels_and_stabilizers(exps)
    want_labels, want_stab = singer_reference.labels_and_stabilizers(engine, exps)
    assert labels.dtype == want_labels.dtype and stab.dtype == want_stab.dtype
    assert np.array_equal(labels, want_labels)
    assert np.array_equal(stab, want_stab)
    # a label is a function of the exponent set, not of its order
    again = engine.labels_and_stabilizers(exps[:, ::-1])
    assert np.array_equal(again[0], labels) and np.array_equal(again[1], stab)
    return stab


def test_labels_match_oracle_on_random_paper_3_subspaces(paper_group):
    rows = random_rows(np.random.default_rng(11), 3000, 3, 13)
    assert_matches_oracle(paper_group.engine(), rows)
    assert_matches_oracle(paper_group.engine(), rows[:0])


@pytest.mark.parametrize("n", [6, 8])
def test_labels_match_oracle_with_nontrivial_stabilizers(n):
    # every k-subspace at n = 6; at n = 8 the partition's representatives,
    # short orbits included, and a random sample
    engine = singer_normalizer(n).engine()
    rng = np.random.default_rng(n)
    rows, _, _ = engine.partition(0, None)
    short = 0
    for k in range(1, 5):
        rows, _, _ = engine.partition(k, rows)
        if n == 6:
            sample = np.concatenate([chunk for _, chunk in key_chunks(n, k)])
        else:
            sample = np.concatenate([rows, random_rows(rng, 2000, k, n)])
        stab = assert_matches_oracle(engine, sample)
        short += int(np.count_nonzero(stab > 1))
    assert short > 0


def test_labels_match_oracle_on_four_word_labels(paper_group):
    # k = 4 at n = 13: 14 values in 4 words, so ties on the first word are
    # broken by later ones
    engine = paper_group.engine()
    rows = random_rows(np.random.default_rng(4), 1500, 4, 13)
    assert engine.labels_bulk(engine.rows_to_exps(rows[:1])).shape == (1, 4)
    assert_matches_oracle(engine, rows)


def test_labels_match_oracle_with_three_values_per_word():
    # 64 // 17 = 3 values per word, so a 3-subspace has a full two-word label
    engine = singer_normalizer(17).engine()
    rng = np.random.default_rng(17)
    for k in (1, 2, 3):
        assert_matches_oracle(engine, random_rows(rng, 500, k, 17))


@pytest.mark.parametrize("n", [8, 13])
def test_labels_match_oracle_on_five_dim_subspaces(n):
    # k = 5 sorts 31 exponents per slope on a network of 31 wires; at n = 8
    # the partition's representatives include short orbits
    engine = singer_normalizer(n).engine()
    sample = random_rows(np.random.default_rng(n), 300, 5, n)
    if n == 8:
        rows, _, _ = engine.partition(0, None)
        for k in range(1, 6):
            rows, _, _ = engine.partition(k, rows)
        sample = np.concatenate([rows, sample])
    stab = assert_matches_oracle(engine, sample)
    assert n == 13 or np.count_nonzero(stab > 1) > 0


@pytest.mark.parametrize("m", range(1, 16))
def test_sorting_network_sorts_every_0_1_input(m):
    # a comparator network sorts every input iff it sorts every 0/1 input
    net = _sorting_network(m)
    assert all(0 <= a < b < m for a, b in net)
    wires = (np.arange(1 << m) >> np.arange(m)[:, None]) & 1
    for a, b in net:
        low = np.minimum(wires[a], wires[b])
        wires[b] = np.maximum(wires[a], wires[b])
        wires[a] = low
    assert np.all(wires[1:] >= wires[:-1])


@pytest.mark.parametrize("n", range(2, 17))
def test_normalizer_slopes_are_the_powers_of_two(n):
    engine = singer_normalizer(n).engine()
    assert engine.slopes == tuple(1 << j for j in range(n))
    assert engine.order == engine.modulus * n



def test_labels_match_oracle_on_eight_dim_subspaces():
    # an 8-subspace has 255 exponents, the widest sets the tests sort
    engine = singer_normalizer(10).engine()
    assert_matches_oracle(engine, random_rows(np.random.default_rng(10), 40, 8, 10))
