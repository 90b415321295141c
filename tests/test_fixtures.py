"""Bundled generator matrices and solution orbits: integrity and identity."""

import hashlib

import numpy as np
import pytest

from qsteiner import fixtures
from qsteiner.fixtures import (
    FIXTURE_GROUP_ORDER,
    FIXTURE_N,
    FIXTURE_SHA256,
    FixtureIntegrityError,
    data_file_text,
    fixture_group,
    generator_f,
    generator_s,
    self_test,
    solution_representatives,
)
from gf2_reference import matrix_order
from qsteiner.gf2 import (
    companion_matrix,
    frobenius_matrix,
    mat_mul,
    primitive_polynomial,
    rref_bulk,
)


def test_paper_numbers_table():
    # the one place the paper's numbers are written out as literals;
    # paper-check and the acceptance tests read them from the table
    assert fixtures.PAPER == {
        "group_order": 106483,
        "orbits_k2": 105,
        "orbits_k3": 30705,
        "km_row_sum": 2047,
        "km_columns": 25572,
        "blocks": 1597245,
        "pairs": 11180715,
    }
    assert fixtures.PAPER["group_order"] == FIXTURE_GROUP_ORDER


def test_checksums_match_embedded_text():
    for name, text in (
        ("generator_f", fixtures.GENERATOR_F_TEXT),
        ("generator_s", fixtures.GENERATOR_S_TEXT),
        ("solution_orbits", fixtures.SOLUTION_ORBITS_TEXT),
    ):
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == FIXTURE_SHA256[name]


def test_data_files_match_embedded_text():
    assert data_file_text("generator_f") == fixtures.GENERATOR_F_TEXT
    assert data_file_text("generator_s") == fixtures.GENERATOR_S_TEXT
    assert data_file_text("solution_orbits") == fixtures.SOLUTION_ORBITS_TEXT


def test_tampered_text_is_rejected(monkeypatch):
    monkeypatch.setitem(FIXTURE_SHA256, "generator_f", "0" * 64)
    with pytest.raises(FixtureIntegrityError):
        generator_f()


def test_generators_are_companion_and_frobenius_matrices():
    p13 = primitive_polynomial(13)
    assert generator_s() == companion_matrix(p13)
    assert generator_f() == frobenius_matrix(p13)


def test_generator_orders():
    assert matrix_order(generator_s()) == 2**13 - 1
    assert matrix_order(generator_f()) == 13


def test_frobenius_conjugation_squares_the_cycle():
    s, f = generator_s(), generator_f()
    assert mat_mul(f, s) == mat_mul(mat_mul(s, s), f)


def test_solution_representatives():
    reps = solution_representatives()
    assert reps.shape == (15, 3) and reps.dtype == np.uint64
    assert int(reps.max()) >> FIXTURE_N == 0
    assert len({tuple(r) for r in reps.tolist()}) == 15
    red, ranks = rref_bulk(reps)
    assert np.array_equal(red, reps) and np.all(ranks == 3)


def test_fixture_group_shape():
    group = fixture_group()
    assert group.n == FIXTURE_N == 13
    assert group.order == FIXTURE_GROUP_ORDER == (2**13 - 1) * 13
    assert len(group.generators) == 2


def test_self_test_runs_clean():
    self_test()
