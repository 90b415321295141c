"""Bundled generator matrices and solution orbits: integrity and identity."""

import hashlib
import re
from pathlib import Path

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
    for name, digest in FIXTURE_SHA256.items():
        assert hashlib.sha256(data_file_text(name).encode()).hexdigest() == digest


def test_tampered_text_is_rejected(monkeypatch):
    monkeypatch.setitem(FIXTURE_SHA256, "generator_f", "0" * 64)
    with pytest.raises(FixtureIntegrityError):
        generator_f()
    # one character of a data file changed, as read, not on disk
    for name, load in (
        ("generator_s", generator_s),
        ("solution_orbits", solution_representatives),
    ):
        text = data_file_text(name)
        at = text.index("1")
        edited = text[:at] + "0" + text[at + 1 :]
        with monkeypatch.context() as m:
            m.setattr(
                fixtures, "data_file_text", lambda key: edited if key == name else ""
            )
            with pytest.raises(FixtureIntegrityError, match=f"fixture {name} "):
                load()


def test_no_module_embeds_a_data_file():
    # the bundled dataset lives in its data files alone: no module holds
    # the rows of one in any layout, down to one generator's 13 rows
    package = Path(fixtures.__file__).parent
    rows = re.compile(r"\b[01]+\b")
    for path in sorted(package.glob("data/*.txt")):
        want = " ".join(rows.findall(path.read_text()))
        assert want.count(" ") >= 12, path.name
        for module in sorted(package.glob("*.py")):
            have = " ".join(rows.findall(module.read_text()))
            assert f" {want} " not in f" {have} ", (module.name, path.name)


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
