"""Shared fixtures; the expensive 13-dimensional objects are built once."""

from pathlib import Path

import pytest

import qsteiner
from qsteiner import fixtures
from qsteiner.groups import orbit_partition
from qsteiner.verify import expand_orbits, verify_design

# pyproject.toml puts this checkout's src on sys.path; a qsteiner found
# first elsewhere, an older install, would be tested in its place
CHECKOUT = Path(__file__).resolve().parent.parent / "src" / "qsteiner"
if Path(qsteiner.__file__).resolve().parent != CHECKOUT:
    pytest.exit(
        f"qsteiner was imported from {qsteiner.__file__}, not this checkout",
        returncode=pytest.ExitCode.USAGE_ERROR,
    )


@pytest.fixture(scope="session")
def paper_group():
    return fixtures.fixture_group()


@pytest.fixture(scope="session")
def t2_table(paper_group):
    return orbit_partition(paper_group, 2)


@pytest.fixture(scope="session")
def t3_table(paper_group):
    return orbit_partition(paper_group, 3)


@pytest.fixture(scope="session")
def paper_blocks(paper_group):
    blocks, lengths = expand_orbits(
        paper_group, fixtures.solution_representatives()
    )
    assert set(lengths) == {106483}
    return blocks


@pytest.fixture(scope="session")
def paper_report(paper_blocks):
    return verify_design(paper_blocks, 2, 1)
