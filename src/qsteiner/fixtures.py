"""Bundled reference dataset for the 13-dimensional construction.

Two generator matrices F, S of the Singer-cycle normalizer of GL(13,2),
plus fifteen orbit representatives of 3-subspaces whose expanded orbits
form a 2-(13, 3, 1) subspace design.  The dataset is the three text
files under data/ next to this module, so other tools can read it
without importing the package; each is checked against its recorded
SHA-256 before it is parsed.

F is the Frobenius (squaring) map and S the companion matrix of the
primitive polynomial x^13 + x^4 + x^3 + x + 1, written in the column
convention of gf2: row i, character j is entry (i, j) of a matrix whose
column j is the image of basis vector j.
"""

from __future__ import annotations

import hashlib
from importlib import resources

import numpy as np

from .gf2 import BitMatrix, first_duplicate, mat_inverse, parse_matrix_text
from .groups import MatrixGroup
from .subspace import parse_subspaces

FIXTURE_SHA256 = {
    "generator_f": "db62d7a50357417f4051fcf31a0ce479950bbfb5a6cc07a70cf9221231979608",
    "generator_s": "b58ca9d1f4d5cc84da5aaf4be56671240d8dcca01ddf5d6f423e48645e2a0dd8",
    "solution_orbits": "445f2547c69dd621fbeb70e92e6ac374390d6c0ef91f8cf571f8c8782e3cb29b",
}

FIXTURE_N = 13
FIXTURE_GROUP_ORDER = (2**13 - 1) * 13

# The paper's numbers for the 2-(13,3,1)_2 design and its construction,
# checked by `paper-check` and by the acceptance tests: group order (also
# every orbit length), orbit counts of 2- and 3-subspaces, the KM row sum
# and pruned column count, the block count and the 2-subspaces covered.
PAPER = {
    "group_order": 106483,
    "orbits_k2": 105,
    "orbits_k3": 30705,
    "km_row_sum": 2047,
    "km_columns": 25572,
    "blocks": 1597245,
    "pairs": 11180715,
}


class FixtureIntegrityError(RuntimeError):
    """A bundled data file does not match its recorded checksum."""


def _checked_text(name: str) -> str:
    """The text of data file name, checked against its recorded checksum."""
    text = data_file_text(name)
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != FIXTURE_SHA256[name]:
        raise FixtureIntegrityError(
            f"fixture {name} has checksum {digest}, expected {FIXTURE_SHA256[name]}"
        )
    return text


def generator_f() -> BitMatrix:
    (m,) = parse_matrix_text(_checked_text("generator_f"))
    return m


def generator_s() -> BitMatrix:
    (m,) = parse_matrix_text(_checked_text("generator_s"))
    return m


def solution_representatives() -> np.ndarray:
    """The fifteen 3-subspace orbit representatives, (15, 3) uint64 RREF rows."""
    text = _checked_text("solution_orbits")
    # every basis: 13 columns, 3 rows and rank 3, or a FormatError
    n, rows, _ = parse_subspaces(text, n=FIXTURE_N, k=3)
    if len(rows) != 15 or first_duplicate(rows, n) is not None:
        raise FixtureIntegrityError("expected 15 distinct representatives")
    return rows


def fixture_group() -> MatrixGroup:
    """The group generated by F and S, with its known order attached.

    Does not run the closure; `group_closure` recomputes the order from
    scratch when an independent count is wanted.
    """
    return MatrixGroup(
        n=FIXTURE_N,
        generators=(generator_f(), generator_s()),
        order=FIXTURE_GROUP_ORDER,
    )


def self_test() -> None:
    """Checksums plus basic shape facts: generators invertible, reps rank 3."""
    f = generator_f()
    s = generator_s()
    mat_inverse(f)
    mat_inverse(s)
    solution_representatives()


def data_file_text(name: str) -> str:
    """Content of a shipped data file: generator_f, generator_s, solution_orbits.

    A byte outside ASCII reads as U+FFFD, so it fails the checksum.
    """
    path = resources.files("qsteiner").joinpath("data").joinpath(f"{name}.txt")
    return path.read_text(encoding="ascii", errors="replace")
