"""Bundled reference dataset for the 13-dimensional construction.

Two generator matrices F, S of the Singer-cycle normalizer of GL(13,2),
plus fifteen orbit representatives of 3-subspaces whose expanded orbits
form a 2-(13, 3, 1) subspace design.  The embedded text is authoritative
and checksummed; the same content ships as data files next to this
module so other tools can read it without importing the package.

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

GENERATOR_F_TEXT = """\
1000000000010
0000000100011
0100000100000
0000000010011
0010000110011
0000000101000
0001000011001
0000000010100
0000100001100
0000000001010
0000010000110
0000000000101
0000001000011
"""

GENERATOR_S_TEXT = """\
0000000000001
1000000000001
0100000000000
0010000000001
0001000000001
0000100000000
0000010000000
0000001000000
0000000100000
0000000010000
0000000001000
0000000000100
0000000000010
"""

SOLUTION_ORBITS_TEXT = """\
0000010110000
0000000000010
0000000000001

0000010000000
0000000000110
0000000000001

0000001010100
0000000001000
0000000000001

0000111010110
0000000001100
0000000000001

0001000000000
0000000010110
0000000000001

0010101100110
0000000011110
0000000000001

0010011010110
0000000100000
0000000000001

1001011001000
0000000100010
0000000000001

0111000000100
0000000100110
0000000000001

1001101000100
0000000101010
0000000000001

0101110010100
0000001001000
0000000000001

1011110010110
0000001010010
0000000000001

1011110010000
0000001011010
0000000000001

0001010110100
0000001100000
0000000000001

0110000011000
0000010100110
0000000000001
"""

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
    """The embedded dataset does not match its recorded checksum."""


def _check(name: str, text: str) -> None:
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    if digest != FIXTURE_SHA256[name]:
        raise FixtureIntegrityError(
            f"fixture {name} has checksum {digest}, expected {FIXTURE_SHA256[name]}"
        )


def generator_f() -> BitMatrix:
    _check("generator_f", GENERATOR_F_TEXT)
    (m,) = parse_matrix_text(GENERATOR_F_TEXT)
    return m


def generator_s() -> BitMatrix:
    _check("generator_s", GENERATOR_S_TEXT)
    (m,) = parse_matrix_text(GENERATOR_S_TEXT)
    return m


def solution_representatives() -> np.ndarray:
    """The fifteen 3-subspace orbit representatives, (15, 3) uint64 RREF rows."""
    _check("solution_orbits", SOLUTION_ORBITS_TEXT)
    # every basis: 13 columns, 3 rows and rank 3, or a FormatError
    n, rows, _ = parse_subspaces(SOLUTION_ORBITS_TEXT, n=FIXTURE_N, k=3)
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
    """Content of a shipped data file: generator_f, generator_s, solution_orbits."""
    path = resources.files("qsteiner").joinpath("data").joinpath(f"{name}.txt")
    return path.read_text(encoding="ascii")
