"""Construction and verification of q-analog Steiner systems over GF(2).

The pipeline: build the Singer-cycle normalizer of GL(n,2), partition
t- and k-subspaces into orbits, assemble the orbit incidence system,
solve it as an exact cover by a depth-first search over bitsets, expand
a solution's orbits into blocks, and verify the design by independent
recounting.
"""

from .exact_cover import (
    CoverProblem,
    CoverSolution,
    SolveConfig,
    SolveStats,
    check_solution,
    from_km,
    solve,
)
from .gf2 import (
    BitMatrix,
    FormatError,
    SingularMatrixError,
    companion_matrix,
    frobenius_matrix,
    identity,
    mat_inverse,
    mat_mul,
    mat_vec,
    matrix_order,
    primitive_polynomial,
    rank,
    rref,
)
from .groups import (
    MatrixGroup,
    OrbitTable,
    act,
    group_closure,
    orbit,
    orbit_partition,
    singer_normalizer,
)
from .kramer_mesner import KMInstance, build_km, prune
from .subspace import (
    Subspace,
    canonicalize,
    enumerate_subspaces,
    gaussian_binomial,
    span,
    spread_size,
    subspace_distance,
)
from .verify import (
    BlockSet,
    DesignReport,
    derived_steiner_sample_check,
    expand_orbits,
    min_distance_certificate,
    packing_bound,
    verify_design,
)

__version__ = "0.1.0"

__all__ = [
    "BitMatrix",
    "BlockSet",
    "CoverProblem",
    "CoverSolution",
    "DesignReport",
    "FormatError",
    "KMInstance",
    "MatrixGroup",
    "OrbitTable",
    "SingularMatrixError",
    "SolveConfig",
    "SolveStats",
    "Subspace",
    "act",
    "build_km",
    "canonicalize",
    "check_solution",
    "companion_matrix",
    "derived_steiner_sample_check",
    "enumerate_subspaces",
    "expand_orbits",
    "from_km",
    "frobenius_matrix",
    "gaussian_binomial",
    "group_closure",
    "identity",
    "mat_inverse",
    "mat_mul",
    "mat_vec",
    "matrix_order",
    "min_distance_certificate",
    "orbit",
    "orbit_partition",
    "packing_bound",
    "primitive_polynomial",
    "prune",
    "rank",
    "rref",
    "singer_normalizer",
    "solve",
    "span",
    "spread_size",
    "subspace_distance",
    "verify_design",
]
