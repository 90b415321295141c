"""Matrix groups over GF(2) and their orbits on subspaces.

Groups act on column vectors from the left, so the image of a subspace
applies the matrix to every basis row and recanonicalizes.  Groups
built on a Singer cycle partition subspaces into orbits by exponent
arithmetic, without traversal (see singer); every other group takes the
generic path, which maps every subspace by every generator in bulk and
reads the orbits off as connected components.  The generic path is also
the test oracle of the engine, and orbit() walks one orbit by
breadth-first traversal for expansion and as a test oracle of both.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .gf2 import (
    BitMatrix,
    FormatError,
    column_action,
    companion_matrix,
    first_duplicate,
    format_matrix,
    frobenius_matrix,
    identity,
    mat_vec,
    mat_vec_bulk,
    parse_matrix_text,
    primitive_polynomial,
    rank,
    row_action,
    rref_bulk,
    rref_rows,
)
from .heap import release_free_heap
from .singer import SingerEngine
from .subspace import (
    Subspace,
    enumerate_keys_bulk,
    gaussian_binomial,
    key_chunks,
    pack_keys_bulk,
    span,
)

CLOSURE_CAP = 10**7
TRAVERSAL_CAP = 2 * 10**7


class ClosureCapError(RuntimeError):
    """Group closure would exceed the element cap."""


class StrategyError(RuntimeError):
    """An orbit traversal exceeds its cap, or a lookup lacks its group."""


@dataclass
class MatrixGroup:
    """A subgroup of GL(n, 2) given by generators.

    elements, when present, is the dense list of group elements as
    packed row tuples; order is filled by group_closure or by a
    certified structure detection.
    """

    n: int
    generators: tuple[BitMatrix, ...]
    elements: tuple[tuple[int, ...], ...] | None = None
    order: int | None = None
    _engine: SingerEngine | None = field(default=None, repr=False, compare=False)
    _engine_tried: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.generators = tuple(self.generators)
        if not self.generators:
            raise ValueError("a matrix group needs at least one generator")
        for g in self.generators:
            if g.ncols != self.n or g.nrows != self.n:
                raise ValueError("generator shape does not match the group dimension")
            if rank(g) != self.n:
                raise ValueError("generators must be invertible")

    def engine(self) -> SingerEngine | None:
        """Certified Singer-structure engine, or None; cached."""
        if not self._engine_tried:
            self._engine = SingerEngine.detect(list(self.generators), self.n)
            self._engine_tried = True
            if self._engine is not None:
                if self.order is None:
                    self.order = self._engine.order
                elif self.order != self._engine.order:
                    raise AssertionError(
                        "structure-derived group order disagrees with the stored order"
                    )
        return self._engine


def group_hash(group: MatrixGroup) -> str:
    """Stable 16-hex-digit digest of (n, generators); order-sensitive."""
    payload = f"{group.n}|" + "|".join(
        ",".join(str(r) for r in g.rows) for g in group.generators
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def group_closure(group: MatrixGroup, cap: int = CLOSURE_CAP) -> MatrixGroup:
    """Enumerate all elements by breadth-first right multiplication.

    Returns a new MatrixGroup with elements and order filled.  Raises
    ClosureCapError when more than cap elements appear.
    """
    gens = [row_action(g) for g in group.generators]
    start = identity(group.n).rows
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for rows in frontier:
            for apply_g in gens:
                img = tuple(apply_g(r) for r in rows)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
                    if len(seen) > cap:
                        raise ClosureCapError(
                            f"group closure exceeded the cap of {cap} elements"
                        )
        frontier = nxt
    if group.order is not None and group.order != len(seen):
        raise AssertionError("closure size disagrees with the recorded group order")
    return MatrixGroup(
        n=group.n,
        generators=group.generators,
        elements=tuple(sorted(seen)),
        order=len(seen),
    )


def singer_normalizer(n: int) -> MatrixGroup:
    """The normalizer of a Singer cycle in GL(n, 2).

    Generated by the companion matrix of a primitive polynomial of
    degree n (order 2^n - 1, transitive on nonzero vectors) and the
    matrix of the squaring map (order n).  The group order is
    (2^n - 1) * n.
    """
    p = primitive_polynomial(n)
    s = companion_matrix(p)
    f = frobenius_matrix(p)
    return MatrixGroup(n=n, generators=(s, f), order=(2**n - 1) * n)


def act(g: BitMatrix, u: Subspace) -> Subspace:
    """Image of a subspace under a matrix: span of g @ b over basis rows b.

    Left action: act(mat_mul(g, h), u) == act(g, act(h, u)).
    """
    if g.ncols != u.ambient:
        raise ValueError("matrix width does not match the ambient dimension")
    return span([mat_vec(g, r) for r in u.rows], u.ambient)


def orbit(group: MatrixGroup, u: Subspace, cap: int = TRAVERSAL_CAP) -> list[Subspace]:
    """All images of u under the group, sorted by key; BFS over generators."""
    if u.ambient != group.n:
        raise ValueError("subspace does not live in the group's space")
    acts = [column_action(g) for g in group.generators]
    seen = {u.rows}
    frontier = [u.rows]
    while frontier:
        nxt = []
        for rows in frontier:
            for apply_g in acts:
                red, _ = rref_rows([apply_g(r) for r in rows])
                if red not in seen:
                    seen.add(red)
                    nxt.append(red)
                    if len(seen) > cap:
                        raise StrategyError(f"orbit exceeded the traversal cap {cap}")
        frontier = nxt
    members = [Subspace(group.n, rows) for rows in seen]
    members.sort(key=lambda s: s.key)
    return members


def _rowwise(words: np.ndarray) -> np.ndarray:
    """(N, W) uint64 words as N comparable scalars, one np.void per row."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    return words.view(np.dtype((np.void, 8 * words.shape[1]))).reshape(-1)


def _sorted_index(
    by_label: bool, words: np.ndarray, ids: np.ndarray
) -> tuple[bool, np.ndarray, np.ndarray]:
    """An OrbitTable lookup index: whether it holds orbit labels or keys,
    the rows of words sorted as np.void, and the orbit id of each."""
    keys = _rowwise(words)
    order = np.argsort(keys, kind="stable")
    return by_label, keys[order], np.asarray(ids, dtype=np.int64)[order]


@dataclass(eq=False)
class OrbitTable:
    """Orbit representatives of k-dim subspaces under a group.

    rows is the (N, k) uint64 array of representative RREF bases, ids
    0..N-1 in ascending representative key order; rep(i) gives one as a
    Subspace.  The lookup index is one sorted array of words with the
    orbit id of each: the representatives' orbit labels when the group
    has a Singer engine, else the key of every orbit member, taken from
    the generic partition.
    """

    n: int
    k: int
    group: MatrixGroup | None
    rows: np.ndarray
    lengths: list[int]
    _index: tuple[bool, np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.rows = np.ascontiguousarray(self.rows, dtype=np.uint64)
        if self.rows.ndim != 2 or self.rows.shape[1] != self.k:
            raise ValueError("rows must be an (N, k) array of basis rows")
        if len(self.rows) != len(self.lengths):
            raise ValueError("rows and lengths differ in length")
        if self.rows.size and int(self.rows.max()) >> self.n:
            raise ValueError("basis rows must fit in n bits")
        red, ranks = rref_bulk(self.rows)
        bad = np.flatnonzero((ranks < self.k) | np.any(red != self.rows, axis=1))
        if bad.size:
            raise ValueError(
                f"orbit {bad[0]}: basis rows are not a reduced row echelon "
                f"form of rank {self.k}"
            )
        keys = pack_keys_bulk(self.rows, self.n)
        if np.any(keys[1:] <= keys[:-1]):
            raise ValueError("representatives must be in strictly ascending key order")

    @property
    def num_orbits(self) -> int:
        return len(self.rows)

    def total_subspaces(self) -> int:
        return sum(self.lengths)

    def rep(self, i: int) -> Subspace:
        """Representative of orbit i as a Subspace."""
        if not 0 <= i < self.num_orbits:
            raise IndexError(
                f"orbit id {i} out of range: the table has {self.num_orbits} orbits"
            )
        return Subspace(self.n, tuple(self.rows[i].tolist()))

    # -- lookup -----------------------------------------------------------

    def _engine(self) -> SingerEngine | None:
        """The group's Singer engine; the zero subspace needs none."""
        return self.group.engine() if self.group is not None and self.k else None

    def _index_words(self, rows: np.ndarray, by_label: bool) -> np.ndarray:
        """(N, W) uint64 orbit labels or subspace keys of (N, k) RREF rows."""
        if by_label:
            engine = self._engine()
            return engine.labels_bulk(engine.rows_to_exps(rows))
        return pack_keys_bulk(rows, self.n)[:, None]

    def _ensure_index(self) -> tuple[bool, np.ndarray, np.ndarray]:
        """Build the lookup index once, re-deriving every representative's
        orbit: by one label pass with a Singer engine, else from the generic
        partition.  A wrong length or a shared orbit is a FormatError."""
        if self._index is not None:
            return self._index
        if self.group is None:
            raise StrategyError("orbit lookup needs the group to rebuild its index")
        engine = self._engine()
        if engine is not None:
            owner, stab = engine.labels_and_stabilizers(engine.rows_to_exps(self.rows))
            derived = engine.order // stab
            index = _sorted_index(True, owner, np.arange(self.num_orbits))
        else:
            full = _partition_full(self.group, self.k)
            orbit_of = full.lookup_rows_bulk(self.rows)
            owner = orbit_of.astype(np.uint64)[:, None]
            derived = np.array(full.lengths, dtype=np.int64)[orbit_of]
            table_id = np.full(full.num_orbits, -1, dtype=np.int64)
            table_id[orbit_of] = np.arange(self.num_orbits)
            _, keys, ids = full._index
            ids = table_id[ids]
            index = (False, keys[ids >= 0], ids[ids >= 0])
        wrong = np.flatnonzero(derived != np.array(self.lengths, dtype=np.int64))
        pair = first_duplicate(owner, 64)
        # the first orbit at fault, its length before its label
        if wrong.size and (pair is None or wrong[0] <= pair[1]):
            i = wrong[0]
            raise FormatError(
                f"orbit {i}: recorded length {self.lengths[i]} is wrong; "
                f"the representative's orbit has {derived[i]}"
            )
        if pair is not None:
            raise FormatError(
                f"orbits {pair[0]} and {pair[1]}: representatives share an orbit"
            )
        self._index = index
        return index

    def lookup(self, u: Subspace) -> int:
        """Orbit id of a subspace; raises for wrong shape or foreign subspace."""
        if u.ambient != self.n or u.dim != self.k:
            raise ValueError(
                f"lookup expects a {self.k}-dim subspace of GF(2)^{self.n}"
            )
        rows = np.array(u.rows, dtype=np.uint64).reshape(1, self.k)
        return int(self.lookup_rows_bulk(rows)[0])

    def lookup_rows_bulk(self, rows: np.ndarray) -> np.ndarray:
        """Orbit ids for many subspaces given as (N, k) RREF rows."""
        by_label, index, ids = self._ensure_index()
        query = _rowwise(self._index_words(rows, by_label))
        pos = np.searchsorted(index, query)
        if np.any(pos >= index.size) or not np.array_equal(index[pos], query):
            raise KeyError("subspace does not belong to any tabulated orbit")
        return ids[pos]

    # -- serialization ----------------------------------------------------

    def save(self, path: str) -> None:
        if self.group is None:
            raise ValueError("cannot save a table without its group")
        # a certified engine fills the order in; otherwise count the closure
        if self.group.order is None and self.group.engine() is None:
            self.group.order = group_closure(self.group).order
        lines = [
            "# orbit table: n k group-hash group-order, then id length + basis rows",
            f"{self.n} {self.k} {group_hash(self.group)} {self.group.order}",
            "",
        ]
        # column j of a text row is bit j
        bits = (self.rows[:, :, None] >> np.arange(self.n, dtype=np.uint64)) & 1
        text = (bits.astype(np.uint8) + ord("0")).view(f"S{self.n}")[..., 0]
        for i, (length, rows) in enumerate(zip(self.lengths, text.tolist())):
            lines += [f"{i} {length}", b"\n".join(rows).decode(), ""]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))

    @classmethod
    def load(cls, path: str, group: MatrixGroup | None = None) -> "OrbitTable":
        """Read a table; hash, order, and length-sum are always checked.

        With a group, building the lookup index re-derives every orbit
        length and checks that no two representatives share an orbit.
        """
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        header = None
        body_start = 0
        for lineno, line in enumerate(lines, start=1):
            stripped = line.split("#", 1)[0].strip()
            if stripped:
                header = stripped.split()
                body_start = lineno
                break
        if header is None or len(header) != 4:
            raise FormatError("missing or malformed orbit table header")
        try:
            n, k, order = int(header[0]), int(header[1]), int(header[3])
        except ValueError:
            raise FormatError(
                f"line {body_start}: orbit table header needs integer n, k "
                f"and group order, got {' '.join(header)!r}"
            ) from None
        if not 0 <= k <= n or not 1 <= n <= 64:
            raise FormatError(f"line {body_start}: no {k}-subspaces of GF(2)^{n}")
        if group is not None:
            if group.n != n:
                raise FormatError("group dimension does not match the table header")
            if group_hash(group) != header[2]:
                raise FormatError("group hash does not match the table header")
            if group.order is None:
                group.order = order
        rows: list[int] = []
        lengths: list[int] = []
        i = body_start
        while i < len(lines):
            line = lines[i].split("#", 1)[0].strip()
            i += 1
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise FormatError(f"expected 'id length' at table entry {len(lengths)}")
            try:
                oid, length = int(parts[0]), int(parts[1])
            except ValueError:
                raise FormatError(
                    f"line {i}: expected integer 'id length', got {line!r}"
                ) from None
            if oid != len(lengths):
                raise FormatError(f"orbit ids must be consecutive; got {oid}")
            for _ in range(k):
                row_text = lines[i].split("#", 1)[0].strip() if i < len(lines) else ""
                if len(row_text) != n or any(c not in "01" for c in row_text):
                    raise FormatError(f"orbit {oid}: expected {k} basis rows of width {n}")
                rows.append(int(row_text[::-1], 2))
                i += 1
            lengths.append(length)
        reps = np.array(rows, dtype=np.uint64).reshape(len(lengths), k)
        try:
            table = cls(n, k, group, reps, lengths)
        except ValueError as exc:
            raise FormatError(str(exc)) from None
        if order and group is not None and group.order != order:
            raise FormatError("group order disagrees with the table header")
        total = sum(lengths)
        expect = gaussian_binomial(n, k, 2)
        if total != expect:
            raise FormatError(
                f"orbit lengths sum to {total}, but GF(2)^{n} has {expect} "
                f"{k}-subspaces"
            )
        if group is not None:
            table._ensure_index()
        return table


# ---------------------------------------------------------------------------
# orbit partition


def orbit_partition(group: MatrixGroup, k: int) -> OrbitTable:
    """Partition all k-dim subspaces of GF(2)^n into orbits under group.

    Uses the Singer engine when the group structure certifies, else the
    generic bulk partition.
    """
    if not 0 <= k <= group.n:
        raise ValueError(f"k must be between 0 and {group.n}")
    if group.engine() is not None:
        return _partition_engine(group, k)
    return _partition_full(group, k)


def _partition_engine(group: MatrixGroup, k: int) -> OrbitTable:
    engine = group.engine()
    assert engine is not None
    rows = np.zeros((0, 0), dtype=np.uint64)
    # each step's numpy temporaries are freed when it returns; hand their
    # pages back so neither this partition nor the work after it runs on
    # top of whatever earlier work left resident (see heap.py)
    release_free_heap()
    for kk in range(k + 1):
        rows, lengths, labels = engine.partition(kk, rows)
        release_free_heap()
    total = sum(lengths)
    expect = gaussian_binomial(group.n, k, 2)
    if total != expect:
        raise AssertionError(
            f"orbit lengths sum to {total}, expected {expect}; engine bug"
        )
    return OrbitTable(
        n=group.n,
        k=k,
        group=group,
        rows=rows,
        lengths=lengths,
        _index=_sorted_index(True, labels, np.arange(len(lengths))) if k else None,
    )


def _partition_full(group: MatrixGroup, k: int) -> OrbitTable:
    """Orbits as the connected components of the generators' action on
    the ascending subspace keys; each representative is the key-minimal
    member of its orbit."""
    n = group.n
    keys = enumerate_keys_bulk(n, k, guard=TRAVERSAL_CAP)
    images = np.empty((len(group.generators), keys.size), dtype=np.int64)
    for chunk, rows in key_chunks(n, k):
        at = np.searchsorted(keys, chunk)
        for g, image in zip(group.generators, images):
            red, ranks = rref_bulk(mat_vec_bulk(g, rows))
            img_keys = pack_keys_bulk(red, n)
            pos = np.minimum(np.searchsorted(keys, img_keys), keys.size - 1)
            if np.any(ranks != k) or not np.array_equal(keys[pos], img_keys):
                raise AssertionError("orbit member key missing from the enumeration")
            image[at] = pos
    # label[i] <= i is a member of i's orbit: each round hooks the larger
    # label of every edge's ends under the smaller, then jumps pointers
    # until every label is its own; a round without change leaves each
    # orbit labelled by its smallest position
    label = np.arange(keys.size, dtype=np.int64)
    while True:
        before = label.copy()
        for image in images:
            ends = label, label[image]
            np.minimum.at(label, np.maximum(*ends), np.minimum(*ends))
        jumped = label[label]
        while not np.array_equal(jumped, label):
            label, jumped = jumped, jumped[jumped]
        if np.array_equal(label, before):
            break
    _, ids = np.unique(label, return_inverse=True)
    is_rep = label == np.arange(keys.size)
    reps = [rows[is_rep[np.searchsorted(keys, c)]] for c, rows in key_chunks(n, k)]
    return OrbitTable(
        n=n,
        k=k,
        group=group,
        rows=np.concatenate(reps),
        lengths=np.bincount(ids).tolist(),
        _index=_sorted_index(False, keys[:, None], ids),
    )


# ---------------------------------------------------------------------------
# group file output


def format_group(group: MatrixGroup) -> str:
    lines = [
        f"# group: n={group.n} generators={len(group.generators)}",
        f"n {group.n}",
        f"order {group.order if group.order is not None else 'unknown'}",
        f"hash {group_hash(group)}",
        "",
    ]
    for i, g in enumerate(group.generators):
        lines.append(f"# generator {i}")
        lines.append(format_matrix(g).rstrip("\n"))
        lines.append("")
    return "\n".join(lines)


def load_generator_file(path: str, n: int | None = None) -> MatrixGroup:
    """Read generators from a matrix text file into a MatrixGroup."""
    mats = []
    with open(path, "r", encoding="utf-8") as fh:
        mats = parse_matrix_text(fh.read())
    if not mats:
        raise FormatError(f"{path}: no matrices found")
    width = mats[0].ncols
    if n is not None and width != n:
        raise FormatError(f"{path}: generators have width {width}, expected {n}")
    return MatrixGroup(n=width, generators=tuple(mats))
