"""Matrix groups over GF(2) and their orbits on subspaces.

Groups act on column vectors from the left, so the image of a subspace
applies the matrix to every basis row and recanonicalizes.  Groups
built on a Singer cycle partition subspaces into orbits by exponent
arithmetic, without traversal (see singer); every other group takes the
generic path, which walks the subspace keys in ascending order and
collects each new orbit by breadth-first traversal.  The generic path is
also the test oracle of the engine.
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
    format_matrix,
    frobenius_matrix,
    identity,
    mat_vec,
    parse_matrix_text,
    primitive_polynomial,
    rank,
    row_action,
    rref_rows,
)
from .heap import release_free_heap
from .singer import SingerEngine
from .subspace import (
    Subspace,
    enumerate_keys_bulk,
    gaussian_binomial,
    span,
    subspace_from_key,
)

CLOSURE_CAP = 10**7
TRAVERSAL_CAP = 2 * 10**7


class ClosureCapError(RuntimeError):
    """Group closure would exceed the element cap."""


class StrategyError(RuntimeError):
    """An orbit traversal or a lookup index rebuild exceeds its cap."""


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


@dataclass(eq=False)
class OrbitTable:
    """Orbit representatives of k-dim subspaces under a group.

    ids run 0..len(reps)-1 in ascending representative key order.  The
    lookup index is materialized lazily: Singer-structured groups map a
    subspace to its orbit label arithmetically, other tables fall back
    to sorted key arrays built during partition or rebuilt by traversal.
    """

    n: int
    k: int
    group: MatrixGroup | None
    reps: list[Subspace]
    lengths: list[int]
    _label_index: dict[tuple[int, ...], int] | None = field(default=None, repr=False)
    _key_sorted: np.ndarray | None = field(default=None, repr=False)
    _key_ids: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if len(self.reps) != len(self.lengths):
            raise ValueError("reps and lengths differ in length")
        keys = [r.key for r in self.reps]
        if any(b <= a for a, b in zip(keys, keys[1:])):
            raise ValueError("representatives must be in strictly ascending key order")

    @property
    def num_orbits(self) -> int:
        return len(self.reps)

    def total_subspaces(self) -> int:
        return sum(self.lengths)

    # -- lookup -----------------------------------------------------------

    def _ensure_index(self) -> None:
        if self._label_index is not None or self._key_sorted is not None:
            return
        engine = self.group.engine() if self.group is not None else None
        if engine is not None:
            labels, _ = engine.labels_and_stabilizers(
                engine.rows_to_exps(self.rep_rows())
            )
            self._label_index = {
                tuple(label): i for i, label in enumerate(labels.tolist())
            }
            return
        if self.group is None:
            raise StrategyError("orbit lookup needs the group to rebuild its index")
        total = self.total_subspaces()
        if total > TRAVERSAL_CAP:
            raise StrategyError(
                f"rebuilding the lookup index would traverse {total} subspaces"
            )
        keys = []
        ids = []
        for i, rep in enumerate(self.reps):
            members = orbit(self.group, rep)
            if len(members) != self.lengths[i]:
                raise AssertionError("stored orbit length disagrees with traversal")
            keys.extend(m.key for m in members)
            ids.extend([i] * len(members))
        keys = np.array(keys, dtype=np.uint64)
        ids = np.array(ids, dtype=np.int64)
        srt = np.argsort(keys)
        self._key_sorted = keys[srt]
        self._key_ids = ids[srt]

    def rep_rows(self) -> np.ndarray:
        """Representative bases as an (N, k) uint64 array of RREF rows."""
        rows = np.array([rep.rows for rep in self.reps], dtype=np.uint64)
        return rows.reshape(len(self.reps), self.k)

    def lookup(self, u: Subspace) -> int:
        """Orbit id of a subspace; raises for wrong shape or foreign subspace."""
        if u.ambient != self.n or u.dim != self.k:
            raise ValueError(
                f"lookup expects a {self.k}-dim subspace of GF(2)^{self.n}"
            )
        self._ensure_index()
        if self._label_index is not None:
            engine = self.group.engine()
            label = engine.label_of(u)
            if label not in self._label_index:
                raise KeyError("subspace does not belong to any tabulated orbit")
            return self._label_index[label]
        pos = int(np.searchsorted(self._key_sorted, np.uint64(u.key)))
        if pos >= self._key_sorted.size or int(self._key_sorted[pos]) != u.key:
            raise KeyError("subspace does not belong to any tabulated orbit")
        return int(self._key_ids[pos])

    def lookup_rows_bulk(self, rows: np.ndarray) -> np.ndarray:
        """Orbit ids for many subspaces given as (N, k) RREF rows."""
        self._ensure_index()
        if self._label_index is not None:
            engine = self.group.engine()
            words = engine.labels_bulk(engine.rows_to_exps(rows))
            index = self._label_index
            known = np.array(list(index), dtype=np.uint64).reshape(len(index), -1)
            # one sort over the tabulated labels and the queries together
            _, inverse = np.unique(
                np.concatenate([known, words]), axis=0, return_inverse=True
            )
            inverse = inverse.reshape(-1)
            slot_ids = np.full(inverse.max() + 1, -1, dtype=np.int64)
            slot_ids[inverse[: len(index)]] = list(index.values())
            out = slot_ids[inverse[len(index) :]]
            if np.any(out < 0):
                raise KeyError("subspace does not belong to any tabulated orbit")
            return out
        from .subspace import pack_keys_bulk

        keys = pack_keys_bulk(rows, self.n)
        pos = np.searchsorted(self._key_sorted, keys)
        if (pos >= self._key_sorted.size).any() or not np.array_equal(
            self._key_sorted[pos], keys
        ):
            raise KeyError("subspace does not belong to any tabulated orbit")
        return self._key_ids[pos]

    # -- serialization ----------------------------------------------------

    def save(self, path: str) -> None:
        if self.group is None:
            raise ValueError("cannot save a table without its group")
        order = self.group.order
        if order is None:
            engine = self.group.engine()
            order = engine.order if engine is not None else None
        if order is None:
            order = group_closure(self.group).order
            self.group.order = order
        lines = [
            "# orbit table: n k group-hash group-order, then id length + basis rows",
            f"{self.n} {self.k} {group_hash(self.group)} {order}",
            "",
        ]
        for i, (rep, length) in enumerate(zip(self.reps, self.lengths)):
            lines.append(f"{i} {length}")
            lines.append(format_matrix(rep.basis_matrix()).rstrip("\n"))
            lines.append("")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))

    @classmethod
    def load(cls, path: str, group: MatrixGroup | None = None) -> "OrbitTable":
        """Read a table; hash, order, and length-sum are always checked.

        When the group has a Singer engine, one bulk label pass over the
        representatives re-derives every orbit length, checks that no two
        representatives share an orbit, and becomes the lookup index.
        """
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
        header = None
        body_start = 0
        for lineno, line in enumerate(raw.splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if stripped:
                header = stripped.split()
                body_start = lineno
                break
        if header is None or len(header) != 4:
            raise FormatError("missing or malformed orbit table header")
        n, k = int(header[0]), int(header[1])
        ghash, order = header[2], int(header[3])
        if group is not None:
            if group.n != n:
                raise FormatError("group dimension does not match the table header")
            if group_hash(group) != ghash:
                raise FormatError("group hash does not match the table header")
            if group.order is None:
                group.order = order
        body = raw.splitlines()[body_start:]
        reps: list[Subspace] = []
        lengths: list[int] = []
        i = 0
        while i < len(body):
            line = body[i].split("#", 1)[0].strip()
            if not line:
                i += 1
                continue
            parts = line.split()
            if len(parts) != 2:
                raise FormatError(f"expected 'id length' at table entry {len(reps)}")
            oid, length = int(parts[0]), int(parts[1])
            if oid != len(reps):
                raise FormatError(f"orbit ids must be consecutive; got {oid}")
            rows = []
            i += 1
            for _ in range(k):
                row_text = body[i].split("#", 1)[0].strip() if i < len(body) else ""
                if len(row_text) != n or any(c not in "01" for c in row_text):
                    raise FormatError(f"orbit {oid}: expected {k} basis rows of width {n}")
                rows.append(sum(1 << j for j, c in enumerate(row_text) if c == "1"))
                i += 1
            reps.append(Subspace(n, tuple(rows)))
            lengths.append(length)
        table = cls(n=n, k=k, group=group, reps=reps, lengths=lengths)
        if order and group is not None and group.order != order:
            raise FormatError("group order disagrees with the table header")
        total = sum(lengths)
        expect = gaussian_binomial(n, k, 2)
        if total != expect:
            raise FormatError(
                f"orbit lengths sum to {total}, but GF(2)^{n} has {expect} "
                f"{k}-subspaces"
            )
        engine = group.engine() if group is not None and k > 0 else None
        if engine is not None:
            labels, stab = engine.labels_and_stabilizers(
                engine.rows_to_exps(table.rep_rows())
            )
            derived = (engine.order // stab).tolist()
            index: dict[tuple[int, ...], int] = {}
            for i, label in enumerate(labels.tolist()):
                if derived[i] != lengths[i]:
                    raise FormatError(
                        f"orbit {i}: recorded length {lengths[i]} is wrong; "
                        f"the representative's orbit has {derived[i]}"
                    )
                j = index.setdefault(tuple(label), i)
                if j != i:
                    raise FormatError(
                        f"orbits {j} and {i}: representatives share an orbit"
                    )
            table._label_index = index
        return table


# ---------------------------------------------------------------------------
# orbit partition


def orbit_partition(group: MatrixGroup, k: int) -> OrbitTable:
    """Partition all k-dim subspaces of GF(2)^n into orbits under group.

    Uses the Singer engine when the group structure certifies, else the
    generic enumeration walk.
    """
    if not 0 <= k <= group.n:
        raise ValueError(f"k must be between 0 and {group.n}")
    if group.engine() is not None:
        return _partition_engine(group, k)
    return _partition_full(group, k)


def _partition_engine(group: MatrixGroup, k: int) -> OrbitTable:
    engine = group.engine()
    assert engine is not None
    prev_reps: list[Subspace] = []
    # each step's numpy temporaries are freed when it returns; hand their
    # pages back so neither this partition nor the work after it runs on
    # top of whatever earlier work left resident (see heap.py)
    release_free_heap()
    for kk in range(k + 1):
        reps, lengths, label_index = engine.partition(kk, prev_reps)
        prev_reps = reps
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
        reps=reps,
        lengths=lengths,
        _label_index=label_index,
    )


def _partition_full(group: MatrixGroup, k: int) -> OrbitTable:
    keys = enumerate_keys_bulk(group.n, k)
    assigned = np.full(keys.size, -1, dtype=np.int64)
    reps: list[Subspace] = []
    lengths: list[int] = []
    for pos in range(keys.size):
        if assigned[pos] >= 0:
            continue
        seed = subspace_from_key(group.n, k, int(keys[pos]))
        member_keys = np.array([m.key for m in orbit(group, seed)], dtype=np.uint64)
        idx = np.searchsorted(keys, member_keys)
        if not np.array_equal(keys[idx], member_keys):
            raise AssertionError("orbit member key missing from the enumeration")
        assigned[idx] = len(reps)
        reps.append(seed)
        lengths.append(member_keys.size)
    if (assigned < 0).any():
        raise AssertionError("enumeration walk left unassigned subspaces")
    return OrbitTable(
        n=group.n,
        k=k,
        group=group,
        reps=reps,
        lengths=lengths,
        _key_sorted=keys,
        _key_ids=assigned,
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
