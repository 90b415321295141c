"""Matrix groups over GF(2) and their orbits on subspaces.

Groups act on column vectors from the left, so the image of a subspace
applies the matrix to every basis row and recanonicalizes.  Groups
built on a Singer cycle partition subspaces into orbits by exponent
arithmetic, without traversal (see singer); every other group takes the
generic path, which maps every subspace by every generator in bulk and
reads the orbits off as connected components.  The generic path is also
the test oracle of the engine.  Group closure and orbit() share one
bulk breadth-first search over arrays of rows.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from functools import partial
from itertools import zip_longest

import numpy as np

from .gf2 import (
    BitMatrix,
    FormatError,
    LimitError,
    companion_matrix,
    format_matrix,
    format_rows,
    frobenius_matrix,
    identity,
    mat_vec_bulk,
    pack_rows,
    parse_matrix_text,
    primitive_polynomial,
    rank,
    reading,
    rref_bulk,
    vec_mat_bulk,
)
from .singer import SingerEngine
from .subspace import (
    enumerate_keys_bulk,
    gaussian_binomial,
    key_chunks,
    key_order,
    pack_keys_bulk,
)

CLOSURE_CAP = 10**7
TRAVERSAL_CAP = 2 * 10**7


@dataclass
class MatrixGroup:
    """A subgroup of GL(n, 2) given by generators.

    order is filled by group_closure or by a certified structure
    detection.
    """

    n: int
    generators: tuple[BitMatrix, ...]
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


def _bfs(start: np.ndarray, maps: list, n: int, cap: int) -> np.ndarray | None:
    """Every row reachable from the rows of start under maps, breadth-first.

    start is (N, w) uint64 with entries of n bits, and each map takes
    such an array to its image row by row.  Each round maps the whole
    frontier and drops the images already seen, which one sorted array of
    packed rows holds.  Returns the rows in discovery order, or None once
    more than cap are reached.
    """
    found = [start]
    seen = np.unique(_rowwise(pack_rows(start, n)))
    frontier = start
    while len(frontier):
        images = np.concatenate([f(frontier) for f in maps])
        keys, first = np.unique(_rowwise(pack_rows(images, n)), return_index=True)
        pos = np.searchsorted(seen, keys)
        new = (pos == seen.size) | (seen[np.minimum(pos, seen.size - 1)] != keys)
        seen = np.insert(seen, pos[new], keys[new])
        if seen.size > cap:
            return None
        frontier = images[first[new]]
        found.append(frontier)
    return np.concatenate(found)


def group_closure(group: MatrixGroup, cap: int = CLOSURE_CAP) -> MatrixGroup:
    """Enumerate all elements by breadth-first right multiplication.

    Returns a new MatrixGroup with the order filled; the elements are
    counted, not kept.  Raises LimitError when more than cap elements
    appear.
    """
    # row r of M @ g is r @ g
    maps = [partial(vec_mat_bulk, g) for g in group.generators]
    start = np.array([identity(group.n).rows], dtype=np.uint64)
    rows = _bfs(start, maps, group.n, cap)
    if rows is None:
        raise LimitError(f"group closure exceeded the cap of {cap} elements")
    if group.order is not None and group.order != len(rows):
        raise AssertionError("closure size disagrees with the recorded group order")
    return MatrixGroup(n=group.n, generators=group.generators, order=len(rows))


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


def orbit(group: MatrixGroup, rows: np.ndarray, cap: int = TRAVERSAL_CAP) -> np.ndarray:
    """All images of a subspace, given by its (k,) uint64 basis rows, under
    the group as (L, k) RREF rows in ascending key order; a bulk
    breadth-first search over the generators."""
    start, ranks = rref_bulk(np.asarray(rows, dtype=np.uint64).reshape(1, -1))
    if start.size and int(start.max()) >> group.n:
        raise ValueError("subspace does not live in the group's space")
    if ranks[0] != start.shape[1]:
        raise ValueError("basis rows are linearly dependent")
    maps = [
        lambda rows, g=g: rref_bulk(mat_vec_bulk(g, rows))[0] for g in group.generators
    ]
    rows = _bfs(start, maps, group.n, cap)
    if rows is None:
        raise LimitError(f"orbit exceeded the traversal cap {cap}")
    return rows[key_order(rows)]


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
    0..N-1 in ascending representative key order; rep(i) is rows[i].  The
    lookup index is one sorted array of words with the
    orbit id of each: the representatives' orbit labels when the group
    has a Singer engine, else the key of every orbit member, taken from
    the generic partition.  A 2-dim table with a Singer engine also keeps
    the orbit id of every exponent difference (see _ensure_line_ids).
    orbit_partition builds each table with its index, and load returns
    the recomputed partition; the partitions make the rows reduced,
    ascending and of positive length, so construction checks shapes only.
    """

    n: int
    k: int
    group: MatrixGroup
    rows: np.ndarray
    lengths: list[int]
    _index: tuple[bool, np.ndarray, np.ndarray] | None = field(default=None, repr=False)
    _line_ids: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.rows = np.ascontiguousarray(self.rows, dtype=np.uint64)
        if self.rows.ndim != 2 or self.rows.shape[1] != self.k:
            raise ValueError("rows must be an (N, k) array of basis rows")
        if len(self.rows) != len(self.lengths):
            raise ValueError("rows and lengths differ in length")

    @property
    def num_orbits(self) -> int:
        return len(self.rows)

    def total_subspaces(self) -> int:
        return sum(self.lengths)

    def rep(self, i: int) -> np.ndarray:
        """Representative of orbit i: its (k,) RREF rows."""
        if not 0 <= i < self.num_orbits:
            raise IndexError(
                f"orbit id {i} out of range: the table has {self.num_orbits} orbits"
            )
        return self.rows[i]

    # -- lookup -----------------------------------------------------------

    def _index_words(self, rows: np.ndarray, by_label: bool) -> np.ndarray:
        """(N, W) uint64 orbit labels or subspace keys of (N, k) RREF rows."""
        if by_label:
            engine = self.group.engine()
            return engine.labels_bulk(engine.rows_to_exps(rows))
        return pack_keys_bulk(rows, self.n)[:, None]

    def lookup(self, rows: np.ndarray) -> int:
        """Orbit id of one subspace given as (k,) basis rows; raises for a
        wrong shape, rows wider than n or dependent rows."""
        return int(self.lookup_rows_bulk(np.asarray(rows, dtype=np.uint64)[None])[0])

    def _ensure_line_ids(self, engine: SingerEngine) -> np.ndarray:
        """Orbit id of each exponent difference d.

        The line {a, b, a ^ b} is S^(dlog a) applied to the line through
        e0 and S^d e0, d = dlog b - dlog a mod 2^n - 1, so it lies in that
        line's orbit.  Built once by the label lookup of the 2^n - 2 lines
        {e0, S^d e0}; entry 0, no line, stays -1.
        """
        if self._line_ids is None:
            lines = np.ones((engine.modulus - 1, 2), dtype=np.uint64)
            lines[:, 1] = engine.exptable[1:]
            ids = np.full(engine.modulus, -1, dtype=np.int64)
            ids[1:] = self._index_ids(lines)
            self._line_ids = ids
        return self._line_ids

    def _index_ids(self, rows: np.ndarray) -> np.ndarray:
        """Orbit ids of (N, k) bases from the lookup index, which holds
        every orbit of the partition; keyed lookups need RREF rows."""
        by_label, index, ids = self._index
        return ids[np.searchsorted(index, _rowwise(self._index_words(rows, by_label)))]

    def lookup_rows_bulk(self, rows: np.ndarray) -> np.ndarray:
        """Orbit ids for many subspaces given as (N, k) basis rows; a wrong
        shape, rows wider than n or dependent rows are a ValueError.  Lines
        of a Singer-engine table are looked up by exponent difference (see
        _ensure_line_ids), other subspaces reduced here and looked up in
        the index."""
        rows = np.asarray(rows, dtype=np.uint64)
        if rows.shape[1:] != (self.k,) or (rows.size and int(rows.max()) >> self.n):
            raise ValueError(
                f"lookup expects a {self.k}-dim subspace of GF(2)^{self.n}"
            )
        engine = self.group.engine() if self.k == 2 else None
        if engine is not None:
            a, b = rows.T
            if np.any((a == 0) | (b == 0) | (a == b)):
                raise ValueError("basis rows are linearly dependent")
            diff = engine.dlog[b]
            diff -= engine.dlog[a]
            diff %= engine.modulus
            return self._ensure_line_ids(engine)[diff]
        rows, ranks = rref_bulk(rows)
        if np.any(ranks < self.k):
            raise ValueError("basis rows are linearly dependent")
        return self._index_ids(rows)

    # -- serialization ----------------------------------------------------

    def text(self) -> str:
        """The table as save writes it: a header, then each orbit's
        'id length' line, its basis rows and a blank line."""
        lines = [
            "# orbit table: n k group-hash group-order, then id length + basis rows",
            f"{self.n} {self.k} {group_hash(self.group)} {_group_order(self.group)}",
            "",
        ]
        text = format_rows(self.rows, self.n)
        for i, (length, rows) in enumerate(zip(self.lengths, text)):
            lines += [f"{i} {length}", rows.tobytes().decode().rstrip("\n"), ""]
        return "\n".join(lines)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.text())

    @classmethod
    def load(cls, path: str, group: MatrixGroup) -> "OrbitTable":
        """The partition of group's k-subspaces, recomputed, once the table
        at path reads exactly as its text; a fault in the file is a
        FormatError that names it (see gf2.reading).

        The header's n and group hash are checked before any partition is
        computed.  Any other difference from the group's table names the
        first line that differs and quotes both sides.
        """
        with reading(path) as text:
            header = None
            for lineno, line in enumerate(text.split("\n"), start=1):
                stripped = line.split("#", 1)[0].strip()
                if stripped:
                    header = stripped.split()
                    break
            if header is None or len(header) != 4:
                raise FormatError("missing or malformed orbit table header")
            try:
                n, k, _ = int(header[0]), int(header[1]), int(header[3])
            except ValueError:
                raise FormatError(
                    f"line {lineno}: orbit table header needs integer n, k "
                    f"and group order, got {' '.join(header)!r}"
                ) from None
            if not 0 <= k <= n or not 1 <= n <= 64:
                raise FormatError(f"line {lineno}: no {k}-subspaces of GF(2)^{n}")
            if group.n != n:
                raise FormatError(
                    f"line {lineno}: group dimension does not match the table header"
                )
            if group_hash(group) != header[2]:
                raise FormatError(
                    f"line {lineno}: group hash does not match the table header"
                )
            table = orbit_partition(group, k)
            want = table.text()
            if text != want:
                pairs = zip_longest(_LINE.findall(text), _LINE.findall(want))
                for i, (got, expect) in enumerate(pairs, start=1):
                    if got != expect:
                        raise FormatError(
                            f"line {i}: reads {_quoted(got)}, the group's "
                            f"partition gives {_quoted(expect)}"
                        )
            return table


_LINE = re.compile(".*\n|.+")  # a line and its line end; the last may lack one


def _quoted(line: str | None) -> str:
    """A line of a table for an error message; None, past the last line,
    is the end of the file."""
    if line is None:
        return "end of file"
    if line.endswith("\n"):
        return repr(line[:-1])
    return f"{line!r} without a line end"


def _group_order(group: MatrixGroup) -> int:
    """group.order, else filled in from the group's engine or closure."""
    if group.order is None and group.engine() is None:
        group.order = group_closure(group).order
    return group.order


# ---------------------------------------------------------------------------
# orbit partition


def orbit_partition(group: MatrixGroup, k: int) -> OrbitTable:
    """Partition all k-dim subspaces of GF(2)^n into orbits under group.

    Uses the Singer engine when the group structure certifies and k > 0,
    else the generic bulk partition.
    """
    if not 0 <= k <= group.n:
        raise ValueError(f"k must be between 0 and {group.n}")
    if k and group.engine() is not None:
        return _partition_engine(group, k)
    return _partition_full(group, k)


def _partition_engine(group: MatrixGroup, k: int) -> OrbitTable:
    engine = group.engine()
    assert engine is not None
    rows = np.zeros((0, 0), dtype=np.uint64)
    for kk in range(k + 1):
        rows, lengths, labels = engine.partition(kk, rows)
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
        _index=_sorted_index(True, labels, np.arange(len(lengths))),
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
    """Read generators from a matrix text file into a MatrixGroup; the n and
    hash lines of a format_group file must match the generators read.  Its
    order line is not read: the hash does not cover it."""
    with reading(path) as text:
        lines = text.split("\n")
        header = []
        for i, line in enumerate(lines):
            key, _, value = line.partition(" ")
            if key in ("n", "order", "hash"):
                header.append((key, value.strip()))
                lines[i] = ""  # keeps the line numbers of the matrix rows
        mats = parse_matrix_text("\n".join(lines))
        if not mats:
            raise FormatError("no matrices found")
        width = mats[0].ncols
        if n is not None and width != n:
            raise FormatError(f"generators have width {width}, expected {n}")
        try:
            group = MatrixGroup(n=width, generators=tuple(mats))
        except ValueError as exc:  # a shape or rank fault of the file's matrices
            raise FormatError(str(exc)) from None
        read = {"n": str(width), "hash": group_hash(group)}
        for key, value in header:
            if key in read and value != read[key]:
                given = f"{key} line reads {value}, the generators give {read[key]}"
                raise FormatError(given)
    return group
