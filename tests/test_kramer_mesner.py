"""Orbit incidence systems against the definition computed by brute force."""

import collections
import hashlib
import io
import random
import re

import numpy as np
import pytest

import km_reference
from qsteiner import kramer_mesner
from qsteiner.exact_cover import from_km
from qsteiner.gf2 import (
    FormatError,
    LimitError,
    companion_matrix,
    identity,
    primitive_polynomial,
)
from qsteiner.groups import MatrixGroup, orbit_partition, singer_normalizer
from qsteiner.kramer_mesner import (
    build_km,
    export_km,
    format_km,
    import_km,
    parse_km,
    prune,
)
from qsteiner.subspace import Subspace, gaussian_binomial
from subspace_reference import contains_subspace


def brute_km(group, t, k):
    """Entry (T, K) = number of members of K's orbit containing T's rep,
    counted directly over full orbit expansions."""
    t_table = orbit_partition(group, t)
    k_table = orbit_partition(group, k)
    from qsteiner.groups import orbit

    members = [
        [Subspace(group.n, tuple(m)) for m in orbit(group, k_table.rep(j)).tolist()]
        for j in range(k_table.num_orbits)
    ]
    dense = {}
    for i in range(t_table.num_orbits):
        trep = Subspace(group.n, tuple(t_table.rep(i).tolist()))
        for j in range(k_table.num_orbits):
            count = sum(contains_subspace(m, trep) for m in members[j])
            if count:
                dense[(i, j)] = count
    return t_table, k_table, dense


@pytest.mark.parametrize(
    "group_fn,n,t,k",
    [
        (lambda: singer_normalizer(4), 4, 1, 2),
        (lambda: singer_normalizer(5), 5, 2, 3),
        (lambda: singer_normalizer(6), 6, 2, 3),
        (lambda: MatrixGroup(n=4, generators=(identity(4),), order=1), 4, 1, 2),
        (lambda: MatrixGroup(n=5, generators=(identity(5),), order=1), 5, 2, 3),
    ],
)
def test_build_km_matches_definition(group_fn, n, t, k):
    group = group_fn()
    t_table, k_table, expect = brute_km(group, t, k)
    inst = build_km(t_table, k_table)
    assert inst.shape == (t_table.num_orbits, k_table.num_orbits)
    got = {
        (int(r), int(c)): int(inst.matrix[r, c])
        for r, c in zip(*np.nonzero(inst.matrix))
    }
    assert got == expect


def test_row_and_column_sum_identities():
    # row sum: number of k-subspaces containing a fixed t-subspace;
    # weighted column sum: a(T,K) |orb T| / |orb K| counts the t-subspaces
    # inside a fixed k-subspace, grouped by orbit
    for n, t, k in ((5, 1, 2), (6, 2, 3), (7, 2, 3)):
        group = singer_normalizer(n)
        t_table = orbit_partition(group, t)
        k_table = orbit_partition(group, k)
        inst = build_km(t_table, k_table)
        row_expect = gaussian_binomial(n - t, k - t, 2)
        for rid, total in inst.row_sums().items():
            assert total == row_expect
        col_expect = gaussian_binomial(k, t, 2)
        for cid in inst.col_ids:
            weighted = sum(
                int(v) * t_table.lengths[rid]
                for rid, v in zip(inst.row_ids, inst.matrix[:, cid])
            )
            assert weighted == col_expect * k_table.lengths[cid]


def test_prune_drops_only_overfull_columns():
    group = singer_normalizer(6)
    inst = build_km(orbit_partition(group, 2), orbit_partition(group, 3), lam=1)
    pruned = prune(inst)
    kept = set(pruned.col_ids)
    for cid in inst.col_ids:
        overfull = bool((inst.matrix[:, cid] > 1).any())
        assert (cid not in kept) == overfull
    assert kept != set(inst.col_ids), "some columns must be over lambda here"
    # ids are preserved, not renumbered
    assert set(pruned.col_ids) <= set(inst.col_ids)
    assert pruned.row_ids == inst.row_ids


def test_file_round_trip(tmp_path):
    group = singer_normalizer(6)
    inst = build_km(orbit_partition(group, 2), orbit_partition(group, 3))
    path = tmp_path / "km.txt"
    export_km(inst, str(path))
    loaded = import_km(str(path))
    assert loaded.n == inst.n and loaded.t == inst.t and loaded.k == inst.k
    assert loaded.lam == inst.lam
    assert loaded.row_ids == inst.row_ids
    assert loaded.col_ids == inst.col_ids
    assert loaded.matrix.dtype == np.uint8
    assert np.array_equal(loaded.matrix, inst.matrix)
    # the file is written a line at a time; it is the text format_km gives
    assert path.read_text(encoding="utf-8") == format_km(inst)
    # CRLF line ends read the same
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert np.array_equal(import_km(str(path)).matrix, inst.matrix)


def test_import_rejects_checksum_tamper(tmp_path):
    group = singer_normalizer(5)
    inst = build_km(orbit_partition(group, 2), orbit_partition(group, 3))
    path = tmp_path / "km.txt"
    export_km(inst, str(path))
    text = path.read_text()
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("E "):
            head, row, col, val = line.split()
            lines[i] = f"E {row} {col} {int(val) + 1}"
            break
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError):
        import_km(str(path))


def test_build_rejects_tables_of_different_groups():
    # the lines of <S> with the planes of its normalizer: orbit lengths that
    # belong to two groups would give a wrong system with no error
    n = 7
    cyclic = MatrixGroup(n=n, generators=(companion_matrix(primitive_polynomial(n)),))
    normalizer = singer_normalizer(n)
    with pytest.raises(ValueError, match="different generator lists"):
        build_km(orbit_partition(cyclic, 2), orbit_partition(normalizer, 3))
    # the check compares generator lists, not groups: the same generators
    # in another order are refused on purpose
    reordered = MatrixGroup(n=n, generators=tuple(reversed(normalizer.generators)))
    with pytest.raises(ValueError, match="group hashes differ"):
        build_km(orbit_partition(reordered, 2), orbit_partition(normalizer, 3))
    inst = build_km(orbit_partition(normalizer, 2), orbit_partition(normalizer, 3))
    assert set(inst.row_sums().values()) == {gaussian_binomial(n - 2, 1, 2)}


def test_build_rejects_corrupt_orbit_lengths():
    group = singer_normalizer(6)
    t_table = orbit_partition(group, 2)
    k_table = orbit_partition(group, 3)
    k_table.lengths[0] += 1
    try:
        with pytest.raises(ArithmeticError):
            build_km(t_table, k_table)
    finally:
        k_table.lengths[0] -= 1
    # lengths scaled by 256 keep the divisibility but overflow uint8
    saved = list(k_table.lengths)
    k_table.lengths[:] = [length * 256 for length in saved]
    try:
        with pytest.raises(LimitError, match="above the uint8 limit 255"):
            build_km(t_table, k_table)
    finally:
        k_table.lengths[:] = saved


def test_parse_rejects_malformed_records():
    group = singer_normalizer(5)
    inst = build_km(orbit_partition(group, 2), orbit_partition(group, 3))
    lines = format_km(inst).splitlines()
    r, c, e, x = (
        next(i for i, ln in enumerate(lines) if ln.startswith(tag + " "))
        for tag in "RCEX"
    )
    _, rid, rlen = lines[r].split()
    _, erow, ecol, eval_ = lines[e].split()
    checksum = int(lines[x].split()[1])
    # (line index, new line, checksum change, whether the dict parser loaded it)
    cases = [
        (r, lines[r] + " 7", 0, True),
        (c, lines[c] + " 7", 0, True),
        (e, lines[e] + " 7", 0, True),
        (x, lines[x] + " 7", 0, True),
        (r, f"R {rid}", -int(rlen), False),
        (x + 1, lines[x], 0, True),
        (r, f"R {rid} 0", -int(rlen), True),
        (e, f"E {erow} {ecol} 300", 300 - int(eval_), True),
        (e, f"E 999 {ecol} {eval_}", 999 - int(erow), False),
    ]
    for i, line, delta, loaded_before in cases:
        out = lines[:x] + [f"X {(checksum + delta) % 2**32}"]
        if i < len(out):
            out[i] = line
        else:
            out.append(line)
        text = "\n".join(out) + "\n"
        if loaded_before:
            km_reference.parse_km(text)
        with pytest.raises(FormatError, match=rf"^line {i + 1}: "):
            parse_km(text)
    # bad fields are named as a reader converting R, C, E and X records in
    # turn meets them: an R line after a bad E line is named first
    out = lines[:e] + [f"E {erow} {ecol} x"] + lines[e + 1 :] + [f"R {rid} y"]
    with pytest.raises(FormatError, match=rf"^line {len(out)}: .*'y'"):
        parse_km("\n".join(out) + "\n")


def test_parse_errors_match_dict_reference():
    # one fault per file, checksum corrected: the same message and line
    group = singer_normalizer(6)
    inst = build_km(orbit_partition(group, 2), orbit_partition(group, 3))
    lines = format_km(inst).splitlines()
    r, c, e, x = (
        next(i for i, ln in enumerate(lines) if ln.startswith(tag + " "))
        for tag in "RCEX"
    )
    checksum = int(lines[x].split()[1])
    erow, ecol, eval_ = (int(v) for v in lines[e].split()[1:])

    def fixed(out, delta=0):
        return out[:-1] + [f"X {(checksum + delta) % 2**32}"]

    cases = [
        lines[:1] + lines,
        ["KM 6 2 3 1 4"] + lines[1:],
        fixed(lines[:e] + [f"E {erow} {ecol} 0"] + lines[e + 1 :], -eval_),
        fixed(lines[: e + 1] + lines[e:], erow + ecol + eval_),
        lines[:e] + ["Z 1"] + lines[e:],
        fixed(lines[:r] + lines[r + 1 :], -sum(map(int, lines[r].split()[1:]))),
        fixed(lines[:c] + lines[c + 1 :], -sum(map(int, lines[c].split()[1:]))),
        lines[:r] + [lines[r + 1], lines[r]] + lines[r + 2 :],
        lines[:c] + [lines[c + 1], lines[c]] + lines[c + 2 :],
        lines[:e] + ["E a 0 1"] + lines[e + 1 :],
        fixed(lines, 1),
        lines[:-1],
        lines[1:],
    ]
    for out in cases:
        text = "\n".join(out) + "\n"
        with pytest.raises(FormatError) as want:
            km_reference.parse_km(text)
        with pytest.raises(FormatError) as got:
            parse_km(text)
        assert str(got.value) == str(want.value)


def _corrupt(rng, text):
    """One seeded corruption of a KM text, of a kind picked at random."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    fields = lines[i].split(" ")
    f = rng.randrange(1, len(fields)) if len(fields) > 1 else 0
    kind = rng.choice(
        ["flip", "delete", "swap", "comment", "tab", "blank", "ends", "sign",
         "long", "non-ascii"]
    )
    if kind == "flip":
        j = rng.randrange(len(lines[i]))
        char = rng.choice("0123456789 +-_#\t\x0b\x0c\x1c\x00\rRCEXKMa.")
        lines[i] = lines[i][:j] + char + lines[i][j + 1 :]
    elif kind == "delete":
        del lines[i]
    elif kind == "swap":
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "comment":
        lines.insert(i, rng.choice(["# note", "#", "  # KM 1 2"]))
        lines[-1] += " # checksum"
    elif kind == "tab":
        lines[i] = lines[i].replace(" ", rng.choice(["\t", " \t ", "  "]))
    elif kind == "blank":
        lines.insert(i, rng.choice(["", "   ", "\t"]))
    elif kind == "ends":
        return rng.choice(["\r\n", "\r"]).join(lines) + rng.choice(["\r\n", "\r", ""])
    elif kind == "sign":
        fields[f] = rng.choice("+-") + fields[f]
    elif kind == "long":
        fields[f] = rng.choice([
            "0" * rng.randint(14, 24) + fields[f],
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775809",
            str(rng.randrange(10**19, 10**25)),
        ])
    else:
        fields[f] = rng.choice([fields[f] + "٣", "１" + fields[f], fields[f] + "\xa0"])
    if kind in ("sign", "long", "non-ascii"):
        lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


def _dense_only(text, message):
    """Whether message, from the dense reader, names a fault that its line
    really has and that the dict reader does not look for: a wrong field
    count, a field with non-ASCII digits or outside int64, an entry above
    255, an orbit length below 1 or a second X line."""
    match = re.fullmatch(r"line (\d+): (.*)", message)
    if not match:
        return False
    lines = [ln.split("#", 1)[0].split() for ln in io.StringIO(text, newline=None)]
    lineno, fault = int(match[1]), match[2]
    tag, *fields = lines[lineno - 1]
    widths = {"KM": 6, "R": 2, "C": 2, "E": 3, "X": 1}
    if fault == f"{tag} record needs {widths.get(tag)} integers":
        return len(fields) != widths[tag]
    if fault.startswith("non-ASCII digits in "):
        return not "".join(fields).isascii()
    ints = []
    for x in fields:
        try:
            ints.append(int(x))
        except ValueError:
            return False
    if fault == "Python int too large to convert to C long":
        return any(not -(2**63) <= x < 2**63 for x in ints)
    if fault == f"entry {ints[-1]} is above 255":
        return tag == "E" and ints[-1] > 255
    if fault == "orbit lengths must be positive":
        return tag in ("R", "C") and ints[-1] <= 0
    return fault == "duplicate X line" and ["X"] in [ln[:1] for ln in lines[: lineno - 1]]


def test_parse_matches_dict_reference_on_seeded_corruptions():
    # both readers load the same fields or raise the same message, unless
    # the dense reader names a fault the dict reader does not check, or
    # names the line of an entry with an unknown id
    group = singer_normalizer(6)
    text = format_km(build_km(orbit_partition(group, 2), orbit_partition(group, 3)))
    rng = random.Random(20261019)
    tally = collections.Counter()
    for _ in range(2000):
        bad = _corrupt(rng, text)
        try:
            want = _fields(km_reference.parse_km(bad))
        except FormatError as exc:
            want = str(exc)
        try:
            got = _fields(parse_km(bad))
        except FormatError as exc:
            got = str(exc)
        if got == want:
            tally["same error" if isinstance(got, str) else "same load"] += 1
        elif isinstance(want, str) and re.fullmatch(r"line \d+: " + re.escape(want), got):
            tally["line named"] += 1
        else:
            assert isinstance(got, str) and _dense_only(bad, got), (repr(bad), got, want)
            tally["dense only"] += 1
    assert min(tally.values()) >= 20 and len(tally) == 4, tally


@pytest.mark.parametrize(
    "n,full_sha256,pruned_sha256",
    [
        (
            6,
            "c3ccc3f4d1151c942b6b0311be09e3158a0ce2279cc564fc4126f57a773e5d38",
            "45bbd3accdb8c888ee81a0adfc1f707df7b05eee3637a5a148badce4096dca98",
        ),
        (
            7,
            "762c8e48bc786b52f4f16df53b6998c8ad42d86dde2f919157f81934441e107f",
            "465ccd5c942263269cc3383e71e935c93c5a70ad1f1f3a011ad87cd496f89a4e",
        ),
    ],
)
def test_km_file_bytes_are_pinned(n, full_sha256, pruned_sha256):
    group = singer_normalizer(n)
    inst = build_km(orbit_partition(group, 2), orbit_partition(group, 3))
    for km, want in ((inst, full_sha256), (prune(inst), pruned_sha256)):
        assert hashlib.sha256(format_km(km).encode()).hexdigest() == want


@pytest.mark.parametrize("n", [6, 7])
def test_written_km_text_takes_the_layout_path(monkeypatch, n):
    # a layout path that never fired would pass every comparison here; a
    # comment line sends the same text down the line path instead
    group = singer_normalizer(n)
    inst = build_km(orbit_partition(group, 2), orbit_partition(group, 3))
    for km in (inst, prune(inst)):
        text = format_km(km)
        noted = parse_km(text + "# note\n")
        with monkeypatch.context() as m:
            m.setattr(kramer_mesner, "_line_records", None)  # cannot run
            assert _fields(parse_km(text)) == _fields(km) == _fields(noted)
            with pytest.raises(TypeError):
                parse_km(text + "# note\n")


def _fields(inst):
    return (
        inst.n, inst.t, inst.k, inst.lam, inst.row_ids, inst.row_lengths,
        inst.col_ids, inst.col_lengths, inst.entries,
    )


def _cover(from_km_fn, inst):
    try:
        p = from_km_fn(inst)
    except ValueError as exc:
        return str(exc)
    return p.item_ids, p.labels, p.matrix.tolist(), p.multiplicity, p.checksum


@pytest.mark.parametrize(
    "group_fn,t,k,pruned_cols",
    [
        (lambda: singer_normalizer(5), 1, 2, 0),
        (lambda: singer_normalizer(6), 2, 3, 1),
        (lambda: singer_normalizer(7), 2, 3, 2),
        (lambda: MatrixGroup(n=4, generators=(identity(4),), order=1), 1, 2, 35),
        (lambda: MatrixGroup(n=5, generators=(identity(5),), order=1), 2, 3, 155),
    ],
)
def test_dense_km_matches_dict_reference(group_fn, t, k, pruned_cols):
    group = group_fn()
    t_table, k_table = orbit_partition(group, t), orbit_partition(group, k)
    inst = build_km(t_table, k_table)
    ref = km_reference.build_km(t_table, k_table)
    pruned, ref_pruned = prune(inst), km_reference.prune(ref)
    assert len(pruned.col_ids) == pruned_cols
    for km, want in ((inst, ref), (pruned, ref_pruned)):
        assert _fields(km) == _fields(want)
        assert km.row_sums() == want.row_sums()
        assert _cover(from_km, km) == _cover(km_reference.from_km, want)
        text = format_km(km)
        assert text == km_reference.format_km(want)
        # int() reads '_' between digits, so the reader drops them
        underscored = re.sub(r"(?<=\d)(?=\d)", "_", text)
        assert "_" in underscored
        for src in (text, text.replace("\n", "\r\n"), underscored):
            assert _fields(parse_km(src)) == _fields(km_reference.parse_km(src))
            assert _fields(parse_km(src)) == _fields(km)
