"""Smoke tests of the benchmark: every named metric and span is emitted.

    python3 -m pytest bench/tests -q                  # everything, about 3 minutes
    python3 -m pytest bench/tests -q -m "not slow"    # without the search runs
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import probes  # noqa: E402
import workload  # noqa: E402
from tracer import Tracer, unit_of  # noqa: E402

from qsteiner.groups import singer_normalizer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SPAN_FIELDS = {
    "id", "name", "parent", "run_id", "start", "end", "cpu_s", "maxrss_mb", "self_s",
}
KERNEL_METRICS = {
    "singer.labels_bulk.rows_per_s",
    "singer.orbit_size.calls_per_s",
    "singer.expand_orbit_s",
    "gf2.rref_bulk.6x13.rows_per_s",
    "gf2.rref_bulk.7x13.rows_per_s",
    "subspace.pack_keys_bulk.rows_per_s",
}
KERNEL_SPANS = {
    "singer.labels_bulk",
    "singer.orbit_size",
    "singer.expand_orbit",
    "gf2.rref_bulk.6x13",
    "gf2.rref_bulk.7x13",
    "subspace.pack_keys_bulk",
}
# Calls and counts each workload's traced run must report in its layers file.
WORKLOAD_CALLS = {
    "rebuild": [
        "fixtures.self_test",
        "groups.group_closure",
        "groups.orbit_partition.k2",
        "verify.expand_orbits",
        "verify.verify_design",
        "verify.packing_bound",
        "verify.min_distance_certificate",
        "verify.derived_steiner_sample_check",
        "verify.BlockSet",
        "verify.BlockSet.save",
        "verify.BlockSet.load",
        "verify.verify_design.file",
        "subspace.load_subspace_file",
    ],
    "search": [
        "fixtures.self_test",
        "groups.group_closure",
        "groups.orbit_partition.k2",
        "groups.orbit_partition.k3",
        "kramer_mesner.build_km",
        "kramer_mesner.prune",
        "kramer_mesner.export_km",
        "kramer_mesner.import_km",
        "exact_cover.from_km",
        "exact_cover.solve",
        "exact_cover.check_solution",
        "exact_cover.solve.build",
    ],
}
WORKLOAD_COUNTS = {
    "rebuild": {
        "groups.order": 106483,
        "groups.orbits.k2": 105,
        "verify.blocks": 1597245,
        "verify.pairs_covered": 11180715,
    },
    "search": {
        "groups.order": 106483,
        "groups.orbits.k2": 105,
        "groups.orbits.k3": 30705,
        "kramer_mesner.columns_pruned": 5133,
        "exact_cover.nodes": 27875 + 35315,
        "exact_cover.solutions": 2,
    },
}
WORKLOAD_RATES = {
    "rebuild": ["verify.min_distance.pairs_per_s", "verify.derived.triples_per_s"],
    "search": ["exact_cover.nodes_per_s", "exact_cover.solve.build_s"],
}


def run_bench(tmp_root: Path, workload_name: str, trace: int, seed: int = 3):
    return subprocess.run(
        [
            sys.executable, str(tmp_root / "bench" / "run.py"),
            "--workload", workload_name, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace),
        ],
        capture_output=True, text=True, cwd=tmp_root, timeout=600,
    )


@pytest.fixture(scope="module")
def checkout(tmp_path_factory) -> Path:
    """A copy of the files the benchmark needs, so runs leave the tree clean."""
    root = tmp_path_factory.mktemp("checkout")
    skip = shutil.ignore_patterns("__pycache__", "tests")
    shutil.copytree(ROOT / "src", root / "src", ignore=skip)
    shutil.copytree(BENCH, root / "bench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    return root


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def check_traced(root: Path, name: str) -> None:
    res = result_of(run_bench(root, name, 1))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in res["metrics"].values())

    layers = json.loads((root / ".bench_out" / f"{name}-seed3-layers.json").read_text())
    metrics = layers["metrics"]
    for call in WORKLOAD_CALLS[name]:
        for suffix in ("_s", ".cpu_s", ".maxrss_mb"):
            assert metrics[call + suffix] > 0, call + suffix
    for count, value in WORKLOAD_COUNTS[name].items():
        assert metrics[count] == value, count
    for rate in WORKLOAD_RATES[name]:
        assert metrics[rate] > 0, rate

    spans_file = root / ".bench_out" / f"{name}-seed3-spans.json"
    spans = json.loads(spans_file.read_text())["spans"]
    assert layers["peak_rss_set_by"] in {s["name"] for s in spans}
    assert all(set(s) == SPAN_FIELDS for s in spans)
    assert len({s["run_id"] for s in spans}) == 1
    names = {s["name"] for s in spans}
    assert set(WORKLOAD_CALLS[name]) | KERNEL_SPANS <= names
    roots = {s["name"] for s in spans if s["parent"] is None}
    assert roots == {"fixtures.self_test", "phase.setup", "phase.pass", "phase.probes"}


def test_tracer_records_nested_spans_and_self_time(tmp_path):
    tr = Tracer("run-1", enabled=True)
    with tr.span("outer"):
        tr.call("inner", sum, range(1000))
        tr.call("inner", sum, range(1000))
    tr.count("things", 2)
    tr.count("things", 3)
    outer, first, second = tr.spans
    assert first["parent"] == outer["id"] == second["parent"]
    selfs = tr.self_times()
    inner_time = sum(s["end"] - s["start"] for s in (first, second))
    outer_time = outer["end"] - outer["start"]
    assert selfs[outer["id"]] == pytest.approx(outer_time - inner_time)
    metrics = tr.call_metrics()
    assert set(metrics) == {
        f"{name}{suffix}"
        for name in ("outer", "inner")
        for suffix in ("_s", ".cpu_s", ".maxrss_mb")
    }
    assert metrics["inner_s"] == pytest.approx(inner_time)
    assert tr.counts == {"things": 5}
    assert tr.peak_setter()[0] in {"inner", "outer"}
    path = tmp_path / "spans.json"
    tr.write(str(path), {"workload": "test"})
    written = json.loads(path.read_text())
    assert written["run_id"] == "run-1" and written["workload"] == "test"
    assert all(set(s) == SPAN_FIELDS for s in written["spans"])


def test_disabled_tracer_records_nothing():
    tr = Tracer("run-2", enabled=False)
    assert tr.call("f", max, 1, 2) == 2
    tr.count("things", 1)
    assert tr.spans == [] and tr.counts == {} and tr.overhead_s == 0.0


def test_kernel_probes_on_small_group():
    tr = Tracer("probe", enabled=True)
    out = probes.kernel_probes(tr, singer_normalizer(7), seed=5)
    assert set(out) == KERNEL_METRICS
    assert all(v > 0 for v in out.values())
    assert {s["name"] for s in tr.spans} == KERNEL_SPANS
    assert len(tr.spans) == probes.REPEATS * len(KERNEL_SPANS)


def test_benchmark_json_names_the_metrics_the_code_reports():
    assert [m["name"] for m in SPEC["per_layer"]] == list(workload.PER_LAYER)
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    assert end_to_end == ["wall_s", "setup_s", "peak_rss_mb"]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metric["unit"] == unit_of(metric["name"])
    assert [w["name"] for w in SPEC["workloads"]] == list(workload.WORKLOADS)


WORKLOAD_PARAMS = ["rebuild", pytest.param("search", marks=pytest.mark.slow)]


@pytest.mark.parametrize("name", WORKLOAD_PARAMS)
def test_untraced_run_reports_every_end_to_end_metric(checkout, name):
    res = result_of(run_bench(checkout, name, 0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("name", WORKLOAD_PARAMS)
def test_traced_run_emits_every_metric_and_span(checkout, name):
    check_traced(checkout, name)


def test_run_without_sources_fails_without_result(tmp_path):
    skip = shutil.ignore_patterns("__pycache__", "tests")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench(tmp_path, "rebuild", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
