"""Self-tests of the flow benchmark.

Run from the repository root::

    python3 -m pytest flowbench -q

The smoke tests run every workload on its ``--tiny`` inputs through the
real command line, twice, and check the printed result: metric names and
units, non-negative self times, exact repeats of the work counters, and
that each backend's layers are idle on the workloads that bypass them.
"""

from __future__ import annotations

import gzip
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _path in (HERE, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import harness  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOADS = ("suite_area", "synth_timing", "synth_cuts")

#: Layers each workload must leave idle (the bypass design).
IDLE = {
    "suite_area": ("map.cuts", "match.cut_function"),
    "synth_timing": ("map.cuts", "match.cut_function"),
    "synth_cuts": ("map.tree", "map.dp", "match.tree", "match.patterns",
                   "match.found", "perf.memo", "perf.netcache", "core."),
}


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(workload: str, seed: int, trace: int, tmp_path) -> dict:
    spans_file = tmp_path / f"spans-{workload}-{seed}.jsonl.gz"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0.1", "--trace",
         str(trace), "--tiny", "--spans", str(spans_file)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    result["spans_file"] = spans_file
    return result


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced tiny runs (seeds 1 and 2) of every workload."""
    tmp = tmp_path_factory.mktemp("flowbench")
    return {(w, seed): _run(w, seed, 1, tmp)
            for w in WORKLOADS for seed in (1, 2)}


def test_metric_names_and_units_match_benchmark_json():
    bench = _benchmark_json()
    declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared_e2e == harness.END_TO_END
    assert declared_layer == harness.PER_LAYER
    names = list(declared_e2e) + list(declared_layer)
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for unit in list(declared_e2e.values()) + list(declared_layer.values()):
        assert UNIT.fullmatch(unit), unit
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_self_times_subtract_direct_children():
    # Clock reads in call order: flow, middle, inner, /inner, /middle,
    # inner, /inner, /flow.
    clock = iter([0.0, 1.0, 2.0, 4.0, 7.0, 8.0, 9.0, 10.0]).__next__
    tracer = spans.Tracer(clock=clock)
    inner = tracer._wrap("inner", lambda: None)
    middle = tracer._wrap("middle", inner)
    tracer.run_flow("f", lambda: (middle(), inner()))
    self_s, calls, root_s = spans.self_times(tracer.spans)
    assert self_s == {"flow": 3.0, "middle": 4.0, "inner": 3.0}
    assert calls == {"flow": 1, "middle": 1, "inner": 2}
    assert root_s == 10.0 == sum(self_s.values())
    assert {span[3] for span in tracer.spans} == {"f"}


#: One flow of 10 s: a layer span of 9.8 s inside it, 0.2 s uncovered.
_PASS = [(1, 0, "map.tree", "f", 0.1, 9.9), (0, -1, "flow", "f", 0.0, 10.0)]


@pytest.mark.parametrize("rows, wall_s, expected", [
    (_PASS, 10.0, set()),
    (_PASS + [(2, 7, "route.global", "f", 3.0, 4.0)], 10.0,
     {"no recorded parent", "self times sum to"}),
    (_PASS + [(2, -1, "route.global", "", 11.0, 12.0)], 10.0,
     {"outside any flow", "self times sum to"}),
    ([(1, 0, "map.tree", "f", 0.1, 5.0), (0, -1, "flow", "f", 0.0, 10.0)],
     10.0, {"no layer span covers"}),
    (_PASS, 11.0, {"self times sum to"}),
], ids=["accounted", "orphan", "outside-flow", "uncovered", "short-of-wall"])
def test_accounting_problems(rows, wall_s, expected):
    problems = spans.accounting_problems(rows, wall_s)
    assert {key for key in ("no recorded parent", "outside any flow",
                            "self times sum to", "no layer span covers")
            if any(key in problem for problem in problems)} == expected
    assert len(problems) == len(expected)


def test_uninstall_restores_every_wrapped_name():
    import repro.flow.pipeline as pipeline
    from repro.map.mis import MisAreaMapper

    placer, route = pipeline.GlobalPlacer, pipeline.route_design
    with spans.Tracer():
        assert pipeline.GlobalPlacer is not placer
        assert "map" in MisAreaMapper.__dict__
    assert pipeline.GlobalPlacer is placer
    assert pipeline.route_design is route
    assert "map" not in MisAreaMapper.__dict__


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run(traced, workload):
    result = traced[(workload, 1)]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == harness.PER_LAYER
    for name, entry in metrics.items():
        if name.endswith(".self_s"):
            assert entry["value"] >= 0, name
    for name, entry in metrics.items():
        if name.startswith(IDLE[workload]):
            assert entry["value"] == 0, (workload, name)
    assert metrics["map.gates_out"]["value"] > 0
    assert metrics["network.subject_gates"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_work_counters_repeat_across_traced_runs(traced, workload):
    first, second = traced[(workload, 1)], traced[(workload, 2)]
    exact = [name for name, unit in harness.PER_LAYER.items()
             if unit in ("count", "ratio")]
    assert {n: first["metrics"][n]["value"] for n in exact} == {
        n: second["metrics"][n]["value"] for n in exact}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_file_accounts_for_the_traced_pass(traced, workload):
    path = traced[(workload, 1)]["spans_file"]
    with gzip.open(path, "rt") as handle:
        header = json.loads(handle.readline())
        rows = [tuple(json.loads(line)) for line in handle]
    assert header["fields"] == ["id", "parent", "name", "flow", "start",
                                "end"]
    assert header["header"]["workload"] == workload
    assert {"nproc", "python", "numpy", "scipy", "seed",
            "circuits"} <= set(header["header"])
    # The file holds the first traced pass, timed apart from its spans.
    wall_s = header["header"]["traced_pass_wall_s"][0]
    assert wall_s > 0
    assert spans.accounting_problems(rows, wall_s) == []
    self_s, _calls, _root_s = spans.self_times(rows)
    assert min(self_s.values()) >= 0


def test_untraced_smoke_run_prints_end_to_end_metrics(tmp_path):
    result = _run("suite_area", 3, 0, tmp_path)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == harness.END_TO_END
    assert all(entry["value"] > 0 for entry in metrics.values())
    assert metrics["ok_frac"]["value"] == 1.0
