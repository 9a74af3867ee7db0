"""Measurement loop of the flow benchmark (see ``run.py`` for usage).

One run of a workload, in one process:

1. set-up, repeated :data:`SETUP_REPS` times on a fresh library: the cell
   library, the one-time pattern-set / NPN-table builds, and the
   workload's input circuits, each time with the imports timed in a fresh
   interpreter;
2. untraced passes, each running every flow of the workload once in a
   seeded order, while the time budget lasts;
3. with tracing on, traced passes under :class:`spans.Tracer` wrappers
   and the ``repro.obs`` counters, for the per-layer metrics.

Times are scaled to a reference host speed with :mod:`hostspeed`; the raw
wall times are reported next to them in the run's info line.

Every flow's netlist must pass ``networks_equivalent`` (the flows run
with ``verify=True``, the CLI default), and every pass must reproduce the
first pass's QoR and gate count exactly, traced or not.  A flow that
raises or breaks either rule counts as failed.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy
import scipy

import repro.timing.array_sta  # noqa: F401  (the back end imports it lazily)
from repro.flow.pipeline import lily_flow, mis_flow
from repro.library.standard import big_library
from repro.library.patterns import _PATTERN_CACHE
from repro.map.cuts import _MATCH_TABLE_CACHE, CutMapper
from repro.map.mis import MisAreaMapper
from repro.network.decompose import decompose_to_subject
from repro.obs import OBS
from repro.perf import PerfOptions

from hostspeed import ELASTICITY, REFERENCE_KERNEL_S, HostSpeed, normalize
from spans import LAYER_SPANS, Tracer, accounting_problems, self_times
from workloads import Flow, build_flows, pass_order

__all__ = ["END_TO_END", "PER_LAYER", "RunResult", "run_workload"]

SETUP_REPS = 5
#: Prints the seconds a fresh interpreter took to import the program.
_IMPORT_PROBE = (sys.executable,
                 os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "run.py"), "--time-imports")
#: Host-speed kernel samples per pass, spread over the gaps between flows.
KERNEL_SAMPLES = 8
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

#: name -> unit of the metrics printed with tracing off.
END_TO_END: Dict[str, str] = {
    "flow_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cell_area_mm2": "mm2",
    "chip_area_mm2": "mm2",
    "wire_mm": "mm",
    "critical_delay": "lib_time",
    "ok_frac": "fraction",
}

#: Counter metric -> ``repro.obs`` counter it reads.
_COUNTERS: Dict[str, str] = {
    "network.subject_gates": "decompose.subject_gates",
    "map.dp.states_expanded": "dp.states_expanded",
    "map.dp.nodes_visited": "dp.nodes_visited",
    "match.patterns_tried": "match.patterns_tried",
    "map.cuts.states_expanded": "cut.states_expanded",
    "place.quadratic_solves": "place.quadratic_solves",
    "place.fm_refinements": "place.fm_refinements",
    "route.nets_routed": "route.nets_routed",
    "timing.node_visits": "sta.node_visits",
}

#: Ratio metric -> (numerator counters, denominator counters).
_RATIOS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "match.found_ratio": (("match.found",), ("match.patterns_tried",)),
    "perf.memo.hit_ratio": (("perf.sig_memo_hits",),
                            ("perf.sig_memo_hits", "perf.sig_memo_misses")),
    "perf.netcache.hit_ratio": (
        ("perf.netcache_hits",),
        ("perf.netcache_hits", "perf.netcache_misses")),
}

#: Span names whose call counts are metrics (``<span>.calls``).
_CALLED_SPANS = ("match.tree", "match.cut_function", "core.wirecost")

#: name -> unit of the metrics printed with tracing on.
PER_LAYER: Dict[str, str] = {
    **{f"{span}.self_s": "s" for span in LAYER_SPANS},
    **{name: "count" for name in _COUNTERS},
    **{f"{span}.calls": "count" for span in _CALLED_SPANS},
    **{name: "ratio" for name in _RATIOS},
    "match.cut_function.unique_ratio": "ratio",
    "map.gates_out": "count",
    "trace_overhead_frac": "fraction",
}

#: Per-flow QoR: instance area mm², chip area mm², wire mm, delay, gates.
Qor = Tuple[float, float, float, float, int]


@dataclass
class RunResult:
    """What one run measured, before it is printed."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    info: dict
    spans: list


@dataclass
class _Pass:
    wall_s: float  # the flows' wall time
    norm_s: float  # the same, scaled to the reference host speed
    outcomes: Dict[str, Optional[Qor]]  # QoR per flow label, None: failed


def _log(message: str) -> None:
    print(f"flowbench: {message}", file=sys.stderr, flush=True)


# -- set-up --------------------------------------------------------------------


def _set_up(workload: str, tiny: bool, perf: PerfOptions):
    """Library, one-time mapper tables and inputs, as a CLI process pays.

    The library and table caches are emptied first, so every call builds
    them anew and none keeps an earlier call's library alive."""
    big_library.cache_clear()
    _PATTERN_CACHE.clear()
    _MATCH_TABLE_CACHE.clear()
    library = big_library()
    flows = build_flows(workload, tiny=tiny)
    backends = {flow.mapper for flow in flows}
    if "tree" in backends:
        MisAreaMapper(library, perf=perf)  # pattern set (shared with Lily)
    if "cuts" in backends:
        CutMapper(library, perf=perf)  # NPN match table
    return library, flows


def _import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the program."""
    proc = subprocess.run(_IMPORT_PROBE, capture_output=True, text=True,
                          check=True, timeout=120)
    return float(proc.stdout.strip().splitlines()[-1])


def _timed_set_up(workload: str, tiny: bool, perf: PerfOptions, reps: int,
                  speed: HostSpeed, import_s: float):
    """Set up ``reps`` times; the last one is used.

    Every repetition after the first also times the imports once more, in
    a fresh interpreter (``import_s`` is this process's own).  Returns
    the import and set-up seconds, and kernel samples taken around both
    in every repetition."""
    imports = [import_s]
    seconds: List[float] = []
    kernel: List[float] = []
    for rep in range(reps):
        set_up = None  # free the previous repetition before the next
        gc.collect()
        kernel.append(speed.kernel_s())
        if rep:
            imports.append(_import_seconds())
            kernel.append(speed.kernel_s())
        start = time.perf_counter()
        set_up = _set_up(workload, tiny, perf)
        seconds.append(time.perf_counter() - start)
        kernel.append(speed.kernel_s())
    library, flows = set_up
    return library, flows, imports, seconds, kernel


# -- flows and passes ------------------------------------------------------------


def _call(flow: Flow, library, perf: PerfOptions):
    if flow.pipeline == "mis":
        return mis_flow(flow.net, library, mode=flow.mode, verify=True,
                        perf=perf, mapper=flow.mapper)
    return lily_flow(flow.net, library, mode=flow.mode, verify=True,
                     perf=perf)


def _run_pass(flows: Sequence[Flow], library, perf: PerfOptions, seed: int,
              index: int, speed: HostSpeed,
              tracer: Optional[Tracer] = None) -> _Pass:
    """Every flow once, in the seeded order, with kernel samples before,
    between and after the flows (at least :data:`KERNEL_SAMPLES`)."""
    per_gap = -(-KERNEL_SAMPLES // (len(flows) + 1))
    kernel = [speed.kernel_s() for _ in range(per_gap)]
    wall = 0.0
    outcomes: Dict[str, Optional[Qor]] = {}
    for flow in pass_order(list(flows), seed, index):
        call = (lambda f=flow: _call(f, library, perf))
        start = time.perf_counter()
        try:
            if tracer is None:
                flow_result = call()
            else:
                flow_result = tracer.run_flow(f"{index}:{flow.label}", call)
        except Exception:  # a failed flow is a measured outcome
            _log(f"flow {flow.label} raised:\n{traceback.format_exc()}")
            flow_result = None
        wall += time.perf_counter() - start
        kernel.extend(speed.kernel_s() for _ in range(per_gap))
        if flow_result is not None and not flow_result.equivalent:
            _log(f"flow {flow.label}: mapped netlist is not equivalent")
            flow_result = None
        outcomes[flow.label] = None if flow_result is None else (
            flow_result.instance_area_mm2, flow_result.chip_area_mm2,
            flow_result.wire_length_mm, flow_result.delay,
            flow_result.num_gates)
    return _Pass(wall, normalize(wall, kernel), outcomes)


class _Checker:
    """Counts failed flows; the first pass's QoR is the reference."""

    def __init__(self) -> None:
        self.reference: Dict[str, Qor] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, outcomes: Dict[str, Optional[Qor]], what: str) -> None:
        for label, qor in outcomes.items():
            self.attempted += 1
            if qor is None:
                self.failed += 1
                continue
            expected = self.reference.setdefault(label, qor)
            if qor != expected:
                _log(f"{what} pass: {label} gave QoR {qor}, "
                     f"first pass gave {expected}")
                self.failed += 1


def _passes(run_one: Callable[[int], _Pass], first_index: int,
            minimum: int, deadline: float) -> List[_Pass]:
    """At least ``minimum`` passes, then more while one more still fits
    before ``deadline`` (a ``perf_counter`` reading)."""
    done: List[_Pass] = []
    lengths: List[float] = []
    while True:
        now = time.perf_counter()
        if len(done) >= minimum and now + statistics.median(lengths) > deadline:
            return done
        done.append(run_one(first_index + len(done)))
        lengths.append(time.perf_counter() - now)


# -- traced passes -----------------------------------------------------------------


def _layer_values(tracer: Tracer, counters: Dict[str, int],
                  result: _Pass):
    """Per-layer self times and exact work counts of one traced pass, and
    whether its spans account for its wall time."""
    problems = accounting_problems(tracer.spans, result.wall_s)
    for problem in problems:
        _log(f"spans of a traced pass: {problem}")
    self_s, calls, _root_s = self_times(tracer.spans)
    exact = {name: counters.get(counter, 0)
             for name, counter in _COUNTERS.items()}
    exact.update({f"{span}.calls": calls.get(span, 0)
                  for span in _CALLED_SPANS})
    for name, (num, den) in _RATIOS.items():
        top = sum(counters.get(c, 0) for c in num)
        bottom = sum(counters.get(c, 0) for c in den)
        exact[name] = top / bottom if bottom else 0.0
    cut_calls = calls.get("match.cut_function", 0)
    exact["match.cut_function.unique_ratio"] = (
        tracer.unique_cut_keys() / cut_calls if cut_calls else 0.0)
    exact["map.gates_out"] = sum(
        qor[4] for qor in result.outcomes.values() if qor is not None)
    timed = {f"{span}.self_s": self_s.get(span, 0.0) for span in LAYER_SPANS}
    return not problems, exact, timed


def _traced_pass(flows, library, perf, seed, index, speed, tracer):
    tracer.clear()
    OBS.enable(reset=True)
    try:
        result = _run_pass(flows, library, perf, seed, index, speed, tracer)
        counters = OBS.metrics.snapshot_counters()
    finally:
        OBS.disable()
    return result, _layer_values(tracer, counters, result)


# -- one run -------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 import_s: float, tiny: bool = False) -> RunResult:
    """Set up, measure and check one workload; see the module docstring.
    ``import_s`` is the time this process took to import the program."""
    perf = PerfOptions(jobs=1, procs=1)
    speed = HostSpeed()
    library, flows, import_raw, setup_raw, setup_kernel = _timed_set_up(
        workload, tiny, perf, 1 if tiny else SETUP_REPS, speed, import_s)
    checker = _Checker()
    start = time.perf_counter()

    def untraced(index: int) -> _Pass:
        result = _run_pass(flows, library, perf, seed, index, speed)
        checker.check(result.outcomes, "untraced")
        return result

    plain = _passes(untraced, 0,
                    MIN_TRACED_PASSES if trace else MIN_PASSES,
                    start + (seconds / 2 if trace else seconds))
    flow_s = statistics.median(p.norm_s for p in plain)
    info = {
        "workload": workload,
        "seed": seed,
        "tiny": tiny,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "flows": [flow.label for flow in flows],
        "pass_wall_s": [p.wall_s for p in plain],
        "pass_norm_s": [p.norm_s for p in plain],
        "import_wall_s": import_raw,
        "setup_wall_s": setup_raw,
        "reference_kernel_s": REFERENCE_KERNEL_S,
        "elasticity": ELASTICITY,
    }
    correct = True
    spans: list = []
    if trace:
        tracer = Tracer()
        layers: List[tuple] = []

        def traced(index: int) -> _Pass:
            result, values = _traced_pass(flows, library, perf, seed, index,
                                          speed, tracer)
            checker.check(result.outcomes, "traced")
            if not layers:
                spans.extend(tracer.spans)
            layers.append(values)
            return result

        with tracer:
            traced_passes = _passes(traced, len(plain), MIN_TRACED_PASSES,
                                    start + seconds)
        correct = all(accounted for accounted, _e, _t in layers)
        exact = layers[0][1]
        for _accounted, other, _timed in layers[1:]:
            if other != exact:
                _log("work counters differ between traced passes: "
                     f"{_diff(exact, other)}")
                correct = False
        values: Dict[str, float] = dict(exact)
        for name in layers[0][2]:
            values[name] = statistics.median(t[name] for _a, _e, t in layers)
        values["trace_overhead_frac"] = statistics.median(
            p.norm_s for p in traced_passes) / flow_s - 1.0
        info["traced_pass_wall_s"] = [p.wall_s for p in traced_passes]
        metrics = {name: (values[name], unit)
                   for name, unit in PER_LAYER.items()}
    else:
        columns = list(zip(*checker.reference.values()))
        values = {
            "flow_s": flow_s,
            "setup_s": normalize(statistics.median(import_raw)
                                  + statistics.median(setup_raw),
                                  setup_kernel),
            "peak_rss_mb": _peak_rss_mb(),
            "ok_frac": 1.0 - checker.failed / checker.attempted,
        }
        for name, column in zip(("cell_area_mm2", "chip_area_mm2", "wire_mm",
                                 "critical_delay"), columns):
            values[name] = _geomean(column)
        metrics = {name: (values.get(name, math.nan), unit)
                   for name, unit in END_TO_END.items()}

    correct = (correct and checker.failed == 0
               and len(checker.reference) == len(flows))
    info["circuits"] = {flow.net.name: len(decompose_to_subject(flow.net).gates)
                        for flow in flows}
    return RunResult(correct, checker.attempted, checker.failed, metrics,
                     info, spans)


def _geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _diff(first: dict, other: dict) -> dict:
    return {k: (first.get(k), other.get(k))
            for k in set(first) | set(other) if first.get(k) != other.get(k)}
