"""Span tracing for the flow benchmark, recorded from outside the program.

Each layer is traced by wrapping one public function (or method) at the
name its caller resolves, e.g. ``repro.flow.pipeline.route_design`` or
``repro.map.cuts.cut_function``.  A wrapped call appends one span
``(span_id, parent_id, name, flow_id, start, end)`` to an in-memory list;
nothing is written until :func:`write_spans` runs at exit.

A span's self time is its duration minus the durations of its direct
children.  Calls nest strictly (one thread), so the children of a span
never overlap.  :func:`accounting_problems` checks a pass's spans against
the wall time measured around its flow calls: their self times must add
up to it, and the layer spans must cover nearly all of it.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

__all__ = ["WRAP_POINTS", "LAYER_SPANS", "Tracer", "self_times",
           "accounting_problems", "write_spans"]

#: (module, attribute path, span name).  The attribute path is resolved
#: the way the program resolves it: a module global for functions called
#: by name, ``Class.method`` for methods looked up on an instance.
WRAP_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.flow.pipeline", "decompose_to_subject", "network.decompose"),
    ("repro.flow.pipeline", "io_affinity_order", "place.pads"),
    ("repro.map.mis", "MisAreaMapper.map", "map.tree"),
    ("repro.map.mis", "MisDelayMapper.map", "map.tree"),
    ("repro.perf.memomatch", "MemoMatcher.matches_at", "match.tree"),
    ("repro.match.treematch", "Matcher.matches_at", "match.tree"),
    ("repro.map.cuts", "CutMapper.map", "map.cuts"),
    ("repro.map.cuts", "enumerate_priority_cuts", "map.cuts.enumerate"),
    ("repro.map.cuts", "cut_function", "match.cut_function"),
    ("repro.core.lily", "LilyAreaMapper.map", "core.lily"),
    ("repro.core.lily", "LilyDelayMapper.map", "core.lily"),
    ("repro.core.lily", "_LilyMixin.on_begin", "core.lily.initial_place"),
    ("repro.core.lily", "LilyAreaMapper.evaluate_match", "core.wirecost"),
    ("repro.core.lily", "LilyDelayMapper.evaluate_match", "core.wirecost"),
    ("repro.flow.pipeline", "GlobalPlacer.place", "place.global"),
    ("repro.flow.pipeline", "detailed_place", "place.detailed"),
    ("repro.flow.pipeline", "route_design", "route.global"),
    ("repro.timing.array_sta", "analyze_array", "timing.sta"),
    ("repro.flow.pipeline", "analyze", "timing.sta"),
    ("repro.flow.pipeline", "networks_equivalent", "verify.equiv"),
)

#: Paths traced through a subclass bound to the module's name instead of
#: a patch of the class itself.  ``GlobalPlacer`` serves both the back
#: end (``repro.flow.pipeline``) and Lily's initial placement
#: (``repro.core.lily``); only the back end's calls are ``place.global``,
#: the other ones stay inside ``core.lily.initial_place``.
_LOCAL_CLASS_POINTS = frozenset({"GlobalPlacer.place"})

#: Root span the benchmark opens around each flow call.
FLOW_SPAN = "flow"
#: Span whose distinct calls are counted (the recompute waste).
CUT_FUNCTION_SPAN = "match.cut_function"

#: Every span name, root first.
LAYER_SPANS: Tuple[str, ...] = (FLOW_SPAN,) + tuple(
    dict.fromkeys(name for _m, _a, name in WRAP_POINTS))

#: Largest gap allowed between the summed self times of a pass's spans
#: and the pass's wall time, as a share of that wall time, and at least
#: :data:`WALL_TOLERANCE_FLOOR_S`.  The root span's wrapper sits inside the
#: timed call and costs microseconds per flow.
WALL_TOLERANCE = 0.01
WALL_TOLERANCE_FLOOR_S = 0.005
#: Largest share of a pass's wall time that no layer span may cover
#: (``flow.self_s``).  Traced runs of the three workloads leave 0.3-1.5%.
MAX_UNCOVERED_FRAC = 0.05

#: One span: (span id, parent id or -1, name, flow id, start, end).
Span = Tuple[int, int, str, str, float, float]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 0
        self._cut_keys: set = set()
        self._installed: List[Tuple[object, str, object, bool]] = []
        self.flow_id = ""

    # -- recording ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        cut_keys = self._cut_keys if name == CUT_FUNCTION_SPAN else None

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            if cut_keys is not None:  # cut_function(root, leaves)
                root, leaves = args[0], args[1]
                cut_keys.add((self.flow_id, root.uid,
                              tuple(leaf.uid for leaf in leaves)))
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, self.flow_id, start, end))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def run_flow(self, flow_id: str, call: Callable[[], object]):
        """Run ``call()`` under a root ``flow`` span tagged ``flow_id``."""
        self.flow_id = flow_id
        try:
            return self._wrap(FLOW_SPAN, call)()
        finally:
            self.flow_id = ""

    def unique_cut_keys(self) -> int:
        """Distinct (flow, root, leaves) of ``cut_function`` calls so far."""
        return len(self._cut_keys)

    def clear(self) -> None:
        """Drop recorded spans and keys (wrappers stay installed)."""
        self.spans.clear()
        self._cut_keys.clear()

    # -- installation -----------------------------------------------------------

    def install(self, points: Sequence[Tuple[str, str, str]] = WRAP_POINTS
                ) -> "Tracer":
        """Wrap every point; :meth:`uninstall` restores the originals."""
        if self._installed:
            raise RuntimeError("tracer wrappers are already installed")
        try:
            for module_name, path, name in points:
                self._install_one(module_name, path, name)
        except BaseException:
            self.uninstall()
            raise
        return self

    def _install_one(self, module_name: str, path: str, name: str) -> None:
        module = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        owner = module
        for part in outer:
            owner = getattr(owner, part)
        if path in _LOCAL_CLASS_POINTS:
            # Rebind the module's name to a traced subclass, so only the
            # calls that resolve the class through this module are traced.
            cls_name = outer[0]
            traced_cls = type(owner.__name__, (owner,), {
                attr: self._wrap(name, getattr(owner, attr)),
                "__module__": owner.__module__,
                "__doc__": owner.__doc__,
            })
            self._installed.append((module, cls_name, owner, True))
            setattr(module, cls_name, traced_cls)
            return
        if isinstance(owner, type):
            own = attr in owner.__dict__
            original = owner.__dict__[attr] if own else getattr(owner, attr)
        else:
            own = True
            original = getattr(owner, attr)
        self._installed.append((owner, attr, original, own))
        setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, last installed first."""
        while self._installed:
            owner, attr, original, own = self._installed.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.uninstall()


def self_times(spans: Sequence[Span]) -> Tuple[Dict[str, float],
                                                Dict[str, int], float]:
    """Per-name self seconds, per-name call counts, and root seconds.

    Self time of a span is its duration minus its direct children's
    durations; the returned root total is the summed duration of the
    spans without a parent.
    """
    child_time: Dict[int, float] = defaultdict(float)
    for _sid, parent, _name, _flow, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    root_s = 0.0
    for sid, parent, name, _flow, start, end in spans:
        self_s[name] += (end - start) - child_time.get(sid, 0.0)
        calls[name] += 1
        if parent < 0:
            root_s += end - start
    return dict(self_s), dict(calls), root_s


def accounting_problems(spans: Sequence[Span], wall_s: float) -> List[str]:
    """Ways in which one pass's spans fail to account for its wall time.

    ``wall_s`` is measured around the pass's flow calls, independently of
    the spans.  The self times of all spans must add up to it within
    :data:`WALL_TOLERANCE`; an orphan span (its parent was not recorded)
    or a span left over from another pass breaks that.  The time that no
    layer span covers, the root spans' self time, may be at most
    :data:`MAX_UNCOVERED_FRAC` of it.  An empty list means the spans
    account for the pass.
    """
    problems = []
    ids = {span[0] for span in spans}
    orphans = [span for span in spans if span[1] >= 0 and span[1] not in ids]
    if orphans:
        problems.append(f"{len(orphans)} spans have no recorded parent, "
                        f"e.g. {orphans[0]}")
    roots = {span[2] for span in spans if span[1] < 0}
    if roots - {FLOW_SPAN}:
        problems.append(f"spans outside any flow: {sorted(roots - {FLOW_SPAN})}")
    self_s, _calls, _root_s = self_times(spans)
    total = sum(self_s.values())
    if abs(total - wall_s) > max(WALL_TOLERANCE * wall_s,
                                 WALL_TOLERANCE_FLOOR_S):
        problems.append(f"self times sum to {total!r} s, the flows took "
                        f"{wall_s!r} s")
    uncovered = self_s.get(FLOW_SPAN, 0.0)
    if uncovered > MAX_UNCOVERED_FRAC * wall_s:
        problems.append(f"no layer span covers {uncovered!r} s of "
                        f"{wall_s!r} s")
    return problems


def write_spans(path: str, spans: Sequence[Span], header: dict) -> None:
    """Write spans as gzipped JSON lines (one header line, then spans)."""
    with gzip.open(path, "wt", compresslevel=1) as out:
        out.write(json.dumps({"header": header,
                              "fields": ["id", "parent", "name", "flow",
                                         "start", "end"]}) + "\n")
        for span in spans:
            out.write(json.dumps(span) + "\n")
