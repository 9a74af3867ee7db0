"""Warm process-wide state shared read-only by server workers.

Cold-starting one mapping request costs far more than the request itself
on small circuits: parse the genlib library, derive every cell's pattern
graphs, build the root-kind/height pattern index.  A resident server
pays those once per library and shares the results:

* the parsed :class:`~repro.library.cell.Library` (one instance per
  library spec, so :func:`~repro.library.patterns.pattern_set_for`'s
  identity cache keeps hitting);
* its :class:`~repro.library.patterns.PatternSet` and
  :class:`~repro.perf.patindex.PatternIndex` (read-only after build);
* built suite circuits and parsed BLIF networks, keyed by content.

Counters (``serve.state_builds``, ``serve.library_parses``,
``serve.network_builds``) record cold-start work both in the always-on
plain dict (:attr:`WarmState.stats`) and — when the global observability
session is enabled — in ``repro.obs`` metrics, which is how the
acceptance test proves the second identical job re-parses nothing.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Dict, Optional, Tuple

from repro.circuits.suite import build_circuit
from repro.library.cell import Library
from repro.library.genlib import parse_genlib
from repro.library.patterns import PatternSet, pattern_set_for
from repro.library.standard import big_library, scale_library, tiny_library
from repro.network.blif import parse_blif
from repro.network.network import Network
from repro.obs import OBS
from repro.perf.memomatch import MemoMatcher
from repro.perf.patindex import PatternIndex

__all__ = ["WarmState", "warm_state_for", "reset_warm_states"]

#: Parsed-BLIF network cache bound per warm state (entries are small —
#: the texts served repeatedly are the ones worth keeping).
MAX_CACHED_NETWORKS = 64


class WarmState:
    """Everything one library's jobs share, built once per process."""

    def __init__(self, key: str, library: Library) -> None:
        from repro.serve.jobs import library_hash

        self.key = key
        self.library = library
        self.library_hash = library_hash(library)
        self.patterns: PatternSet = pattern_set_for(library)
        self.pattern_index = PatternIndex(self.patterns)
        self._networks: Dict[Tuple[str, float], Tuple[Network, str]] = {}
        self._network_order: list = []
        self._lock = threading.Lock()
        self.stats: Dict[str, int] = {
            "library_parses": 1,
            "network_builds": 0,
            "network_hits": 0,
        }
        if OBS.enabled:
            OBS.metrics.counter("serve.library_parses").inc()

    def matcher(self) -> MemoMatcher:
        """A fresh matcher wired to the warm pattern index.

        Per-graph state (gate heights) stays private to the returned
        instance, so concurrent jobs on different subjects are safe.
        """
        return MemoMatcher(self.patterns, shared_index=self.pattern_index)

    def network_for(self, circuit: Optional[str], blif: Optional[str],
                    scale: float = 1.0) -> Tuple[Network, str]:
        """``(network, content_hash)`` for a job's netlist source.

        Named circuits key by ``(name, scale)``; BLIF text keys by its
        own SHA-256 so byte-identical submissions share one parse.  The
        cache is LRU-bounded at :data:`MAX_CACHED_NETWORKS`.
        """
        from repro.serve.jobs import network_hash

        if circuit is not None:
            cache_key = (f"circuit:{circuit}", scale)
        else:
            text_sha = hashlib.sha256(
                (blif or "").encode("utf-8")).hexdigest()
            cache_key = (f"blif:{text_sha}", 0.0)
        with self._lock:
            hit = self._networks.get(cache_key)
            if hit is not None:
                self.stats["network_hits"] += 1
                if OBS.enabled:
                    OBS.metrics.counter("serve.network_hits").inc()
                self._network_order.remove(cache_key)
                self._network_order.append(cache_key)
                return hit
        if circuit is not None:
            net = build_circuit(circuit, scale=scale)
        else:
            net = parse_blif(blif or "", filename="<serve-job>")
        entry = (net, network_hash(net))
        with self._lock:
            self.stats["network_builds"] += 1
            if OBS.enabled:
                OBS.metrics.counter("serve.network_builds").inc()
            if cache_key not in self._networks:
                self._networks[cache_key] = entry
                self._network_order.append(cache_key)
                while len(self._network_order) > MAX_CACHED_NETWORKS:
                    evicted = self._network_order.pop(0)
                    del self._networks[evicted]
            return self._networks[cache_key]


_STATES: Dict[str, WarmState] = {}
_STATES_LOCK = threading.Lock()


def _build_library(library: str, genlib: Optional[str]) -> Tuple[str, Library]:
    """Resolve a job's library spec to a registry key and instance."""
    if genlib is not None:
        sha = hashlib.sha256(genlib.encode("utf-8")).hexdigest()
        return f"genlib:{sha}", parse_genlib(genlib, name=f"custom_{sha[:8]}",
                                             filename="<serve-genlib>")
    if library == "big":
        return "big", big_library()
    if library == "tiny":
        return "tiny", tiny_library()
    if library == "big_1u":
        # Table 2's library: delays/caps linearly scaled 3u -> 1u.
        return "big_1u", scale_library(big_library(), 1.0 / 3.0,
                                       name="big_1u")
    raise ValueError(f"unknown library spec: {library!r}")


def warm_state_for(library: str = "big",
                   genlib: Optional[str] = None) -> WarmState:
    """The process-wide :class:`WarmState` for a library spec.

    The first call for a spec parses the library and builds patterns and
    index (``serve.state_builds`` increments); every later call — from
    any worker thread — returns the same instance untouched.
    """
    if genlib is not None:
        key = "genlib:" + hashlib.sha256(genlib.encode("utf-8")).hexdigest()
    else:
        key = library
    with _STATES_LOCK:
        state = _STATES.get(key)
        if state is not None:
            return state
        reg_key, lib = _build_library(library, genlib)
        state = WarmState(reg_key, lib)
        _STATES[reg_key] = state
        if OBS.enabled:
            OBS.metrics.counter("serve.state_builds").inc()
        return state


def reset_warm_states() -> None:
    """Drop every warm state (tests use this to measure cold starts)."""
    with _STATES_LOCK:
        _STATES.clear()
