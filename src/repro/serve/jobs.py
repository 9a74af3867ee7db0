"""Job specifications, content-addressed keys and result payloads.

A *job* names a netlist (either raw BLIF text or a suite circuit plus a
size scale), one pipeline (``mis`` | ``lily``), one mode (``area`` |
``timing``) and the knobs that change the answer (library choice, wire
model, verify level, Lily extensions, and the MIS pipeline's covering
backend — ``mapper``).  Two jobs that would produce the
same :class:`~repro.flow.pipeline.FlowResult` must map to the same
:func:`job_key`, so the key hashes:

* the netlist's *canonical* BLIF serialisation (comments, whitespace and
  declaration quirks wash out through a parse/write round trip);
* the library's canonical genlib serialisation;
* the canonicalised option dict (sorted keys, defaults materialised).

Nothing about how a job runs enters the key: the shared warm matcher
and the private one of the degraded retry map bit-identically (the
golden-equivalence tests assert it), so a cache entry is valid for
either.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Union

from repro.flow.pipeline import FlowResult, lily_flow, mis_flow
from repro.library.cell import Library
from repro.library.genlib import write_genlib
from repro.map.blif_io import write_mapped_blif
from repro.network.blif import write_blif
from repro.network.network import Network
from repro.timing.model import WireCapModel

__all__ = [
    "JobSpec",
    "JobError",
    "job_key",
    "network_hash",
    "library_hash",
    "build_payload",
    "payload_hash",
    "run_flow",
]

#: The flows a job may request.
FLOWS = ("mis", "lily")
#: The modes a job may request.
MODES = ("area", "timing")
#: Built-in library names a job may request (see ``repro.serve.state``).
LIBRARIES = ("big", "tiny", "big_1u")


class JobError(ValueError):
    """Raised when a job specification is malformed or inconsistent."""


@dataclass(frozen=True)
class JobSpec:
    """One mapping request.

    Exactly one of ``circuit`` (a named suite circuit) and ``blif`` (raw
    BLIF text) must be given.  Everything else defaults to the CLI's
    defaults; unknown options are rejected by :meth:`from_dict` so typos
    in protocol requests fail loudly instead of silently running the
    default flow.
    """

    flow: str = "lily"
    mode: str = "area"
    circuit: Optional[str] = None
    blif: Optional[str] = None
    scale: float = 1.0
    library: str = "big"
    genlib: Optional[str] = None
    wire_cap: Optional[Tuple[float, float]] = None
    verify: Union[bool, str] = False
    seed_backend_from_mapper: bool = False
    layout_driven: bool = False
    #: Covering backend for the MIS pipeline (``tree``/``cuts``/``fusion``/
    #: ``lut:K``); changes the answer, so it keys the cache.
    mapper: str = "tree"

    def validate(self) -> None:
        """Raise :class:`JobError` on any inconsistency."""
        from repro.map.cuts import MapperSpecError, parse_mapper_spec

        if self.flow not in FLOWS:
            raise JobError(f"unknown flow: {self.flow!r} (expected {FLOWS})")
        try:
            spec = parse_mapper_spec(self.mapper)
        except MapperSpecError as exc:
            raise JobError(str(exc))
        if spec.kind != "tree" and self.flow != "mis":
            raise JobError(
                f"mapper {self.mapper!r} needs flow 'mis' (Lily's "
                f"constructive placement is tree-based)")
        if self.mode not in MODES:
            raise JobError(f"unknown mode: {self.mode!r} (expected {MODES})")
        if (self.circuit is None) == (self.blif is None):
            raise JobError(
                "exactly one of 'circuit' and 'blif' must be given")
        if self.genlib is None and self.library not in LIBRARIES:
            raise JobError(
                f"unknown library: {self.library!r} (expected one of "
                f"{LIBRARIES}, or pass custom 'genlib' text)")
        if self.scale <= 0:
            raise JobError(f"scale must be positive, got {self.scale!r}")
        if not isinstance(self.verify, bool) and self.verify not in (
                "fast", "full"):
            raise JobError(
                f"verify must be a bool or 'fast'/'full', "
                f"got {self.verify!r}")
        if self.wire_cap is not None and len(self.wire_cap) != 2:
            raise JobError(
                "wire_cap must be a (horizontal, vertical) pF/um pair")
        if self.flow == "mis" and (self.seed_backend_from_mapper
                                   or self.layout_driven):
            raise JobError(
                "seed_backend_from_mapper/layout_driven are Lily-only")

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "JobSpec":
        """Build and validate a spec from a protocol-request dict."""
        if not isinstance(data, dict):
            raise JobError(f"job must be an object, got {type(data).__name__}")
        known = {f for f in JobSpec.__dataclass_fields__}
        unknown = sorted(set(data) - known)
        if unknown:
            raise JobError(
                f"unknown job option(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})")
        kwargs = dict(data)
        if kwargs.get("wire_cap") is not None:
            kwargs["wire_cap"] = tuple(float(c) for c in kwargs["wire_cap"])
        spec = JobSpec(**kwargs)
        spec.validate()
        return spec

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-ready mirror of :meth:`from_dict`."""
        out: Dict[str, Any] = {}
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if isinstance(value, tuple):
                value = list(value)
            out[name] = value
        return out

    def options_key(self) -> Dict[str, Any]:
        """The option subset that keys the result cache (netlist/library
        sources are hashed separately, so they are excluded here)."""
        return {
            "flow": self.flow,
            "mode": self.mode,
            "wire_cap": list(self.wire_cap) if self.wire_cap else None,
            "verify": self.verify,
            "seed_backend_from_mapper": self.seed_backend_from_mapper,
            "layout_driven": self.layout_driven,
            "mapper": self.mapper,
        }

    def wire_model(self) -> Optional[WireCapModel]:
        """The spec's wire model (``None`` keeps the flow defaults)."""
        if self.wire_cap is None:
            return None
        return WireCapModel(self.wire_cap[0], self.wire_cap[1])


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def network_hash(net: Network) -> str:
    """Content hash of a network via its canonical BLIF serialisation."""
    return _sha256(write_blif(net))


def library_hash(library: Library) -> str:
    """Content hash of a library via its canonical genlib serialisation."""
    return _sha256(write_genlib(library))


def job_key(spec: JobSpec, net_hash: str, lib_hash: str) -> str:
    """The content-addressed cache key of one job.

    ``(netlist hash, library hash, canonicalised options)``, hashed.  The
    options dict serialises with sorted keys so field order can never
    split the cache.
    """
    blob = json.dumps(
        {"netlist": net_hash, "library": lib_hash,
         "options": spec.options_key()},
        sort_keys=True,
    )
    return _sha256(blob)


def run_flow(
    spec: JobSpec,
    net: Network,
    library: Library,
    matcher=None,
) -> FlowResult:
    """Dispatch one flow exactly as the CLI drivers would."""
    wire_model = spec.wire_model()
    if spec.flow == "mis":
        return mis_flow(net, library, mode=spec.mode, wire_model=wire_model,
                        verify=spec.verify, matcher=matcher,
                        mapper=spec.mapper)
    return lily_flow(
        net, library, mode=spec.mode, wire_model=wire_model,
        verify=spec.verify,
        seed_backend_from_mapper=spec.seed_backend_from_mapper,
        layout_driven_decomposition=spec.layout_driven,
        matcher=matcher,
    )


def build_payload(spec: JobSpec, result: FlowResult) -> Dict[str, Any]:
    """The deterministic, JSON-ready body of a job response.

    Everything here is a pure function of the job inputs — no wall-clock
    times, worker identities or cache metadata — so two runs of the same
    job produce *bit-identical* payloads and the cache can hand back
    stored bodies indistinguishable from fresh ones.  Volatile facts
    (runtime, hit/degraded flags) live in the response envelope instead.
    """
    payload: Dict[str, Any] = {
        "circuit": result.circuit,
        "flow": result.mapper,
        "mode": result.mode,
        "num_gates": result.num_gates,
        "instance_area_mm2": result.instance_area_mm2,
        "chip_area_mm2": result.chip_area_mm2,
        "wire_length_mm": result.wire_length_mm,
        "delay_ns": result.delay,
        "equivalent": bool(result.equivalent),
        "mapped_blif": write_mapped_blif(result.mapped),
        "gate_positions": [
            [g.name, g.position.x, g.position.y]
            for g in sorted(result.mapped.gates, key=lambda g: g.name)
            if g.position is not None
        ],
    }
    if result.verify_report is not None:
        counts = result.verify_report.counts()
        payload["verify"] = {
            "level": result.verify_report.level,
            "passed": bool(result.verify_report.passed),
            "checks_run": counts["run"],
            "checks_passed": counts["passed"],
            "failures": [str(c) for c in result.verify_report.failures],
        }
    else:
        payload["verify"] = None
    return payload


def payload_hash(payload: Dict[str, Any]) -> str:
    """Fingerprint of a payload's canonical JSON form.

    Responses carry this next to the body so clients (and the soak tests)
    can assert bit-identity without re-serialising.
    """
    return _sha256(json.dumps(payload, sort_keys=True))
