"""Fingerprint check: one flow, two interpreters, same bits.

Runs one flow on one circuit in this process, then the same job spec
again in a fresh interpreter with the same environment, and asserts the
two deterministic job payloads (``repro.serve.jobs.build_payload``:
mapped BLIF, gate positions, areas, delay) hash identically.  A result
that depends on something a new process changes — object addresses, hash
seeds, set or dict iteration order — fails here.  A generated
``synth:SEED:GATES`` circuit makes this gate cover the Rent's-rule
workloads too, and ``--mapper`` the MIS flow's covering backends (the
cut backend keeps per-run state whose order must not leak into the
cover).  Both runs inherit the same environment, BLAS thread settings
included.

Run from the repo root::

    PYTHONPATH=src python tools/flow_fingerprint.py synth:5:600
    PYTHONPATH=src python tools/flow_fingerprint.py misex1 --flow mis
    PYTHONPATH=src python tools/flow_fingerprint.py synth:5:600 --mode timing
    PYTHONPATH=src python tools/flow_fingerprint.py synth:5:600 --flow mis \
        --mapper cuts

Exits 1 when the two hashes differ.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

#: Child-process body: import this module by path and print one digest.
_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import flow_fingerprint; "
    "print(flow_fingerprint.payload_digest(*sys.argv[2:]))"
)


def payload_digest(circuit: str, flow: str, mode: str,
                   mapper: str = "tree") -> str:
    """SHA-256 of the job payload of one flow run in this process."""
    from repro.circuits.suite import build_circuit
    from repro.library.standard import big_library
    from repro.serve.jobs import JobSpec, build_payload, payload_hash, run_flow

    spec = JobSpec.from_dict({"circuit": circuit, "flow": flow,
                              "mode": mode, "mapper": mapper})
    result = run_flow(spec, build_circuit(circuit), big_library())
    return payload_hash(build_payload(spec, result))


def _fresh_process_digest(circuit: str, flow: str, mode: str,
                          mapper: str) -> str:
    """The same digest, computed by a new interpreter."""
    here = os.path.dirname(os.path.abspath(__file__))
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, here, circuit, flow, mode, mapper],
        env=dict(os.environ), check=True, stdout=subprocess.PIPE,
        universal_newlines=True)
    return out.stdout.strip().splitlines()[-1]


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="flow_fingerprint")
    parser.add_argument("circuit", nargs="?", default="synth:5:600",
                        help="suite circuit or synth:SEED:GATES "
                             "(default synth:5:600)")
    parser.add_argument("--flow", choices=["lily", "mis"], default="lily")
    parser.add_argument("--mode", choices=["area", "timing"],
                        default="area")
    parser.add_argument("--mapper", default="tree",
                        help="covering backend: tree, cuts, fusion or "
                             "lut:K (non-tree needs --flow mis)")
    args = parser.parse_args(argv[1:])

    job = (args.circuit, args.flow, args.mode, args.mapper)
    from repro.serve.jobs import JobError, JobSpec
    try:  # the serve spec's own checks, before any flow runs
        JobSpec.from_dict({"circuit": args.circuit, "flow": args.flow,
                           "mode": args.mode, "mapper": args.mapper})
    except JobError as exc:
        parser.error(str(exc))
    hashes = {
        "this-process": payload_digest(*job),
        "fresh-process": _fresh_process_digest(*job),
    }
    label = f"{args.circuit} ({args.flow}, {args.mode}, {args.mapper})"
    for where, digest in hashes.items():
        print(f"  {where:<14} {digest[:16]}")
    if len(set(hashes.values())) != 1:
        print(f"flow fingerprint FAILED: {label} hashed differently in a "
              f"fresh process: {hashes}")
        return 1
    print(f"flow fingerprint ok: {label} identical across processes "
          f"({hashes['this-process'][:16]})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
