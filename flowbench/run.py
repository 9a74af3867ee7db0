"""End-to-end flow benchmark: ``repro.flow.pipeline`` on three workloads.

Usage, from the repository root::

    python3 flowbench/run.py --workload suite_area --seed 1 --seconds 33 --trace 0

``--trace 0`` prints the end-to-end metrics (flow time, set-up time, peak
memory, QoR, share of flows that passed); ``--trace 1`` runs traced passes
too and prints the per-layer metrics, and writes the spans to
``flowbench/out/``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the host, the versions and the circuits.  The exit code is 0 only
when every flow was correct.  ``--tiny`` swaps in small inputs for smoke
tests.  Workloads and metrics are listed in ``BENCHMARK.json``.

``run.py --time-imports`` only imports the program and prints how long
that took; set-up runs it in fresh interpreters, one at a time.
"""

from __future__ import annotations

import os
import time

_START = time.perf_counter()

# One thread per BLAS / OpenMP pool, before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SRC = os.path.join(ROOT, "src")
_TIME_IMPORTS = "--time-imports"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("suite_area", "synth_timing", "synth_cuts"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, one set-up (smoke tests)")
    parser.add_argument("--spans", default=None,
                        help="span file of a traced run (default: "
                             "flowbench/out/spans-WORKLOAD-sSEED.jsonl.gz)")
    return parser.parse_args(argv)


def _import_program():
    """The harness module (it imports numpy, scipy and the program), or
    None when the program's sources are missing."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        return None
    sys.path.insert(0, SRC)
    import harness
    return harness


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    harness = _import_program()
    import_s = time.perf_counter() - _START
    if harness is None:
        print(f"flowbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    if argv == [_TIME_IMPORTS]:
        print(import_s)
        return 0
    args = _parse(argv)
    from spans import write_spans

    result = harness.run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), import_s, tiny=args.tiny)
    if args.trace:
        path = args.spans or os.path.join(
            OUT_DIR, f"spans-{args.workload}-s{args.seed}.jsonl.gz")
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        write_spans(path, result.spans, result.info)
        result.info["spans_file"] = os.path.relpath(path, ROOT)
    print("flowbench-info " + json.dumps(result.info, sort_keys=True))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
