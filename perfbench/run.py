"""Benchmark entry point.

    python3 perfbench/run.py --workload headline --seed 1 --seconds 10 \
        --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` there, never from an installed copy.  Standard output carries
one ``report`` JSON line (environment stamp, the unbounded figures —
p99 tails and ``failed_ratio`` — with their units, sample counts,
failure breakdown) and, last, the result line::

    {"correct": true, "attempted": 412, "failed": 0, "metrics": {...}}

``--trace 0`` reports every ``end_to_end`` metric of BENCHMARK.json,
``--trace 1`` every ``per_layer`` one, each with its unit from there.
The exit code is 0 when every operation was right (and, traced, every
per-layer split conserved time and the Chrome trace validated), 1 when
not, and 2 when the checkout or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One process with one caller thread (plus the service's pump): keep
# BLAS from adding worker threads.  Must precede the first numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = Path(__file__).resolve().parent / "out"


def _load_program() -> "str | None":
    """Put the checkout's ``src`` first on the path and import the
    program from it; returns an error message when that fails."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return f"no program source at {src / 'repro'}"
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        return f"imported repro from {repro.__file__}, not from {src}"
    return None


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    error = _load_program()
    if error is not None:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from perfbench import common, library, service, tracing, workloads

    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in catalogue["workloads"]])
    if args.workload == "serve_mixed":
        service.pin_to_one_cpu()
    from repro import IATF

    env = common.environment(IATF().backend.name)
    tally = common.Tally()
    if args.trace:
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"{args.workload}.seed{args.seed}.trace.json"
        seconds = min(args.seconds, common.TRACED_SECONDS_MAX)
        if args.workload == "serve_mixed":
            values, details = service.trace(args.seed, seconds, tally, path)
        else:
            values, details = library.trace(args.workload, args.seed,
                                            seconds, tally, path)
        details["trace_file"] = str(path.relative_to(ROOT))
        wanted = catalogue["per_layer"]
        conserved = (details["conservation_worst_error"]
                     <= tracing.CONSERVATION_TOLERANCE
                     and details["dropped_spans"] == 0
                     and details.get("budget_violations", 0) == 0)
    else:
        if args.workload == "serve_mixed":
            values, details = service.measure(args.seed, args.seconds, tally)
        else:
            values, details = library.measure(args.workload, args.seed,
                                              args.seconds, tally)
        wanted = catalogue["end_to_end"]
        conserved = True
    names = [m["name"] for m in wanted]
    if sorted(values) != sorted(names):
        print(f"perfbench: metric set mismatch: emitted {sorted(values)}, "
              f"BENCHMARK.json lists {sorted(names)}", file=sys.stderr)
        return 2
    correct = tally.failed == 0 and conserved
    failures = tally.summary()
    unbounded = details.pop("tails", {})
    unbounded["failed_ratio"] = {"value": failures["failed_ratio"],
                                 "unit": "ratio"}
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "held_out_seed": workloads.HELD_OUT_SEED,
              "unbounded": unbounded, "failures": failures,
              "conserved": conserved, "env": common.finish_env(env),
              "details": details}
    print(json.dumps({"report": report}, default=float))
    result = {"correct": correct, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {m["name"]: {"value": float(values[m["name"]]),
                                      "unit": m["unit"]} for m in wanted}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
