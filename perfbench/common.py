"""Helpers shared by the library and service workloads."""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager

import numpy as np
import scipy

from . import workloads

#: set-ups per measured run, half before and half after the timed
#: phase so they sample the host over the whole run; ``setup_s`` is
#: their median
SETUP_REPEATS = 9

#: consecutive rounds a measured run's timed phase is cut into; the
#: throughput figures (and the service's latency medians) are the
#: median over rounds, so a host stall of a few seconds moves one
#: round, not the figure
ROUNDS = 5

#: cap on each timed phase of a traced run, which keeps the run short:
#: it also repeats the phase untraced as the overhead reference
TRACED_SECONDS_MAX = 6.0

#: spans kept free below the program's recording limit when a traced
#: phase stops sending: enough for the calls or requests still in
#: flight (a ragged pass, a saturated window) to finish recording
SPAN_HEADROOM = 5_000

#: candidate percentiles for the ``_p99`` slot, highest first
_TAILS = (99.0, 98.0, 97.5, 95.0, 90.0, 75.0, 50.0)


@contextmanager
def frozen_heap():
    """Collect, then freeze every live object (imported modules, the
    benchmark's inputs, the warm set-up) out of the cyclic collector for
    the block, so collector pauses inside a timed phase scan only what
    the program allocates during it, not the benchmark's own heap."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def tail(samples) -> "tuple[float, float]":
    """``(percentile, value)`` for the ``_p99`` slot: p99 when at least
    ten samples lie beyond it, else the highest candidate percentile
    that has ten beyond (the median when there are too few)."""
    n = len(samples)
    for q in _TAILS:
        if n * (100.0 - q) / 100.0 >= 10:
            return q, float(np.percentile(samples, q))
    return 50.0, float(np.percentile(samples, 50.0))


def latency_summary(seconds) -> dict:
    """Median, mean and tail (see :func:`tail`) of a list of durations,
    in ms."""
    ms = np.asarray(seconds, dtype=float) * 1e3
    if ms.size == 0:    # every operation failed; the run reports that
        return {"p50": 0.0, "tail": 0.0, "tail_percentile": 0.0,
                "samples": 0, "mean": 0.0}
    q, value = tail(ms)
    return {"p50": float(np.median(ms)), "tail": value,
            "tail_percentile": q, "samples": int(ms.size),
            "mean": float(ms.mean())}


def tail_metric(summary: dict) -> dict:
    """A ``_p99`` figure for the report line, which carries the tails:
    value and unit plus the percentile and samples behind it."""
    return {"value": summary["tail"], "unit": "ms",
            "percentile": summary["tail_percentile"],
            "samples": summary["samples"]}


def span_budget(registry):
    """A predicate that stays true while ``registry`` has room for more
    spans: a traced phase stops sending once it turns false, so a faster
    program or host never pushes the recording past its limit."""
    limit = registry.MAX_SPANS - SPAN_HEADROOM
    return lambda: len(registry.spans) < limit


def peak_rss_mb() -> float:
    # ru_maxrss is in kilobytes on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def problem_for(shape: workloads.Shape, batch: int):
    """The program's problem descriptor for ``batch`` calls of ``shape``."""
    from repro.types import GemmProblem, TrsmProblem

    if shape.routine == "gemm":
        return GemmProblem(shape.m, shape.n, shape.k, shape.dtype,
                           shape.mode[0], shape.mode[1], batch,
                           shape.alpha, shape.beta)
    side, trans, uplo, diag = shape.mode
    return TrsmProblem(shape.m, shape.n, shape.dtype, side, uplo, trans,
                       diag, batch, shape.alpha)


def model_gflops(workload: str) -> float:
    """Flop-weighted cycle-model GFLOPS (Kunpeng 920) of the workload's
    shape mix: total flops over total modeled seconds.  Uses its own
    IATF so the measured instance's plan cache is untouched."""
    from repro import IATF

    iatf = IATF()
    flops = seconds = 0.0
    for shape, batch in workloads.model_problems(workload):
        problem = problem_for(shape, batch)
        timing = (iatf.time_gemm(problem) if shape.routine == "gemm"
                  else iatf.time_trsm(problem))
        flops += problem.flops
        seconds += timing.seconds
    return flops / seconds / 1e9


def floor_call(op: workloads.Op):
    """The host floor for one operation: ``np.matmul`` on the same
    inputs in the same dtype.  For TRSM that is the product of the
    triangular factor with B in the solve's orientation, which reads
    and writes the same data; scipy's batched triangular solve is
    slower than the program itself here, so it cannot be a floor."""
    s = op.shape
    if s.routine == "gemm":
        a = op.a if s.mode[0] == "N" else np.swapaxes(op.a, -1, -2)
        b = op.b if s.mode[1] == "N" else np.swapaxes(op.b, -1, -2)
        return s.alpha * np.matmul(a, b) + s.beta * op.c
    a = op.a if s.mode[1] == "N" else np.swapaxes(op.a, -1, -2)
    if s.mode[0] == "L":
        return s.alpha * np.matmul(a, op.b)
    return s.alpha * np.matmul(op.b, a)


def time_floor(op: workloads.Op) -> float:
    t0 = time.perf_counter()
    floor_call(op)
    return time.perf_counter() - t0


def host_floor_ms(repeats: int = 5) -> float:
    """Median ``np.matmul`` time of the headline sgemm 8^3 batch: a
    host-noise reference taken at the start and end of every run."""
    op = workloads.make_op(workloads.HEADLINE_MIX[0],
                           workloads.HEADLINE_BATCH,
                           workloads.rng_for("headline", 0, 0))
    times = [time_floor(op) for _ in range(repeats)]
    return statistics.median(times) * 1e3


# The shared host's speed drifts by tens of percent over seconds to
# minutes, for CPU time as much as for wall time.  A measured run
# therefore takes a fixed probe next to what it times and reports each
# timing at the reference host speed: multiplied by PROBE_REF_MS over
# the probe's time there (a rate is divided by that factor).  The probe
# runs no program code, so a program change moves the scaled figures
# fully; the unscaled ones are in the report line.

#: The probe's time in ms at the reference host speed (about its median
#: on the shared 2-core VM the bounds were set on).
PROBE_REF_MS = 5.5

#: probes taken just before and just after each set-up
PROBES_PER_SETUP = 3

_PROBE_OPERANDS = []


def _probe_interpreter(n: int = 4_000) -> int:
    """Pure-Python work of the kind planning and lowering do: loops,
    dict access, small tuples."""
    seen = {}
    total = 0
    for i in range(n):
        key = (i & 63, i % 7)
        seen[key] = seen.get(key, 0) + 1
        total += len(key) + (i * i) % 13
    return total + len(seen)


def probe() -> float:
    """Seconds one fixed unit of work takes: an interpreter loop plus
    two batched ``np.matmul`` over operands the size of the headline
    sgemm's, the two kinds of work the public calls do."""
    if not _PROBE_OPERANDS:
        rng = np.random.default_rng(0)
        _PROBE_OPERANDS.extend(
            rng.uniform(-1, 1, (workloads.HEADLINE_BATCH, 8, 8))
            .astype(np.float32) for _ in range(3))
    a, b, out = _PROBE_OPERANDS
    t0 = time.perf_counter()
    _probe_interpreter()
    np.matmul(a, b, out=out)
    np.matmul(b, a, out=out)
    return time.perf_counter() - t0


def host_scale(samples) -> float:
    """Time scale to the reference host speed from probe ``samples``."""
    return PROBE_REF_MS / (statistics.median(samples) * 1e3)


def scaled_setup(setup, *args):
    """Run ``setup(*args)``, which returns ``(thing, seconds)``, between
    two sets of probes; returns ``(thing, scaled seconds, seconds)``."""
    samples = [probe() for _ in range(PROBES_PER_SETUP)]
    thing, took = setup(*args)
    samples += [probe() for _ in range(PROBES_PER_SETUP)]
    return thing, took * host_scale(samples), took


def environment(backend: str) -> dict:
    """The run's environment stamp (start half; see :func:`finish_env`)."""
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "backend": backend,
        "loadavg_1m_start": os.getloadavg()[0],
        "host_floor_ms_start": host_floor_ms(),
    }


def finish_env(env: dict) -> dict:
    env["loadavg_1m_end"] = os.getloadavg()[0]
    env["host_floor_ms_end"] = host_floor_ms()
    return env


class Tally:
    """Attempted and failed operations (raised, rejected or wrong)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.raised = 0
        self.rejected = 0
        self.wrong = 0
        self.correct_members = 0
        self._reported = False

    @property
    def failed(self) -> int:
        return self.raised + self.rejected + self.wrong

    def check(self, op: workloads.Op, out) -> bool:
        """Count one completed operation; True when its result is right."""
        self.attempted += 1
        bad = workloads.wrong_members(op, out)
        if bad:
            self.wrong += 1
            return False
        self.correct_members += max(op.batch, 1)
        return True

    def settle(self, results) -> None:
        """Count ``(op, output, exception)`` triples gathered while a
        clock ran."""
        for op, out, exc in results:
            if exc is None:
                self.check(op, out)
            else:
                self.raised_error(op, exc)

    def raised_error(self, op: workloads.Op, exc: BaseException) -> None:
        self.attempted += 1
        self.raised += 1
        self._report(op, exc)

    def refused(self) -> None:
        self.attempted += 1
        self.rejected += 1

    def _report(self, op, exc) -> None:
        if not self._reported:
            self._reported = True
            print(f"perfbench: {op.shape.label} batch {op.batch} raised:",
                  file=sys.stderr)
            traceback.print_exception(exc, file=sys.stderr)

    def summary(self) -> dict:
        return {"attempted": self.attempted, "raised": self.raised,
                "rejected": self.rejected, "wrong": self.wrong,
                "failed_ratio": self.failed / max(self.attempted, 1)}
