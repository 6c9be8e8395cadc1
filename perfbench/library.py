"""``headline`` and ``ragged``: one caller, public standard-layout calls.

Both are closed loops: the next call is sent when the previous one
returns.  Each call's wall time is taken around the public
``IATF.gemm`` / ``IATF.trsm`` alone; drawing the next operation and
checking the result happen between calls, outside it.  A timed phase
runs whole passes over the workload's mix (the five headline shapes,
or one stratified ragged block of every shape), so ``call_ms_p50`` is
the median over passes of a pass's mean call time: a change to any
one shape of the mix moves it.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

from . import common, tracing, workloads


def public_call(iatf, op: workloads.Op):
    s = op.shape
    if s.routine == "gemm":
        return iatf.gemm(op.a, op.b, op.c, alpha=s.alpha, beta=s.beta,
                         transa=s.mode[0], transb=s.mode[1])
    side, trans, uplo, diag = s.mode
    return iatf.trsm(op.a, op.b, alpha=s.alpha, side=side, uplo=uplo,
                     transa=trans, diag=diag)


def attempt(iatf, op, tally: common.Tally, obs=None):
    """One checked public call; returns its wall seconds."""
    t0 = time.perf_counter()
    try:
        if obs is None:
            out = public_call(iatf, op)
        else:
            with obs.span("bench.call", op=op.shape.label, batch=op.batch):
                out = public_call(iatf, op)
    except Exception as exc:   # noqa: BLE001 - counted as a failed call
        wall = time.perf_counter() - t0
        tally.raised_error(op, exc)
        return wall
    wall = time.perf_counter() - t0
    tally.check(op, out)
    return wall


class Source:
    """The workload's operation stream and its set-up calls."""

    def __init__(self, workload: str, seed: int) -> None:
        if workload == "headline":
            ops = workloads.headline_ops(seed)
            self.warm = ops
            self.next = lambda i: ops[i % len(ops)]
            self.pass_len = len(ops)
        else:
            self.warm = workloads.ragged_warm_ops(seed)
            self.next = lambda i: workloads.ragged_op(seed, i)
            self.pass_len = len(workloads.RAGGED_SHAPES)


def setup(source: Source, tally: common.Tally):
    """Build an IATF and warm kernels and one plan per shape; returns
    the instance and the seconds it took.  The warm results are checked
    after the clock stops."""
    from repro import IATF

    gc.collect()    # a dropped predecessor is not freed on the clock
    t0 = time.perf_counter()
    iatf = IATF()
    results = []
    for op in source.warm:
        try:
            results.append((op, public_call(iatf, op), None))
        except Exception as exc:   # noqa: BLE001 - counted as failed
            results.append((op, None, exc))
    took = time.perf_counter() - t0
    tally.settle(results)
    return iatf, took


class Phase:
    """What one timed phase measured."""

    def __init__(self) -> None:
        self.walls: "list[float]" = []
        self.done: "list[int]" = []     # correct members per call
        self.gaps: "list[float]" = []
        self.floors: "list[float]" = []
        self.probes: "list[float]" = []     # at pass boundaries
        self.elapsed = 0.0

    @property
    def in_calls(self) -> float:
        return sum(self.walls)

    def mean_ms(self) -> float:
        return self.in_calls / len(self.walls) * 1e3

    def pass_walls(self, pass_len: int, scaled: bool = True) -> np.ndarray:
        """Seconds in calls per pass; when the phase probed the host,
        each scaled by the probes on either side of it (see
        :func:`common.host_scale`)."""
        walls = np.reshape(self.walls, (-1, pass_len)).sum(axis=1)
        if scaled and self.probes:
            walls = walls * [common.host_scale(self.probes[j:j + 2])
                             for j in range(walls.size)]
        return walls

    def pass_p50_ms(self, pass_len: int, scaled: bool = True) -> float:
        """Median over passes of the mean call time in a pass."""
        passes = self.pass_walls(pass_len, scaled) / pass_len
        return float(np.median(passes)) * 1e3

    def round_rates(self, pass_len: int) -> "tuple[float, float]":
        """Correct members and calls per second spent in calls, each the
        median over :data:`common.ROUNDS` runs of consecutive passes."""
        walls = self.pass_walls(pass_len)
        done = np.reshape(self.done, (-1, pass_len)).sum(axis=1)
        k = min(common.ROUNDS, walls.size)
        rounds = [(d.sum() / w.sum(), pass_len * w.size / w.sum())
                  for w, d in zip(np.array_split(walls, k),
                                  np.array_split(done, k))]
        members, calls = np.median(rounds, axis=0)
        return float(members), float(calls)


def timed_phase(iatf, source: Source, seconds: float, tally: common.Tally,
                obs=None, floor: bool = False, more=None,
                probe: bool = False) -> Phase:
    """Call in whole passes until ``seconds`` have passed (at least one
    pass) or ``more()`` turns false.  With ``probe``, probe the host
    before the first pass and after every pass."""
    more = more or (lambda: True)
    phase = Phase()
    with common.frozen_heap():
        t_begin = time.perf_counter()
        stop = t_begin + seconds
        prev_end = None
        if probe:
            phase.probes.append(common.probe())
        i = 0
        while (i == 0 or i % source.pass_len
               or (time.perf_counter() < stop and more())):
            op = source.next(i)
            i += 1
            start = time.perf_counter()
            if prev_end is not None:
                phase.gaps.append(start - prev_end)
            members = tally.correct_members
            phase.walls.append(attempt(iatf, op, tally, obs))
            phase.done.append(tally.correct_members - members)
            prev_end = start + phase.walls[-1]
            if floor:
                phase.floors.append(common.time_floor(op))
                prev_end += phase.floors[-1]    # not the program's think
            if probe and i % source.pass_len == 0:
                phase.probes.append(common.probe())
                prev_end += phase.probes[-1]
        phase.elapsed = time.perf_counter() - t_begin
    return phase


def measure(workload: str, seed: int, seconds: float,
            tally: common.Tally) -> "tuple[dict, dict]":
    """The untraced run: end-to-end metrics and the report details."""
    source = Source(workload, seed)
    setups = []
    unscaled_setups = []

    def timed_setup():
        iatf, scaled, took = common.scaled_setup(setup, source, tally)
        setups.append(scaled)
        unscaled_setups.append(took)
        return iatf

    before = common.SETUP_REPEATS // 2 + 1
    for _ in range(before):
        iatf = None     # drop the previous instance before timing anew
        iatf = timed_setup()
    phase = timed_phase(iatf, source, seconds, tally, probe=True)
    cache = iatf.plan_cache_stats
    for _ in range(common.SETUP_REPEATS - before):
        iatf = None
        iatf = timed_setup()
    calls = common.latency_summary(phase.walls)
    call_ms = phase.pass_p50_ms(source.pass_len)
    members_per_s, calls_per_s = phase.round_rates(source.pass_len)
    metrics = {
        "setup_s": statistics.median(setups),
        "call_ms_p50": call_ms,
        # closed loop: each call is due the moment it is sent
        "req_ms_p50": call_ms,
        "matrices_per_s": members_per_s,
        "serve_rps": calls_per_s,
        "model_gflops": common.model_gflops(workload),
        "peak_rss_mb": common.peak_rss_mb(),
    }
    tails = {"call_ms_p99": common.tail_metric(calls),
             "req_ms_p99": common.tail_metric(calls)}
    details = {"tails": tails, "calls": calls,
               "passes": len(phase.walls) // source.pass_len,
               "setup_s_all": setups,
               "host_scale": common.host_scale(phase.probes),
               "unscaled": {
                   "setup_s": statistics.median(unscaled_setups),
                   "call_ms_p50": phase.pass_p50_ms(source.pass_len,
                                                    scaled=False)},
               "gen_late_ms": 1e3 * statistics.fmean(phase.gaps or [0.0]),
               "plan_cache": cache}
    return metrics, details


def trace(workload: str, seed: int, seconds: float, tally: common.Tally,
          trace_path) -> "tuple[dict, dict]":
    """The traced run: per-layer metrics and the report details."""
    from repro import IATF, CompactBatch, obs

    source = Source(workload, seed)
    iatf, _ = setup(source, tally)
    reference = timed_phase(iatf, source, seconds, tally)
    iatf = None
    with obs.scoped() as reg, tracing.layer_spans(obs, CompactBatch, IATF):
        with obs.span("bench.setup"):
            iatf, _ = setup(source, tally)
        cache0 = iatf.plan_cache_stats
        bytes0 = reg.counter(tracing.LAYOUT_BYTES).value
        phase = timed_phase(iatf, source, seconds, tally, obs, floor=True,
                            more=common.span_budget(reg))
        cache1 = iatf.plan_cache_stats
        moved = reg.counter(tracing.LAYOUT_BYTES).value - bytes0
        spans = list(reg.spans)
    events = tracing.write_trace(obs, reg, trace_path)
    kids = tracing.children_index(spans)
    calls = tracing.split(spans, "bench.call", kids)
    totals = tracing.totals_ms(spans, kids)
    per = calls.per_root_ms
    hits = cache1["hits"] - cache0["hits"]
    misses = cache1["misses"] - cache0["misses"]
    floor_ms = statistics.fmean(phase.floors) * 1e3
    residual = calls.residual_us / 1e3 / max(calls.roots, 1)
    metrics = {
        "layout.interleave_ms": per("layout.interleave"),
        "layout.deinterleave_ms": per("layout.deinterleave"),
        "layout.bytes": moved / len(phase.walls),
        "iatf.prepare_ms": per("iatf.prepare"),
        "plan_cache.hit_ratio": hits / max(hits + misses, 1),
        "plan_cache.misses": misses,
        "plan.build_ms": totals["plan.build"],
        "lower.ms": totals["lower"],
        "megakernel.compile_ms": totals["megakernel.compile"],
        "megakernel.compiles": tracing.count_spans(spans,
                                                   "megakernel.compile"),
        "codegen.generate_ms": totals["codegen.generate"],
        "codegen.kernels": tracing.count_spans(spans, "codegen.generate"),
        "pack.ms": per("pack"),
        "engine.execute_ms": per("engine.execute"),
        "backend.kernels_ms": per("backend.kernels"),
        "floor.ms": floor_ms,
        "floor.ratio": reference.mean_ms() / floor_ms,
        # no admission or coalescing on the library path: every call is
        # admitted and runs as its own full compact batch
        "admission.reject_ratio": 0.0,
        "coalesce.ratio": 1.0,
        "coalesce.occupancy": 1.0,
        # the same six stages, read off one library call
        "budget.admit_ms": residual + per("other"),
        "budget.coalesce_wait_ms": 0.0,
        "budget.stack_ms": per("layout.interleave"),
        "budget.plan_ms": (per("iatf.prepare") + per("plan.build")
                           + per("lower") + per("megakernel.compile")
                           + per("codegen.generate")),
        "budget.execute_ms": (per("engine.execute") + per("pack")
                              + per("backend.kernels")),
        "budget.scatter_ms": per("layout.deinterleave"),
        "pump.busy_ratio": phase.in_calls / phase.elapsed,
        "gen.late_ms": 1e3 * statistics.fmean(phase.gaps or [0.0]),
        "trace.overhead_ratio": phase.mean_ms() / reference.mean_ms(),
        "call.residual_ms": residual,
    }
    details = {
        "traced_calls": calls.roots,
        "untraced_calls": len(reference.walls),
        "conservation_worst_error": calls.worst_error,
        "other_ms_per_call": per("other"),
        "trace_events": events,
        "dropped_spans": reg.dropped_spans,
    }
    return metrics, details
