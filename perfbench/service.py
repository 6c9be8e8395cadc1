"""``serve_mixed``: one BlasService with default knobs, three tenants.

Phase ``paced`` is an open loop at :data:`PACED_RPS`: each request is
due at a fixed time and its latency runs from that time, so a stall
also charges the requests it delayed.  Phase ``saturated`` is a closed
loop that keeps :data:`WINDOW` requests outstanding, below every
admission limit.  A measured run warms the service up, then
alternates the two phases over :data:`common.ROUNDS` rounds on it, each
phase getting half of a round's seconds, and reports latency medians
over all requests of a phase kind and the saturated rate over all its
rounds.  The generator is the caller thread; the service's pump is the
only other.
"""

from __future__ import annotations

import gc
import os
import queue
import statistics
import time
from functools import partial

from . import common, tracing, workloads

#: The paced phase's offered load.  Sends are 1.67 ms apart, under the
#: default coalescer's 2 ms max wait, so the hot kind's requests share
#: a flush by schedule (about 1.2 requests per flush), and the pump
#: keeps up with room to spare even while the host is slow: at 800 the
#: paced latency swung with a queue that came and went.
PACED_RPS = 600

#: Outstanding requests in the saturated phase (admission allows 256
#: per tenant and 4096 in all).
WINDOW = 48

#: Seconds of untimed paced and saturated load after set-up, which
#: fill the plan cache with the flush sizes the phases form.
WARMUP_SECONDS = 2.0

#: Host-speed probes taken, with the service idle, just before and
#: just after each saturated phase (see :func:`common.host_scale`).
PROBES_PER_PHASE = 5

#: Seconds to wait for any one future before counting it failed.
RESULT_TIMEOUT = 60.0


def pin_to_one_cpu() -> None:
    """Keep this process, and the pump thread the service starts later,
    on one CPU.  The caller and the pump take turns on the interpreter
    lock, so they do one CPU's work between them; on a VM, handing the
    lock across CPUs waits for the other virtual CPU to be woken, which
    made the paced latency and saturated rate swing by 20-50% between
    runs of one commit."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def request_for(op: workloads.Op):
    from repro.serve import Request

    s = op.shape
    if s.routine == "gemm":
        return Request.gemm(op.a, op.b, op.c, alpha=s.alpha, beta=s.beta,
                            transa=s.mode[0], transb=s.mode[1],
                            tenant=op.tenant)
    side, trans, uplo, diag = s.mode
    return Request.trsm(op.a, op.b, alpha=s.alpha, side=side, uplo=uplo,
                        transa=trans, diag=diag, tenant=op.tenant)


def _stamp(done: list, i: int, _future) -> None:
    done[i] = time.perf_counter()


class Sender:
    """Submits pool requests and settles their futures."""

    def __init__(self, svc, pool, tally: common.Tally) -> None:
        self.svc = svc
        self.pool = pool
        self.tally = tally
        self.done: "list[float | None]" = []

    def submit(self, i: int):
        """Send pool request ``i``; returns ``(op, future)`` or ``None``
        when it was refused or raised (already counted)."""
        from repro.errors import RejectedError

        op = self.pool[i % len(self.pool)]
        slot = len(self.done)
        self.done.append(None)
        try:
            fut = self.svc.submit(request_for(op))
        except RejectedError:
            self.tally.refused()
            return None
        except Exception as exc:   # noqa: BLE001 - counted as failed
            self.tally.raised_error(op, exc)
            return None
        fut.add_done_callback(partial(_stamp, self.done, slot))
        return op, fut, slot

    def settle(self, op, fut, slot: int) -> bool:
        try:
            out = fut.result(RESULT_TIMEOUT)
        except Exception as exc:   # noqa: BLE001 - counted as failed
            self.tally.raised_error(op, exc)
            return False
        if self.done[slot] is None:
            # result() can return before the pump thread has run the
            # done-callback; the future resolved no later than now
            self.done[slot] = time.perf_counter()
        return self.tally.check(op, out)


def setup(warm, tally: common.Tally):
    """Start a service and push one request per shape through it;
    returns the running service and the seconds it took."""
    from repro.serve import BlasService

    gc.collect()    # a stopped predecessor is not freed on the clock
    t0 = time.perf_counter()
    svc = BlasService().start()
    sender = Sender(svc, warm, tally)
    sent = [sender.submit(i) for i in range(len(warm))]
    outs = []
    for item in sent:
        if item is not None:
            op, fut, _ = item
            try:
                outs.append((op, fut.result(RESULT_TIMEOUT), None))
            except Exception as exc:   # noqa: BLE001 - counted as failed
                outs.append((op, None, exc))
    took = time.perf_counter() - t0
    tally.settle(outs)
    return svc, took


class Paced:
    """What the paced phase measured."""

    def __init__(self) -> None:
        self.latencies: "list[float]" = []
        self.late: "list[float]" = []
        self.start = self.end = 0.0


def paced(svc, pool, seconds: float, tally: common.Tally,
          more=None) -> Paced:
    """Send on schedule for ``seconds`` (at least one request), or until
    ``more()`` turns false; then settle every future."""
    more = more or (lambda: True)
    out = Paced()
    sender = Sender(svc, pool, tally)
    n = max(1, int(PACED_RPS * seconds))
    pending = []
    with common.frozen_heap():
        out.start = time.perf_counter() + 0.005
        for i in range(n):
            if i and not more():
                break
            due = out.start + i / PACED_RPS
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
                now = time.perf_counter()
            out.late.append(now - due)
            item = sender.submit(i)
            if item is not None:
                pending.append((item, due))
        out.end = out.start + len(out.late) / PACED_RPS
    for (op, fut, slot), due in pending:
        if sender.settle(op, fut, slot):
            out.latencies.append(sender.done[slot] - due)
    return out


class Saturated:
    """What the saturated phase measured."""

    def __init__(self) -> None:
        self.latencies: "list[float]" = []
        self.in_time = 0
        self.seconds = 0.0
        self.scale = 1.0    # to the reference host speed

    def mean_ms(self) -> float:
        return common.latency_summary(self.latencies)["mean"]


def saturated(svc, pool, seconds: float, tally: common.Tally,
              first: int, more=None) -> Saturated:
    """Keep :data:`WINDOW` requests outstanding: each completion, in
    whatever order the service resolves them, sends the next one, until
    ``seconds`` have passed or ``more()`` turns false."""
    more = more or (lambda: True)
    out = Saturated()
    sender = Sender(svc, pool, tally)
    completed: queue.SimpleQueue = queue.SimpleQueue()
    outstanding = {}
    finished = []
    next_index = first

    def send() -> None:
        nonlocal next_index
        sent_at = time.perf_counter()
        item = sender.submit(next_index)
        next_index += 1
        if item is not None:
            op, fut, slot = item
            outstanding[slot] = (op, fut, sent_at)
            # runs after the done-stamp callback Sender.submit added
            fut.add_done_callback(lambda _f, slot=slot: completed.put(slot))

    with common.frozen_heap():
        stop = time.perf_counter() + seconds
        for j in range(WINDOW):
            if j and not more():
                break
            send()
        while outstanding:
            try:
                slot = completed.get(timeout=RESULT_TIMEOUT)
            except queue.Empty:
                break       # counted as failed below
            finished.append((slot, *outstanding.pop(slot)))
            if time.perf_counter() < stop and more():
                send()
        for op, _, _ in outstanding.values():
            tally.raised_error(op, TimeoutError(
                f"no result within {RESULT_TIMEOUT} s"))
    # results are checked once the window has drained, so the oracle
    # never holds the caller thread while the window should refill
    for slot, op, fut, sent_at in finished:
        if sender.settle(op, fut, slot):
            done = sender.done[slot]
            out.latencies.append(done - sent_at)
            if done <= stop:
                out.in_time += 1
    out.seconds = seconds
    return out


def measure(seed: int, seconds: float, tally: common.Tally):
    warm = workloads.serve_warm_ops(seed)
    pool = workloads.serve_pool(seed)
    setups = []
    unscaled_setups = []

    def timed_setup():
        svc, scaled, took = common.scaled_setup(setup, warm, tally)
        setups.append(scaled)
        unscaled_setups.append(took)
        return svc

    before = common.SETUP_REPEATS // 2 + 1
    for _ in range(before - 1):
        timed_setup().stop()
    svc = timed_setup()
    rounds = []
    try:
        warm_up = paced(svc, pool, WARMUP_SECONDS / 2, tally)
        saturated(svc, pool, WARMUP_SECONDS / 2, tally, len(warm_up.late))
        for _ in range(common.ROUNDS):
            before_paced = svc.stats()["coalesce"]
            p = paced(svc, pool, seconds / 2 / common.ROUNDS, tally)
            after_paced = svc.stats()["coalesce"]
            samples = [common.probe() for _ in range(PROBES_PER_PHASE)]
            s = saturated(svc, pool, seconds / 2 / common.ROUNDS, tally,
                          len(p.late))
            samples += [common.probe() for _ in range(PROBES_PER_PHASE)]
            s.scale = common.host_scale(samples)
            rounds.append((p, s, _coalesce_ratio(before_paced, after_paced)))
        stats = svc.stats()
    finally:
        svc.stop()
    for _ in range(common.SETUP_REPEATS - before):
        timed_setup().stop()
    req = common.latency_summary([x for p, _, _ in rounds
                                  for x in p.latencies])
    call = common.latency_summary([x for _, s, _ in rounds
                                   for x in s.latencies])
    scaled_call = common.latency_summary([x * s.scale for _, s, _ in rounds
                                          for x in s.latencies])
    completed = sum(s.in_time for _, s, _ in rounds)
    rps = completed / sum(s.seconds * s.scale for _, s, _ in rounds)
    metrics = {
        "setup_s": statistics.median(setups),
        "call_ms_p50": scaled_call["p50"],
        "req_ms_p50": req["p50"],
        # every request is one matrix
        "matrices_per_s": rps,
        "serve_rps": rps,
        "model_gflops": common.model_gflops("serve_mixed"),
        "peak_rss_mb": common.peak_rss_mb(),
    }
    details = {
        "tails": {"call_ms_p99": common.tail_metric(call),
                  "req_ms_p99": common.tail_metric(req)},
        "paced_rps": PACED_RPS, "window": WINDOW,
        "rounds": [{"req_ms_p50": common.latency_summary(p.latencies)["p50"],
                    "call_ms_p50": common.latency_summary(s.latencies)["p50"],
                    "serve_rps": s.in_time / s.seconds,
                    "host_scale": s.scale, "paced_coalesce_ratio": ratio}
                   for p, s, ratio in rounds],
        "paced": req, "saturated": call, "setup_s_all": setups,
        "host_scale": statistics.median(s.scale for _, s, _ in rounds),
        "unscaled": {"setup_s": statistics.median(unscaled_setups),
                     "call_ms_p50": call["p50"],
                     "serve_rps": completed / sum(s.seconds
                                                  for _, s, _ in rounds)},
        "gen_late_ms": statistics.fmean(
            [x for p, _, _ in rounds for x in p.late]) * 1e3,
        "paced_coalesce_ratio": statistics.median(r for _, _, r in rounds),
        "coalesce": stats["coalesce"], "admission": stats["admission"],
        "plan_cache": stats["plan_cache"],
    }
    return metrics, details


def _coalesce_ratio(before: dict, after: dict) -> float:
    """Requests per flush between two ``stats()["coalesce"]`` readings."""
    flushes = max(after["flushes"] - before["flushes"], 1)
    return (after["coalesced_requests"]
            - before["coalesced_requests"]) / flushes


def _ledger(stats) -> "tuple[int, float, dict, int]":
    """(requests, total ms, stage ms, violations) over every tenant."""
    ledger = stats["budget"]["by_tenant"]
    count, total, stages = 0, 0.0, dict.fromkeys(stats["budget"]["stages"],
                                                 0.0)
    for group in ledger["groups"].values():
        count += group["count"]
        total += group["total_ms"]
        for stage, ms in group["stages_ms"].items():
            stages[stage] += ms
    return count, total, stages, ledger["violations"]


def trace(seed: int, seconds: float, tally: common.Tally, trace_path):
    from repro import IATF, CompactBatch, obs

    warm = workloads.serve_warm_ops(seed)
    pool = workloads.serve_pool(seed)
    svc, _ = setup(warm, tally)
    try:
        reference_paced = paced(svc, pool, seconds / 2, tally)
        reference = saturated(svc, pool, seconds / 2, tally,
                              len(reference_paced.late))
    finally:
        svc.stop()
    with obs.scoped() as reg, tracing.layer_spans(obs, CompactBatch, IATF):
        with obs.span("bench.setup"):
            svc, _ = setup(warm, tally)
        try:
            stats0 = svc.stats()
            bytes0 = reg.counter(tracing.LAYOUT_BYTES).value
            after_us = time.perf_counter() * 1e6
            more = common.span_budget(reg)
            p = paced(svc, pool, seconds / 2, tally, more)
            paced_coalesce = svc.stats()["coalesce"]
            s = saturated(svc, pool, seconds / 2, tally, len(p.late), more)
            stats1 = svc.stats()
            moved = reg.counter(tracing.LAYOUT_BYTES).value - bytes0
        finally:
            svc.stop()
        spans = list(reg.spans)
    events = tracing.write_trace(obs, reg, trace_path)
    kids = tracing.children_index(spans)
    timed = [sp for sp in spans if sp.start_us >= after_us]
    flushes = tracing.split(timed, "serve.flush", kids)
    totals = tracing.totals_ms(spans, kids)
    flushed = sum(sp.args.get("requests", 0) for sp in timed
                  if sp.name == "serve.flush")
    lo, hi = p.start * 1e6, p.end * 1e6
    paced_busy = sum(sp.dur_us for sp in timed
                     if sp.name == "serve.flush" and lo <= sp.start_us < hi)

    def per(layer: str) -> float:
        return flushes.layers.get(layer, 0.0) / 1e3 / max(flushed, 1)

    n0, total0, stages0, bad0 = _ledger(stats0)
    n1, total1, stages1, bad1 = _ledger(stats1)
    served = max(n1 - n0, 1)
    stage_ms = {k: (stages1[k] - stages0[k]) / served for k in stages1}
    budget_error = (abs(sum(stage_ms.values()) - (total1 - total0) / served)
                    / max((total1 - total0) / served, 1e-12))
    adm0, adm1 = stats0["admission"], stats1["admission"]
    rejected = adm1["rejected"] - adm0["rejected"]
    offered = rejected + adm1["admitted"] - adm0["admitted"]
    co0, co1 = stats0["coalesce"], stats1["coalesce"]
    ratio = _coalesce_ratio(co0, co1)
    pc0, pc1 = stats0["plan_cache"], stats1["plan_cache"]
    hits, misses = pc1["hits"] - pc0["hits"], pc1["misses"] - pc0["misses"]
    floors = [common.time_floor(op) for op in pool]
    floor_ms = statistics.fmean(floors) * 1e3
    ref_req = common.latency_summary(reference_paced.latencies)["mean"]
    metrics = {
        "layout.interleave_ms": per("layout.interleave"),
        "layout.deinterleave_ms": per("layout.deinterleave"),
        "layout.bytes": moved / max(flushed, 1),
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
        "floor.ratio": ref_req / floor_ms,
        "admission.reject_ratio": rejected / max(offered, 1),
        "coalesce.ratio": ratio,
        "coalesce.occupancy": ratio / co1["max_batch"],
        "budget.admit_ms": stage_ms["admit"],
        "budget.coalesce_wait_ms": stage_ms["coalesce_wait"],
        "budget.stack_ms": stage_ms["stack"],
        "budget.plan_ms": stage_ms["plan"],
        "budget.execute_ms": stage_ms["execute"],
        "budget.scatter_ms": stage_ms["scatter"],
        "pump.busy_ratio": paced_busy / (hi - lo),
        "gen.late_ms": statistics.fmean(p.late) * 1e3,
        "trace.overhead_ratio": s.mean_ms() / (reference.mean_ms() or 1.0),
        "call.residual_ms": flushes.residual_us / 1e3 / max(flushed, 1),
    }
    details = {
        "flushes": flushes.roots, "flushed_requests": flushed,
        "paced_coalesce_ratio": _coalesce_ratio(co0, paced_coalesce),
        "conservation_worst_error": max(flushes.worst_error, budget_error),
        "budget_violations": bad1 - bad0,
        "other_ms_per_request": per("other"),
        "trace_events": events,
        "dropped_spans": reg.dropped_spans,
    }
    return metrics, details
