"""Self-test of the benchmark (not part of the program's test suite).

    python3 -m pytest perfbench/test_perfbench.py

Short smoke runs of every workload must emit exactly the metrics
BENCHMARK.json names, with its units; traced runs must conserve time
per call and write a valid Chrome trace; an injected wrong result must
show up as a failed operation and a non-zero exit; and a checkout
without the program must fail without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import run, tracing, workloads

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in CATALOGUE["workloads"]]


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600)


def _lines(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def _units(kind):
    return {m["name"]: m["unit"] for m in CATALOGUE[kind]}


@pytest.mark.parametrize("workload", NAMES)
def test_smoke_run_emits_every_end_to_end_metric(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    report, result = _lines(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _units("end_to_end")
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name
    env = report["env"]
    for key in ("nproc", "python", "numpy", "backend", "loadavg_1m_start",
                "loadavg_1m_end", "host_floor_ms_start"):
        assert key in env
    unbounded = {k: v["unit"] for k, v in report["unbounded"].items()}
    assert unbounded == {"call_ms_p99": "ms", "req_ms_p99": "ms",
                         "failed_ratio": "ratio"}


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_conserves_time_and_writes_a_valid_trace(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    report, result = _lines(proc)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _units("per_layer")
    assert report["conserved"] is True
    assert (report["details"]["conservation_worst_error"]
            <= tracing.CONSERVATION_TOLERANCE)
    run._load_program()
    from repro import obs

    trace = json.loads((ROOT / report["details"]["trace_file"]).read_text())
    obs.validate_chrome_trace(trace)


@pytest.mark.parametrize("workload", ["headline", "serve_mixed"])
def test_traced_phase_stops_on_the_span_budget(workload, monkeypatch,
                                               capsys):
    # a recording limit that set-up alone fills, as a much faster
    # program would fill the real one: the traced phase must stop
    # sending after its first pass (request), drop nothing and pass
    run._load_program()
    from repro.obs.core import Registry

    from perfbench import common

    monkeypatch.setattr(Registry, "MAX_SPANS", common.SPAN_HEADROOM + 1)
    code = run.main(["--workload", workload, "--seed", "3",
                     "--seconds", "2", "--trace", "1"])
    lines = capsys.readouterr().out.strip().splitlines()
    details = json.loads(lines[-2])["report"]["details"]
    assert code == 0
    assert details["dropped_spans"] == 0
    if workload == "headline":
        assert details["traced_calls"] == len(workloads.HEADLINE_MIX)
    else:
        # one paced request, one saturated
        assert details["flushed_requests"] == 2


@pytest.mark.parametrize("workload", ["headline", "serve_mixed"])
def test_injected_wrong_result_fails_the_run(workload, monkeypatch, capsys):
    run._load_program()
    from repro import CompactBatch

    honest = CompactBatch.to_matrices

    def corrupted(self):
        return honest(self) + 1

    monkeypatch.setattr(CompactBatch, "to_matrices", corrupted)
    code = run.main(["--workload", workload, "--seed", "3",
                     "--seconds", "0.5", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_checkout_without_program_fails_without_a_result():
    bare = ROOT / "perfbench" / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _bench("--workload", NAMES[0], "--seed", "1", "--seconds",
                      "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_generators_are_pure_functions_of_workload_and_seed():
    a, b = workloads.ragged_op(5, 7), workloads.ragged_op(5, 7)
    assert a.shape == b.shape and a.batch == b.batch
    assert np.array_equal(a.a, b.a) and np.array_equal(a.b, b.b)
    draws = {workloads.ragged_draw(s, 0) for s in range(20)}
    assert len(draws) > 1
    pools = [workloads.serve_pool(9)[:4], workloads.serve_pool(9)[:4]]
    for x, y in zip(*pools):
        assert x.shape == y.shape and x.tenant == y.tenant
        assert np.array_equal(x.a, y.a)


def test_oracle_flags_a_wrong_member():
    op = workloads.make_op(workloads.HEADLINE_MIX[3], 8,
                           workloads.rng_for("headline", 1, 3))
    good = op.expected.astype(np.float32)
    assert workloads.wrong_members(op, good) == 0
    bad = good.copy()
    bad[5, 2, 1] += 1e-2
    assert workloads.wrong_members(op, bad) == 1
    bad[6, 0, 0] = np.nan
    assert workloads.wrong_members(op, bad) == 2


def test_split_detects_a_child_outside_its_parent():
    run._load_program()
    from repro.obs import SpanRecord

    def rec(name, start, dur, sid, parent=None):
        return SpanRecord(name=name, start_us=start, dur_us=dur, tid=1,
                          depth=0, span_id=sid, parent_id=parent)

    nested = [rec("bench.call", 0, 100, "r"),
              rec("layout.interleave", 10, 20, "a", "r"),
              rec("engine.execute_gemm", 40, 50, "b", "r"),
              rec("engine.kernels", 45, 30, "c", "b")]
    ok = tracing.split(nested, "bench.call")
    assert ok.worst_error < 1e-12
    assert ok.layers["backend.kernels"] == 30
    assert ok.layers["engine.execute"] == 20
    assert ok.residual_us == 30
    stray = nested + [rec("pack.A", 95, 20, "d", "r")]
    assert tracing.split(stray, "bench.call").worst_error > 0.1


def test_call_p50_moves_when_any_one_shape_of_the_mix_speeds_up():
    from perfbench import library

    def phase(walls_ms, passes=9):
        out = library.Phase()
        out.walls = [w / 1e3 for w in walls_ms] * passes
        out.done = [16] * len(out.walls)
        return out

    mix = [40.0, 30.0, 20.0, 10.0, 5.0]
    base = phase(mix).pass_p50_ms(len(mix))
    for k in range(len(mix)):
        faster = list(mix)
        faster[k] /= 2
        assert phase(faster).pass_p50_ms(len(mix)) < base
    members, calls = phase(mix).round_rates(len(mix))
    assert calls == pytest.approx(len(mix) / (sum(mix) / 1e3))
    assert members == pytest.approx(16 * calls)


def test_host_scaling_cancels_a_uniformly_slower_host():
    from perfbench import common, library

    def phase(factor, passes=9):
        out = library.Phase()
        out.walls = [factor * w / 1e3 for w in (40.0, 30.0, 20.0)] * passes
        out.done = [16] * len(out.walls)
        out.probes = [factor * common.PROBE_REF_MS / 1e3] * (passes + 1)
        return out

    reference, slow = phase(1.0), phase(1.7)
    assert reference.pass_p50_ms(3) == pytest.approx(30.0)
    assert slow.pass_p50_ms(3) == pytest.approx(30.0)
    assert slow.pass_p50_ms(3, scaled=False) == pytest.approx(51.0)
    assert slow.round_rates(3) == pytest.approx(reference.round_rates(3))
    # a slower program still reads slower at the same host speed
    slower = phase(1.0)
    slower.walls = [2 * w for w in slower.walls]
    assert slower.pass_p50_ms(3) == pytest.approx(60.0)
