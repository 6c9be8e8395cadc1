"""Batch-free plan-cache keys: one cached plan per shape, bound per call.

A plan cached at one batch and re-bound with ``ExecutionPlan.for_batch``
must be indistinguishable from a plan built fresh at the new batch — in
the cycle model and in the bits the public calls return — and a second
pass over ragged traffic must plan, lower and compile nothing.
"""

import itertools

import numpy as np
import pytest

from repro import IATF, KUNPENG_920, obs
from repro.runtime.plan import build_gemm_plan, build_trsm_plan
from repro.types import GemmProblem, TrsmProblem

WARM_BATCH = 3

GEMM_CASES = [
    GemmProblem(m, n, k, dt, ta, tb, alpha=alpha, beta=beta)
    for (m, n, k, alpha, beta), dt, (ta, tb) in itertools.product(
        [(3, 5, 2, 1.0, 1.0), (9, 7, 6, 1.5, 0.0)],
        "sdcz",
        [("N", "N"), ("N", "T"), ("T", "N"), ("T", "T")])
]

TRSM_CASES = [
    TrsmProblem(m, n, dt, side, uplo, trans, diag, alpha=alpha)
    for m, n, dt, side, uplo, trans, diag, alpha in [
        (4, 3, "s", "L", "L", "N", "N", 1.0),
        (5, 5, "d", "L", "U", "T", "U", 2.0),
        (3, 6, "c", "R", "L", "N", "N", 1.0),
        (6, 4, "z", "R", "U", "T", "U", 0.5),
        (9, 5, "d", "L", "L", "T", "N", 1.0),
        (7, 10, "s", "R", "U", "N", "N", -1.0),
    ]
]


def _batches(dtype) -> "list[int]":
    lanes = KUNPENG_920.lanes(dtype)
    return sorted({1, lanes - 1, lanes + 1, 22, 107, 512, 16384} - {0})


def _id(p) -> str:
    if isinstance(p, GemmProblem):
        return (f"{p.dtype.value}{p.m}x{p.n}x{p.k}-"
                f"{p.transa.value}{p.transb.value}")
    return (f"{p.dtype.value}{p.m}x{p.n}-{p.side.value}{p.uplo.value}"
            f"{p.transa.value}{p.diag.value}")


def _same_timing(got, want) -> None:
    assert got.total_cycles == want.total_cycles
    assert got.groups == want.groups
    gp, wp = got.plan, want.plan
    assert gp.problem == wp.problem
    assert gp.groups_per_round == wp.groups_per_round
    assert {n: s.warm for n, s in gp.buffers.items()} == \
        {n: s.warm for n, s in wp.buffers.items()}
    assert gp.buffers == wp.buffers
    assert gp.pack_cost == wp.pack_cost
    assert gp.unpack_cost == wp.unpack_cost


def _operands(problem, batch: int, seed: int):
    rng = np.random.default_rng(seed)
    dt = problem.dtype.np_dtype

    def draw(rows, cols):
        x = rng.standard_normal((batch, rows, cols))
        if problem.dtype.is_complex:
            x = x + 1j * rng.standard_normal((batch, rows, cols))
        return x.astype(dt)

    if isinstance(problem, GemmProblem):
        return draw(*problem.a_shape), draw(*problem.b_shape), \
            draw(problem.m, problem.n)
    d = problem.a_dim
    a = draw(d, d) + np.asarray(4 * np.eye(d), dtype=dt)
    return a, draw(problem.m, problem.n)


def _call(iatf, problem, ops):
    p = problem
    if isinstance(p, GemmProblem):
        a, b, c = ops
        return iatf.gemm(a, b, c.copy(), alpha=p.alpha, beta=p.beta,
                         transa=p.transa, transb=p.transb)
    a, b = ops
    return iatf.trsm(a, b.copy(), alpha=p.alpha, side=p.side, uplo=p.uplo,
                     transa=p.transa, diag=p.diag)


@pytest.fixture(scope="module")
def warm():
    """One framework per module, every case planned at WARM_BATCH."""
    iatf = IATF(KUNPENG_920)
    for p in GEMM_CASES:
        iatf.plan_gemm(p.with_batch(WARM_BATCH))
    for p in TRSM_CASES:
        iatf.plan_trsm(p.with_batch(WARM_BATCH))
    return iatf


class TestRebindMatchesFreshPlan:
    @pytest.mark.parametrize("problem", GEMM_CASES, ids=_id)
    def test_gemm_timing(self, warm, problem):
        misses = warm.plan_cache_stats["misses"]
        for batch in _batches(problem.dtype):
            p = problem.with_batch(batch)
            fresh = build_gemm_plan(p, warm.machine, warm.registry)
            _same_timing(warm.time_gemm(p), warm.engine.time_plan(fresh))
        assert warm.plan_cache_stats["misses"] == misses

    @pytest.mark.parametrize("problem", TRSM_CASES, ids=_id)
    def test_trsm_timing(self, warm, problem):
        misses = warm.plan_cache_stats["misses"]
        for batch in _batches(problem.dtype):
            p = problem.with_batch(batch)
            fresh = build_trsm_plan(p, warm.machine, warm.registry)
            _same_timing(warm.time_trsm(p), warm.engine.time_plan(fresh))
        assert warm.plan_cache_stats["misses"] == misses

    def test_same_batch_is_the_cached_object(self, warm):
        p = GEMM_CASES[0].with_batch(WARM_BATCH)
        plan = warm.plan_gemm(p)
        assert plan.for_batch(WARM_BATCH) is plan
        view = plan.for_batch(64)
        assert view.calls is plan.calls and view.meta is plan.meta

    def test_one_entry_per_shape(self, warm):
        assert len(warm._plan_cache) == len(GEMM_CASES) + len(TRSM_CASES)


@pytest.mark.parametrize("batch", [1, 2, 3, 5, 22, 107, 512, 16384])
def test_public_outputs_bitwise_equal_fresh_interpret(warm, batch):
    """The warm cache (plans re-bound, lowerings re-grouped) returns the
    bits a fresh per-batch interpreter run returns."""
    fresh = IATF(KUNPENG_920, backend="interpret")
    for i, problem in enumerate(GEMM_CASES[::3] + TRSM_CASES):
        p = problem.with_batch(batch)
        ops = _operands(p, batch, seed=1000 * batch + i)
        got = _call(warm, p, ops)
        want = _call(fresh, p, ops)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (p, batch)


RAGGED_SHAPES = [
    GemmProblem(4, 4, 4, "s"),
    GemmProblem(5, 3, 6, "z", "T", "N", alpha=2.0, beta=0.5),
    TrsmProblem(6, 4, "d", "R", "U", "T", "N"),
]
RAGGED_BATCHES = [1, 7, 64, 3, 513, 22]


@pytest.mark.parametrize("backend", ["compiled", "megakernel"])
def test_second_ragged_pass_compiles_nothing(backend):
    iatf = IATF(KUNPENG_920, backend=backend)
    stream = [(s.with_batch(b), _operands(s.with_batch(b), b, seed=j))
              for j, (b, s) in enumerate(
                  itertools.product(RAGGED_BATCHES, RAGGED_SHAPES))]

    def run_pass() -> "dict[str, float]":
        with obs.scoped() as reg:
            for p, ops in stream:
                _call(iatf, p, ops)
            return reg.counters()

    first = run_pass()
    assert first.get("lower.plans", 0) == len(RAGGED_SHAPES)
    assert first["plan_cache.misses"] == len(RAGGED_SHAPES)
    if backend == "megakernel":
        assert first["megakernel.compile.miss"] == len(RAGGED_SHAPES)
    second = run_pass()
    assert second.get("lower.plans", 0) == 0
    assert second.get("megakernel.compile.miss", 0) == 0
    assert second.get("plan_cache.misses", 0) == 0
    assert second["plan_cache.hits"] == len(stream)
