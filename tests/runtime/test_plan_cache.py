"""Bounded LRU plan cache: eviction order, stats, and obs counters."""

from repro import IATF, KUNPENG_920, obs
from repro.runtime.backends import DEFAULT_BACKEND
from repro.runtime.iatf import PlanCache
from repro.types import GemmProblem

import pytest


class TestPlanCacheUnit:
    def test_lru_eviction_order(self):
        cache = PlanCache(maxsize=2)
        cache.put(("a",), "A")
        cache.put(("b",), "B")
        assert cache.get(("a",)) == "A"     # refresh a
        cache.put(("c",), "C")              # evicts b, the LRU entry
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == "A"
        assert cache.get(("c",)) == "C"
        assert cache.evictions == 1

    def test_stats_track_hits_and_misses(self):
        cache = PlanCache(maxsize=4)
        cache.get(("x",))
        cache.put(("x",), 1)
        cache.get(("x",))
        s = cache.stats()
        assert s == {"size": 1, "maxsize": 4, "hits": 1, "misses": 1,
                     "hit_rate": 0.5, "evictions": 0, "invalidations": 0}

    def test_hit_rate_zero_before_any_lookup(self):
        cache = PlanCache(maxsize=4)
        assert cache.hit_rate == 0.0
        assert cache.stats()["hit_rate"] == 0.0

    def test_hit_rate_converges_under_reuse(self):
        cache = PlanCache(maxsize=4)
        cache.get(("x",))                       # miss
        cache.put(("x",), 1)
        for _ in range(9):
            cache.get(("x",))                   # 9 hits
        assert cache.hit_rate == pytest.approx(0.9)

    def test_hit_rate_mirrored_into_obs_gauge(self):
        with obs.scoped() as reg:
            cache = PlanCache(maxsize=4)
            cache.get(("x",))
            cache.put(("x",), 1)
            cache.get(("x",))
            snap = reg.snapshot()
        assert snap["counters"]["plan_cache.hit_rate"] == \
            pytest.approx(0.5)
        assert "plan_cache.hit_rate" in snap.get("gauge_names", ())

    def test_rejects_degenerate_size(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)


class TestIatfIntegration:
    def test_default_cache_is_generous(self):
        assert IATF(KUNPENG_920)._plan_cache.maxsize == 1024

    def test_eviction_bound_respected(self):
        iatf = IATF(KUNPENG_920, plan_cache_size=3)
        plans = [iatf.plan_gemm(GemmProblem(s, s, s, "d", batch=4))
                 for s in range(1, 6)]
        assert len(iatf._plan_cache) == 3
        assert iatf.plan_cache_stats["evictions"] == 2
        # evicted plan is rebuilt, not resurrected
        again = iatf.plan_gemm(GemmProblem(1, 1, 1, "d", batch=4))
        assert again is not plans[0]

    def test_hit_returns_same_object(self):
        iatf = IATF(KUNPENG_920)
        p = GemmProblem(3, 3, 3, "d", batch=7)
        assert iatf.plan_gemm(p) is iatf.plan_gemm(p)
        assert iatf.plan_cache_stats["hits"] >= 1

    def test_counters_mirror_into_obs_registry(self):
        iatf = IATF(KUNPENG_920)
        p = GemmProblem(3, 3, 3, "d", batch=9)
        with obs.scoped() as reg:
            iatf.plan_gemm(p)
            iatf.plan_gemm(p)
            counters = reg.counters()
        assert counters["plan_cache.misses"] == 1
        assert counters["plan_cache.hits"] == 1
        assert counters["plan_cache.size"] == 1

    def test_autotune_meta_complete_before_insert(self):
        """The cached plan must never be mutated after insertion: the
        object coming out of the cache already carries its autotune
        metadata."""
        iatf = IATF(KUNPENG_920)
        p = GemmProblem(9, 9, 9, "d", batch=64)
        plan = iatf.plan_gemm(p, autotune=True)
        assert plan.meta["autotuned"] is True
        assert len(plan.meta["autotune_sweep"]) == \
            len(IATF.GEMM_TUNE_CANDIDATES_REAL)
        cached = iatf.plan_gemm(p, autotune=True)
        assert cached is plan
        assert cached.meta["autotune_sweep"] is plan.meta["autotune_sweep"]

    def test_trsm_plans_share_the_cache(self):
        from repro.types import TrsmProblem
        iatf = IATF(KUNPENG_920, plan_cache_size=8)
        tp = TrsmProblem(4, 4, "d", batch=32)
        gp = GemmProblem(4, 4, 4, "d", batch=32)
        iatf.plan_trsm(tp)
        iatf.plan_gemm(gp)
        assert len(iatf._plan_cache) == 2
        assert iatf.plan_trsm(tp) is iatf.plan_trsm(tp)


class TestCompiledSideSlot:
    def test_compiled_rides_with_the_plan(self):
        cache = PlanCache(maxsize=2)
        cache.put(("a",), "plan-a")
        assert cache.get_compiled(("a",)) is None
        cache.put_compiled(("a",), "compiled-a")
        assert cache.get_compiled(("a",)) == "compiled-a"

    def test_put_resets_compiled(self):
        cache = PlanCache(maxsize=2)
        cache.put(("a",), "plan-a")
        cache.put_compiled(("a",), "compiled-a")
        cache.put(("a",), "plan-a2")       # fresh plan -> stale lowering
        assert cache.get_compiled(("a",)) is None

    def test_eviction_drops_compiled(self):
        cache = PlanCache(maxsize=1)
        cache.put(("a",), "plan-a")
        cache.put_compiled(("a",), "compiled-a")
        cache.put(("b",), "plan-b")        # evicts a and its lowering
        assert cache.get_compiled(("a",)) is None
        # attaching to a missing key is a harmless no-op
        cache.put_compiled(("a",), "late")
        assert cache.get_compiled(("a",)) is None

    def test_iatf_reuses_cached_lowering(self):
        import numpy as np
        iatf = IATF(KUNPENG_920)
        p = GemmProblem(4, 4, 4, "d", batch=4)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4, 4))
        with obs.scoped() as reg:
            iatf.gemm(a, a, np.zeros_like(a), beta=0.0)
            iatf.gemm(a, a, np.zeros_like(a), beta=0.0)
            counters = reg.counters()
        assert counters["lower.plans"] == 1          # lowered once
        assert counters[f"backend.{DEFAULT_BACKEND}.runs"] == 2


class TestThreadSafety:
    def test_concurrent_put_get_never_corrupts(self):
        import threading
        cache = PlanCache(maxsize=16)
        errors = []

        def hammer(seed: int) -> None:
            try:
                for i in range(300):
                    key = (seed, i % 23)
                    cache.put(key, f"plan-{seed}-{i}")
                    cache.put_compiled(key, f"compiled-{seed}-{i}")
                    cache.get(key)
                    cache.get_compiled((seed, (i + 7) % 23))
                    cache.stats()
                    len(cache)
            except Exception as exc:          # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 16
        s = cache.stats()
        assert s["size"] == len(cache)

    def test_concurrent_planning_through_one_framework(self):
        """Many threads planning and executing distinct shapes through a
        shared IATF must neither crash nor return wrong results."""
        import threading

        import numpy as np

        iatf = IATF(KUNPENG_920, plan_cache_size=8)
        rng = np.random.default_rng(3)
        inputs = {2 + i: rng.standard_normal((4, 2 + i, 2 + i))
                  for i in range(6)}     # generated up front: np.random
        errors = []                      # generators are not thread-safe

        def work(size: int) -> None:
            try:
                a = inputs[size]
                for _ in range(5):
                    got = iatf.gemm(a, a, np.zeros_like(a), beta=0.0)
                    if not np.allclose(got, a @ a, atol=1e-9):
                        raise AssertionError(f"wrong result at {size}")
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(2 + i,))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
