"""explain(plan): every run-time-stage decision must be narrated."""

import pytest

from repro import IATF, KUNPENG_920, obs
from repro.runtime.backends import DEFAULT_BACKEND
from repro.types import GemmProblem, TrsmProblem


@pytest.fixture(scope="module")
def iatf():
    return IATF(KUNPENG_920)


class TestGemmExplain:
    def test_sections_present(self, iatf):
        report = iatf.explain_gemm(GemmProblem(9, 9, 9, "d", batch=4096))
        titles = [t for t, _ in report.sections]
        assert any("batch counter" in t for t in titles)
        assert any("pack selector" in t for t in titles)
        assert any("tile decomposition" in t for t in titles)

    def test_plan_cache_section_surfaces_hit_rate(self, iatf):
        p = GemmProblem(7, 7, 7, "d", batch=512)
        iatf.explain_gemm(p)                      # warm: next lookup hits
        report = iatf.explain_gemm(p)
        lines = report.section("plan cache")
        text = "\n".join(lines)
        assert "hit rate" in text
        stats = iatf.plan_cache_stats
        assert f"{100.0 * stats['hit_rate']:.1f}%" in text
        assert f"{stats['size']} / {stats['maxsize']}" in text
        assert "evictions" in text

    def test_plan_cache_section_absent_without_stats(self, iatf):
        plan = iatf.plan_gemm(GemmProblem(6, 6, 6, "d", batch=64))
        report = obs.explain(plan)                # free function, no stats
        assert "plan cache" not in [t for t, _ in report.sections]

    def test_batch_counter_math_narrated(self, iatf):
        p = GemmProblem(8, 8, 8, "d", batch=4096)
        report = iatf.explain_gemm(p)
        text = report.render()
        plan = iatf.plan_gemm(p)
        assert f"groups per round: {plan.groups_per_round}" in text
        assert str(KUNPENG_920.l1.size) in text
        assert "L1" in text

    def test_pack_decision_and_reasons(self, iatf):
        # transposed A forces packing; the reason must say so
        p = GemmProblem(4, 4, 4, "d", transa="T", batch=256)
        text = iatf.explain_gemm(p).render()
        assert "reason A: transposed operand" in text

    def test_tile_decomposition_shows_cmar_tiles(self, iatf):
        p = GemmProblem(9, 9, 9, "d", batch=256)
        plan = iatf.plan_gemm(p)
        text = iatf.explain_gemm(p).render()
        assert f"m tiles: 9 -> {plan.meta['m_tiles']}" in text
        assert f"n tiles: 9 -> {plan.meta['n_tiles']}" in text

    def test_autotune_sweep_reported_per_candidate(self, iatf):
        p = GemmProblem(9, 9, 9, "d", batch=512)
        report = iatf.explain_gemm(p, autotune=True)
        text = report.render()
        assert "autotune sweep" in text
        assert "<- chosen" in text
        sweep = iatf.plan_gemm(p, autotune=True).meta["autotune_sweep"]
        assert len(sweep) == len(IATF.GEMM_TUNE_CANDIDATES_REAL)
        for entry in sweep:
            assert str(entry["candidate"]) in text

    def test_deep_adds_timing_breakdown(self, iatf):
        p = GemmProblem(6, 6, 6, "d", batch=1024)
        text = iatf.explain_gemm(p, deep=True).render()
        assert "timing breakdown" in text
        for needle in ("kernel:", "pack:", "unpack:", "overhead:",
                       "stall cycles", "L1 misses", "GFLOPS"):
            assert needle in text

    def test_deep_pack_comparison_when_nopack_chosen(self, iatf):
        # m fits one tile, A non-transposed -> A goes no-pack
        p = GemmProblem(4, 9, 4, "d", batch=1024)
        plan = iatf.plan_gemm(p)
        assert plan.meta["packing"]["A"] == "no-pack"
        text = iatf.explain_gemm(p, deep=True).render()
        assert "cost comparison" in text
        assert "forced-pack alternative" in text


class TestTrsmExplain:
    def test_sections_present(self, iatf):
        report = iatf.explain_trsm(TrsmProblem(4, 4, "d", batch=4096))
        titles = [t for t, _ in report.sections]
        assert any("batch counter" in t for t in titles)
        assert any("pack selector" in t for t in titles)
        assert any("tile decomposition" in t for t in titles)

    def test_nopack_reason_and_comparison(self, iatf):
        p = TrsmProblem(4, 4, "d", batch=4096)   # LNLN in-register case
        text = iatf.explain_trsm(p, deep=True).render()
        assert "no-pack" in text
        assert "canonical orientation" in text
        assert "cost comparison" in text

    def test_blocked_path_narrates_blocks(self, iatf):
        p = TrsmProblem(12, 8, "d", batch=256)   # beyond max_tri -> blocked
        plan = iatf.plan_trsm(p)
        assert not plan.meta["whole_in_regs"]
        text = iatf.explain_trsm(p).render()
        assert f"diagonal blocks: {plan.meta['blocks']}" in text
        assert f"n_pad={plan.meta['n_pad']}" in text

    def test_mode_normalization_shown(self, iatf):
        p = TrsmProblem(4, 4, "d", side="R", uplo="U", batch=64)
        text = iatf.explain_trsm(p).render()
        assert "mode normalization" in text


class TestReportObject:
    def test_to_dict_is_structured(self, iatf):
        p = GemmProblem(4, 4, 4, "d", batch=64)
        d = iatf.explain_gemm(p).to_dict()
        assert d["kind"] == "gemm"
        assert any("batch counter" in k for k in d["sections"])

    def test_section_lookup(self, iatf):
        p = GemmProblem(4, 4, 4, "d", batch=64)
        report = iatf.explain_gemm(p)
        lines = report.section("pack selector (Section 5.2)")
        assert any("strategy" in line for line in lines)
        with pytest.raises(KeyError):
            report.section("nonexistent")

    def test_explain_free_function_matches_method(self, iatf):
        p = GemmProblem(4, 4, 4, "d", batch=64)
        plan = iatf.plan_gemm(p)
        via_fn = obs.explain(plan, registry=iatf.registry)
        via_method = iatf.explain_gemm(p)
        # the method knows the framework's backend and plan-cache stats
        # and adds those sections; everything else must agree with the
        # plain free-function report
        fn_d, method_d = via_fn.to_dict(), via_method.to_dict()
        backend_section = method_d["sections"].pop("execution backend")
        method_d["sections"].pop("plan cache")
        assert fn_d == method_d
        assert any(iatf.backend.name in line for line in backend_section)

    def test_explain_names_backend_and_lowering(self, iatf):
        p = GemmProblem(4, 4, 4, "d", batch=64)
        report = iatf.explain_gemm(p)
        lines = report.section("execution backend")
        assert lines[0].startswith(f"backend: {DEFAULT_BACKEND} ")
        assert any("commands" in line for line in lines)

    def test_explain_shows_pass_pipeline_stats(self):
        fw = IATF(KUNPENG_920, backend="fused")
        p = GemmProblem(8, 8, 8, "s", batch=64)
        lines = fw.explain_gemm(p).section("execution backend")
        assert any("pass pipeline" in line for line in lines)
        assert any("fused chains" in line for line in lines)

    def test_explain_shows_parallel_sharding(self):
        fw = IATF(KUNPENG_920, backend="parallel", workers=3)
        p = GemmProblem(4, 4, 4, "d", batch=64)
        lines = fw.explain_gemm(p).section("execution backend")
        assert any("3 thread workers" in line and "fused" in line
                   for line in lines)
