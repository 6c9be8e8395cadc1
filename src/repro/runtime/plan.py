"""Execution-plan generation (paper Section 5.3).

A plan is the input-independent command queue for one problem shape:
which kernels run, in what order, reading and writing which byte
offsets of which buffers.  Offsets depend only on shapes, so a plan is
generated once per shape and reused for every batch — the paper's "it
only generates this execution plan at the beginning ... these overheads
are negligible when apportioned to each matrix".  The few fields that
follow the batch (group count, batch-counter round and residency
verdicts, whole-batch pack costs) are bound by :func:`_bind_batch`,
both when a plan is built and when :meth:`ExecutionPlan.for_batch`
re-targets a cached one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..codegen.registry import KernelRegistry
from ..codegen.tiling import decompose_dim, tile_starts
from ..errors import PlanError
from ..layout.padding import padded_count
from ..machine.machines import MachineConfig
from ..machine.program import Program
from ..packing.cost import PackCost
from ..packing.trsm_pack import NormalizedTrsm
from ..types import BlasDType, GemmProblem, Trans, TrsmProblem
from .batch_counter import (gemm_group_working_bytes, groups_per_round,
                            trsm_group_working_bytes)
from .pack_selector import select_gemm_packing, select_trsm_packing

__all__ = ["BufferSpec", "KernelCall", "ExecutionPlan",
           "build_gemm_plan", "build_trsm_plan"]


@dataclass(frozen=True)
class BufferSpec:
    """One logical buffer the plan addresses.

    ``warm`` is the batch counter's residency verdict, consumed by the
    timing engine: packed buffers a round fits in L1 are simulated warm;
    origin C (and origin A/B on the no-pack path) start cold.
    """

    name: str
    group_stride_bytes: int
    warm: str = "cold"            # "l1" | "l2" | "cold"


@dataclass(frozen=True)
class KernelCall:
    """One kernel invocation: program + per-group byte offsets.

    ``c_offsets`` feeds the per-column output pointers PC(j); ``x_off``
    feeds the TRSM triangular kernel's in-place store alias PX.
    """

    program: Program
    a_buf: str
    a_off: int
    b_buf: str
    b_off: int
    c_buf: str = ""
    c_offsets: tuple[int, ...] = ()
    x_buf: str | None = None
    x_off: int = 0


@dataclass
class ExecutionPlan:
    """The full command queue plus the decisions that produced it."""

    kind: str                     # "gemm" | "trsm"
    problem: "GemmProblem | TrsmProblem"
    machine: MachineConfig
    calls: list[KernelCall]
    buffers: dict[str, BufferSpec]
    pack_cost: PackCost           # analytic, whole batch
    unpack_cost: PackCost
    groups: int
    groups_per_round: int
    meta: dict = field(default_factory=dict)

    def for_batch(self, batch: int) -> "ExecutionPlan":
        """This plan bound to another batch count.

        A shallow view: ``calls``, buffer strides and ``meta`` are
        shared and only the batch-dependent fields are recomputed, so
        timing and execution see exactly what a plan built at ``batch``
        would carry.  Returns ``self`` when the batch already matches.
        """
        if batch == self.problem.batch:
            return self
        return replace(self, **_bind_batch(
            self.kind, self.problem.with_batch(batch), self.machine,
            self.calls, self.buffers, self.meta))

    @property
    def kernels_used(self) -> list[str]:
        return sorted({c.program.name for c in self.calls})

    def describe(self) -> str:
        """Human-readable plan summary (examples print this)."""
        lines = [f"ExecutionPlan[{self.kind}] for {self.problem}",
                 f"  machine: {self.machine.name}",
                 f"  groups: {self.groups} "
                 f"(batch rounds of {self.groups_per_round} groups)",
                 f"  packing: {self.meta.get('packing')}",
                 f"  kernel calls per group: {len(self.calls)}"]
        for name in self.kernels_used:
            lines.append(f"    - {name}")
        return "\n".join(lines)


def _elem_bytes(dtype: BlasDType, machine: MachineConfig) -> int:
    ncomp = 2 if dtype.is_complex else 1
    return machine.lanes(dtype) * ncomp * dtype.real_itemsize


def _gemm_pack_costs(problem: GemmProblem, buffers: dict[str, BufferSpec],
                     meta: dict, groups: int) -> "tuple[PackCost, PackCost]":
    ew = problem.dtype.real_itemsize
    pack = PackCost(ew=ew)
    for name, tiles in (("packA", meta["m_tiles"]),
                        ("packB", meta["n_tiles"])):
        spec = buffers.get(name)
        if spec is not None:
            nb = spec.group_stride_bytes * groups
            pack = pack + PackCost(bytes_read=nb, bytes_written=nb,
                                   panels=len(tiles) * groups, ew=ew)
    return pack, PackCost(ew=ew)


def _trsm_pack_costs(problem: TrsmProblem, buffers: dict[str, BufferSpec],
                     meta: dict, groups: int) -> "tuple[PackCost, PackCost]":
    dt = problem.dtype
    ew = dt.real_itemsize
    norm, nblocks = meta["norm"], len(meta["blocks"])
    tri = buffers["packT"].group_stride_bytes * groups
    divs = 0 if norm.unit else norm.d * (2 if dt.is_complex else 1)
    pack = PackCost(bytes_read=tri, bytes_written=tri,
                    panels=(nblocks + sum(range(nblocks))) * groups,
                    div_vectors=divs * groups, ew=ew)
    unpack = PackCost(ew=ew)
    work_b = buffers.get("workB")
    if work_b is not None:
        wb = work_b.group_stride_bytes * groups
        ob = buffers["B"].group_stride_bytes * groups
        pack = pack + PackCost(bytes_read=ob, bytes_written=wb,
                               panels=groups, ew=ew)
        unpack = PackCost(bytes_read=wb, bytes_written=ob, panels=groups,
                          ew=ew)
    return pack, unpack


_BATCH_MODELS = {
    "gemm": (gemm_group_working_bytes, _gemm_pack_costs),
    "trsm": (trsm_group_working_bytes, _trsm_pack_costs),
}


def _bind_batch(kind: str, problem: "GemmProblem | TrsmProblem",
                machine: MachineConfig, calls: list[KernelCall],
                buffers: dict[str, BufferSpec], meta: dict) -> dict:
    """The batch-dependent :class:`ExecutionPlan` fields for ``problem``.

    Group count, the batch counter's round size and residency verdicts,
    and the whole-batch pack/unpack costs; everything else a plan holds
    depends on the shape alone.  Buffers the kernels stream their inputs
    from (packed panels, or the origins on the no-pack path) share the
    round's residency; the rest (origin C, origins that are packed
    first) start cold.
    """
    model = _BATCH_MODELS.get(kind)
    if model is None:
        raise PlanError(f"no batch model for {kind!r} plans")
    working_bytes, pack_costs = model
    lanes = machine.lanes(problem.dtype)
    groups = padded_count(problem.batch, lanes) // lanes
    work = working_bytes(problem, machine)
    gpr = groups_per_round(work, machine, total_groups=groups)
    packed_warm = "l1" if work * min(gpr, groups) <= machine.l1.size else "l2"
    streamed = {c.a_buf for c in calls} | {c.b_buf for c in calls}
    bound = {}
    for name, spec in buffers.items():
        warm = packed_warm if name in streamed else "cold"
        bound[name] = spec if spec.warm == warm else replace(spec, warm=warm)
    pack, unpack = pack_costs(problem, buffers, meta, groups)
    return {
        "problem": problem, "groups": groups, "groups_per_round": gpr,
        "buffers": bound, "pack_cost": pack, "unpack_cost": unpack,
    }


def build_gemm_plan(problem: GemmProblem, machine: MachineConfig,
                    registry: KernelRegistry,
                    force_pack: bool = False,
                    main_override: tuple[int, int] | None = None,
                    tuned_pack: "bool | None" = None) -> ExecutionPlan:
    """Plan a compact GEMM.

    ``force_pack`` disables the no-pack fast path (ablation benchmark);
    ``main_override`` forces a different main kernel preference for the
    tile decomposition (the empirical autotuner and the install-time
    tuner sweep these); ``tuned_pack`` applies a TuningDB pack override.
    """
    p = problem
    dt = p.dtype
    eb = _elem_bytes(dt, machine)
    if main_override is not None:
        mc_main, nc_main = main_override
    else:
        mc_main, nc_main = registry.main_gemm_kernel(dt)
    m_tiles = decompose_dim(p.m, mc_main)
    n_tiles = decompose_dim(p.n, nc_main)
    m_starts = tile_starts(m_tiles)
    n_starts = tile_starts(n_tiles)

    decision = select_gemm_packing(p, m_tiles, n_tiles, force_pack,
                                   tuned_pack)
    a_nopack = not decision.pack_a
    b_nopack = not decision.pack_b

    # panel offsets within a packed group (prefix sums of tile panels)
    a_tile_offs, pos = [], 0
    for mt in m_tiles:
        a_tile_offs.append(pos)
        pos += mt * p.k * eb
    a_stride = pos
    b_tile_offs, pos = [], 0
    for nt in n_tiles:
        b_tile_offs.append(pos)
        pos += nt * p.k * eb
    b_stride = pos

    a_buf = "A" if a_nopack else "packA"
    b_buf = "B" if b_nopack else "packB"

    calls: list[KernelCall] = []
    for jb, (nt, ns) in enumerate(zip(n_tiles, n_starts)):
        for ib, (mt, ms) in enumerate(zip(m_tiles, m_starts)):
            prog = registry.gemm_kernel(mt, nt, p.k, dt, p.alpha, p.beta)
            c_offs = tuple(((ns + j) * p.m + ms) * eb for j in range(nt))
            calls.append(KernelCall(
                program=prog,
                a_buf=a_buf, a_off=a_tile_offs[ib],
                b_buf=b_buf, b_off=b_tile_offs[jb],
                c_buf="C", c_offsets=c_offs,
            ))

    # one BufferSpec per operand; residency is bound with the batch
    a_shape = p.a_shape
    b_shape = p.b_shape
    buffers = {
        "A": BufferSpec("A", a_shape[0] * a_shape[1] * eb),
        "B": BufferSpec("B", b_shape[0] * b_shape[1] * eb),
        "C": BufferSpec("C", p.m * p.n * eb),
    }
    if not a_nopack:
        buffers["packA"] = BufferSpec("packA", a_stride)
    if not b_nopack:
        buffers["packB"] = BufferSpec("packB", b_stride)

    meta = {
        "m_tiles": m_tiles, "n_tiles": n_tiles,
        "main_kernel": (mc_main, nc_main),
        "packing": decision.description,
        "pack_reasons": {"A": decision.reason_a,
                         "B": decision.reason_b},
    }
    return ExecutionPlan(
        kind="gemm", machine=machine, calls=calls, meta=meta,
        **_bind_batch("gemm", p, machine, calls, buffers, meta))


def build_trsm_plan(problem: TrsmProblem, machine: MachineConfig,
                    registry: KernelRegistry,
                    force_pack: bool = False,
                    tuned_pack: "bool | None" = None) -> ExecutionPlan:
    """Plan a compact TRSM through the canonical lower-left orientation."""
    p = problem
    dt = p.dtype
    eb = _elem_bytes(dt, machine)
    decision = select_trsm_packing(p, registry, force_pack, tuned_pack)
    norm = decision.norm
    d, n_rhs = norm.d, norm.n_rhs

    whole_in_regs = decision.whole_in_regs
    b_nopack = not decision.pack_b
    b_buf = "B" if b_nopack else "workB"
    col_stride = d * eb

    calls: list[KernelCall] = []
    tri_bytes = d * (d + 1) // 2 * eb

    if whole_in_regs:
        blocks = [d]
        n_pad = n_rhs
        prog = registry.trsm_triangular(d, n_rhs, dt, norm.unit, col_stride)
        calls.append(KernelCall(
            program=prog, a_buf="packT", a_off=0,
            b_buf=b_buf, b_off=0, x_buf=b_buf, x_off=0,
        ))
        pack_a_stride = tri_bytes
    else:
        blocks = decompose_dim(d, registry.trsm_block_main(dt))
        starts = tile_starts(blocks)
        nc = registry.trsm_panel_width(dt)
        n_pad = padded_count(n_rhs, nc)
        # packT offsets mirror packing.trsm_pack.pack_trsm_a exactly
        tri_offs: list[int] = []
        rect_offs: dict[tuple[int, int], int] = {}
        pos = 0
        for di, dsz in enumerate(blocks):
            for ei in range(di):
                rect_offs[(di, ei)] = pos
                pos += blocks[ei] * dsz * eb
            tri_offs.append(pos)
            pos += dsz * (dsz + 1) // 2 * eb
        pack_a_stride = pos
        for q in range(n_pad // nc):
            col0 = q * nc
            for di, (dsz, dst) in enumerate(zip(blocks, starts)):
                for ei in range(di):
                    esz_blk, est = blocks[ei], starts[ei]
                    prog = registry.trsm_rect(dsz, nc, esz_blk, dt, col_stride)
                    calls.append(KernelCall(
                        program=prog,
                        a_buf="packT", a_off=rect_offs[(di, ei)],
                        b_buf=b_buf, b_off=(col0 * d + est) * eb,
                        c_buf=b_buf,
                        c_offsets=tuple(((col0 + j) * d + dst) * eb
                                        for j in range(nc)),
                    ))
                prog = registry.trsm_triangular(dsz, nc, dt, norm.unit,
                                                col_stride)
                calls.append(KernelCall(
                    program=prog, a_buf="packT", a_off=tri_offs[di],
                    b_buf=b_buf, b_off=(col0 * d + dst) * eb,
                    x_buf=b_buf, x_off=(col0 * d + dst) * eb,
                ))

    a_dim = p.a_dim
    buffers = {
        "A": BufferSpec("A", a_dim * a_dim * eb),
        "B": BufferSpec("B", p.m * p.n * eb),
        "packT": BufferSpec("packT", pack_a_stride),
    }
    if not b_nopack:
        buffers["workB"] = BufferSpec("workB", d * n_pad * eb)

    meta = {
        "norm": norm, "blocks": blocks, "n_pad": n_pad,
        "whole_in_regs": whole_in_regs, "b_nopack": b_nopack,
        "packing": decision.description,
        "pack_reason_b": decision.reason_b,
    }
    return ExecutionPlan(
        kind="trsm", machine=machine, calls=calls, meta=meta,
        **_bind_batch("trsm", p, machine, calls, buffers, meta))
