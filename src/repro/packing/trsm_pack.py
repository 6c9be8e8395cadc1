"""TRSM operand packing: mode normalization, triangle pack, B panel pack.

The pack selector maps all sixteen (side, trans, uplo, diag) mode
combinations onto ONE canonical kernel orientation — left side, lower
triangle, no transpose — so a single kernel family serves every mode
(paper Section 5.2: "It matches appropriate data packing kernels for
different modes to pack matrices into the same order, so that only one
computational kernel is needed to handle all modes").  The maps are:

* side RIGHT:  ``X op(A) = alpha B``  ==  ``op(A)^T X^T = alpha B^T`` —
  transpose B, toggle the transpose flag, solve order becomes n.
* effective upper triangle (uplo/trans combination): persymmetric flip
  — index ``(i, j) -> (d-1-i, d-1-j)`` turns upper into lower, with B's
  rows reversed on the way in and out.

The triangle pack stores blocks in solve order — for each diagonal
block ``d``: the rectangular ``L(d, e)`` panels for ``e < d`` (in the
GEMM-A streaming layout the FMLS kernel consumes) followed by block
``d``'s triangle (row-major, diagonal pre-reciprocated; the paper's
"the diagonal part is stored as its reciprocal" to avoid ARM's long
division latency inside the kernel).

The B pack produces a column-major working panel (rows flipped and/or
transposed per the normalization, scaled by alpha, columns zero-padded
to the rectangular kernel width); the solve overwrites it in place and
``unpack_trsm_b`` applies the inverse transform back into the user's
compact B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import LayoutError
from ..layout.compact import CompactBatch
from ..layout.padding import padded_count
from ..types import Diag, Side, Trans, TrsmProblem, UpLo
from .cost import PackCost

__all__ = ["NormalizedTrsm", "normalize_trsm_mode", "PackedTriangles",
           "pack_trsm_a", "pack_trsm_b", "unpack_trsm_b"]


@dataclass(frozen=True)
class NormalizedTrsm:
    """Canonical-orientation view of a TRSM problem."""

    d: int                  # solve order (rows of the canonical system)
    n_rhs: int              # right-hand-side columns of the canonical system
    transpose_b: bool       # B enters/leaves as its transpose (side RIGHT)
    flip: bool              # persymmetric flip (effective upper triangle)
    gather_trans: bool      # op(A) element gather reads A[j, i]
    unit: bool
    alpha: complex


def normalize_trsm_mode(problem: TrsmProblem) -> NormalizedTrsm:
    p = problem
    if p.side is Side.RIGHT:
        trans_eff = Trans.T if p.transa is Trans.N else Trans.N
        d, n_rhs, transpose_b = p.n, p.m, True
    else:
        trans_eff = p.transa
        d, n_rhs, transpose_b = p.m, p.n, False
    lower_eff = (p.uplo is UpLo.LOWER) == (trans_eff is Trans.N)
    return NormalizedTrsm(
        d=d, n_rhs=n_rhs, transpose_b=transpose_b,
        flip=not lower_eff,
        gather_trans=trans_eff is Trans.T,
        unit=p.diag is Diag.UNIT,
        alpha=complex(p.alpha),
    )


def _stored_index(norm: NormalizedTrsm, imap: np.ndarray,
                  jmap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map canonical (lower) indices to stored-A indices."""
    if norm.flip:
        imap = norm.d - 1 - imap
        jmap = norm.d - 1 - jmap
    if norm.gather_trans:
        imap, jmap = jmap, imap
    return imap, jmap


@dataclass
class PackedTriangles:
    """Packed A-side panels of a blocked TRSM, in solve order."""

    data: np.ndarray
    group_stride_bytes: int
    blocks: list[int]                          # diagonal block sizes
    tri_offsets: list[int]                     # per diagonal block
    rect_offsets: dict[tuple[int, int], int]   # (d_idx, e_idx) -> offset
    cost: PackCost


def _reciprocal(values: np.ndarray, is_complex: bool) -> np.ndarray:
    """Elementwise reciprocal on an (..., ncomp, P) slab of planes.

    A zero diagonal gives Inf/NaN, as the reference BLAS division does;
    the caller sets padding lanes to 1 first so padded solves stay
    finite.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        if not is_complex:
            return 1.0 / values
        re, im = values[..., 0, :], values[..., 1, :]
        denom = re * re + im * im
        out = np.empty_like(values)
        out[..., 0, :] = re / denom
        out[..., 1, :] = -im / denom
    return out


def pack_trsm_a(a: CompactBatch, norm: NormalizedTrsm,
                blocks: list[int]) -> PackedTriangles:
    """Gather the canonical lower triangle into solve-order panels."""
    d = norm.d
    if (a.rows, a.cols) != (d, d):
        raise LayoutError(f"A is {a.rows}x{a.cols}, expected {d}x{d}")
    if sum(blocks) != d:
        raise LayoutError(f"blocks {blocks} do not cover order {d}")
    grid = a.as_grid()                   # (G, d, d, ncomp, P)
    esz = a.dtype.real_itemsize
    elem_bytes = a.elem_stride * esz     # bytes per gathered element
    is_c = a.dtype.is_complex
    valid_last = a.batch - (a.groups - 1) * a.lanes   # lanes in use
    starts: list[int] = []
    pos = 0
    for b in blocks:
        starts.append(pos)
        pos += b

    panels: list[np.ndarray] = []
    tri_offsets: list[int] = []
    rect_offsets: dict[tuple[int, int], int] = {}
    byte_pos = 0
    panel_count = 0
    for di, (dsz, dst) in enumerate(zip(blocks, starts)):
        for ei in range(di):
            eb, est = blocks[ei], starts[ei]
            # GEMM-A layout: [kstep within e][row within d]
            imap = np.add.outer(np.zeros(eb, dtype=int), dst + np.arange(dsz))
            jmap = np.add.outer(est + np.arange(eb), np.zeros(dsz, dtype=int))
            si, sj = _stored_index(norm, imap, jmap)
            panel = grid[:, si, sj, :, :]          # (G, eb, dsz, ncomp, P)
            panels.append(panel)
            rect_offsets[(di, ei)] = byte_pos
            byte_pos += eb * dsz * elem_bytes
            panel_count += 1
        # the diagonal triangle, row-major with reciprocal diagonal
        ij = [(dst + i, dst + j) for i in range(dsz) for j in range(i + 1)]
        imap = np.array([p[0] for p in ij])
        jmap = np.array([p[1] for p in ij])
        si, sj = _stored_index(norm, imap, jmap)
        panel = np.ascontiguousarray(grid[:, si, sj, :, :])  # (G, T, ncomp, P)
        if not norm.unit:
            diag_sel = np.array([t for t, (i, j) in enumerate(ij) if i == j])
            diag = panel[:, diag_sel]        # (G, dsz, ncomp, P) copy
            # padding lanes of the last group solve against 1 (their
            # results are never unpacked); real zeros stay singular
            if valid_last < a.lanes:
                diag[-1, :, 0, valid_last:] = 1.0
                diag[-1, :, 1:, valid_last:] = 0.0
            panel[:, diag_sel] = _reciprocal(diag, is_c)
        panels.append(panel)
        tri_offsets.append(byte_pos)
        byte_pos += len(ij) * elem_bytes
        panel_count += 1

    flat = [np.ascontiguousarray(p).reshape(a.groups, -1) for p in panels]
    data = np.concatenate(flat, axis=1).reshape(-1).astype(a.dtype.real_dtype,
                                                           copy=False)
    nbytes = int(data.nbytes)
    divs = 0 if norm.unit else d * (2 if is_c else 1)
    cost = PackCost(bytes_read=nbytes, bytes_written=nbytes,
                    panels=panel_count * a.groups,
                    div_vectors=divs * a.groups, ew=esz)
    return PackedTriangles(data, byte_pos, list(blocks), tri_offsets,
                           rect_offsets, cost)


def _scale_planes(grid: np.ndarray, alpha: complex,
                  is_complex: bool) -> np.ndarray:
    """Multiply an (..., ncomp, P) plane slab by alpha."""
    if alpha == 1:
        return grid
    if not is_complex:
        return grid * float(alpha.real)
    ar, ai = alpha.real, alpha.imag
    out = np.empty_like(grid)
    re, im = grid[..., 0, :], grid[..., 1, :]
    out[..., 0, :] = ar * re - ai * im
    out[..., 1, :] = ar * im + ai * re
    return out


def pack_trsm_b(b: CompactBatch, norm: NormalizedTrsm,
                pad_cols_to: int = 1) -> tuple[np.ndarray, PackCost]:
    """Build the canonical column-major working panel of B.

    Returns (flat work buffer of shape [G * d * n_pad * ncomp * P],
    cost).  The solve updates it in place; :func:`unpack_trsm_b`
    inverts the transform.
    """
    if (b.rows, b.cols) != ((norm.n_rhs, norm.d) if norm.transpose_b
                            else (norm.d, norm.n_rhs)):
        raise LayoutError(
            f"B is {b.rows}x{b.cols}, inconsistent with normalized "
            f"{norm.d}x{norm.n_rhs} (transpose_b={norm.transpose_b})")
    grid = b.as_grid()                    # (G, rows, cols, ncomp, P)
    if norm.transpose_b:
        grid = grid.transpose(0, 2, 1, 3, 4)
    if norm.flip:
        grid = grid[:, ::-1, :, :, :]
    grid = _scale_planes(grid, norm.alpha, b.dtype.is_complex)
    n_pad = padded_count(norm.n_rhs, pad_cols_to)
    G = b.groups
    work = np.zeros((G, n_pad, norm.d, b.ncomp, b.lanes),
                    dtype=b.dtype.real_dtype)
    # column-major: [col][row]
    work[:, :norm.n_rhs] = grid.transpose(0, 2, 1, 3, 4)
    flat = np.ascontiguousarray(work).reshape(-1)
    nbytes = int(flat.nbytes)
    cost = PackCost(bytes_read=int(b.nbytes), bytes_written=nbytes,
                    panels=G, ew=b.dtype.real_itemsize)
    return flat, cost


def unpack_trsm_b(work: np.ndarray, b: CompactBatch,
                  norm: NormalizedTrsm, pad_cols_to: int = 1) -> PackCost:
    """Write the solved panel back into the user's compact B."""
    n_pad = padded_count(norm.n_rhs, pad_cols_to)
    G = b.groups
    panel = work.reshape(G, n_pad, norm.d, b.ncomp, b.lanes)
    sol = panel[:, :norm.n_rhs].transpose(0, 2, 1, 3, 4)  # (G, d, n, ncomp, P)
    if norm.flip:
        sol = sol[:, ::-1, :, :, :]
    if norm.transpose_b:
        sol = sol.transpose(0, 2, 1, 3, 4)
    b.as_grid()[...] = sol
    nbytes = int(work.nbytes)
    return PackCost(bytes_read=nbytes, bytes_written=int(b.nbytes),
                    panels=G, ew=b.dtype.real_itemsize)
