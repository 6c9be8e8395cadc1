"""Workload definitions: pure functions of (workload, seed).

Every input array the benchmark hands the program comes from here.  A
workload is a fixed table of operation shapes plus a seeded stream of
draws over it; :func:`operands` turns one drawn operation into standard
``(batch, rows, cols)`` arrays and :func:`reference` computes the
independent numpy/scipy answer the program's output is checked against.

Inputs follow the paper's random protocol: entries uniform in [-1, 1)
(real and imaginary parts independently); triangular TRSM factors are
scaled so every solve is well conditioned.  Special values (NaN/Inf,
``alpha = 0``, singular diagonals) are deliberately absent: they belong
to a differential fuzzer, so ``failed == 0`` here says nothing about
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

WORKLOADS = ("headline", "ragged", "serve_mixed")

#: Seed withheld from tuning: a performance claim measured on other
#: seeds must also hold on this one.
HELD_OUT_SEED = 9973

#: The paper's batch size (Figs. 7-12).
HEADLINE_BATCH = 16384

#: Ragged batch counts are drawn log-uniform in 1..RAGGED_MAX_BATCH.
RAGGED_MAX_BATCH = 512

#: Per-dtype bound on a member's largest error relative to its error
#: scale (see :func:`reference`).  The reference runs in
#: float64/complex128, so the bound covers the program's own rounding
#: over at most 16-term sums with a wide margin.
TOLERANCE = {"s": 2e-5, "c": 2e-5, "d": 1e-12, "z": 1e-12}

_NP_DTYPE = {"s": np.float32, "d": np.float64,
             "c": np.complex64, "z": np.complex128}
_WIDE = {"s": np.float64, "d": np.float64,
         "c": np.complex128, "z": np.complex128}
_WORKLOAD_TAG = {name: i + 1 for i, name in enumerate(WORKLOADS)}


@dataclass(frozen=True)
class Shape:
    """One public-call signature: routine, dtype, sizes, modes, scalars.

    GEMM: ``m x n x k`` with ``mode`` = transa + transb (``"NT"``).
    TRSM: ``m x n`` B with ``mode`` in the paper's side/trans/uplo/diag
    order (``"LNLN"``); ``k`` is unused.
    """

    routine: str
    dtype: str
    m: int
    n: int
    k: int
    mode: str
    alpha: complex = 1.0
    beta: complex = 1.0

    @property
    def label(self) -> str:
        dims = (f"{self.m}x{self.n}x{self.k}" if self.routine == "gemm"
                else f"{self.m}x{self.n}")
        return f"{self.dtype}{self.routine}{dims}:{self.mode}"

    @property
    def a_dim(self) -> int:
        return self.m if self.mode[0] == "L" else self.n


def _gemm(dtype, m, n, k, mode, alpha=1.0, beta=1.0) -> Shape:
    return Shape("gemm", dtype, m, n, k, mode, alpha, beta)


def _trsm(dtype, m, n, mode, alpha=1.0) -> Shape:
    return Shape("trsm", dtype, m, n, 0, mode, alpha, 0.0)


#: The ROADMAP headline point (sgemm 8^3 NN) plus one shape per other
#: dtype, at the public defaults alpha = beta = 1.
HEADLINE_MIX = (
    _gemm("s", 8, 8, 8, "NN"),
    _gemm("d", 8, 8, 8, "TN"),
    _gemm("c", 4, 4, 4, "NT"),
    _trsm("s", 8, 8, "LNLN"),
    _trsm("z", 4, 4, "LTUN"),
)

_RA, _RB = 0.75, 0.5
_CA, _CB = 0.75 + 0.25j, 0.5 - 0.25j

#: 24 shapes over the paper's input space below 17: every dtype, the
#: four GEMM modes, and TRSM covering both values of every mode letter.
RAGGED_SHAPES = (
    _gemm("s", 1, 1, 1, "NN", _RA, _RB),
    _gemm("d", 2, 3, 4, "NT", _RA, _RB),
    _gemm("c", 3, 3, 3, "TN", _CA, _CB),
    _gemm("z", 4, 4, 4, "TT", _CA, _CB),
    _gemm("s", 5, 7, 3, "TN", _RA, _RB),
    _gemm("d", 6, 6, 6, "NN", _RA, _RB),
    _gemm("c", 7, 5, 9, "NT", _CA, _CB),
    _gemm("z", 8, 8, 8, "NN", _CA, _CB),
    _gemm("s", 9, 9, 9, "TT", _RA, _RB),
    _gemm("d", 11, 13, 7, "TN", _RA, _RB),
    _gemm("c", 12, 12, 12, "NN", _CA, _CB),
    _gemm("d", 16, 16, 16, "NT", _RA, _RB),
    _trsm("s", 1, 1, "LNLN", _RA),
    _trsm("d", 3, 2, "LTUN", _RA),
    _trsm("c", 4, 4, "RNLU", _CA),
    _trsm("z", 5, 3, "RTUU", _CA),
    _trsm("s", 6, 6, "LNUU", _RA),
    _trsm("d", 7, 4, "RNUN", _RA),
    _trsm("c", 8, 8, "LTLU", _CA),
    _trsm("z", 9, 5, "RTLN", _CA),
    _trsm("s", 10, 10, "LTUU", _RA),
    _trsm("d", 12, 6, "RNLN", _RA),
    _trsm("c", 13, 13, "LNLN", _CA),
    _trsm("z", 16, 16, "RTUN", _CA),
)

#: Small single-matrix requests for the service: one GEMM per dtype and
#: two TRSMs, so six coalescing keys.  The first is the hot key, sent
#: as often as the other five together, so requests coalesce at a rate
#: the pump sustains.
SERVE_SHAPES = (
    _gemm("s", 4, 4, 4, "NN", _RA, _RB),
    _gemm("d", 8, 8, 8, "NN", _RA, _RB),
    _gemm("c", 4, 4, 4, "NT", _CA, _CB),
    _gemm("z", 4, 4, 4, "TN", _CA, _CB),
    _trsm("s", 4, 4, "LNLN", _RA),
    _trsm("d", 8, 4, "LTUN", _RA),
)
SERVE_WEIGHTS = (5, 1, 1, 1, 1, 1)

SERVE_TENANTS = ("t0", "t1", "t2")

#: Requests the serve generator pre-builds (operands and reference) and
#: then cycles through.
SERVE_POOL = 800


@dataclass
class Op:
    """One drawn operation: its shape, batch, operands and reference."""

    shape: Shape
    batch: int
    a: np.ndarray
    b: np.ndarray
    c: "np.ndarray | None"
    expected: np.ndarray
    scale: np.ndarray
    tenant: str = "default"


def rng_for(workload: str, seed: int, *stream: int) -> np.random.Generator:
    """The generator for one numbered stream of one (workload, seed)."""
    return np.random.default_rng([_WORKLOAD_TAG[workload], int(seed),
                                  *stream])


def _uniform(rng: np.random.Generator, shape, dtype: str) -> np.ndarray:
    real = rng.uniform(-1.0, 1.0, shape)
    if dtype in "cz":
        real = real + 1j * rng.uniform(-1.0, 1.0, shape)
    return real.astype(_NP_DTYPE[dtype])


def operands(shape: Shape, batch: int, rng: np.random.Generator):
    """``(a, b, c)`` standard-layout operands; ``c`` is None for TRSM.

    With ``batch == 0`` each operand is a single 2-D matrix (one
    service request)."""
    lead = (batch,) if batch else ()
    if shape.routine == "gemm":
        a_rows, a_cols = ((shape.m, shape.k) if shape.mode[0] == "N"
                          else (shape.k, shape.m))
        b_rows, b_cols = ((shape.k, shape.n) if shape.mode[1] == "N"
                          else (shape.n, shape.k))
        return (_uniform(rng, lead + (a_rows, a_cols), shape.dtype),
                _uniform(rng, lead + (b_rows, b_cols), shape.dtype),
                _uniform(rng, lead + (shape.m, shape.n), shape.dtype))
    d = shape.a_dim
    # off-diagonal entries below 1/d and a diagonal of at least 1 keep
    # the factor well conditioned for unit and non-unit solves alike
    a = _uniform(rng, lead + (d, d), shape.dtype) / d
    a = a + 2 * np.eye(d, dtype=a.dtype)
    a = np.tril(a) if shape.mode[2] == "L" else np.triu(a)
    return a, _uniform(rng, lead + (shape.m, shape.n), shape.dtype), None


def _op(x: np.ndarray, trans: str) -> np.ndarray:
    return x if trans == "N" else np.swapaxes(x, -1, -2)


def reference(shape: Shape, a, b, c) -> "tuple[np.ndarray, np.ndarray]":
    """The oracle, in float64/complex128: ``np.matmul`` with op, alpha
    and beta for GEMM; ``scipy.linalg.solve_triangular`` for TRSM.

    Returns the expected result and each member's error scale: the
    magnitude of the terms summed (``|alpha| |op(A)| |op(B)| + |beta|
    |C|`` for GEMM, so cancellation cannot fail a correct result) or
    of the solution (TRSM)."""
    wide = _WIDE[shape.dtype]
    a, b = a.astype(wide), b.astype(wide)
    axes = (-2, -1)
    if shape.routine == "gemm":
        opa, opb = _op(a, shape.mode[0]), _op(b, shape.mode[1])
        c = c.astype(wide)
        expected = shape.alpha * np.matmul(opa, opb) + shape.beta * c
        terms = (abs(shape.alpha) * np.matmul(np.abs(opa), np.abs(opb))
                 + abs(shape.beta) * np.abs(c))
        return expected, terms.max(axis=axes)
    expected = _solve(shape, a, b)
    return expected, np.abs(expected).max(axis=axes)


def _solve(shape: Shape, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    side, trans, uplo, diag = shape.mode
    rhs = shape.alpha * b
    lower = uplo == "L"
    if side == "L":
        # op(A) X = alpha B
        return scipy.linalg.solve_triangular(
            a, rhs, trans=trans, lower=lower, unit_diagonal=diag == "U")
    # X op(A) = alpha B  <=>  op(A)^T X^T = alpha B^T
    flipped = "N" if trans == "T" else "T"
    xt = scipy.linalg.solve_triangular(
        a, np.swapaxes(rhs, -1, -2), trans=flipped, lower=lower,
        unit_diagonal=diag == "U")
    return np.swapaxes(xt, -1, -2)


def wrong_members(op: Op, out) -> int:
    """How many members of ``out`` miss the reference by more than the
    dtype tolerance times their error scale.  A result of the wrong
    shape or dtype counts every member as wrong, and NaN is wrong."""
    expected = op.expected
    members = expected.shape[0] if expected.ndim == 3 else 1
    if (not isinstance(out, np.ndarray) or out.shape != expected.shape
            or out.dtype != _NP_DTYPE[op.shape.dtype]):
        return members
    err = np.abs(out.astype(expected.dtype) - expected).max(axis=(-2, -1))
    ok = err <= TOLERANCE[op.shape.dtype] * np.maximum(op.scale, 1e-30)
    return int(np.count_nonzero(~ok))


def make_op(shape: Shape, batch: int, rng: np.random.Generator,
            tenant: str = "default") -> Op:
    a, b, c = operands(shape, batch, rng)
    expected, scale = reference(shape, a, b, c)
    return Op(shape, batch, a, b, c, expected, scale, tenant)


# -- the three workloads --------------------------------------------------

def headline_ops(seed: int) -> "list[Op]":
    """One operand set per headline shape at the paper's batch."""
    return [make_op(shape, HEADLINE_BATCH, rng_for("headline", seed, i))
            for i, shape in enumerate(HEADLINE_MIX)]


def ragged_draw(seed: int, i: int) -> "tuple[Shape, int]":
    """Call ``i`` of the ragged stream: a shape and a batch count that
    is log-uniform in 1..RAGGED_MAX_BATCH.

    The stream is stratified in blocks of one call per shape: each block
    visits every shape once, in a seeded order, and its batch counts
    take one draw from each of as many equal-probability strata.  A
    shape's stratum moves on by one from block to block, from a seeded
    start, so 24 consecutive blocks give every shape every stratum once.
    Every call keeps the log-uniform marginal, but a run's shape mix and
    its pairing of shapes with batch sizes hardly depend on the seed,
    which keeps runs comparable."""
    n = len(RAGGED_SHAPES)
    block, k = divmod(i, n)
    start = rng_for("ragged", seed, 3).permutation(n)
    rng = rng_for("ragged", seed, 0, block)
    shape = rng.permutation(n)[k]
    jitter = rng.uniform(size=n)
    u = ((start[shape] + block) % n + jitter[k]) / n
    batch = int(math.exp(u * math.log(RAGGED_MAX_BATCH + 1)))
    return RAGGED_SHAPES[shape], min(RAGGED_MAX_BATCH, max(1, batch))


def ragged_op(seed: int, i: int) -> Op:
    shape, batch = ragged_draw(seed, i)
    return make_op(shape, batch, rng_for("ragged", seed, 1, i))


def ragged_warm_ops(seed: int) -> "list[Op]":
    """One single-matrix call per ragged shape: warms kernels and one
    plan per shape during set-up."""
    return [make_op(shape, 1, rng_for("ragged", seed, 2, i))
            for i, shape in enumerate(RAGGED_SHAPES)]


def serve_pool(seed: int) -> "list[Op]":
    """The service's request pool, operands single 2-D matrices.

    Stratified like the ragged stream: each block holds every request
    kind as often as its weight says, in a seeded order, each from a
    seeded tenant, so the per-kind arrival rates do not depend on the
    seed."""
    kinds = [k for k, w in enumerate(SERVE_WEIGHTS) for _ in range(w)]
    pool = []
    for block in range(SERVE_POOL // len(kinds)):
        draw = rng_for("serve_mixed", seed, 0, block)
        tenants = draw.integers(len(SERVE_TENANTS), size=len(kinds))
        for j, k in enumerate(draw.permutation(kinds)):
            i = block * len(kinds) + j
            pool.append(make_op(SERVE_SHAPES[k], 0,
                                rng_for("serve_mixed", seed, 1, i),
                                SERVE_TENANTS[tenants[j]]))
    return pool


def serve_warm_ops(seed: int) -> "list[Op]":
    """One request per service shape, for set-up."""
    return [make_op(shape, 0, rng_for("serve_mixed", seed, 2, i),
                    SERVE_TENANTS[i % len(SERVE_TENANTS)])
            for i, shape in enumerate(SERVE_SHAPES)]


def model_problems(workload: str) -> "list[tuple[Shape, int]]":
    """The (shape, batch) points the cycle-model figure averages over.

    headline: its mix at the paper's batch.  ragged: every shape at the
    quartile batches of the log-uniform draw, so the figure does not
    depend on the seed.  serve_mixed: every request kind, as often as
    it is sent, at a batch of 16.
    """
    if workload == "headline":
        return [(s, HEADLINE_BATCH) for s in HEADLINE_MIX]
    if workload == "ragged":
        top = math.log(RAGGED_MAX_BATCH + 1)
        batches = [max(1, int(math.exp(top * q))) for q in (0.25, 0.5, 0.75)]
        return [(s, b) for s in RAGGED_SHAPES for b in batches]
    return [(s, 16) for s, w in zip(SERVE_SHAPES, SERVE_WEIGHTS)
            for _ in range(w)]
