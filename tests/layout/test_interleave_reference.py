"""The one-pass interleave/de-interleave against the three-pass reference.

``from_matrices`` writes each component plane with one transposing copy
straight from the caller's array, and ``to_matrices`` copies once into
a preallocated output.  The formulation they replaced (whole-batch
zeros, pad copy, transposing copy; complex rebuilt as ``re + 1j*im``)
is kept here as the reference: on finite data the buffers and outputs
must match it byte for byte.
"""

import numpy as np
import pytest

from repro.layout import CompactBatch, padded_count
from repro.types import BlasDType
from tests.conftest import ALL_DTYPES, NP_DTYPES, random_batch

LANES = (1, 2, 4, 8)
ROWS, COLS = 5, 3


def reference_interleave(matrices, lanes, dtype):
    dt = BlasDType.from_any(dtype)
    matrices = np.ascontiguousarray(matrices, dtype=dt.np_dtype)
    batch, rows, cols = matrices.shape
    groups = padded_count(batch, lanes) // lanes
    padded = np.zeros((groups * lanes, rows, cols), dtype=dt.np_dtype)
    padded[:batch] = matrices
    grouped = padded.reshape(groups, lanes, rows, cols)
    if dt.is_complex:
        planes = np.stack([grouped.real, grouped.imag], axis=2)
        interleaved = planes.transpose(0, 4, 3, 2, 1)
    else:
        interleaved = grouped.transpose(0, 3, 2, 1)
    return np.ascontiguousarray(interleaved, dtype=dt.real_dtype).reshape(-1)


def reference_deinterleave(cb):
    grid = cb.as_grid()
    if cb.dtype.is_complex:
        planes = grid.transpose(0, 4, 3, 1, 2)
        full = planes[:, :, 0] + 1j * planes[:, :, 1]
        full = full.astype(cb.dtype.np_dtype)
    else:
        full = grid[:, :, :, 0, :].transpose(0, 3, 1, 2)
    out = full.reshape(cb.groups * cb.lanes, cb.rows, cb.cols)
    return np.ascontiguousarray(out[: cb.batch])


#: source dtype that forces a conversion into each BLAS dtype
CONVERT_FROM = {"s": np.float64, "d": np.float32, "c": np.complex128,
                "z": np.complex64}


def source(rng, kind, batch, dtype):
    """A (batch, ROWS, COLS) input of the given memory layout."""
    if kind == "real-into-complex":
        return rng.standard_normal((batch, ROWS, COLS))
    if kind == "convert":
        return random_batch(rng, batch, ROWS, COLS, dtype).astype(
            CONVERT_FROM[dtype])
    if kind == "swapaxes":
        base = random_batch(rng, batch, COLS, ROWS, dtype)
        return base.swapaxes(1, 2)
    if kind == "negative-strides":
        base = random_batch(rng, batch, ROWS, COLS, dtype)
        return base[::-1, :, ::-1]
    return random_batch(rng, batch, ROWS, COLS, dtype)


KINDS = ("contiguous", "swapaxes", "negative-strides", "convert",
         "real-into-complex")


def cases():
    for dtype in ALL_DTYPES:
        for lanes in LANES:
            for batch in sorted({1, lanes - 1, lanes, lanes + 1,
                                 3 * lanes + 1} - {0}):
                for kind in KINDS:
                    if kind == "real-into-complex" and dtype in "sd":
                        continue
                    yield dtype, lanes, batch, kind


@pytest.mark.parametrize("dtype,lanes,batch,kind", list(cases()))
def test_matches_three_pass_reference(dtype, lanes, batch, kind):
    rng = np.random.default_rng(batch * 131 + lanes)
    a = source(rng, kind, batch, dtype)
    cb = CompactBatch.from_matrices(a, lanes, dtype)
    assert cb.buffer.dtype == BlasDType.from_any(dtype).real_dtype
    assert cb.buffer.tobytes() == reference_interleave(a, lanes,
                                                       dtype).tobytes()

    # padding lanes of the last group are exactly +0.0
    tail = batch % lanes
    if tail:
        pad = cb.as_grid()[-1, ..., tail:]
        assert np.all(pad == 0) and not np.any(np.signbit(pad))

    out = cb.to_matrices()
    assert out.tobytes() == reference_deinterleave(cb).tobytes()
    assert out.dtype == NP_DTYPES[dtype]
    assert out.shape == (batch, ROWS, COLS)
    assert out.flags.c_contiguous and out.flags.owndata
    assert not np.shares_memory(out, cb.buffer)


@pytest.mark.parametrize("dtype", ALL_DTYPES)
def test_special_values_round_trip_bit_for_bit(dtype):
    """Inf/NaN/-0.0 in either component come back unchanged (the
    reference's ``re + 1j*im`` turns an infinite imaginary part into a
    NaN real part and -0.0 into +0.0)."""
    vals = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0, 1.5])
    re = vals[np.arange(7 * 2 * 3) % vals.size].reshape(7, 2, 3)
    a = np.empty(re.shape, dtype=NP_DTYPES[dtype])
    a.real = re
    if dtype in "cz":
        a.imag = re[::-1]
    cb = CompactBatch.from_matrices(a, 4, dtype)
    assert cb.to_matrices().tobytes() == a.tobytes()
    for i in range(a.shape[0]):
        assert cb.matrix(i).tobytes() == a[i].tobytes()
