"""A singular batch member solves to Inf/NaN, as reference BLAS does.

Only the padding lanes of the last group get a substitute unit
diagonal at pack time; a real zero on a member's diagonal must not be
papered over with a finite wrong answer.  The other members still
match an independent scipy oracle, and every backend agrees byte for
byte, NaNs included.
"""

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from repro import IATF, KUNPENG_920
from tests.conftest import (ALL_DTYPES, random_batch, random_triangular,
                            tolerance)

BACKENDS = ("interpret", "compiled", "fused", "megakernel")
SINGULAR = 2


def oracle(a, b, side, uplo, trans):
    """Reference solution of op(A) X = B (side L) or X op(A) = B (R)."""
    lower = uplo == "L"
    if side == "L":
        return solve_triangular(a, b, lower=lower, trans=trans)
    # X op(A) = B  <=>  op(A)^T X^T = B^T
    flipped = {"N": "T", "T": "N"}[trans]
    return solve_triangular(a, b.T, lower=lower, trans=flipped).T


@pytest.mark.parametrize("dtype", ALL_DTYPES)
@pytest.mark.parametrize("side,uplo,trans", [("L", "L", "N"),
                                             ("R", "U", "T")])
def test_zero_diagonal_member_is_non_finite(rng, dtype, side, uplo, trans):
    batch, m, n = 7, 5, 3          # 7 is not a multiple of any lane count
    d = m if side == "L" else n
    a = random_triangular(rng, batch, d, dtype, uplo)
    a[SINGULAR, 2, 2] = 0
    b = random_batch(rng, batch, m, n, dtype)
    with np.errstate(all="raise"):    # the library keeps its own FP state
        outs = {be: IATF(KUNPENG_920, backend=be).trsm(
            a, b, side=side, uplo=uplo, transa=trans) for be in BACKENDS}

    x = outs["interpret"]
    for be in BACKENDS:
        assert outs[be].tobytes() == x.tobytes(), be
    assert not np.all(np.isfinite(x[SINGULAR]))
    for i in range(batch):
        if i == SINGULAR:
            continue
        assert np.all(np.isfinite(x[i]))
        np.testing.assert_allclose(x[i], oracle(a[i], b[i], side, uplo,
                                                trans),
                                   rtol=tolerance(dtype),
                                   atol=tolerance(dtype))
