import numpy as np
import pytest

from ledasig.drbg import Xof


@pytest.mark.parametrize("rows,cols", [(5, 2), (7, 9), (3, 17)])
def test_bit_matrix_reads_consecutive_row_draws(rows, cols):
    # row i is the i-th ceil(cols/8)-byte draw, bit j of it at [i, j]
    xof, twin = Xof(b"bits"), Xof(b"bits")
    got = xof.bit_matrix(rows, cols)
    draws = [int.from_bytes(twin.bytes((cols + 7) // 8), "little")
             & ((1 << cols) - 1) for _ in range(rows)]
    want = [[(d >> j) & 1 for j in range(cols)] for d in draws]
    assert got.dtype == np.uint8 and got.shape == (rows, cols)
    assert got.tolist() == want
    # both streams stand at the same place afterwards
    assert xof.u64() == twin.u64()
