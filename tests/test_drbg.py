from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import below, distinct, gen_q_scalar, gen_s_scalar, gen_v_scalar
from ledasig.drbg import Xof
from ledasig.keygen import gen_q, gen_s, gen_v
from ledasig.params import INSTANCES, get_instance


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


# ---------------------------------------------------------------------------
# the batched rejection sampler against one draw at a time

# 2^64 mod b is a third of 2^64 just above 2^64 / 3, so a third of the
# words drawn for such a bound are rejected
_BOUNDS = st.one_of(st.integers(1, 2**16),
                    st.integers(0, 63).map(lambda k: 2**k),
                    st.integers(2**63 - 2**16, 2**63),
                    st.integers(2**64 // 3 + 1, 2**64 // 3 + 2**40))


@settings(max_examples=100, deadline=None)
@given(seed=st.binary(max_size=8),
       bounds=st.lists(_BOUNDS, min_size=1, max_size=40))
def test_below_each_matches_scalar_draws(seed, bounds):
    xof, twin = Xof(seed), Xof(seed)
    got = xof.below_each(np.array(bounds, dtype=np.uint64))
    assert got.dtype == np.int64
    assert got.tolist() == [below(twin, b) for b in bounds]
    assert xof._pos == twin._pos


def _crafted(seed: bytes, ones_at) -> Xof:
    """Xof whose stream has the 64-bit words at ones_at set to all ones,
    a word every bound that is not a power of two rejects."""
    xof = Xof(seed)
    buf = bytearray(xof.bytes(1 << 20))
    for i in ones_at:
        buf[8 * i:8 * i + 8] = b"\xff" * 8
    xof._buf, xof._pos = bytes(buf), 0
    return xof


B6 = get_instance("b6")
_B6_DRAWS = B6.k0 * 2 * (B6.w_g - 1)
_REJECTIONS = {
    "first draw": [0],
    "row boundary": [2 * (B6.w_g - 1)],
    "last draw": [_B6_DRAWS - 1],
    "run of ten": range(500, 510),
}


@pytest.mark.parametrize("ones_at", _REJECTIONS.values(), ids=_REJECTIONS)
def test_below_each_rejections_in_crafted_stream(ones_at):
    bounds = np.tile([3, 1279, 113, 2**63 - 1], _B6_DRAWS // 4)
    xof, twin = _crafted(b"r", ones_at), _crafted(b"r", ones_at)
    got = xof.below_each(bounds)
    assert got.tolist() == [below(twin, int(b)) for b in bounds]
    assert xof._pos == twin._pos == 8 * (len(bounds) + len(ones_at))


@pytest.mark.parametrize("ones_at", _REJECTIONS.values(), ids=_REJECTIONS)
def test_gen_v_rejections_in_crafted_stream(ones_at):
    xof, twin = _crafted(b"v", ones_at), _crafted(b"v", ones_at)
    got, want = gen_v(B6, xof), gen_v_scalar(B6, twin)
    assert all(map(np.array_equal, got, want))
    assert xof._pos == twin._pos == 8 * (_B6_DRAWS + len(ones_at))


@pytest.mark.parametrize("bounds", [[0], [-1], [-2**63], [2**63 + 1],
                                    [2**64 - 1]])
def test_below_each_rejects_bounds_outside_range(bounds):
    with pytest.raises(ValueError, match="bound"):
        Xof(b"x").below_each(
            np.array(bounds, dtype=np.uint64 if bounds[0] > 0 else np.int64))


def test_below_each_rejects_float_bounds():
    with pytest.raises(ValueError, match="integer"):
        Xof(b"x").below_each(np.array([3.0]))


@pytest.mark.parametrize("x,y", [(1, 1), (7, 3), (293, 293), (430_000, 32)])
def test_distinct_matches_scalar_fisher_yates(x, y):
    xof, twin = Xof(b"d"), Xof(b"d")
    assert xof.distinct(x, y).tolist() == distinct(twin, x, y)
    assert xof._pos == twin._pos


@pytest.mark.parametrize("name", list(INSTANCES))
def test_factor_generators_match_scalar_oracles(name):
    # one stream through V, S and Q, as private_key_from_seed reads it
    prm = INSTANCES[name]
    xof, twin = Xof(name.encode()), Xof(name.encode())
    assert all(map(np.array_equal, gen_v(prm, xof), gen_v_scalar(prm, twin)))
    for got, want in ((gen_s(prm, xof), gen_s_scalar(prm, twin)),
                      (gen_q(prm, xof), gen_q_scalar(prm, twin))):
        for field in fields(got):
            assert np.array_equal(getattr(got, field.name),
                                  getattr(want, field.name)), field.name
    assert xof._pos == twin._pos
