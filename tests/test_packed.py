import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (QcMatrix, dense_vec_mul, qc_to_words, qc_vec_mul,
                     words_to_qc)
from ledasig import (INSTANCES, decode_public_key, encode_public_key,
                     keypair_from_seed, packed, sign)
from ledasig.drbg import Xof
from ledasig.packed import PackedQc
from ledasig.qc import SparseVector, pack_blocks


def rnd_qc(rng, rb, cb, p):
    return QcMatrix.from_blocks(
        [[rng.getrandbits(p) for _ in range(cb)] for _ in range(rb)], p)


def packed_qc(mat):
    return PackedQc(qc_to_words(mat), mat.p)


@pytest.mark.parametrize("p", [5, 13, 64, 65, 127, 130])
def test_packed_matches_dense_and_qc(p):
    rng = random.Random(p)
    mat = rnd_qc(rng, 3, 4, p)
    dense = mat.to_dense_rows()
    pq = packed_qc(mat)
    for trial in range(8):
        sup = tuple(sorted(rng.sample(range(4 * p), rng.randint(0, 4 * p))))
        v = SparseVector(4 * p, sup)
        expected = dense_vec_mul(dense, v.to_int())
        assert pq.mul_support(sup) == expected
        assert qc_vec_mul(mat, v).to_int() == expected


def test_empty_support_gives_zero():
    rng = random.Random(0)
    mat = rnd_qc(rng, 2, 2, 11)
    assert packed_qc(mat).mul_support(()) == 0


def flag_sparse_words(rng, rb, cb, p, edges=()):
    """Wire words of a flag-plus-sparse key at small p.

    Each block is an all-ones flag (half of them) XOR a sparse part of at
    most min(2 ceil(p/64), (p - 1) // 2) positions, so every part is the
    lighter side of its block and the key meets the sparse product's rule.
    About a third of the parts draw from edges alone.
    """
    cap = min(2 * ((p + 63) // 64), (p - 1) // 2)
    bits = np.zeros((rb, cb, p), dtype=bool)
    for i in range(rb):
        for j in range(cb):
            pool = list(edges if edges and rng.random() < 0.3 else range(p))
            weight = rng.randint(0, min(cap, len(pool)))
            bits[i, j, rng.sample(pool, weight)] = True
            if rng.random() < 0.5:
                bits[i, j] ^= True
    return pack_blocks(bits)


def _comb_edges(p):
    """In-block offsets t that are residue 0, residue 63 (when p > 63) and
    in the top word window q = nw - 1, with their negations (-t) mod p."""
    nw = (p + 63) // 64
    ts = {0, p - 1, 64 * (nw - 1)} | ({63, 64 % p} if p > 63 else set())
    return sorted(ts | {(-t) % p for t in ts})


def comb_product(words, support, p):
    """The residue comb's product over any key, as mul_support returns it."""
    pos = np.asarray(support, dtype=np.int64)
    blk, off = np.divmod(pos, p)
    by_col = np.ascontiguousarray(words.transpose(1, 2, 0))
    bits = packed._comb(by_col, blk, -off % p, p)
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(),
                          "little")


# The ids keep the names of the kernels these paths replaced: "grouped"
# is the residue comb, which any key without flag-plus-sparse blocks
# takes (a random key here), and "tiled" the sparse product, which the
# flag-plus-sparse keys take.  The number caps the weight of the random
# supports: 0 leaves the edge offsets alone, 3 a sparse support that
# leaves most residues and column chunks empty, 10**6 any weight up to
# every bit.
@pytest.mark.parametrize("regime, cap", [
    pytest.param("comb", None, id="grouped-None"),
    pytest.param("sparse", 0, id="tiled-0"),
    pytest.param("sparse", 3, id="tiled-3"),
    pytest.param("sparse", 10**6, id="tiled-1000000")])
@pytest.mark.parametrize(
    "p", [5, 13, 63, 64, 65, 127, 128, 130, 191, 192, 193])
def test_numpy_regimes_match_dense(p, regime, cap):
    rng = random.Random(1000 + p)
    edges = _comb_edges(p)
    if regime == "comb":
        words = qc_to_words(rnd_qc(rng, 3, 4, p))
    else:
        words = flag_sparse_words(rng, 3, 4, p, edges)
    dense = words_to_qc(words, p).to_dense_rows()
    pq = PackedQc(words, p)
    # at p = 5 every block is a flag plus at most 2 = 2 ceil(p/64) bits,
    # so every key meets the sparse rule; the comb is called directly
    if regime == "sparse" or p > 5:
        assert (pq.flags is None) == (regime == "comb")
    if regime == "sparse":
        product = pq.mul_support
    else:
        def product(sup):
            return comb_product(words, sup, p)
    top = 4 * p if cap is None else min(cap, 4 * p)
    # random supports, every other one (and any left empty) with all edge
    # offsets added, then each edge offset alone, where a wrong shift or
    # window cannot cancel, and the full support
    sups = []
    for trial in range(6):
        sup = set(rng.sample(range(4 * p), rng.randint(0, top)))
        if trial % 2 == 0 or not sup:
            sup |= {rng.randrange(4) * p + o for o in edges}
        sups.append(tuple(sorted(sup)))
    sups += [(rng.randrange(4) * p + o,) for o in edges]
    sups.append(tuple(range(4 * p)))
    for sup in sups:
        assert product(sup) == dense_vec_mul(
            dense, SparseVector(4 * p, sup).to_int())


def _gamma3_shape_key(seed):
    """A flag-plus-sparse key of gamma3's shape (r0 = 139, n0 = 293,
    p = 3121): each block the parity of 76 random positions, half of
    them flagged, as build_public_key's blocks are."""
    r0, n0, p = 139, 293, 3121
    rng = np.random.default_rng(seed)
    words = np.empty((r0, n0, 49), dtype="<u8")
    for i in range(r0):
        row = np.zeros(n0 * p, dtype=bool)
        np.logical_xor.at(row, (rng.integers(0, p, (n0, 76))
                                + np.arange(n0)[:, None] * p).ravel(), True)
        row = row.reshape(n0, p)
        row ^= (rng.random(n0) < 0.5)[:, None]
        words[i] = pack_blocks(row)
    return words


def test_numpy_regimes_agree_full_shape():
    # a structured key of gamma3's shape at sigma's density: the sparse
    # product against the gathered comb on the same words
    p = 3121
    pq = PackedQc(_gamma3_shape_key(3121), p)
    assert pq.flags is not None
    n = 293 * p
    sup = np.flatnonzero(np.random.default_rng(3121).random(n) < 0.24)
    assert pq.mul_support(sup) == comb_product(pq.by_row, sup, p)


def _rows_of(words, p):
    """build_public_key's handover for words whose every block is a
    flag-plus-sparse block: flags, row ends and ascending int32 positions."""
    r0, n0, _ = words.shape
    weights = np.bitwise_count(words).sum(axis=-1)
    flags = 2 * weights > p
    bits = np.unpackbits(words.view(np.uint8), axis=-1, count=p,
                         bitorder="little").astype(bool)
    bits ^= flags[..., None]
    pos = [np.flatnonzero(row).astype(np.int32)
           for row in bits.reshape(r0, -1)]
    ends = np.concatenate(([0], np.cumsum([len(r) for r in pos]))).tolist()
    return flags, ends, np.concatenate(pos)


def _same_index(a, b):
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in ("flags", "starts", "by_col"))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sparse_product_matches_dense_oracle(data):
    # synthetic flag-plus-sparse keys at small p against the dense oracle;
    # the positions read off the words are the handed-over ones, and the
    # index read off the words equals the one from handed-over rows
    p = data.draw(st.integers(3, 200), label="p")
    rb = data.draw(st.integers(1, 3), label="rb")
    cb = data.draw(st.integers(rb + 1, 5), label="cb")
    words = flag_sparse_words(random.Random(data.draw(st.integers(0, 2**32))),
                              rb, cb, p, _comb_edges(p))
    pq = PackedQc(words, p)
    assert pq.flags is not None and not pq.by_col.flags.writeable
    rows = _rows_of(words, p)
    assert np.array_equal(packed._rows_from_words(words, p, *rows[:2]),
                          rows[2])
    assert _same_index(pq, PackedQc(words, p, rows))
    dense = words_to_qc(words, p).to_dense_rows()
    sup = tuple(sorted(data.draw(
        st.sets(st.integers(0, cb * p - 1), max_size=cb * p), label="sup")))
    assert pq.mul_support(sup) == dense_vec_mul(
        dense, SparseVector(cb * p, sup).to_int())


def test_rows_that_are_not_the_lighter_side_are_read_off_the_words():
    # a handed-over block part heavier than p/2 (flag and part swapped)
    # is not taken; the index then comes from the words
    p = 13
    words = flag_sparse_words(random.Random(5), 2, 3, p)
    flags, ends, pos = _rows_of(words, p)
    bits = np.zeros((2, 3 * p), dtype=bool)
    for i in range(2):
        bits[i, pos[ends[i]:ends[i + 1]]] = True
    flags[0, 0] ^= True
    bits[0, :p] ^= True
    heavy = [np.flatnonzero(row).astype(np.int32) for row in bits]
    ends = [0, len(heavy[0]), len(heavy[0]) + len(heavy[1])]
    pq = PackedQc(words, p, (flags, ends, np.concatenate(heavy)))
    assert _same_index(pq, PackedQc(words, p))


@pytest.mark.parametrize("p", [13, 130])
def test_regime_rule_at_its_edge(p):
    # sum min(wt, p - wt) = words.nbytes / 4 takes the sparse product,
    # from handed-over rows and from the words alike; one more sparse
    # bit takes the comb from both
    rng = random.Random(p)
    rb, cb, nw = 2, 3, (p + 63) // 64
    sparse = np.zeros((rb, cb, p), dtype=bool)
    for part in sparse.reshape(-1, p):
        part[rng.sample(range(p), 2 * nw)] = True
    flags = np.array([[rng.random() < 0.5 for _ in range(cb)]
                      for _ in range(rb)])
    sups = [(), tuple(range(cb * p))] + [
        tuple(sorted(rng.sample(range(cb * p), k)))
        for k in (1, 5, cb * p // 4)]
    for extra in (False, True):
        if extra:
            sparse[0, 0, np.flatnonzero(~sparse[0, 0])[0]] = True
        words = pack_blocks(sparse ^ flags[..., None])
        assert 4 * int(sparse.sum()) == words.nbytes + 4 * extra
        dense = words_to_qc(words, p).to_dense_rows()
        for pq in (PackedQc(words, p), PackedQc(words, p, _rows_of(words, p))):
            assert (pq.flags is None) == extra
            for sup in sups:
                assert pq.mul_support(sup) == dense_vec_mul(
                    dense, SparseVector(cb * p, sup).to_int())


def test_random_wide_key_takes_the_comb():
    # an unstructured key of gamma3's shape has parts near p/2 per block:
    # its index would outweigh its words, so it keeps the word-major key
    p, r0, n0, nw = 3121, 139, 293, 49
    words = np.random.default_rng(1).integers(0, 2**64, (r0, n0, nw),
                                              dtype=np.uint64)
    words[..., -1] &= np.uint64((1 << (p - 64 * (nw - 1))) - 1)
    pq = PackedQc(words, p)
    assert pq.flags is None and pq.by_col.shape == (n0, nw, r0)


# ---------------------------------------------------------------------------
# the nine instances: fresh and decoded keys


@pytest.fixture(scope="module")
def instance_keys():
    # handed is a copy of the fresh key's sparse rows, or None: packing
    # the key hands its own rows over and drops them
    keys = {}
    for name, prm in INSTANCES.items():
        sk, pk = keypair_from_seed(bytes(range(prm.seed_bytes)), prm)
        rows = pk.sparse_rows
        handed = None if rows is None else (
            rows[0].copy(), list(rows[1]), rows[2].copy())
        keys[name] = (sk, pk, handed, decode_public_key(encode_public_key(pk)))
    return keys


def test_regime_rule_picks_the_wide_instances(instance_keys):
    # the rule 4 sum|s_ij| <= words.nbytes takes the sparse product for
    # exactly these four.  Every fresh key whose rows are all sorted hands
    # them over and the packed key alone applies the rule: a6 and alpha3
    # hand over rows that break it
    sparse = {"b6", "beta3", "c6", "gamma3"}
    handing = sparse | {"a6", "alpha3"}
    for name, (_, pk, handed, decoded) in instance_keys.items():
        assert (pk.packed.flags is not None) == (name in sparse), name
        assert (decoded.packed.flags is not None) == (name in sparse), name
        assert (handed is not None) == (name in handing), name
        if name in handing - sparse:
            assert 4 * handed[2].size > pk.words.nbytes, name
        if name in sparse:
            assert pk.packed.by_col.nbytes <= pk.words.nbytes
            assert _same_index(pk.packed, decoded.packed), name


def test_packed_key_keeps_no_handed_rows(instance_keys):
    # pk.packed hands the fresh key's rows over once and drops them: the
    # four sparse keys rewrite them into their index, and a6 and alpha3,
    # over the rule, take the comb without reading them
    for name, (_, pk, handed, _) in instance_keys.items():
        pq = pk.packed
        assert pk.sparse_rows is None, name
        if name in ("a6", "alpha3"):
            assert handed is not None and pq.flags is None, name


@pytest.mark.parametrize("name", ["b6", "beta3", "c6", "gamma3"])
def test_decoded_words_read_as_the_handed_rows(instance_keys, name):
    # one form: a decoded key's popcounts give the flags and row ends its
    # fresh key handed over, and its words read as the handed positions
    _, pk, handed, decoded = instance_keys[name]
    starts = decoded.packed.starts
    flags = decoded.packed.flags.astype(bool)
    ends = np.append(starts[:, 0], starts[-1, -1])
    assert np.array_equal(flags, handed[0])
    assert ends.tolist() == list(handed[1])
    read = packed._rows_from_words(decoded.words, pk.params.p, flags, ends)
    assert np.array_equal(read, handed[2])


@pytest.mark.parametrize("name", ["b6", "gamma3"])
def test_second_packed_key_from_the_words_gives_the_same_index(
        instance_keys, name):
    # pk.packed has rewritten the handed rows into its index and dropped
    # them; a second PackedQc of the same words reads them off the words
    # and gives the same index and products
    sk, pk, _, _ = instance_keys[name]
    first = pk.packed
    second = PackedQc(pk.words, pk.params.p)
    assert _same_index(first, second)
    sup = sign(sk, b"second key", rng=Xof(b"second key")).sigma.positions()
    assert second.mul_support(sup) == first.mul_support(sup)


@pytest.mark.parametrize("name", list(INSTANCES))
def test_fresh_and_decoded_products_equal_the_comb(instance_keys, name):
    sk, pk, _, decoded = instance_keys[name]
    prm = pk.params
    rng = np.random.default_rng(len(name))
    sups = [sign(sk, msg, rng=Xof(msg)).sigma.positions()
            for msg in (b"first", b"second")]
    sups += [np.flatnonzero(rng.random(prm.n) < 0.24),
             np.zeros(0, dtype=np.int64), np.array([prm.n - 1])]
    for sup in sups:
        expected = comb_product(pk.words, sup, prm.p)
        assert pk.packed.mul_support(sup) == expected
        assert decoded.packed.mul_support(sup) == expected


@pytest.mark.parametrize("p", [63, 64, 65, 127, 128, 192])
def test_by_row_holds_transposed_blocks(p):
    # by_row is the wire array itself; by_col[j] is block column j word-major
    rng = random.Random(p)
    words = qc_to_words(rnd_qc(rng, 2, 3, p))
    pq = PackedQc(words, p)
    assert np.shares_memory(pq.by_row, words)
    nw = (p + 63) // 64
    assert pq.by_col.shape == (3, nw, 2) and pq.by_col.flags.c_contiguous
    for i in range(2):
        for j in range(3):
            assert np.array_equal(pq.by_col[j][:, i], words[i, j])

