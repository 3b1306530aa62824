"""Word-packed syndrome computation for dense quasi-cyclic matrices.

The matrix is held as its wire rows: by_row[i, j] is the polynomial
h_ij of the first row of circulant (i, j), in ceil(p/64) little-endian
words.  That circulant acts on a column block v as T(h_ij) * v, where T
sends coefficient c to (-c) mod p.  T is the ring automorphism
x -> x^-1, so

    sum_j T(h_ij) * v_j = T(sum_j h_ij * T(v_j)),

and the product needs no transposed copy of the key:

- a set bit of sigma at offset t inside block j enters as x^((-t) mod p);
- the bits are grouped by that negated offset; each group selects a
  subset of block columns, whose key rows are XOR-reduced and then
  shifted into an unreduced 2p-bit accumulator row per block row;
- at the end the r0 accumulator rows are folded mod x^p + 1 and mapped
  through T.

Cost model.  The work is weight(sigma) * r0 * ceil(p/64) word XORs on
every path, so what separates the paths is memory traffic and the number
of Python-level numpy calls.  A key row (one block column, all r0 block
rows) is r0 * ceil(p/64) * 8 bytes: 1.4 KB for a3, 54 KB for gamma3.

A numba kernel parallelized over block rows is used when available; it
reads by_row and the same negated offsets.  The numpy path reads by_col
and has two regimes that compute the identical accumulation:

- grouped: one fancy-index gather of the selected key rows per offset,
  XOR-reduced in one call.  This is about p numpy calls per product,
  but the gather copies every selected row into a temporary, and numpy's
  row gather runs at only a few GB/s.
- tiled: C offsets at a time (C rows of accumulator fill _TILE_BYTES,
  an eighth of the per-core L2 cache), the support visited by column
  block, and each key row XOR-ed in place into its offset's accumulator
  row.  Nothing is gathered and each key row is read once per tile, but
  it costs one numpy call per support bit.  A tile of half the L2 is
  about as fast on a quiet core but loses the cache whenever something
  else uses it: on a shared 2-vCPU host, benchmark runs of gamma3
  sign-and-verify rounds spread up to 6.5 times wider than with the
  small tile (docs/decisions.md).

The rule between them is the mean number of bytes one offset group would
gather, weight / #offsets * row bytes.  Small groups are cheap to gather
and would pay the per-call overhead many times over in the tiled regime;
large groups spend most of their time in the gather.  Above
_WIDE_GROUP_BYTES (768 KiB) the tiled regime runs.  Measured at real
signature weights (2-vCPU Xeon, numpy 2.4), tiled time over grouped time:
c3 (669 KiB groups, 10.5 KiB rows) 1.13, b6 (438 KiB, 17.7 KiB rows) 1.00,
beta3 (864 KiB) 0.79, c6 (1.5 MiB) 0.52, gamma3 (3.6 MiB) 0.51, and 1.3
to 1.8 for the other four instances, so every instance gets the faster
regime or, for b6, an equal one.  Row width moves the crossover too: on
gamma3's 53 KiB rows the tiled regime already wins at 190 KiB groups.
"""

from __future__ import annotations

import warnings

import numpy as np

try:
    # the TBB-version probe warns on some hosts; the omp/workqueue
    # fallback layers are fine for this workload
    warnings.filterwarnings(
        "ignore", message=".*TBB.*", module="numba.np.ufunc.parallel")
    import numba

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    numba = None
    _HAVE_NUMBA = False

# incremented once per syndrome product; lets tests observe that the
# verifier's weight gate short-circuits before any matrix work
COUNTERS = {"syndrome_products": 0}

# a numpy product whose offset groups would gather more key bytes than
# this on average takes the tiled in-place path (see module docstring)
_WIDE_GROUP_BYTES = 768 << 10
# accumulator tile of the in-place path: small enough to stay in the
# per-core L2 cache while something else uses it too (module docstring)
_TILE_BYTES = 256 << 10


if _HAVE_NUMBA:

    @numba.njit(parallel=True, cache=True)
    def _accumulate_numba(ht, blk_sorted, offsets, starts, acc):
        # pragma: no cover - jitted
        r0, _, nw = ht.shape
        ngroups = offsets.shape[0]
        for i in numba.prange(r0):
            u = np.zeros(nw, dtype=np.uint64)
            for g in range(ngroups):
                for wd in range(nw):
                    u[wd] = np.uint64(0)
                for idx in range(starts[g], starts[g + 1]):
                    j = blk_sorted[idx]
                    for wd in range(nw):
                        u[wd] ^= ht[i, j, wd]
                t = offsets[g]
                q = t // 64
                s = np.uint64(t % 64)
                if s == np.uint64(0):
                    for wd in range(nw):
                        acc[i, q + wd] ^= u[wd]
                else:
                    sr = np.uint64(64) - s
                    for wd in range(nw):
                        v = u[wd]
                        acc[i, q + wd] ^= v << s
                        acc[i, q + wd + 1] ^= v >> sr


def _offset_groups(blk, off):
    """Sort support by in-block offset; returns groups of equal offsets."""
    order = np.argsort(off, kind="stable")
    off_sorted = off[order]
    blk_sorted = blk[order]
    cuts = np.flatnonzero(np.diff(off_sorted)) + 1
    starts = np.concatenate(([0], cuts, [len(off_sorted)]))
    offsets = off_sorted[starts[:-1]]
    return blk_sorted, offsets, starts


def _shift_in(acc, u, t, nw):
    """acc ^= u * x^t for u of shape (r0, nw), t < p, unreduced."""
    q, s = divmod(int(t), 64)
    if s == 0:
        acc[:, q:q + nw] ^= u
    else:
        acc[:, q:q + nw] ^= u << np.uint64(s)
        acc[:, q + 1:q + 1 + nw] ^= u >> np.uint64(64 - s)


def _accumulate_grouped(ht_by_col, blk_sorted, offsets, starts, acc, nw):
    """One gather-reduce call per offset group (narrow key rows)."""
    for g in range(len(offsets)):
        sel = blk_sorted[starts[g]:starts[g + 1]]
        if len(sel) == 1:
            u = ht_by_col[sel[0]]
        else:
            u = np.bitwise_xor.reduce(ht_by_col[sel], axis=0)
        _shift_in(acc, u.reshape(-1, nw), offsets[g], nw)


def _accumulate_tiled(ht_by_col, blk_sorted, offsets, starts, acc, nw):
    """In-place XOR of key rows into an L2-sized tile of offsets (wide rows).

    Offset groups are taken c at a time.  Inside a tile the support is
    visited by column block, so each key row is read from memory once per
    tile and XOR-ed into the accumulator row of every offset that selects
    it, with no gathered copy.
    """
    ngroups = len(offsets)
    c = max(1, _TILE_BYTES // ht_by_col[0].nbytes)
    group = np.repeat(np.arange(ngroups), np.diff(starts))
    order = np.lexsort((group, blk_sorted, group // c))
    local = (group[order] % c).tolist()
    blks = blk_sorted[order].tolist()
    tile = np.empty((min(c, ngroups), ht_by_col.shape[1]), dtype=np.uint64)
    tile_rows = list(tile)
    key_rows = list(ht_by_col)
    xor = np.bitwise_xor
    for lo in range(0, ngroups, c):
        hi = min(ngroups, lo + c)
        tile[:hi - lo] = 0
        s0, s1 = starts[lo], starts[hi]
        for j, k in zip(blks[s0:s1], local[s0:s1]):
            u = tile_rows[k]
            xor(u, key_rows[j], out=u)
        for g in range(lo, hi):
            _shift_in(acc, tile[g - lo].reshape(-1, nw), offsets[g], nw)


def _accumulate_numpy(ht_by_col, blk_sorted, offsets, starts, acc, nw):
    # mean bytes one offset group would gather; above the threshold the
    # gather's memory traffic outweighs one ufunc call per support bit
    group_bytes = len(blk_sorted) * ht_by_col[0].nbytes / len(offsets)
    if group_bytes > _WIDE_GROUP_BYTES:
        _accumulate_tiled(ht_by_col, blk_sorted, offsets, starts, acc, nw)
    else:
        _accumulate_grouped(ht_by_col, blk_sorted, offsets, starts, acc, nw)


class PackedQc:
    """Wire rows of a QC matrix and their column-major copy.

    blocks is a (rows_blocks, cols_blocks, words) array of wire-layout
    blocks whose bits at and above p are clear.  by_row is that array
    itself, not a copy; row j of by_col is block column j, its
    rows_blocks blocks side by side.
    """

    def __init__(self, blocks: np.ndarray, p: int,
                 use_numba: bool | None = None):
        if use_numba and not _HAVE_NUMBA:
            raise ValueError("use_numba=True but numba is not installed")
        r0, n0, nw = blocks.shape
        self.rows_blocks, self.cols_blocks, self.words = r0, n0, nw
        self.p = p
        self.use_numba = _HAVE_NUMBA if use_numba is None else use_numba
        self.by_row = blocks
        self.by_col = np.ascontiguousarray(
            blocks.transpose(1, 0, 2)).reshape(n0, r0 * nw)
        self.by_col.flags.writeable = False

    def mul_support(self, support) -> int:
        """H . v^T for v given by its support; returns packed r-bit int."""
        COUNTERS["syndrome_products"] += 1
        p, nw, r0 = self.p, self.words, self.rows_blocks
        pos = np.asarray(support, dtype=np.int64)
        acc = np.zeros((r0, 2 * nw + 1), dtype=np.uint64)
        if len(pos):
            # bit t of a block enters as x^((-t) mod p) (module docstring)
            blk_sorted, offsets, starts = _offset_groups(pos // p, -pos % p)
            if self.use_numba:
                _accumulate_numba(self.by_row, blk_sorted, offsets, starts, acc)
            else:
                _accumulate_numpy(self.by_col, blk_sorted, offsets, starts,
                                  acc, nw)
        # fold each row mod x^p + 1, then send coefficient c to (-c) mod p
        bits = np.unpackbits(acc.view(np.uint8), axis=1, bitorder="little")
        folded = bits[:, :p] ^ bits[:, p:2 * p]
        out = np.roll(folded[:, ::-1], 1, axis=1)
        return int.from_bytes(
            np.packbits(out, bitorder="little").tobytes(), "little")
