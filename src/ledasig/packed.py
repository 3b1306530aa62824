"""Word-packed syndrome computation for dense quasi-cyclic matrices.

The matrix is held as its wire rows: by_row[i, j] is the polynomial
h_ij of the first row of circulant (i, j), in ceil(p/64) little-endian
words.  That circulant acts on a column block v as T(h_ij) * v, where T
sends coefficient c to (-c) mod p.  T is the ring automorphism
x -> x^-1, so

    sum_j T(h_ij) * v_j = T(sum_j h_ij * T(v_j)),

and the product needs no transposed copy of the key:

- a set bit of sigma at offset t inside block j enters as x^((-t) mod p);
- each such bit adds key column j times x^t into an unreduced 2p-bit
  accumulator row per block row;
- at the end the r0 accumulator rows are folded mod x^p + 1 and mapped
  through T.

Cost model.  The work is weight(sigma) * r0 * ceil(p/64) word XORs on
every path, so what separates the paths is memory traffic and the number
of Python-level numpy calls.  A key row (one block column, all r0 block
rows) is r0 * ceil(p/64) * 8 bytes: 1.4 KB for a3, 54 KB for gamma3.

A numba kernel parallelized over block rows is used when available; it
reads by_row and the same offsets, grouped per offset, into a row-major
accumulator.  The numpy path reads by_col and is a residue comb (Lopez
and Dahab's comb for binary polynomials, as Chou's QcBits applies it to
syndromes).  An offset t = 64q + s is a shift by q whole words and then
by s bits.  The bits of sigma are sorted by residue s first, and for
each of the up to 64 residues a comb accumulator takes the key columns
at word offset q only; it is then shifted by s bits once and folded
into the result.  So the bit shifts cost two numpy calls per residue,
at most 128 per product, whatever the weight.

by_col is the key in word-major form: row j is block column j as
(ceil(p/64), r0), word index first and block row second.  The comb
accumulator is (2 ceil(p/64) - 1, r0) in the same form, so the window
[q, q + ceil(p/64)) over all r0 block rows is one contiguous slab, the
same shape as a key row, and XOR-ing a key row into it is one call with
no strides.  Within a residue a window gets its key rows in one of two
regimes, which fill the identical accumulator:

- gathered: the support is sorted by (s, q, j) and each offset's key
  rows are gathered by one fancy index and XOR-reduced into its window.
  About p numpy calls per product, but the gather copies every selected
  row into a temporary, and numpy's row gather runs at only a few GB/s.
- in place: the support is sorted by (s, j, q) and each key row is
  XOR-ed in place into every window of the residue that selects it,
  one numpy call per support bit and nothing gathered.  Column j comes
  next to itself for all its ~weight / (64 n0) windows, so a key row is
  read from memory once per residue and reused from cache; the working
  set is one accumulator and one key row (110 KB and 54 KB for gamma3),
  inside the per-core L2 cache.

The rule between them is the key row size against _WIDE_ROW_BYTES
(16 KiB).  A narrow row is cheap to gather, and in place it would pay
the per-call overhead on very little data; a wide row spends the
gather's time copying.  Measured on a real key and signature of every
instance (2-vCPU Xeon, numpy 2.4, no numba), medians of 8 interleaved
products, the previous kernel (grouped below 768 KiB offset groups,
256 KiB tiles above) against the comb in the regime the rule picks, with
the other regime's ratio for comparison:

  instance  row KiB  previous  comb      ratio  regime    other
  a3          1.4      4.9 ms    3.2 ms  0.67   gathered  1.53
  a6          3.9     12.5 ms    7.5 ms  0.60   gathered  0.76
  b3          4.7     17.6 ms   13.4 ms  0.76   gathered  1.43
  alpha3      5.6     24.9 ms   17.4 ms  0.70   gathered  1.07
  c3         10.5     70.0 ms   60.9 ms  0.87   gathered  0.82
  b6         17.7     97.0 ms   64.4 ms  0.66   in place  0.79
  beta3      20.9      204 ms    141 ms  0.69   in place  0.86
  gamma3     53.2     1688 ms    832 ms  0.49   in place  1.69
  c6         55.3      707 ms    399 ms  0.56   in place  1.64

c3 sits near the crossover: in an earlier session its in-place ratio was
0.93 against 0.78 gathered.

Of gamma3's in-place product (0.73 to 0.85 s in-process), the same
~219k XOR calls take 0.6 s when one key row and one window stay in
cache, and 0.25 s when the rows are one word long, which is the call
overhead.  So cache misses cost 0.1 to 0.25 s; the rest is XOR work at
cache speed and per-call overhead (docs/decisions.md).
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

# a numpy product over key rows wider than this XORs them in place
# instead of gathering them (see module docstring)
_WIDE_ROW_BYTES = 16 << 10


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


def _offset_groups(blk, off, n0, nw):
    """Support grouped by offset, offsets in (residue, word) order.

    Returns the column blocks sorted by (off % 64, off // 64, block), the
    distinct offsets and the start of each offset's run.
    """
    key = np.sort(((off & 63) * nw + (off >> 6)) * n0 + blk)
    res_word, blk_sorted = np.divmod(key, n0)
    cuts = np.flatnonzero(np.diff(res_word)) + 1
    starts = np.concatenate(([0], cuts, [len(key)]))
    res, word = np.divmod(res_word[starts[:-1]], nw)
    return blk_sorted, 64 * word + res, starts


def _fold_residue(acc, comb, s):
    """acc ^= comb * x^s, then clear comb; both word-major, s < 64."""
    n = len(comb)
    if s == 0:
        acc[:n] ^= comb
    else:
        acc[:n] ^= comb << np.uint64(s)
        acc[1:n + 1] ^= comb >> np.uint64(64 - s)
    comb[:] = 0


def _accumulate_gathered(by_col, blk, off, acc):
    """One gather-reduce per offset into its residue's window (narrow rows)."""
    n0, nw, r0 = by_col.shape
    blk_sorted, offsets, starts = _offset_groups(blk, off, n0, nw)
    comb = np.zeros((2 * nw - 1, r0), dtype=np.uint64)
    residues = (offsets & 63).tolist() + [-1]
    for g, t in enumerate(offsets.tolist()):
        comb[t >> 6:(t >> 6) + nw] ^= np.bitwise_xor.reduce(
            by_col[blk_sorted[starts[g]:starts[g + 1]]], axis=0)
        if residues[g + 1] != residues[g]:
            _fold_residue(acc, comb, residues[g])


def _accumulate_in_place(by_col, blk, off, acc):
    """In-place XOR of each key row into its residue's windows (wide rows)."""
    n0, nw, r0 = by_col.shape
    key = np.sort(((off & 63) * n0 + blk) * nw + (off >> 6))
    words = (key % nw).tolist()
    blks = (key // nw % n0).tolist()
    # residue s is the key's top field: its bits start at key s * n0 * nw
    starts = np.searchsorted(key, np.arange(65) * n0 * nw).tolist()
    comb = np.zeros((2 * nw - 1, r0), dtype=np.uint64)
    windows = [comb[q:q + nw] for q in range(nw)]
    key_rows = list(by_col)
    xor = np.bitwise_xor
    for s in range(64):
        a, b = starts[s], starts[s + 1]
        for j, q in zip(blks[a:b], words[a:b]):
            win = windows[q]
            xor(win, key_rows[j], out=win)
        _fold_residue(acc, comb, s)


class PackedQc:
    """Wire rows of a QC matrix and their word-major copy.

    blocks is a (rows_blocks, cols_blocks, words) array of wire-layout
    blocks whose bits at and above p are clear.  by_row is that array
    itself, not a copy; row j of by_col is block column j as a
    (words, rows_blocks) array, word index first.
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
        self.by_col = np.ascontiguousarray(blocks.transpose(1, 2, 0))
        self.by_col.flags.writeable = False

    def mul_support(self, support) -> int:
        """H . v^T for v given by its support; returns packed r-bit int."""
        COUNTERS["syndrome_products"] += 1
        p, nw, r0 = self.p, self.words, self.rows_blocks
        pos = np.asarray(support, dtype=np.int64)
        # bit t of a block enters as x^((-t) mod p) (module docstring)
        blk, off = pos // p, -pos % p
        if self.use_numba:
            acc = np.zeros((r0, 2 * nw + 1), dtype=np.uint64)
            if len(pos):
                _accumulate_numba(self.by_row, *_offset_groups(
                    blk, off, self.cols_blocks, nw), acc)
        else:
            # word-major, then transposed to the numba kernel's rows
            acc = np.zeros((2 * nw + 1, r0), dtype=np.uint64)
            if len(pos):
                wide = self.by_col[0].nbytes > _WIDE_ROW_BYTES
                accumulate = (_accumulate_in_place if wide
                              else _accumulate_gathered)
                accumulate(self.by_col, blk, off, acc)
            acc = np.ascontiguousarray(acc.T)
        # fold each row mod x^p + 1, then send coefficient c to (-c) mod p
        bits = np.unpackbits(acc.view(np.uint8), axis=1, bitorder="little")
        folded = bits[:, :p] ^ bits[:, p:2 * p]
        out = np.roll(folded[:, ::-1], 1, axis=1)
        return int.from_bytes(
            np.packbits(out, bitorder="little").tobytes(), "little")
