"""Word-packed syndrome computation for quasi-cyclic public keys.

The matrix arrives as its wire rows: blocks[i, j] is the polynomial h_ij
of the first row of circulant (i, j), in ceil(p/64) little-endian
words.  That circulant acts on a column block v as T(h_ij) * v, where T
sends coefficient c to (-c) mod p, the ring automorphism x -> x^-1.

Flag plus sparse.  build_public_key writes every block of H' as the
parity of a few dozen scrambled positions, XOR-ed with an all-ones
flag, so h_ij = f_ij * (1 + x + ... + x^(p-1)) + s_ij with s_ij sparse
(docs/decisions.md).  Read from the words alone, f_ij is set when the
block holds more than p/2 ones and s_ij is the lighter side.  Since the
all-ones block times v is parity(v) times the all-ones block, block row i
of H' * sigma^T is

    (sum_j f_ij parity(v_j)) * 1  +  sum_j sum_{c in s_ij} x^-c * v_j.

Regime rule.  A key takes the sparse product when an int32 index of its
sparse parts takes no more bytes than its words, 4 * sum |s_ij| <=
words.nbytes, i.e. when the mean |s_ij| is at most 2 ceil(p/64).  PackedQc
takes every block's popcount once; the flags, the |s_ij|, where each
block's terms begin and the rule all follow from them, so a key over the
rule takes the comb before any sparse rows are read or rewritten, and
the rule has no tuned constant.  Of the nine instances it picks b6,
beta3, c6 and gamma3; the other five, and any key whose blocks are not
flag plus sparse (a random matrix has |s_ij| near p/2), take the
residue comb.

Sparse product.  Its work is sum |s_ij| * ceil(p/64) word XORs, against
weight(sigma) * r0 * ceil(p/64) for the comb: 0.15 against 1.5 G words
on gamma3 at sigma's 24% density.  Each term x^-c * v_j is bits
[c, c + p) of v_j's doubled block v_j + x^p v_j, which is ceil(p/64)
consecutive words of that block shifted down by c mod 64 bits, starting
at word c // 64.  So the product builds, one chunk of columns at a
time, sigma's doubled blocks shifted by 0..63 bits (at most
_TABLE_BYTES), reads every term as one row of that table, gathers each
(column chunk, block row) segment of the index at once and XOR-reduces
it.  The flags enter as one small 0/1 matrix-parity product.  The index
by_col stores each term's row in its chunk's table as an int32,
(j mod C) * 64 L + (c mod 64) * L + c // 64 with L = 2 ceil(p/64) + 1
and C columns per chunk; starts[i, j] is where block (i, j)'s terms
begin, in (i, j, c) order.  Every key reaches it from one form, its
sparse rows (flags, ends, pos): pos[ends[i]:ends[i + 1]] holds block row
i's positions j p + c, ascending int32, and one rewrite per row turns
them into records in place.  build_public_key hands a fresh key's rows
over, and they are taken when their flags and row ends are the ones the
popcounts give; otherwise, and for a decoded key, they are read off the
words.

Residue comb.  A set bit of sigma at offset t inside block j enters as
x^((-t) mod p), since sum_j T(h_ij) v_j = T(sum_j h_ij T(v_j)); it adds
key column j times x^t into an unreduced 2p-bit accumulator row per
block row, and the r0 rows are folded mod x^p + 1 and mapped through T
at the end.  The comb is Lopez and Dahab's for binary polynomials, as
Chou's QcBits applies it to syndromes: an offset t = 64q + s is a shift
by q whole words and then by s bits, so the bits of sigma are sorted by
(s, q, j), each offset's key rows are gathered by one fancy index and
XOR-reduced into its word window q of the residue's comb accumulator,
and each of the up to 64 combs is shifted by s bits once.  by_col is
the key in word-major form: row j is block column j as (ceil(p/64), r0),
so a window over all r0 block rows is one contiguous slab.
"""

from __future__ import annotations

import numpy as np

from .qc import pack_blocks

# read by the benchmark harness, which records the backend; numpy is the one
_HAVE_NUMBA = False

# incremented once per syndrome product; lets tests observe that the
# verifier's weight gate short-circuits before any matrix work
COUNTERS = {"syndrome_products": 0}

# bytes of one column chunk's table of shifted sigma blocks in the sparse
# product, and the row count below which a gathered segment is reduced
# row by row instead of halved; docs/decisions.md has the measured tables
_TABLE_BYTES = 1 << 20
_FOLD_ROWS = 64

# key words that one pass of reading a decoded key's sparse rows unpacks,
# which bounds its temporaries to a few MiB
_EXTRACT_WORDS = 1 << 15


# ---------------------------------------------------------------------------
# residue comb (keys that are not flag plus sparse)


def _fold_residue(acc, comb, s):
    """acc ^= comb * x^s, then clear comb; both word-major, s < 64."""
    n = len(comb)
    if s == 0:
        acc[:n] ^= comb
    else:
        acc[:n] ^= comb << np.uint64(s)
        acc[1:n + 1] ^= comb >> np.uint64(64 - s)
    comb[:] = 0


def _comb(by_col, blk, off, p):
    """Block rows of H' . v^T as an (r0, p) 0/1 array; v's bit t of block
    blk enters at offset off = (-t) mod p."""
    n0, nw, r0 = by_col.shape
    acc = np.zeros((2 * nw + 1, r0), dtype=np.uint64)
    if len(blk):
        # column blocks sorted by (off % 64, off // 64, block), then the
        # start of each distinct offset's run; one gather-reduce per
        # offset into its word window of the residue's comb
        key = np.sort(((off & 63) * nw + (off >> 6)) * n0 + blk)
        res_word, blk_sorted = np.divmod(key, n0)
        starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(res_word)) + 1, [len(key)]))
        res, word = np.divmod(res_word[starts[:-1]], nw)
        comb = np.zeros((2 * nw - 1, r0), dtype=np.uint64)
        residues = res.tolist() + [-1]
        for g, q in enumerate(word.tolist()):
            comb[q:q + nw] ^= np.bitwise_xor.reduce(
                by_col[blk_sorted[starts[g]:starts[g + 1]]], axis=0)
            if residues[g + 1] != residues[g]:
                _fold_residue(acc, comb, residues[g])
    # fold each block row mod x^p + 1, then send coefficient c to (-c) mod p
    bits = np.unpackbits(np.ascontiguousarray(acc.T).view(np.uint8),
                         axis=1, bitorder="little")
    folded = bits[:, :p] ^ bits[:, p:2 * p]
    return np.roll(folded[:, ::-1], 1, axis=1)


# ---------------------------------------------------------------------------
# flag-plus-sparse keys


def _chunk_columns(nw):
    """Columns per chunk of the sparse product: its table of 64 shifts of
    each doubled block, 2 nw + 1 words each, fits _TABLE_BYTES."""
    return max(1, _TABLE_BYTES // (64 * 8 * (2 * nw + 1)))


def _chunk_terms(p, nw):
    """Index entry of each position jl*p + c of a column chunk (int32,
    C*p long); key position j*p + c takes entry (j*p + c) mod C*p."""
    big_l, cols = 2 * nw + 1, _chunk_columns(nw)
    c = np.arange(p, dtype=np.int32)
    in_block = (c & 63) * big_l + (c >> 6)
    return (np.arange(cols, dtype=np.int32)[:, None] * (64 * big_l)
            + in_block).ravel()


def _rows_from_words(blocks, p, flags, ends):
    """The positions of sparse rows (flags, ends, pos) read off the words:
    block (i, j)'s part is its words XOR flags[i, j]'s all-ones block."""
    r0, n0, nw = blocks.shape
    pos = np.empty(ends[-1], dtype=np.int32)
    ones = pack_blocks(np.ones(p, dtype=bool))
    # the position of bit 0 of word q of block j, less one: bit b of a
    # word is its lowest set bit when popcount(w ^ (w - 1)) = b + 1
    word_base = (np.arange(n0, dtype=np.int32)[:, None] * p
                 + np.arange(0, 64 * nw, 64, dtype=np.int32)).ravel() - 1
    step = max(1, _EXTRACT_WORDS // (n0 * nw))
    for i0 in range(0, r0, step):
        i1 = min(i0 + step, r0)
        sparse = blocks[i0:i1].copy()
        np.bitwise_xor(sparse, ones, out=sparse, where=flags[i0:i1, :, None])
        sparse = sparse.ravel()
        # each word's bits go to consecutive slots from its first; with
        # the words ordered by falling bit count, those with at least t
        # bits are a prefix, and pass t writes the t-th lowest bit of each
        bit_counts = np.bitwise_count(sparse)
        slot = np.cumsum(bit_counts, dtype=np.int64) - bit_counts + ends[i0]
        most = int(bit_counts.max())
        if not most:
            continue
        order = np.concatenate(
            [np.flatnonzero(bit_counts == t) for t in range(most, 0, -1)])
        words, slot = sparse[order], slot[order]
        base = np.tile(word_base, i1 - i0)[order]
        at_least = np.cumsum(np.bincount(bit_counts)[:0:-1])[::-1]
        for live in at_least.tolist():
            w = words[:live]
            below = w - np.uint64(1)
            entry = np.bitwise_count(w ^ below).astype(np.int32)
            w &= below
            entry += base[:live]
            pos[slot[:live]] = entry
            slot[:live] += 1
    return pos


def _xor_rows(rows):
    """XOR of the rows of an (m, nw) array, which it overwrites: halved by
    whole-array XORs down to _FOLD_ROWS rows, then reduced row by row."""
    m = len(rows)
    while m > _FOLD_ROWS:
        half = m >> 1
        np.bitwise_xor(rows[:half], rows[m - half:m], out=rows[:half])
        m -= half
    return np.bitwise_xor.reduce(rows[:m], axis=0)


def _sparse(flags, starts, index, pos, p):
    """Block rows of H' . v^T as an (r0, p) 0/1 array; v has its bits at
    the int64 positions pos."""
    r0, n0 = flags.shape
    nw = (p + 63) // 64
    big_l, cols = 2 * nw + 1, _chunk_columns(nw)
    bits = np.zeros(n0 * p, dtype=bool)
    bits[pos] = True
    v = pack_blocks(bits.reshape(n0, p))
    # v_j + x^p v_j over L words, so that x^-c v_j is bits [c, c + p)
    doubled = np.zeros((n0, big_l), dtype=np.uint64)
    doubled[:, :nw] = v
    p_words, p_bits = divmod(p, 64)
    doubled[:, p_words:p_words + nw] |= v << np.uint64(p_bits)
    if p_bits:
        doubled[:, p_words + 1:p_words + nw + 1] |= v >> np.uint64(64 - p_bits)
    # table[jl, s] is column j0 + jl shifted down by s bits; term rows are
    # read as nw-word records starting at any word of it
    table = np.empty((cols, 64, big_l), dtype=np.uint64)
    rows = np.ndarray((table.size - nw + 1,), np.dtype((np.void, 8 * nw)),
                      table, 0, (8,))
    down = np.arange(64, dtype=np.uint64)[:, None]
    up = np.uint64(63) - down
    acc = np.zeros((r0, nw), dtype=np.uint64)
    for j0 in range(0, n0, cols):
        j1 = min(j0 + cols, n0)
        col = doubled[j0:j1, None]
        part = table[:j1 - j0]
        np.right_shift(col, down, out=part)
        # the next word's low bits, shifted up by 64 - s in two steps so
        # that s = 0 adds nothing
        part[..., :-1] |= (col[..., 1:] << np.uint64(1)) << up
        segments = zip(starts[:, j0].tolist(), starts[:, j1].tolist())
        for i, (a, b) in enumerate(segments):
            if a < b:
                terms = rows[index[a:b]].view(np.uint64).reshape(b - a, nw)
                acc[i] ^= _xor_rows(terms)
    out = np.unpackbits(acc.view(np.uint8), axis=1, count=p,
                        bitorder="little")
    # the flags' part; uint8 sums wrap mod 256, which keeps their parity
    parity = (np.bitwise_count(v).sum(axis=1, dtype=np.uint8) & 1)
    out ^= ((flags @ parity) & 1)[:, None]
    return out


class PackedQc:
    """A QC matrix's wire rows and the arrays its product reads.

    blocks is a (rows_blocks, cols_blocks, words) array of wire-layout
    blocks whose bits at and above p are clear; by_row is blocks itself.
    The blocks' popcounts decide everything once: each block's flag and
    lighter side, and the regime rule (module docstring).  A key under
    the rule holds flags (r0, n0) 0/1, starts (r0, n0 + 1) and its term
    index as by_col (int32).  Any other key holds by_col as the
    word-major key, row j block column j as a (words, rows_blocks) array,
    and flags is None.

    rows, when given, is build_public_key's sparse rows of the blocks
    (module docstring).  When their flags and row ends are the ones the
    popcounts give, their positions array becomes the index in place;
    otherwise the positions are read off the words.
    """

    # read by the benchmark harness, which records the backend
    use_numba = False

    def __init__(self, blocks: np.ndarray, p: int, rows=None):
        r0, n0, nw = blocks.shape
        self.rows_blocks, self.cols_blocks, self.words = r0, n0, nw
        self.p = p
        # blocks itself, not a copy; the benchmark harness sizes the key by it
        self.by_row = blocks
        weights = np.bitwise_count(blocks).sum(axis=-1, dtype=np.int64)
        flags = 2 * weights > p
        counts = np.where(flags, p - weights, weights)
        if 4 * counts.sum() > blocks.nbytes:
            self.flags = self.starts = None
            self.by_col = np.ascontiguousarray(blocks.transpose(1, 2, 0))
        else:
            self.flags = flags.astype(np.uint8)
            # where block (i, j)'s terms begin, in (i, j, c) order; row
            # i's run ends where row i + 1's begins
            begin = np.zeros(r0 * n0 + 1, dtype=np.int64)
            np.cumsum(counts, out=begin[1:])
            self.starts = begin[np.arange(0, r0 * n0, n0)[:, None]
                                + np.arange(n0 + 1)]
            ends = begin[::n0]
            if (rows is not None and np.array_equal(rows[0], flags)
                    and np.array_equal(rows[1], ends)):
                pos = rows[2]
            else:
                pos = _rows_from_words(blocks, p, flags, ends)
            terms = _chunk_terms(p, nw)
            for a, b in zip(ends[:-1].tolist(), ends[1:].tolist()):
                row = pos[a:b]
                np.take(terms, row % terms.size, out=row)
            self.by_col = pos
        self.by_col.flags.writeable = False

    def mul_support(self, support) -> int:
        """H . v^T for v given by its support; returns packed r-bit int."""
        COUNTERS["syndrome_products"] += 1
        pos = np.asarray(support, dtype=np.int64)
        if self.flags is None:
            # bit t of a block enters as x^((-t) mod p) (module docstring)
            bits = _comb(self.by_col, pos // self.p, -pos % self.p, self.p)
        else:
            bits = _sparse(self.flags, self.starts, self.by_col, pos, self.p)
        return int.from_bytes(
            np.packbits(bits, bitorder="little").tobytes(), "little")
