"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the library modules from outside
(no file under src/ is edited) and records one span per call: name,
start, end, parent span and the user operation it belongs to.  Each
span's self time is its duration minus the time its child spans cover.
Calls on hot paths (SHAKE byte draws, hashing, SparseVector checks) are
only aggregated per op, not kept as span records, to keep memory and
overhead small; such a leaf must not call another wrapped function.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from ledasig import codec, drbg, estimator, keygen, packed, qc, signer, verifier

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.records = []                   # (op, span, parent, name, t0, t1)
        self.self_s = defaultdict(float)    # (op, name) -> self seconds
        self.calls = Counter()              # (op, name, parent name) -> calls
        self.counts = Counter()             # (op, counter) -> amount
        self.gauges = {}                    # name -> last value
        self.op_kind = {}                   # op -> "sign", "verify", ...
        self.op = None
        self._stack = []                    # [span, name, t0, child seconds]
        self._next_id = 0
        self._patched = []
        self._leaves = []                   # (name, [seconds, calls, size])

    # -- spans ------------------------------------------------------------

    def _enter(self, name):
        self._next_id += 1
        self._stack.append([self._next_id, name, _clock(), 0.0])

    def _exit(self):
        t1 = _clock()
        span, name, t0, child = self._stack.pop()
        dur = t1 - t0
        self.self_s[(self.op, name)] += dur - child
        parent, parent_name = 0, None
        if self._stack:
            top = self._stack[-1]
            top[3] += dur
            parent, parent_name = top[0], top[1]
        self.calls[(self.op, name, parent_name)] += 1
        self.records.append((self.op, span, parent, name, t0, t1))

    @contextmanager
    def user_op(self, kind):
        """One user-level operation; every span inside carries its id."""
        self._flush_leaves()
        self.op = self._next_id + 1
        self.op_kind[self.op] = kind
        before = packed.COUNTERS["syndrome_products"]
        self._enter("op." + kind)
        try:
            yield self.op
        finally:
            self._exit()
            self._flush_leaves()
            self.counts[(self.op, "packed.products")] += (
                packed.COUNTERS["syndrome_products"] - before)
            self.op = None

    def wrap(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def wrap_leaf(self, fn, name, sized=False):
        """Aggregate time and calls of a hot function that calls no other
        wrapped function: cheaper than a span.  With `sized`, also sum
        the argument after self (a byte count)."""
        stack = self._stack
        cell = [0.0, 0, 0]              # seconds, calls, summed size
        self._leaves.append((name, cell))

        @functools.wraps(fn)
        def leaf(*args, **kwargs):
            t0 = _clock()
            result = fn(*args, **kwargs)
            dur = _clock() - t0
            cell[0] += dur
            cell[1] += 1
            if sized:
                cell[2] += args[1]
            if stack:
                stack[-1][3] += dur
            return result

        return leaf

    def _flush_leaves(self):
        for name, cell in self._leaves:
            if cell[1]:
                self.self_s[(self.op, name)] += cell[0]
                self.calls[(self.op, name, None)] += cell[1]
                self.counts[(self.op, name)] += cell[2]
                cell[:] = [0.0, 0, 0]

    def wrap_count(self, fn, name):
        """Count calls per enclosing span, without timing them."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            parent = tracer._stack[-1][1] if tracer._stack else None
            tracer.calls[(tracer.op, name, parent)] += 1
            return fn(*args, **kwargs)

        return counted

    # -- instrumentation ----------------------------------------------------

    def install(self):
        """Replace the library functions by traced wrappers."""
        for owner, attr, name, mode, after in _instrumented():
            orig = owner.__dict__[attr]
            if mode == "count":
                new = self.wrap_count(orig, name)
            elif mode in ("leaf", "sized"):
                new = self.wrap_leaf(orig, name, mode == "sized")
            else:
                new = self.wrap(orig, name, after)
            self._patched.append((owner, attr, orig))
            setattr(owner, attr, new)

    def uninstall(self):
        self._leaves.clear()
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- summaries ------------------------------------------------------------

    def per_op_self(self, name, ops=None):
        """Self seconds of `name`, one value per op that ran it."""
        by_op = defaultdict(float)
        for (op, span), sec in self.self_s.items():
            if span == name and (ops is None or op in ops):
                by_op[op] += sec
        return list(by_op.values())

    def mean_call_s(self, name):
        """Mean self seconds per call of `name` over the whole run."""
        total = sum(s for (_, span), s in self.self_s.items() if span == name)
        n = sum(c for (_, span, _), c in self.calls.items() if span == name)
        return total / n if n else 0.0

    def calls_under(self, name, parent, ops):
        return sum(c for (op, span, par), c in self.calls.items()
                   if span == name and par == parent and op in ops)

    def count(self, counter, ops):
        return sum(v for (op, c), v in self.counts.items()
                   if c == counter and op in ops)

    def write_spans(self, path):
        """Kept spans as JSON lines, times in seconds from the first span."""
        records = sorted(self.records, key=lambda r: r[4])
        base = records[0][4] if records else 0.0
        with open(path, "w") as fh:
            for op, span, parent, name, t0, t1 in records:
                fh.write(json.dumps({
                    "op": op, "kind": self.op_kind.get(op), "span": span,
                    "parent": parent, "name": name,
                    "start": round(t0 - base, 9), "end": round(t1 - base, 9),
                }) + "\n")


# -- what gets wrapped ----------------------------------------------------------


def _word_ops(tracer, args, result):
    pq = args[0]
    tracer.counts[(tracer.op, "packed.word_ops")] += (
        len(args[1]) * pq.rows_blocks * pq.words)


def _key_size(tracer, args, result):
    pq = args[0]
    tracer.gauges["packed.key_mb"] = (
        pq.by_row.nbytes + pq.by_col.nbytes) / 2**20


def _sig_weight(tracer, args, result):
    tracer.counts[(tracer.op, "signer.sig_weight")] += result.sigma.weight


def _verdict(tracer, args, result):
    tracer.counts[(tracer.op, "verifier.rejects")] += (not result)


def _instrumented():
    """(owner, attribute, name, mode, after-hook).

    Functions are patched where their callers look them up: a module that
    did `from .x import f` holds its own reference to f.  Mode "span"
    keeps a span record per call, "leaf" only aggregates its time and
    calls per op, "sized" is a leaf that also sums its size argument,
    "count" only counts calls per enclosing span.
    """
    return [
        (packed.PackedQc, "__init__", "packed.pack", "span", _key_size),
        (packed.PackedQc, "mul_support", "packed.mul", "span", _word_ops),
        (keygen, "gen_v", "keygen.expand", "span", None),
        (keygen, "gen_s", "keygen.expand", "span", None),
        (keygen, "gen_q", "keygen.expand", "span", None),
        (keygen, "build_public_key", "keygen.public_key", "span", None),
        (signer, "apply_s", "keygen.apply_s", "span", None),
        (drbg.Xof, "bytes", "drbg.bytes", "sized", None),
        (drbg.Xof, "distinct", "drbg.distinct", "count", None),
        (signer, "sign", "signer.sign", "span", _sig_weight),
        (signer, "gen_codeword", "signer.codeword", "span", None),
        (signer, "gen_error", "signer.salt_search", "span", None),
        (signer, "hash_digest", "signer.hash", "leaf", None),
        (signer, "cw_encode", "signer.cw_encode", "span", None),
        (verifier, "hash_digest", "signer.hash", "leaf", None),
        (verifier, "cw_encode", "signer.cw_encode", "span", None),
        (verifier, "verify", "verifier.verify", "span", _verdict),
        (qc.SparseVector, "__post_init__", "qc.sparse_vector", "leaf", None),
        (qc.SparseVector, "to_int", "qc.to_int", "leaf", None),
        (codec, "encode_signature", "codec.sig_encode", "span", None),
        (codec, "decode_signature", "codec.sig_decode", "span", None),
        (codec, "encode_public_key", "codec.pk_encode", "span", None),
        (codec, "decode_public_key", "codec.pk_decode", "span", None),
        (codec, "encode_private_key_at_rest", "codec.sk_encode", "span", None),
        (codec, "expand_private_key_only", "codec.sk_expand", "span", None),
        (estimator, "signature_space", "estimator.space", "span", None),
        (estimator, "sia_wf", "estimator.sia", "span", None),
        (estimator, "lca_wf", "estimator.lca", "span", None),
        (estimator, "quantum_stern_wf", "estimator.stern", "span", None),
        (estimator, "stat_lifetime", "estimator.lifetime", "span", None),
    ]
