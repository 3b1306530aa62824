#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ledasig library.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload a3-warm --seed 1 --seconds 10 --trace 0

Without --workload it runs all four workloads, each in its own process.

One closed-loop client in one single-threaded process runs the workload
for --seconds (and at least a fixed number of rounds), checks every
output, prints a detail record, and prints as its last line
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1.
See perfbench/README.md for the workloads and metrics.
"""

import os

# one thread per process: the benchmark models one single-threaded client
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMBA_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

if not os.path.isfile(os.path.join(SRC, "ledasig", "__init__.py")):
    raise SystemExit(f"perfbench: no ledasig sources under {SRC}")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from ledasig import (codec, estimator, keygen, packed, signer,  # noqa: E402
                     verifier)
from ledasig.drbg import Xof  # noqa: E402
from ledasig.params import INSTANCES, get_instance  # noqa: E402

from tracer import Tracer  # noqa: E402

WORKLOADS = {
    "a3-warm": "a3",
    "gamma3-warm": "gamma3",
    "b6-cold": "b6",
    "estimate-all": None,
}
# rounds run even when --seconds has run out; in a traced run these are
# also the rounds whose exact counts are reported and that are re-run
# untraced to measure the tracing overhead
MIN_ROUNDS = {"a3-warm": 64, "gamma3-warm": 4, "b6-cold": 6,
              "estimate-all": 1}
SETUP_REPS = 3
# workloads whose every op is a separate CLI command: their set-up is the
# interpreter start-up and import, not a long-lived key
CLI_SETUP = {"b6-cold", "estimate-all"}
PLANT_EVERY = 8         # round i verifies an altered message when i % 8 == 2
WARM_MSG = (32, 4096)
COLD_MSG = (64 << 10, 1 << 20)

_clock = time.perf_counter


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _p90(xs):
    return statistics.quantiles(xs, n=10)[-1] if len(xs) >= 2 else _median(xs)


def _alter(msg: bytes) -> bytes:
    return bytes([msg[0] ^ 1]) + msg[1:]


class Bench:
    """One run of one workload: inputs, timed ops, checks and counts."""

    def __init__(self, workload, seed, seconds, trace=False, corrupt_every=0):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.params = (get_instance(WORKLOADS[workload])
                       if WORKLOADS[workload] else None)
        self.tracer = Tracer() if trace else None
        self.traced = False             # tracer wrappers installed right now
        # test hook: flip the verdict of every n-th verify inside the
        # harness, so that a self-test can see the checks catch it
        self.corrupt_every = corrupt_every
        self.verifies = 0
        self.samples = defaultdict(list)        # op kind -> ms
        self.round_ms = []
        self.untraced_ms = {}                   # window round -> ms
        self.traced_ms = {}
        self.window_ops = set()
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.setup_s = []
        self.loop_ops = 0
        self.loop_s = 0.0
        self.use_numba = None
        self.pk = self.sk = None
        self._round_ops = None
        self.expected = None
        if self.params is None:
            with open(os.path.join(HERE, "expected_estimate.json")) as fh:
                self.expected = json.load(fh)

    # -- inputs ---------------------------------------------------------------

    def derive(self, tag, i) -> bytes:
        return hashlib.sha256(
            f"{self.workload}|{self.seed}|{tag}|{i}".encode()).digest()

    def message(self, i, lo_hi) -> bytes:
        rng = random.Random(self.derive("msg", i))
        return rng.randbytes(rng.randint(*lo_hi))

    def key_seed(self, i) -> bytes:
        seed = hashlib.shake_256(self.derive("key", i))
        return seed.digest(self.params.seed_bytes)

    def sign_rng(self, i) -> Xof:
        return Xof(self.derive("sign", i))

    # -- ops ------------------------------------------------------------------

    def _fail(self, kind, why):
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{kind}: {why}")

    def op(self, kind, fn, check):
        """Run one user-level op, timed; then check it outside the timing.

        `check(result)` returns None when the output is right, else what
        is wrong.  Returns the result, or None when the op failed.
        """
        self.attempted += 1
        try:
            with self._user_op(kind) as op_id:
                t0 = _clock()
                out = fn()
                dt = _clock() - t0
            why = check(out)
        except Exception as exc:  # a raising op is a failed op
            self._fail(kind, repr(exc))
            return None
        if op_id is not None and self._round_ops is not None:
            self._round_ops.append(op_id)
        self.samples[kind].append(dt * 1e3)
        self._round_ms += dt * 1e3
        if why is not None:
            self._fail(kind, why)
            return None
        return out

    def _user_op(self, kind):
        return self.tracer.user_op(kind) if self.traced else nullcontext()

    def _verify_call(self, pk, msg, sig):
        verdict = verifier.verify(pk, msg, sig)
        self.verifies += 1
        if self.corrupt_every and self.verifies % self.corrupt_every == 0:
            verdict = not verdict
        return verdict

    # -- setup ----------------------------------------------------------------

    def setup(self):
        for _ in range(SETUP_REPS):
            if self.workload in CLI_SETUP:
                t = self._cli_startup()
            else:
                t = self._warm_key()
            self.setup_s.append(t)

    def _warm_key(self):
        """Key pair plus packed public key: the state a warm signer keeps."""
        self.sk = self.pk = None
        with self._user_op("setup"):
            t0 = _clock()
            sk, pk = keygen.keypair_from_seed(self.key_seed(-1), self.params)
            pq = pk.packed
            t = _clock() - t0
        self.sk, self.pk, self.use_numba = sk, pk, pq.use_numba
        return t

    @staticmethod
    def _cli_startup():
        """A fresh interpreter importing the CLI: what each command pays
        before it starts work."""
        code = f"import sys; sys.path.insert(0, {SRC!r}); import ledasig.cli"
        t0 = _clock()
        subprocess.run([sys.executable, "-c", code], check=True,
                       cwd=ROOT, timeout=60)
        return _clock() - t0

    # -- rounds -----------------------------------------------------------------

    def round(self, i):
        self._round_ms = 0.0
        if self.params is None:
            self._estimate_round()
        elif self.workload == "b6-cold":
            self._cold_round(i)
        else:
            self._warm_round(i)
        return self._round_ms

    def _warm_round(self, i):
        prm, pk = self.params, self.pk
        msg = self.message(i, WARM_MSG)
        altered = i % PLANT_EVERY == 2
        sig_size = 6 + codec.signature_bytes(prm)

        def sign_op():
            sig = signer.sign(self.sk, msg, rng=self.sign_rng(i))
            return sig, codec.encode_signature(sig, prm)

        out = self.op("sign", sign_op, lambda o: None if len(o[1]) == sig_size
                      else f"signature of {len(o[1])} bytes")
        if out is None:
            return
        sig, blob = out
        shown = _alter(msg) if altered else msg

        def verify_op():
            dsig, dprm = codec.decode_signature(blob)
            return dsig, dprm, self._verify_call(pk, shown, dsig)

        self.op("verify", verify_op,
                lambda o: _verify_problem(o, sig, prm, altered))

    def _cold_round(self, i):
        prm = self.params
        msg = self.message(i, COLD_MSG)
        altered = i % PLANT_EVERY == 2
        seed = self.key_seed(i)
        pk_size = 6 + codec.public_key_bytes(prm)
        sk_size = 6 + codec.private_key_at_rest_bytes(prm)
        sig_size = 6 + codec.signature_bytes(prm)

        def keygen_op():  # cli.cmd_keygen without argparse and files
            sk, pk = keygen.keypair_from_seed(seed, prm)
            return (pk, codec.encode_public_key(pk),
                    codec.encode_private_key_at_rest(sk))

        def keygen_check(o):
            if (len(o[1]), len(o[2])) != (pk_size, sk_size):
                return f"key blobs of {len(o[1])} and {len(o[2])} bytes"
            return None

        out = self.op("keygen", keygen_op, keygen_check)
        if out is None:
            return
        pk, pk_blob, sk_blob = out

        def sign_op():  # cli.cmd_sign, with a seeded salt/codeword stream
            sk = codec.expand_private_key_only(sk_blob)
            sig = signer.sign(sk, msg, rng=self.sign_rng(i))
            return sig, codec.encode_signature(sig, sk.params)

        out = self.op("sign", sign_op, lambda o: None if len(o[1]) == sig_size
                      else f"signature of {len(o[1])} bytes")
        if out is None:
            return
        sig, sig_blob = out
        shown = _alter(msg) if altered else msg

        def verify_op():  # cli.cmd_verify
            vpk = codec.decode_public_key(pk_blob)
            dsig, dprm = codec.decode_signature(sig_blob)
            if dprm != vpk.params:
                raise ValueError("signature and key instances differ")
            verdict = self._verify_call(vpk, shown, dsig)
            self.use_numba = vpk.packed.use_numba
            return dsig, dprm, verdict, vpk

        self.op("verify", verify_op,
                lambda o: ("decoded public key differs" if o[3] != pk
                           else _verify_problem(o, sig, prm, altered)))

    def _estimate_round(self):
        # `ledasig estimate --all` starts with an empty cache
        estimator._iterated_and_dist.cache_clear()

        def estimate_op():
            return [estimator.full_report(p).to_dict()
                    for p in INSTANCES.values()]

        def estimate_check(rows):
            if rows == self.expected:
                return None
            bad = [r["instance"] for r, e in zip(rows, self.expected) if r != e]
            return f"report rows differ for {bad or 'the instance list'}"

        self.op("estimate", estimate_op, estimate_check)

    # -- the loop ---------------------------------------------------------------

    def run(self):
        if self.tracer is None:
            self.setup()
            self._loop()
            return
        with self.tracer.installed():
            self.traced = True
            self.setup()
            self._loop()
            self.traced = False

    def _loop(self):
        min_rounds = MIN_ROUNDS[self.workload]
        t_start = _clock()
        ops_before = self.attempted
        i = 0
        while i < min_rounds or _clock() - t_start < self.seconds:
            if self.tracer is not None and i < min_rounds:
                self._paired_round(i)
            else:
                self.round_ms.append(self.round(i))
            i += 1
        self.loop_s = _clock() - t_start
        self.loop_ops = self.attempted - ops_before

    def _paired_round(self, i):
        """Window round of a traced run: once traced and once untraced on
        the same inputs, alternating which goes first."""
        for traced in ((True, False) if i % 2 == 0 else (False, True)):
            if traced:
                self._round_ops = []
                ms = self.round(i)
                self.window_ops.update(self._round_ops)
                self._round_ops = None
                self.traced_ms[i] = ms
                self.round_ms.append(ms)
            else:
                self.tracer.uninstall()
                self.traced = False
                try:
                    self.untraced_ms[i] = self.round(i)
                finally:
                    self.tracer.install()
                    self.traced = True

    # -- metrics ------------------------------------------------------------------

    def end_to_end(self):
        """Every end-to-end metric that this workload has, gated or not."""
        s = self.samples
        m = {
            "setup_s": (_median(self.setup_s), "s"),
            "latency_ms": (_median(self.round_ms), "ms"),
            "ops_per_s": (self.loop_ops / self.loop_s if self.loop_s else 0.0,
                          "1/s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MiB"),
            "fail_ratio": (self.failed / max(1, self.attempted), "ratio"),
        }
        for kind in ("keygen", "sign", "verify"):
            if s[kind]:
                m[f"{kind}_ms"] = (_median(s[kind]), "ms")
        if self.workload == "a3-warm":
            m["sign_ms_p90"] = (_p90(s["sign"]), "ms")
            m["verify_ms_p90"] = (_p90(s["verify"]), "ms")
        if s["estimate"]:
            m["estimate_s"] = (_median(s["estimate"]) / 1e3, "s")
        return m

    def per_layer(self):
        tr, win = self.tracer, self.window_ops
        prm = self.params

        def ms(name):
            return _median(tr.per_op_self(name)) * 1e3

        def sec(name):
            return _median(tr.per_op_self(name))

        signs = sum(1 for op in win if tr.op_kind[op] == "sign")
        verifies = sum(1 for op in win if tr.op_kind[op] == "verify")
        weight_cap = signs * prm.max_sig_weight if prm and signs else 0
        traced = sum(self.traced_ms.values())
        untraced = sum(self.untraced_ms.values())
        return {
            "packed.mul_ms": (ms("packed.mul"), "ms"),
            "packed.word_ops": (tr.count("packed.word_ops", win), "count"),
            "packed.products": (tr.count("packed.products", win), "count"),
            "packed.pack_ms": (ms("packed.pack"), "ms"),
            "packed.key_mb": (tr.gauges.get("packed.key_mb", 0.0), "MiB"),
            "keygen.public_key_ms": (ms("keygen.public_key"), "ms"),
            "keygen.expand_ms": (ms("keygen.expand"), "ms"),
            "keygen.apply_s_ms": (ms("keygen.apply_s"), "ms"),
            "drbg.bytes_drawn": (tr.count("drbg.bytes", win), "bytes"),
            "drbg.bytes_ms": (ms("drbg.bytes"), "ms"),
            "signer.package_ms": (ms("signer.sign"), "ms"),
            "signer.salt_search_ms": (ms("signer.salt_search"), "ms"),
            "signer.salt_trials": (tr.calls_under(
                "signer.cw_encode", "signer.salt_search", win), "count"),
            "signer.hash_us": (tr.mean_call_s("signer.hash") * 1e6, "us"),
            "signer.cw_encode_us": (
                tr.mean_call_s("signer.cw_encode") * 1e6, "us"),
            "signer.codeword_ms": (ms("signer.codeword"), "ms"),
            "signer.codeword_draws": (tr.calls_under(
                "drbg.distinct", "signer.codeword", win), "count"),
            "signer.sig_weight_ratio": (
                tr.count("signer.sig_weight", win) / weight_cap
                if weight_cap else 0.0, "ratio"),
            "qc.sparse_vector_ms": (ms("qc.sparse_vector"), "ms"),
            "qc.to_int_us": (tr.mean_call_s("qc.to_int") * 1e6, "us"),
            "verifier.self_ms": (ms("verifier.verify"), "ms"),
            "verifier.reject_ratio": (
                tr.count("verifier.rejects", win) / verifies
                if verifies else 0.0, "ratio"),
            "codec.sig_encode_ms": (ms("codec.sig_encode"), "ms"),
            "codec.sig_decode_ms": (ms("codec.sig_decode"), "ms"),
            "codec.pk_decode_ms": (ms("codec.pk_decode"), "ms"),
            "codec.pk_encode_ms": (ms("codec.pk_encode"), "ms"),
            "codec.sk_encode_ms": (ms("codec.sk_encode"), "ms"),
            "codec.sk_expand_ms": (ms("codec.sk_expand"), "ms"),
            "estimator.sia_s": (sec("estimator.sia"), "s"),
            "estimator.lca_s": (sec("estimator.lca"), "s"),
            "estimator.stern_s": (sec("estimator.stern"), "s"),
            "estimator.lifetime_s": (sec("estimator.lifetime"), "s"),
            "estimator.space_s": (sec("estimator.space"), "s"),
            "trace.overhead_pct": (
                (traced / untraced - 1) * 100 if untraced else 0.0, "%"),
        }

    def environment(self):
        return {
            "have_numba": packed._HAVE_NUMBA,
            "packed_use_numba": self.use_numba,
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "git_rev": _git_rev(),
            "src_sha256": _src_digest(),
            "load": {"clients": 1, "loop": "closed", "processes": 1,
                     "threads": threading.active_count(),
                     "blas_threads": os.environ["OMP_NUM_THREADS"]},
        }


def _verify_problem(out, sig, prm, altered):
    dsig, dprm, verdict = out[:3]
    if dprm != prm:
        return f"decoded instance {dprm.name}"
    if dsig != sig:
        return "decoded signature differs from the signed one"
    if bool(verdict) == altered:
        return ("altered message accepted" if altered
                else "genuine signature rejected")
    return None


def _git_rev():
    # the ceiling keeps git from reading a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "ledasig")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_workload(workload, seed, seconds, trace=False, corrupt_every=0):
    """Run one workload; returns (detail record, final result line)."""
    bench = Bench(workload, seed, seconds, trace, corrupt_every)
    bench.run()
    named = bench.end_to_end()
    if trace:
        named.update(bench.per_layer())
    contract = _load_contract()
    wanted = contract["per_layer" if trace else "end_to_end"]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "env": bench.environment(),
        "samples": {k: len(v) for k, v in bench.samples.items()},
        "rounds": len(bench.round_ms), "setup_reps": len(bench.setup_s),
        "failures": bench.failures,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in named.items()},
    }
    result = {
        "correct": bench.failed == 0 and bench.attempted > 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: record["metrics"][m["name"]] for m in wanted},
    }
    if trace:
        os.makedirs(OUT, exist_ok=True)
        bench.tracer.write_spans(
            os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl"))
    return record, result


def _run_all(args):
    """Every workload, one after another, each in a fresh process."""
    status = 0
    for workload in WORKLOADS:
        print(f"# {workload}", flush=True)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT)
        status = status or proc.returncode
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="default: all of them, each in its own process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload is None:
        return _run_all(args)
    record, result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
