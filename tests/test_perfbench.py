"""The benchmark harness still runs against the library.

perfbench/run.py and perfbench/tracer.py read library attributes by name
(PackedQc.by_row, by_col, rows_blocks, words, use_numba, packed.COUNTERS
and _HAVE_NUMBA among them); one short traced run of each workload but
gamma3-warm catches a library change that breaks them.  a3-warm covers
the warm sign and verify loop.  b6-cold is the only workload that decodes
a public key and reads its packed key's use_numba, and that expands an
at-rest private key (codec.expand_private_key_only) and encodes a public
key through the tracer's codec wrappers.  The estimate-all workload
clears estimator._iterated_and_dist's cache before each round and the
tracer wraps five estimator functions by name.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, sys
sys.path.insert(0, "perfbench")
import run
bench = run.Bench(sys.argv[1], 1, 0, trace=True)
bench.run()
layers = bench.per_layer()
print(json.dumps({"attempted": bench.attempted, "failed": bench.failed,
                  "failures": bench.failures,
                  "environment": bench.environment(),
                  "layers": {k: v[0] for k, v in layers.items()}}))
"""


def _traced_run(workload):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", SCRIPT, workload], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_a3_run():
    out = _traced_run("a3-warm")
    assert out["attempted"] > 0
    assert out["failed"] == 0, out["failures"]
    assert out["layers"]["packed.key_mb"] > 0


def test_traced_b6_cold_run():
    out = _traced_run("b6-cold")
    assert out["attempted"] > 0
    assert out["failed"] == 0, out["failures"]
    assert out["environment"]["packed_use_numba"] is False
    for name in ("codec.pk_encode_ms", "codec.pk_decode_ms",
                 "codec.sk_expand_ms", "packed.key_mb"):
        assert out["layers"][name] > 0, name


def test_traced_estimate_run():
    out = _traced_run("estimate-all")
    assert out["attempted"] > 0
    assert out["failed"] == 0, out["failures"]
    assert out["layers"]["estimator.lca_s"] > 0
