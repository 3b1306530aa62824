"""The benchmark harness still runs against the library.

perfbench/run.py and perfbench/tracer.py read library attributes by name
(PackedQc.by_row, by_col, rows_blocks, words, use_numba, packed.COUNTERS
and _HAVE_NUMBA among them); one short traced a3 run catches a library
change that breaks them.  The estimate-all workload also clears
estimator._iterated_and_dist's cache before each round and the tracer wraps
five estimator functions by name; one traced round of it covers those.
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
                  "key_mb": layers["packed.key_mb"][0],
                  "lca_s": layers["estimator.lca_s"][0]}))
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
    assert out["key_mb"] > 0


def test_traced_estimate_run():
    out = _traced_run("estimate-all")
    assert out["attempted"] > 0
    assert out["failed"] == 0, out["failures"]
    assert out["lca_s"] > 0
