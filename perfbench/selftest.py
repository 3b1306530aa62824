#!/usr/bin/env python3
"""Self-test of the benchmark harness on short runs.

Run from the root of a checkout (takes a few minutes, mostly the
estimator):

    python3 perfbench/selftest.py

It checks that every run prints the result line the contract in
BENCHMARK.json asks for, that the detail record carries every named
end-to-end metric with its unit, that each traced layer reports on the
workloads where it runs, that exact counts repeat for a seed, that a
verdict corrupted by the harness shows up as failed ops, and that the
benchmark refuses to run without the library sources.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

UNITS = {"setup_s": "s", "latency_ms": "ms", "ops_per_s": "1/s",
         "peak_rss_mb": "MiB", "fail_ratio": "ratio", "keygen_ms": "ms",
         "sign_ms": "ms", "verify_ms": "ms", "sign_ms_p90": "ms",
         "verify_ms_p90": "ms", "estimate_s": "s"}
COMMON = {"setup_s", "latency_ms", "ops_per_s", "peak_rss_mb", "fail_ratio"}
NAMED = {
    "a3-warm": COMMON | {"sign_ms", "verify_ms", "sign_ms_p90",
                         "verify_ms_p90"},
    "gamma3-warm": COMMON | {"sign_ms", "verify_ms"},
    "b6-cold": COMMON | {"keygen_ms", "sign_ms", "verify_ms"},
    "estimate-all": COMMON | {"estimate_s"},
}
_SIGN_VERIFY = {
    "packed.mul_ms", "packed.word_ops", "packed.products", "packed.pack_ms",
    "packed.key_mb", "keygen.public_key_ms", "keygen.expand_ms",
    "keygen.apply_s_ms", "drbg.bytes_drawn", "drbg.bytes_ms",
    "signer.package_ms", "signer.salt_search_ms", "signer.salt_trials",
    "signer.hash_us", "signer.cw_encode_us", "signer.codeword_ms",
    "signer.codeword_draws", "signer.sig_weight_ratio",
    "qc.sparse_vector_ms", "qc.to_int_us", "verifier.self_ms",
    "codec.sig_encode_ms", "codec.sig_decode_ms",
}
# per-layer metrics that must be above zero, by workload
LAYERS_RUN = {
    "a3-warm": _SIGN_VERIFY | {"verifier.reject_ratio"},
    "gamma3-warm": _SIGN_VERIFY | {"verifier.reject_ratio"},
    "b6-cold": _SIGN_VERIFY | {
        "verifier.reject_ratio", "codec.pk_decode_ms", "codec.pk_encode_ms",
        "codec.sk_encode_ms", "codec.sk_expand_ms"},
    "estimate-all": {"estimator.sia_s", "estimator.lca_s",
                     "estimator.stern_s", "estimator.lifetime_s",
                     "estimator.space_s"},
}
COUNTS = ["packed.word_ops", "packed.products", "drbg.bytes_drawn",
          "signer.salt_trials", "signer.codeword_draws"]


def _contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def parsed(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def check_result(result, wanted):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)), (m, got)


def main():
    contract = _contract()
    for w in contract["workloads"]:
        name = w["name"]
        record, result = parsed(bench(name, 1, 0))
        check_result(result, contract["end_to_end"])
        for m in contract["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0, m
        for metric in NAMED[name]:
            assert record["metrics"][metric]["unit"] == UNITS[metric], metric
        assert record["metrics"]["fail_ratio"]["value"] == 0

        _, traced = parsed(bench(name, 1, 1))
        check_result(traced, contract["per_layer"])
        for metric in LAYERS_RUN[name]:
            assert traced["metrics"][metric]["value"] > 0, (name, metric)
        print(f"ok  {name}", flush=True)

    # exact counts repeat for a seed; another seed also runs cleanly
    _, first = parsed(bench("a3-warm", 1, 1))
    _, second = parsed(bench("a3-warm", 1, 1))
    assert all(first["metrics"][c] == second["metrics"][c] for c in COUNTS)
    check_result(parsed(bench("a3-warm", 2, 0))[1], contract["end_to_end"])
    print("ok  exact counts repeat", flush=True)

    # a verdict flipped inside the harness's own verify wrapper must
    # surface as failed ops
    sys.path.insert(0, HERE)
    import run
    record, result = run.run_workload("a3-warm", 1, 0.2, corrupt_every=5)
    assert result["failed"] > 0 and result["correct"] is False, result
    assert record["metrics"]["fail_ratio"]["value"] > 0
    print("ok  corrupted verdicts counted as failures", flush=True)

    # without the library sources the benchmark fails and prints no result
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for entry in os.listdir(HERE):
        if os.path.isfile(os.path.join(HERE, entry)):
            shutil.copy(os.path.join(HERE, entry),
                        os.path.join(bare, "perfbench"))
    proc = bench("a3-warm", 1, 0, cwd=bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    shutil.rmtree(bare)
    print("ok  refuses to run without sources", flush=True)


if __name__ == "__main__":
    main()
