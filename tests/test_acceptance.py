"""Acceptance suite: one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 3's lifetime column is asserted per instance at the stated
+/-5% tolerance.  Seven instances reproduce the published counts
integer-exactly and beta3 is one above its count (float64 cancellation,
34502 vs 34501); the gamma3 entry is not reproducible from the printed
model (faithful computation gives 98204 vs the published 107005, -8.2%)
and that single sub-check fails by design rather than being loosened.
The analysis lives in the decisions ledger.
"""

import itertools
import json
import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from helpers import (QcMatrix, dense_eye, dense_mul, dense_vec_mul, q_dense,
                     q_inv_dense, qc_mul, qc_vec_mul, s_dense, s_inv_dense,
                     sparse_from_int)
from ledasig import (INSTANCES, encode_private_key_at_rest,
                     encode_public_key, encode_signature, get_instance,
                     keypair_from_seed, private_key_at_rest_bytes,
                     public_key_bytes, signature_bytes, toy_params, verify)
from ledasig.drbg import Xof
from ledasig.estimator import (and_weight_dist, full_report,
                               signature_bit_probability, xor_weight_dist)
from ledasig.keygen import PrivateKey, gen_q, gen_s, gen_v
from ledasig.qc import PackedVector, SparseVector
from ledasig.signer import Signature, cw_encode, kernel_check, sign

RNG_SEED = b"acceptance-suite"
# the nine report rows that the estimate-all benchmark also checks
EXPECTED_ROWS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "expected_estimate.json")

# published reference rows: N_s, A_wc, SIA, LCA, DA_pq, KRA_pq, lifetime
REFERENCE = {
    "a3":     (393.49, 129.81, 152.43, 209.87, 281.88, 540.18, 2655),
    "a6":     (417.75, 143.82, 128.65, 227.56, 156.63, 276.93, 973),
    "alpha3": (457.51, 161.14, 264.84, 259.39, 372.27, 719.39, 12002),
    "b3":     (581.18, 198.01, 203.19, 308.49, 372.06, 715.38, 5571),
    "b6":     (594.66, 229.87, 192.23, 348.86, 383.65, 732.48, 4851),
    "beta3":  (629.57, 300.30, 394.86, 386.01, 805.70, None, 34501),
    "c3":     (832.29, 260.20, 259.47, 433.79, 553.38, None, 8790),
    "c6":     (775.34, 354.73, 266.47, 474.62, 833.40, None, 14269),
    "gamma3": (925.90, 486.32, 517.65, 587.59, None, None, 107005),
}

REFERENCE_KIB = {
    "a3": (315.67, 3.55), "a6": (540.80, 6.52), "alpha3": (828.81, 9.32),
    "b3": (1364.28, 9.16), "b6": (3160.47, 27.98), "beta3": (3619.48, 35.15),
    "c3": (2818.20, 18.92), "c6": (11661.05, 89.02),
    "gamma3": (15590.80, 112.17),
}


def _emit(criterion: str, ok: bool, detail: str = ""):
    state = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {state} {detail}".rstrip())


@pytest.fixture(scope="module")
def material():
    """One keypair and 100 verified signatures per instance."""
    out = {}
    for name, prm in INSTANCES.items():
        seed = bytes((i * 7 + len(name)) % 256 for i in range(prm.seed_bytes))
        sk, pk = keypair_from_seed(seed, prm)
        rng = Xof(RNG_SEED + name.encode())
        sigs = []
        for i in range(100):
            msg = b"%s message %04d" % (name.encode(), i)
            sigs.append((msg, sign(sk, msg, rng=rng)))
        out[name] = (sk, pk, sigs)
    return out


@pytest.fixture(scope="module")
def reports():
    t0 = time.perf_counter()
    reps = {name: full_report(prm) for name, prm in INSTANCES.items()}
    return reps, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# criterion 1: scheme correctness


def test_criterion_1_round_trips(material):
    t0 = time.perf_counter()
    failures = 0
    for name, (sk, pk, sigs) in material.items():
        for msg, sig in sigs:
            if not verify(pk, msg, sig):
                failures += 1
    elapsed = time.perf_counter() - t0
    _emit("criterion-1a (900 round trips over 9 instances)", failures == 0,
          f"[{elapsed:.0f}s verification]")
    assert failures == 0


def test_criterion_1_corruptions(material):
    # 10^3 bit corruptions + 10^3 message corruptions, spread over the
    # category-1 a3 signatures (see ledger: running them on every instance
    # would exceed the stated total runtime target many times over)
    sk, pk, sigs = material["a3"]
    prm = pk.params
    rng = np.random.default_rng(0xACCE)
    accepted_bits = accepted_msgs = 0
    for trial in range(1000):
        msg, sig = sigs[trial % 100]
        pos = int(rng.integers(prm.n))
        flipped = set(sig.sigma.support) ^ {pos}
        bad = Signature(
            PackedVector.from_support(prm.n0, prm.p, sorted(flipped)),
            sig.theta_star)
        if verify(pk, msg, bad):
            accepted_bits += 1
    for trial in range(1000):
        msg, sig = sigs[trial % 100]
        data = bytearray(msg)
        data[int(rng.integers(len(data)))] ^= 1 << int(rng.integers(8))
        if verify(pk, bytes(data), sig):
            accepted_msgs += 1
    ok = accepted_bits == 0 and accepted_msgs == 0
    _emit("criterion-1b (2000 corruptions rejected)", ok,
          f"bit-flip accepts={accepted_bits} msg accepts={accepted_msgs}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 2: signature weight and density


def test_criterion_2_weight_and_density(material):
    worst = {}
    for name, (sk, pk, sigs) in material.items():
        prm = pk.params
        cap = 1 / 3 if name.endswith("3") else 1 / 6
        for _, sig in sigs:
            assert sig.sigma.weight <= prm.max_sig_weight
            density = sig.sigma.weight / prm.n
            worst[name] = max(worst.get(name, 0.0), density)
            assert density <= cap, (name, density, cap)
    detail = " ".join(f"{k}={v:.3f}" for k, v in worst.items())
    _emit("criterion-2 (weight bound and density caps)", True, detail)


# ---------------------------------------------------------------------------
# criterion 3: published work-factor table


def test_criterion_3_work_factors(reports):
    reps, elapsed = reports
    problems = []
    for name, rep in reps.items():
        ns, awc, sia, lca, da, kra, _ = REFERENCE[name]
        checks = [
            ("N_s", rep.n_s_log2, ns, 0.02),
            ("A_wc", rep.a_wc_log2, awc, 0.02),
            ("SIA", rep.wf_sia_log2, sia, 1.0),
            ("LCA", rep.wf_lca_log2, lca, 1.0),
        ]
        for label, got, ref, tol in checks:
            if abs(got - ref) > tol:
                problems.append(f"{name}.{label}={got:.2f} ref {ref}")
        for label, got, ref in (("DA_pq", rep.wf_da_quantum_log2, da),
                                ("KRA_pq", rep.wf_kra_quantum_log2, kra)):
            if ref is None:
                if got <= 1000.0:
                    problems.append(f"{name}.{label}={got:.2f} not >1000")
            elif abs(got - ref) > 3.0:
                problems.append(f"{name}.{label}={got:.2f} ref {ref}")
    ok = not problems and elapsed < 300
    _emit("criterion-3a (work-factor columns, nine instances)", ok,
          f"[{elapsed:.0f}s]" + (" " + "; ".join(problems) if problems else ""))
    assert elapsed < 300, "nine reports must finish inside five minutes"
    assert not problems, problems


def test_criterion_3_rows_pinned(reports):
    reps, _ = reports
    with open(EXPECTED_ROWS) as fh:
        expected = json.load(fh)
    rows = [rep.to_dict() for rep in reps.values()]
    for row, want in zip(rows, expected):
        assert row == want, row["instance"]
    assert len(rows) == len(expected)


@pytest.mark.parametrize("name", list(INSTANCES))
def test_criterion_3_lifetime(reports, name):
    reps, _ = reports
    ref = REFERENCE[name][6]
    got = reps[name].lifetime_qc
    ok = abs(got - ref) <= 0.05 * ref
    _emit(f"criterion-3b (lifetime {name})", ok, f"got {got} ref {ref}")
    assert ok, (
        f"{name}: lifetime {got} vs published {ref} "
        "(gamma3 is a known, documented deviation: the printed model "
        "reproduces seven instances integer-exactly and beta3 within one, "
        "and was verified at 40-digit precision; see docs/decisions.md)")


# ---------------------------------------------------------------------------
# criterion 4: classical columns reported as approximations


def test_criterion_4_classical_columns(reports):
    reps, _ = reports
    ok = True
    for name, rep in reps.items():
        lam = INSTANCES[name].security_level
        if not rep.classical_is_approximate:
            ok = False
        if rep.wf_da_classical_approx_log2 < lam:
            ok = False
        if rep.wf_kra_classical_approx_log2 < lam:
            ok = False
    _emit("criterion-4 (classical approximations flagged, above category)",
          ok)
    assert ok


def test_grover_forgery_margin_only_on_greek_instances(reports):
    # granting SIA and LCA a full Grover square root, only the Greek-letter
    # instances stay above lambda (demos/security_report.py says so)
    reps, _ = reports
    assert ({name for name, rep in reps.items() if rep.passes_grover_forgery}
            == {"alpha3", "beta3", "gamma3"})
    half_sia = {name: round(rep.wf_sia_log2 / 2, 2)
                for name, rep in reps.items()}
    assert [half_sia[n] for n in ("alpha3", "beta3", "gamma3", "a3")] == [
        132.42, 197.43, 258.83, 76.21]


# ---------------------------------------------------------------------------
# criterion 5: serialization sizes


def test_criterion_5_sizes(material):
    prm = get_instance("a3")
    sk, pk, sigs = material["a3"]
    assert public_key_bytes(prm) == 323_248
    assert signature_bytes(prm) == 3_640
    assert private_key_at_rest_bytes(prm) == 56
    assert len(encode_public_key(pk)) == 323_248 + 6
    assert len(encode_signature(sigs[0][1], prm)) == 3_640 + 6
    assert len(encode_private_key_at_rest(sk)) == 56 + 6
    worst = 0.0
    for name, p in INSTANCES.items():
        ref_pk, ref_sig = REFERENCE_KIB[name]
        for got, ref in ((public_key_bytes(p) / 1024, ref_pk),
                         (signature_bytes(p) / 1024, ref_sig)):
            worst = max(worst, abs(got - ref) / ref)
    ok = worst <= 0.002
    _emit("criterion-5 (wire sizes)", ok,
          f"category-1 exact; worst relative delta {worst * 100:.4f}%")
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: oracle equivalence at small scale


def _enum_dist(n, weights, op):
    counts, total = {}, 0
    pools = [list(itertools.combinations(range(n), w)) for w in weights]
    for combo in itertools.product(*pools):
        acc = None
        for sup in combo:
            v = sum(1 << i for i in sup)
            acc = v if acc is None else op(acc, v)
        counts[acc.bit_count()] = counts.get(acc.bit_count(), 0) + 1
        total += 1
    return {k: Fraction(v, total) for k, v in counts.items()}


def test_criterion_6_oracles():
    # probability machinery vs exhaustive enumeration
    for n, weights in ((10, (3, 3, 3)), (12, (4, 5))):
        for dist, op in ((xor_weight_dist(n, list(weights)),
                          lambda a, b: a ^ b),
                         (and_weight_dist(n, list(weights)),
                          lambda a, b: a & b)):
            exact = _enum_dist(n, weights, op)
            for y in range(len(dist)):
                got = 2.0 ** dist[y] if dist[y] != -math.inf else 0.0
                assert abs(got - float(exact.get(y, 0))) < 1e-12

    # quasi-cyclic products vs dense expansion at p = 13
    import random
    rnd = random.Random(99)
    p = 13
    a = QcMatrix.from_blocks(
        [[rnd.getrandbits(p) for _ in range(3)] for _ in range(2)], p)
    b = QcMatrix.from_blocks(
        [[rnd.getrandbits(p) for _ in range(2)] for _ in range(3)], p)
    assert qc_mul(a, b).to_dense_rows() == dense_mul(
        a.to_dense_rows(), b.to_dense_rows(), 2 * p)
    sup = tuple(sorted(rnd.sample(range(3 * p), 11)))
    v = SparseVector(3 * p, sup)
    assert qc_vec_mul(a, v).to_int() == dense_vec_mul(
        a.to_dense_rows(), v.to_int())

    # scrambler inverses by dense expansion at toy scale
    prm = toy_params("acc6", n0=13, r0=5, p=3, z=2, m_S=3, w=1, w_g=3, m_g=1)
    xof = Xof(b"c6")
    sk = PrivateKey(params=prm, seed=b"", v=gen_v(prm, xof),
                    s=gen_s(prm, xof), q=gen_q(prm, xof))
    n = prm.n
    assert dense_mul(s_dense(sk), s_inv_dense(sk), n) == dense_eye(n)
    assert dense_mul(q_dense(sk), q_inv_dense(sk), prm.r) == dense_eye(prm.r)

    # kernel condition vs the dense product, exhaustively at r = 15
    r0, p, z = 3, 5, 2
    bmat = np.array([[0, 1], [1, 1], [1, 0]], dtype=np.uint8)
    cols = [sum(int(bmat[j, i]) << j for j in range(r0)) for i in range(z)]
    dense_rows = []
    for i in range(z):
        row = 0
        for j in range(r0):
            if (cols[i] >> j) & 1:
                row |= ((1 << p) - 1) << (j * p)
        dense_rows.append(row)
    for v in range(1 << (r0 * p)):
        expected = all((row & v).bit_count() % 2 == 0 for row in dense_rows)
        got = kernel_check(bmat, sparse_from_int(v, r0 * p), p)
        assert got == expected
    _emit("criterion-6 (oracle equivalence)", True)


# ---------------------------------------------------------------------------
# criterion 7: statistical model validation


def test_criterion_7_bit_probability_model():
    prm = toy_params("toy29w")
    sk, pk = keypair_from_seed(b"\x05" * 32, prm)
    rho_model = signature_bit_probability(prm)
    rng = Xof(RNG_SEED + b"c7")
    trials = 100_000
    total_weight = 0
    for i in range(trials):
        sig = sign(sk, i.to_bytes(4, "little"), rng=rng)
        total_weight += sig.sigma.weight
    rho_hat = total_weight / (trials * prm.n)
    sigma = math.sqrt(rho_model * (1 - rho_model) / trials)
    ok = abs(rho_hat - rho_model) <= 3 * sigma
    _emit("criterion-7a (signature bit probability vs model)", ok,
          f"measured {rho_hat:.6f} model {rho_model:.6f} "
          f"band +/-{3 * sigma:.6f}")
    assert ok


def test_criterion_7_kernel_fraction(material):
    sk, pk, _ = material["a3"]
    prm = pk.params
    rng = np.random.default_rng(0xC7)
    trials = 20_000
    passes = 0
    for _ in range(trials):
        s = cw_encode(rng.bytes(32), prm.r, prm.w)
        if kernel_check(sk.q.b, s, prm.p):
            passes += 1
    frac = passes / trials
    expected = 2.0 ** -prm.z
    sigma = math.sqrt(expected * (1 - expected) / trials)
    ok = abs(frac - expected) <= 3 * sigma
    _emit("criterion-7b (kernel fraction vs 2^-z)", ok,
          f"measured {frac:.4f} expected {expected:.4f} "
          f"band +/-{3 * sigma:.4f}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: soft timing targets (reported, non-blocking)


def test_criterion_8_soft_timing(material):
    prm = get_instance("a3")
    seed = bytes(prm.seed_bytes)
    t0 = time.perf_counter()
    sk, pk = keypair_from_seed(seed, prm)
    keygen_s = time.perf_counter() - t0
    msg = b"timing message"
    sig = sign(sk, msg)
    verify(pk, msg, sig)    # warm the packed cache
    t0 = time.perf_counter()
    for _ in range(10):
        sig = sign(sk, msg)
    sign_ms = (time.perf_counter() - t0) / 10 * 1000
    t0 = time.perf_counter()
    for _ in range(10):
        verify(pk, msg, sig)
    verify_ms = (time.perf_counter() - t0) / 10 * 1000
    ok = sign_ms < 10 and verify_ms < 500 and keygen_s < 2
    _emit("criterion-8 (soft timing, non-blocking)", ok,
          f"keygen {keygen_s * 1000:.0f}ms sign {sign_ms:.1f}ms "
          f"verify {verify_ms:.1f}ms")
