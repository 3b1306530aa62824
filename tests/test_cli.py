import json
import os
import resource
import subprocess
import sys

import pytest

import ledasig
from ledasig import encode_private_key_expanded
from ledasig.cli import main
from ledasig.codec import expand_private_key_only

SEED_HEX = "00112233445566778899aabbccddeeff" * 2


@pytest.fixture(scope="module")
def keyfiles(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    prefix = str(d / "key")
    rc = main(["keygen", "--instance", "a3", "--seed-hex", SEED_HEX,
               "--out-prefix", prefix])
    assert rc == 0
    msg = d / "msg.bin"
    msg.write_bytes(b"the quick brown fox")
    sig = d / "msg.sig"
    rc = main(["sign", "--sk", prefix + ".sk", "--message-file", str(msg),
               "--out", str(sig)])
    assert rc == 0
    return d, prefix, msg, sig


def test_cli_import_loads_neither_estimator_nor_scipy():
    # keygen, sign and verify start without paying for scipy's import
    code = ("import sys, ledasig.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m == 'ledasig.estimator'))")
    src = os.path.dirname(os.path.dirname(ledasig.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_keygen_file_sizes(keyfiles):
    d, prefix, _, _ = keyfiles
    assert (d / "key.pk").stat().st_size == 323_254   # 323248 + 6 header
    assert (d / "key.sk").stat().st_size == 62        # 56 + 6 header


def test_keygen_deterministic(keyfiles, tmp_path):
    d, prefix, _, _ = keyfiles
    other = str(tmp_path / "again")
    assert main(["keygen", "--instance", "a3", "--seed-hex", SEED_HEX,
                 "--out-prefix", other]) == 0
    assert (d / "key.pk").read_bytes() == (
        tmp_path / "again.pk").read_bytes()


def test_keygen_seed_env(tmp_path, monkeypatch):
    monkeypatch.setenv("LEDASIG_SEED", SEED_HEX)
    assert main(["keygen", "--instance", "a3",
                 "--out-prefix", str(tmp_path / "envkey")]) == 0


def test_keygen_missing_seed(tmp_path, monkeypatch):
    monkeypatch.delenv("LEDASIG_SEED", raising=False)
    rc = main(["keygen", "--instance", "a3",
               "--out-prefix", str(tmp_path / "x")])
    assert rc == 2


def test_verify_roundtrip(keyfiles, capsys):
    _, prefix, msg, sig = keyfiles
    rc = main(["verify", "--pk", prefix + ".pk", "--message-file", str(msg),
               "--sig", str(sig)])
    assert rc == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "ACCEPT"


def test_verify_corrupted_message(keyfiles, tmp_path, capsys):
    _, prefix, msg, sig = keyfiles
    bad = tmp_path / "bad.bin"
    data = bytearray(msg.read_bytes())
    data[0] ^= 0x01
    bad.write_bytes(bytes(data))
    rc = main(["verify", "--pk", prefix + ".pk", "--message-file", str(bad),
               "--sig", str(sig)])
    assert rc == 1
    assert capsys.readouterr().out.strip().splitlines()[-1] == "REJECT"


def test_verify_truncated_signature(keyfiles, tmp_path):
    _, prefix, msg, sig = keyfiles
    trunc = tmp_path / "trunc.sig"
    trunc.write_bytes(sig.read_bytes()[:-3])
    rc = main(["verify", "--pk", prefix + ".pk", "--message-file", str(msg),
               "--sig", str(trunc)])
    assert rc == 4


def test_sign_with_expanded_key_file(keyfiles, tmp_path, capsys):
    # sign reads either private-key encoding; the codec tells them apart
    _, prefix, msg, _ = keyfiles
    with open(prefix + ".sk", "rb") as fh:
        sk = expand_private_key_only(fh.read())
    expanded, sig = tmp_path / "key.skx", tmp_path / "msg.sig"
    expanded.write_bytes(encode_private_key_expanded(sk))
    assert main(["sign", "--sk", str(expanded), "--message-file", str(msg),
                 "--out", str(sig)]) == 0
    assert main(["verify", "--pk", prefix + ".pk", "--message-file",
                 str(msg), "--sig", str(sig)]) == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "ACCEPT"


def test_verify_missing_file(keyfiles):
    _, prefix, msg, sig = keyfiles
    rc = main(["verify", "--pk", prefix + ".pk", "--message-file",
               "/nonexistent/path", "--sig", str(sig)])
    assert rc == 3


def test_estimate_single_instance(capsys):
    assert main(["estimate", "--instance", "a3", "--jsonl"]) == 0
    row = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert abs(row["log2_n_s"] - 393.49) <= 0.02
    assert abs(row["log2_a_wc"] - 129.81) <= 0.02
    assert abs(row["wf_sia"] - 152.43) <= 1.0
    assert abs(row["wf_lca"] - 209.87) <= 1.0
    assert abs(row["wf_da_pq"] - 281.88) <= 3.0
    assert abs(row["lifetime_qc"] - 2655) <= 0.05 * 2655
    assert row["pass"] is True


def test_estimate_custom_params_echo(capsys):
    rc = main(["estimate", "--params",
               "n0=29,r0=13,p=13,z=2,m_S=3,w=3,w_g=7,m_g=2",
               "--lambda", "128"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "n=377 k=208 r=169" in out
    assert "FAIL" in out


@pytest.mark.parametrize("extra", [
    "foo=1", "m_T=4", "category=2", "n0=0", "r0=0", "p=0", "z=0",
    "m_S=-1", "w=0", "w_g=0", "m_g=0", "w=500", "m_g=9999", "z=13", "z=5",
    "m_S=31", "m_S=29"])
def test_estimate_bad_custom_params_are_usage_errors(capsys, extra):
    # an unknown key, a category outside {1, 3, 5}, a count below 1, w above
    # r, m_g above k, z at r0, z above w (no SIA w_L range) or m_S at or
    # above n0 (no key) is a bad argument, and the error names it
    rc = main(["estimate", "--params",
               "n0=29,r0=13,p=13,z=2,m_S=3,w=3,w_g=7,m_g=2," + extra])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert extra.partition("=")[0] in err


def test_estimate_jsonl_when_lca_is_weakest(capsys):
    # toy29w: LCA has the smallest work factor, so "pass" comes from it
    rc = main(["estimate", "--params",
               "n0=29,r0=13,p=31,z=2,m_S=3,w=2,w_g=5,m_g=1", "--jsonl"])
    assert rc == 0
    row = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert row["wf_lca"] < min(row["wf_sia"], row["wf_da_pq"],
                               row["wf_kra_pq"])
    assert row["pass"] is False


def test_estimate_target_beyond_unique_decoding_radius(capsys):
    # w_g = 3, m_S = 3: the radius is 4, below the target weight m_S*w = 6
    rc = main(["estimate", "--params",
               "n0=29,r0=13,p=31,z=2,m_S=3,w=2,w_g=3,m_g=1"])
    assert rc == 2
    assert "unique-decoding radius" in capsys.readouterr().err


def test_estimate_requires_target():
    assert main(["estimate"]) == 2


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("args, field", [
    (["--instance", "a6", "--lambda", "-1"], "lambda"),
    (["--instance", "a6", "--lambda", "0"], "lambda"),
    (["--instance", "a6", "--lambda", "nan"], "lambda"),
    (["--instance", "a6", "--lambda", "inf"], "lambda"),
    (["--params", "n0=5,r0=2,p=7,z=1,m_S=1,w=1,w_g=3,m_g=1"], "m_S")],
    ids=["lambda=-1", "lambda=0", "lambda=nan", "lambda=inf", "m_S=1"])
def test_estimate_unbracketable_lifetime_is_usage_error(args, field):
    # a lambda that is not positive and finite, or m_S = 1 (no pair in a
    # scrambler column), gives a lifetime scan that never brackets and
    # doubles N until memory runs out; it is refused before any scan, so
    # a 1 GiB address-space cap is never reached
    src = os.path.dirname(os.path.dirname(ledasig.__file__))
    out = subprocess.run([sys.executable, "-m", "ledasig", "estimate", *args],
                         capture_output=True, text=True, timeout=60,
                         preexec_fn=_cap_address_space,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 2, out.stderr[-2000:]
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert field in out.stderr
