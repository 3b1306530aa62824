import json

import pytest

from ledasig.cli import main

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


@pytest.mark.parametrize("extra", ["foo=1", "m_T=4", "category=2"])
def test_estimate_bad_custom_params_are_usage_errors(capsys, extra):
    # an unknown key or a category outside {1, 3, 5} is a bad argument
    rc = main(["estimate", "--params",
               "n0=29,r0=13,p=13,z=2,m_S=3,w=3,w_g=7,m_g=2," + extra])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_estimate_requires_target():
    assert main(["estimate"]) == 2
