"""The demos run end to end against the package sources."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EXPECTED = {
    "sign_and_verify.py": [
        "verify(honest)          -> True",
        "verify(tampered message)-> False",
        "verify(flipped bit)     -> False",
        "verify(tampered salt)   -> False",
    ],
    "wire_formats.py": [
        "re-expansion reproduces the keypair bit for bit: True",
    ],
    "key_lifetime.py": [
        "lifetime with the quasi-cyclic speedup: 2,655 signatures",
    ],
}


@pytest.mark.parametrize("demo", list(EXPECTED))
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    for want in EXPECTED[demo]:
        assert any(line.startswith(want) for line in lines), want
