"""Known answers of the security estimator: every full_report field of the
nine instances and the two report toys, floats pinned as float.hex.

The pinned floats come from math.lgamma, libm's log2 and expm1 and numpy's
ufuncs, so they hold for the libm and numpy the file was written with (its
"written_with" entry); on another platform a last-bit difference shows here
first. A change meant to move a reported float rewrites the file with

    PYTHONPATH=src python tests/test_estimator_kat.py

and says why. The eleven reports take about 0.5 s.
"""

import dataclasses
import json
import os
import platform

import numpy as np
import pytest

from helpers import REPORT_PARAMS
from ledasig.estimator import full_report

KAT_PATH = os.path.join(os.path.dirname(__file__), "estimator_kat.json")


def pinned(value):
    """A report as JSON: floats as float.hex, dataclasses as dicts."""
    if dataclasses.is_dataclass(value):
        return {f.name: pinned(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, float):
        return value.hex()
    assert isinstance(value, (int, str)), value
    return value


def _load() -> dict:
    with open(KAT_PATH) as fh:
        return json.load(fh)["reports"]


@pytest.mark.parametrize("prm", REPORT_PARAMS, ids=lambda prm: prm.name)
def test_full_report_matches_known_answer(prm):
    want = _load()[prm.name]
    got = pinned(full_report(prm))
    assert got.keys() == want.keys()
    assert {k: v for k, v in got.items() if v != want[k]} == {}


def test_known_answers_cover_every_report_shape():
    assert sorted(_load()) == sorted(prm.name for prm in REPORT_PARAMS)


if __name__ == "__main__":
    with open(KAT_PATH, "w") as fh:
        json.dump({"written_with": {"python": platform.python_version(),
                                    "numpy": np.__version__,
                                    "machine": platform.machine()},
                   "reports": {prm.name: pinned(full_report(prm))
                               for prm in REPORT_PARAMS}},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
