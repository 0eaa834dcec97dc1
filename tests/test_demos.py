"""Every demo prints exactly what it printed when its digest was recorded."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stopset

DEMOS = Path(__file__).resolve().parents[1] / "demos"
# sha256 of each demo's stdout
DEMO_DIGESTS = {
    "01_fields_and_curves.py": "58b56bf7700dd95588a0925f8e2efe87ea12dae4348950865754de3cd573a8c6",
    "02_stopping_census.py": "c02e80ef9177be4f009330668ba5280c1ff4e8555b6d2f88861a84b5a2aa6d04",
    "03_subset_sum_counting.py": "fe5bd839b41a1376ff6c10421ae268dcdea20b9aa16df6065e7a142540cfd617",
    "04_mds_reference.py": "4062d2f60eefd7993834608eecbf7cced506795fdacbd39ad5673f08b0133967",
    "05_peeling_decoder.py": "78156525cffbe620319e3006b162c0103625d31dd3193335294872e82d0e7236",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_stdout(name):
    # run the demos against the stopset package these tests import
    env = dict(os.environ, PYTHONPATH=str(Path(stopset.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DEMO_DIGESTS[name]
