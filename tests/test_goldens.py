"""The extension studies' smoke grids reproduce their golden files.

``python -m repro {faults,online,service} --smoke --no-cache --quiet
--out F`` must write ``GOLDEN_<study>.json`` byte for byte: arrivals,
placements, fault and flap schedules, reroutes and estimator refits
are pure functions of the seed.  CI's smoke jobs diff the same files.
"""

from pathlib import Path

import pytest

from repro.__main__ import main

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("study", ["faults", "online", "service"])
def test_smoke_reproduces_golden(study, tmp_path, capsys):
    out = tmp_path / f"{study}.json"
    assert main([
        study, "--smoke", "--no-cache", "--quiet", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (ROOT / f"GOLDEN_{study}.json").read_bytes()
