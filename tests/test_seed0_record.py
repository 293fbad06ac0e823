"""The seed-0 record: ``tools/seed0_outputs.py --check`` as a test, so that every moved output byte
of the CLI is seen, not only the ones the acceptance bands look at."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "seed0_outputs.py"


def test_seed0_outputs_match_the_record():
    # Exit 2 is "not comparable": the record was taken with another Python, numpy, scipy,
    # OpenBLAS or CPU, whose floats may differ in the last bits.
    proc = subprocess.run([sys.executable, str(TOOL), "--check"], capture_output=True, text=True)
    if proc.returncode == 2:
        pytest.skip(proc.stdout.strip())
    assert proc.returncode == 0, f"seed-0 outputs moved (exit {proc.returncode}):\n{proc.stdout}{proc.stderr}"
