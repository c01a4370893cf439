import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "demo", ["awgn_demo", "beamforming_demo", "quantization_demo", "volume_demo"]
)
def test_demo_runs_and_prints(demo):
    path = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", f"{demo}.py")],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
