"""scipy loads only where corruptions are made: importing the package and
its layers leaves it out of the process."""

import os
import subprocess
import sys
from pathlib import Path

import repro

SNIPPET = """
import sys

def scipy_modules():
    return [m for m in sys.modules if m.split(".")[0] == "scipy"]

import repro, repro.experiments, repro.serve, repro.analysis
assert not scipy_modules(), scipy_modules()[:5]

import numpy as np
from repro.data.corruptions import corrupt
corrupt(np.full((2, 3, 8, 8), 0.5, dtype=np.float32), "jpeg")
corrupt(np.full((2, 3, 8, 8), 0.5, dtype=np.float32), "defocus_blur")
assert "scipy.fft" in sys.modules and "scipy.ndimage" in sys.modules
"""


def test_scipy_loads_only_with_a_corruption():
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", SNIPPET], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
