"""The quick demos run to completion as scripts.

demos/05 trains a model for over a minute, so it is left out here.
"""

import os
import subprocess
import sys

import pytest

import hierex

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = ["01_rng_and_linalg.py", "02_gru_gradients.py", "03_crf_decoding.py",
         "04_synthetic_corpus.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo):
    src = os.path.dirname(os.path.dirname(os.path.abspath(hierex.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
