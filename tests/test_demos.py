"""Every script in demos/ runs to completion against the package."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
SRC = os.path.abspath(os.path.join(ROOT, "src"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_exits_zero(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, path], capture_output=True,
                            text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
