"""Every narrative script in demos/ runs to completion without stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("demo_*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_clean(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    run = subprocess.run([sys.executable, str(script)], capture_output=True,
                         text=True, env=env, cwd=str(REPO))
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
