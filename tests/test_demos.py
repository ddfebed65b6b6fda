"""Every walkthrough in demos/ and the README's library quick start run to
completion against the package sources."""

import glob
import os
import re
import subprocess
import sys

import pytest

from sstc.store import read_model

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def _run(args, cwd):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("script", DEMOS, ids=os.path.basename)
def test_demo_exits_cleanly(script):
    _run([script], ROOT)


def test_readme_library_quick_start_runs(tmp_path):
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    block = re.search(r"## Library quick start\n+```python\n(.*?)```", readme, re.S)
    assert block, "README has no library quick start block"
    proc = _run(["-c", block.group(1)], tmp_path)
    assert proc.stdout.startswith("val MCR %:")
    model = read_model(tmp_path / "model.sstw")
    assert [str(layer.format) for layer in model.layers] == [
        "sst(8,1)/column", "sst(8,1)/column", "ternary2bit"]
