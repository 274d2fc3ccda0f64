"""Smoke test: every demo script and README Python block runs to
completion."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

import permcsp

ROOT = pathlib.Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (ROOT / "README.md").read_text(), re.M | re.S)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # The demos import permcsp; hand them the copy this suite imports.
    src = str(pathlib.Path(permcsp.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_has_two_python_blocks():
    assert len(README_BLOCKS) == 2


@pytest.mark.parametrize("block", README_BLOCKS, ids=[
    "block%d" % k for k in range(1, len(README_BLOCKS) + 1)])
def test_readme_python_block_runs(block):
    exec(compile(block, "README.md", "exec"), {})
