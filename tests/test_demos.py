"""Smoke test: every script under demos/ and the README's usage snippet
run cleanly, and the demos report no negative verdict."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
NEGATIVE = re.compile(r"\b(NO|INVALID|FAIL)\b")


def _run(args):
    """Run ``python *args`` from the repo root with ``src`` on the path."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_clean(demo):
    proc = _run([str(demo)])
    assert proc.returncode == 0, proc.stderr
    assert not NEGATIVE.search(proc.stdout), proc.stdout


def test_readme_snippet_runs():
    """The README's one Python block runs as written."""
    snippets = re.findall(r"^```python\n(.*?)^```$",
                          (ROOT / "README.md").read_text(), re.S | re.M)
    assert len(snippets) == 1
    proc = _run(["-c", snippets[0]])
    assert proc.returncode == 0, proc.stderr
