"""Every script under examples/ runs to completion.

``serving_demo.py`` takes arguments and has its own checks in
``tests/serving/test_example_smoke.py``; the rest run as shipped.
"""

import pathlib
import subprocess
import sys

import pytest

_REPO = pathlib.Path(__file__).resolve().parents[1]
_EXAMPLES = sorted(
    p for p in (_REPO / "examples").glob("*.py") if p.name != "serving_demo.py"
)


@pytest.mark.parametrize("script", _EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script):
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
        env={"PYTHONPATH": str(_REPO / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
