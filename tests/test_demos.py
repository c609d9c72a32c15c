"""Each demo prints exactly the output committed under ``data/demos``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_snapshot():
    snapshots = sorted((ROOT / "tests" / "data" / "demos").glob("*.txt"))
    assert [p.stem for p in snapshots] == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_is_unchanged(demo):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
    )
    assert proc.returncode == 0, proc.stderr.decode()
    expected = (ROOT / "tests" / "data" / "demos" / (demo.stem + ".txt")).read_bytes()
    assert proc.stdout == expected
