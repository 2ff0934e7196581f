import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = Path(__file__).resolve().parent / "data" / "demos"


def test_demos_found():
    assert DEMOS
    assert sorted(p.stem for p in EXPECTED.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    """Each demo exits 0 and prints, byte for byte, its committed output
    in tests/data/demos/<name>.txt."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:].decode(errors="replace")
    assert done.stdout == (EXPECTED / f"{demo.stem}.txt").read_bytes()
